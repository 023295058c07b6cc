package analyze

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// PhaseSink feeds the citroen_phase_seconds{phase=...} series from the same
// timeline the offline report books on, so Prometheus and `citroenstat
// report` can never disagree about phase accounting. The series accumulate
// CPU seconds per phase, exactly the report's CPUNS column: the sum of event
// wall times (with parallel compile workers this exceeds wall-clock), and
// for acquisition its booked elapsed time.
//
// Multiplex it onto a run with obs.Multi:
//
//	opts.Sink = obs.Multi(journal, analyze.NewPhaseSink(metrics))
type PhaseSink struct {
	mu     sync.Mutex
	tl     timeline
	gauges map[Phase]*obs.Gauge
}

// NewPhaseSink resolves the per-phase gauges in m (nil m yields live but
// unregistered instruments, like every obs.Metrics lookup).
func NewPhaseSink(m *obs.Metrics) *PhaseSink {
	s := &PhaseSink{gauges: make(map[Phase]*obs.Gauge, len(Phases))}
	for _, p := range Phases {
		if p == PhaseOther {
			continue // "other" is defined by subtraction; it has no events
		}
		s.gauges[p] = m.Gauge(`citroen_phase_seconds{phase="` + string(p) + `"}`)
	}
	return s
}

// Emit implements obs.Sink.
func (s *PhaseSink) Emit(e *obs.Event) {
	s.mu.Lock()
	p := s.tl.feed(e)
	s.mu.Unlock()
	if p.phase == "" || p.cpuNS == 0 {
		return
	}
	s.gauges[p.phase].Add(time.Duration(p.cpuNS).Seconds())
}
