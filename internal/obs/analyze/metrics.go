package analyze

import "repro/internal/obs"

// series are the /metrics instruments an Analyzer books its counts into as
// it feeds. Each moves in the Feed branch that moves its Report field, by
// the same step, so a series and `citroenstat report -json` of the run's
// journal read the same number. Counters and phase gauges only accumulate,
// so one registry can take the sinks of many runs (serve's jobs, an
// experiment's runs) and sum them; the incumbent gauge holds the value the
// latest new-incumbent or resume event reported.
type series struct {
	phase        map[Phase]*obs.Gauge    // citroen_phase_seconds, Report's CPUNS
	measurements *obs.Counter            // Report.Measurements
	saved        *obs.Counter            // Report.ReusedMeasurements
	compiles     *obs.Counter            // Report.CandidateCompiles
	dups         *obs.Counter            // Report.CandidateDups
	incidents    map[string]*obs.Counter // Report.FleetIncidents, by kind
	incumbent    *obs.Gauge

	// m registers the counter rows of stats events (Report.Counters), each
	// resolved on its first appearance; nil books no row.
	m    *obs.Metrics
	rows map[string]*rowMetric // by journal key
}

// rowMetric is the instrument of one counter row. The series name is the
// row's journal key: a canonical row X is the counter citroen_X_total, which
// advances by the row's change since the run's previous stats event, so the
// sinks of many runs sharing a registry sum their work; an Env row env_X is
// the gauge citroen_env_X, set to the latest value (the process-global rows
// would be counted once per run otherwise).
type rowMetric struct {
	counter *obs.Counter
	gauge   *obs.Gauge
	prev    int64 // the canonical row's value at the run's previous stats event
}

// row books the journal key's value from a stats event.
func (s *series) row(key string, env bool, v int64) {
	if s.m == nil {
		return
	}
	r := s.rows[key]
	if r == nil {
		r = &rowMetric{}
		if env {
			r.gauge = s.m.Gauge("citroen_" + key)
		} else {
			r.counter = s.m.Counter("citroen_" + key + "_total")
		}
		s.rows[key] = r
	}
	if env {
		r.gauge.Set(float64(v))
		return
	}
	r.counter.Add(v - r.prev)
	r.prev = v
}

// newRun restarts the canonical rows' deltas: a run's counters start at zero
// in its own process, a resumed run's too.
func (s *series) newRun() {
	for _, r := range s.rows {
		r.prev = 0
	}
}

// NewMetricsSink returns an Analyzer that books the run's counts into m
// while it feeds: citroen_phase_seconds{phase} (CPU seconds, the report's
// CPUNS column), the measurement, saved-measurement, compilation and
// candidate-dup counters, the incumbent gauge, the fleet incident counters,
// and every counter row of the stats events under the name its journal key
// gives it (rowMetric). It is the only writer of a counter row to a
// registry. A nil m yields unregistered instruments, like every obs.Metrics
// lookup, and books no row. Attach it to a run beside the journal:
//
//	opts.Sink = obs.Multi(journal, analyze.NewMetricsSink(metrics))
//
// Like every Analyzer it takes events from one goroutine at a time, which a
// Recorder guarantees; give each run its own sink.
func NewMetricsSink(m *obs.Metrics) *Analyzer {
	s := &series{
		phase:        make(map[Phase]*obs.Gauge, len(Phases)),
		measurements: m.Counter("citroen_measurements_total"),
		saved:        m.Counter("citroen_saved_measurements_total"),
		compiles:     m.Counter("citroen_compilations_total"),
		dups:         m.Counter("citroen_candidate_dups_total"),
		incidents: map[string]*obs.Counter{
			"retry":          m.Counter("citroen_fleet_batch_retries_total"),
			"local-fallback": m.Counter("citroen_fleet_local_fallbacks_total"),
			"quarantine":     m.Counter("citroen_fleet_quarantines_total"),
		},
		incumbent: m.Gauge("citroen_incumbent_speedup"),
		m:         m,
		rows:      map[string]*rowMetric{},
	}
	for _, p := range Phases {
		if p != PhaseOther { // "other" is defined by subtraction; it has no events
			s.phase[p] = m.Gauge(`citroen_phase_seconds{phase="` + string(p) + `"}`)
		}
	}
	return &Analyzer{counters: map[string]obs.CounterRow{}, series: s}
}
