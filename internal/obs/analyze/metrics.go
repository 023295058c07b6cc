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
	gpAppends    *obs.Counter            // Report.GPAppends
	dups         *obs.Counter            // Report.CandidateDups
	incidents    map[string]*obs.Counter // Report.FleetIncidents, by kind
	incumbent    *obs.Gauge
}

// NewMetricsSink returns an Analyzer that books the run's counts into m
// while it feeds: citroen_phase_seconds{phase} (CPU seconds, the report's
// CPUNS column), the measurement, saved-measurement, compilation, GP-append
// and candidate-dup counters, the incumbent gauge and the fleet incident
// counters (a nil m yields unregistered instruments, like every obs.Metrics
// lookup). Attach it to a run beside the journal:
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
		gpAppends:    m.Counter("citroen_gp_append_total"),
		dups:         m.Counter("citroen_candidate_dups_total"),
		incidents: map[string]*obs.Counter{
			"retry":          m.Counter("citroen_fleet_batch_retries_total"),
			"local-fallback": m.Counter("citroen_fleet_local_fallbacks_total"),
			"quarantine":     m.Counter("citroen_fleet_quarantines_total"),
		},
		incumbent: m.Gauge("citroen_incumbent_speedup"),
	}
	for _, p := range Phases {
		if p != PhaseOther { // "other" is defined by subtraction; it has no events
			s.phase[p] = m.Gauge(`citroen_phase_seconds{phase="` + string(p) + `"}`)
		}
	}
	return &Analyzer{counters: map[string]obs.CounterRow{}, series: s}
}
