package analyze

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// One counter path: a row a Task reports — names no production code knows —
// must reach every view of a run by travelling the set, /metrics included
// under the name its journal key gives it, and an Env row must not survive
// canonicalisation.
func TestCounterReachesEveryView(t *testing.T) {
	const canon, env = "zz_made_up", "zz_made_up_pool"
	ev, err := bench.NewEvaluator(bench.ByName("automotive_bitcount"), bench.ARM(), 1)
	if err != nil {
		t.Fatal(err)
	}
	task := ev.Task().(*core.BenchTask)
	var calls int64
	task.CountersFn = func() obs.CounterSet {
		calls++
		return obs.CounterSet{{Name: canon, Value: 1000 + calls}, {Name: env, Value: 7, Env: true}}
	}
	mem := &obs.MemorySink{}
	met := obs.NewMetrics()
	opts := core.DefaultOptions()
	opts.Budget, opts.Lambda, opts.InitRandom, opts.Workers = 4, 4, 2, 1
	opts.GPOpts.AdamSteps = 10
	opts.Sink = obs.Multi(mem, NewMetricsSink(met))
	res, err := core.NewTuner(task, opts, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	events := mem.Events()
	final := 1000 + calls // the last read is finalize's

	last := func(evs []obs.Event, typ string) map[string]any {
		for i := len(evs) - 1; i >= 0; i-- {
			if evs[i].Type == typ {
				return evs[i].Fields
			}
		}
		t.Fatalf("journal has no %s event", typ)
		return nil
	}
	field := func(f map[string]any, key string) (int64, bool) {
		v, ok := f[key].(int64)
		return v, ok
	}
	report := Analyze(events)
	var text bytes.Buffer
	WriteReport(&text, report)
	views := []struct {
		name      string
		canonical func() (int64, bool)
		env       func() (int64, bool)
		lag       int64 // reads of CountersFn after this view's
	}{
		{"stats event",
			func() (int64, bool) { return field(last(events, "stats"), canon) },
			func() (int64, bool) { return field(last(events, "stats"), "env_"+env) }, 1},
		{"run-end summary",
			func() (int64, bool) { return field(last(events, "run-end"), canon) },
			func() (int64, bool) { return field(last(events, "run-end"), "env_"+env) }, 0},
		{"Result.Breakdown.Counters",
			func() (int64, bool) { c, ok := row(res.Breakdown.Counters, canon); return c.Value, ok && !c.Env },
			func() (int64, bool) { c, ok := row(res.Breakdown.Counters, env); return c.Value, ok && c.Env }, 0},
		{"analyze.Report",
			func() (int64, bool) { c, ok := row(report.Counters, canon); return c.Value, ok && !c.Env },
			func() (int64, bool) { c, ok := row(report.Counters, env); return c.Value, ok && c.Env }, 1},
		{"/metrics",
			func() (int64, bool) { return met.Counter("citroen_" + canon + "_total").Value(), true },
			func() (int64, bool) { return int64(met.Gauge("citroen_env_" + env).Value()), true }, 1},
		{"report text",
			func() (int64, bool) { return final - 1, strings.Contains(text.String(), canon) },
			func() (int64, bool) { return 7, strings.Contains(text.String(), env+"=7") }, 1},
	}
	for _, v := range views {
		if got, ok := v.canonical(); !ok || got != final-v.lag {
			t.Errorf("%s: canonical row = %d (present %v), want %d", v.name, got, ok, final-v.lag)
		}
		if got, ok := v.env(); !ok || got != 7 {
			t.Errorf("%s: env row = %d (present %v), want 7", v.name, got, ok)
		}
	}
	// The tuner's own rows ride the same set.
	if _, ok := row(res.Breakdown.Counters, "gp_fits"); !ok {
		t.Error("Result.Breakdown.Counters lacks the tuner's gp_fits row")
	}

	canonical := obs.Canonicalize(events)
	for _, typ := range []string{"stats", "run-end"} {
		f := last(canonical, typ)
		if _, ok := f[canon]; !ok {
			t.Errorf("canonical %s lost the canonical row", typ)
		}
		if _, ok := f["env_"+env]; ok {
			t.Errorf("canonical %s kept the env row", typ)
		}
	}
	if _, ok := row(Analyze(canonical).Counters, env); ok {
		t.Error("report of the canonical journal still has the env row")
	}
}

func row(set obs.CounterSet, name string) (obs.CounterRow, bool) {
	for _, c := range set {
		if c.Name == name {
			return c, true
		}
	}
	return obs.CounterRow{}, false
}

// A journal written before the prefix_*/cow_* rows became Env rows carries
// them as plain stats fields: the report must keep them as the kind the
// journal gave them, and a job resumed across the change ends at the new kind.
func TestStatsRowsKeepTheirJournaledKind(t *testing.T) {
	before := obs.Event{Seq: 1, Type: "stats", Fields: map[string]any{"cache_hits": 3.0, "prefix_saved_passes": 40.0, "prefix_replayed_passes": 60.0}}
	after := obs.Event{Seq: 2, Type: "stats", Fields: map[string]any{"cache_hits": 4.0, "env_prefix_saved_passes": 45.0, "env_prefix_replayed_passes": 75.0}}
	for _, tc := range []struct {
		name   string
		events []obs.Event
		saved  obs.CounterRow
	}{
		{"before", []obs.Event{before}, obs.CounterRow{Name: "prefix_saved_passes", Value: 40}},
		{"resumed", []obs.Event{before, after}, obs.CounterRow{Name: "prefix_saved_passes", Value: 45, Env: true}},
	} {
		if got, _ := row(Analyze(tc.events).Counters, "prefix_saved_passes"); got != tc.saved {
			t.Errorf("%s: row = %+v, want %+v", tc.name, got, tc.saved)
		}
	}
}

// A sink resolves each row's instrument once: after the first stats event,
// feeding one books without allocating, and an Analyzer without a registry
// books nothing and never allocates for one.
func TestStatsEventsBookWithoutAllocating(t *testing.T) {
	stats := obs.Event{Type: "stats", Fields: map[string]any{"cache_hits": int64(3), "env_cache_bytes": int64(900)}}
	m := obs.NewMetrics()
	for name, a := range map[string]*Analyzer{"sink": NewMetricsSink(m), "analyzer": NewAnalyzer()} {
		a.Feed(&stats)
		if n := testing.AllocsPerRun(100, func() { a.Feed(&stats) }); n != 0 {
			t.Errorf("%s: %v allocations per stats event, want 0", name, n)
		}
	}
	if got := m.Counter("citroen_cache_hits_total").Value(); got != 3 {
		t.Errorf("citroen_cache_hits_total = %d after one value repeated, want 3", got)
	}
	if got := m.Gauge("citroen_env_cache_bytes").Value(); got != 900 {
		t.Errorf("citroen_env_cache_bytes = %v, want 900", got)
	}
}
