package obs

import "strings"

// CounterRow is one named cumulative work counter. A row is the only form in
// which a counter travels: the evaluator defines it once (see
// bench.Evaluator.Counters) and the journal, Result, reports, /metrics and
// the fleet wire all carry the same row.
type CounterRow struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	// Env marks an observation outside the canonical contract: the
	// scheduling-dependent pool hit rates and slab-clone totals, and the
	// compile cache's byte, eviction and COW accounting, which kept its Env
	// kind when eviction stopped depending on scheduling. Env rows are
	// journaled as "env_<Name>" so Canonicalize strips them.
	Env bool `json:"env,omitempty"`
	// Global marks an Env row that observes process-wide state rather than
	// its owner's work: it never enters a batch delta and is published as a
	// gauge. Batch deltas carry no Global rows, so it is not on the wire.
	Global bool `json:"-"`
	// Series is the /metrics series Metrics.Publish mirrors the row into;
	// empty for rows that have none. It is not part of the wire form.
	Series string `json:"-"`
}

// CounterSet is an ordered list of counter rows, keyed by Name.
type CounterSet []CounterRow

// Get returns the named row's value (0 when absent).
func (s CounterSet) Get(name string) int64 {
	for _, c := range s {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Add returns s with o's values added by name; rows only o has are appended.
func (s CounterSet) Add(o CounterSet) CounterSet { return s.combine(o, 1) }

// Sub returns s with o's values subtracted by name.
func (s CounterSet) Sub(o CounterSet) CounterSet { return s.combine(o, -1) }

func (s CounterSet) combine(o CounterSet, sign int64) CounterSet {
	out := append(make(CounterSet, 0, len(s)), s...)
next:
	for _, c := range o {
		for i := range out {
			if out[i].Name == c.Name {
				out[i].Value += sign * c.Value
				continue next
			}
		}
		c.Value *= sign
		out = append(out, c)
	}
	return out
}

// Canonical returns the rows that are deterministic functions of the
// evaluated workload (everything but the Env rows).
func (s CounterSet) Canonical() CounterSet {
	return s.filter(func(c CounterRow) bool { return !c.Env })
}

// Owned returns the rows that count the owner's own work (everything but the
// Global rows): what a batch delta carries and a fleet report sums.
func (s CounterSet) Owned() CounterSet {
	return s.filter(func(c CounterRow) bool { return !c.Global })
}

func (s CounterSet) filter(keep func(CounterRow) bool) CounterSet {
	out := make(CounterSet, 0, len(s))
	for _, c := range s {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// PutFields writes the set into a journal field map: canonical rows under
// their name, Env rows under "env_<name>".
func (s CounterSet) PutFields(f map[string]any) {
	for _, c := range s {
		if c.Env {
			f["env_"+c.Name] = c.Value
		} else {
			f[c.Name] = c.Value
		}
	}
}

// Publish mirrors the rows of set that name a Series into the registry. An
// owned row whose series ends in "_total" is a Prometheus counter: it
// advances by the row's change since prev, the set the same owner published
// last, so owners sharing a registry accumulate. Every other row is a gauge
// set to the current value (Global rows are process-wide already).
func (m *Metrics) Publish(set, prev CounterSet) {
	for _, c := range set {
		switch {
		case c.Series == "":
		case !c.Global && strings.HasSuffix(c.Series, "_total"):
			m.Counter(c.Series).Add(c.Value - prev.Get(c.Name))
		default:
			m.Gauge(c.Series).Set(float64(c.Value))
		}
	}
}
