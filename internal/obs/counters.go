package obs

// CounterRow is one named cumulative work counter. A row is the only form in
// which a counter travels: the evaluator defines it once (see
// bench.Evaluator.Counters) and the journal, Result, reports and the fleet
// wire all carry the same row; /metrics reads it off the journal's stats
// events (analyze.NewMetricsSink), named by its journal key.
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
	// its owner's work: it never enters a batch delta. Batch deltas carry no
	// Global rows, so it is not on the wire.
	Global bool `json:"-"`
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
