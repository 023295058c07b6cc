package passes

import (
	"sort"
	"sync"
	"time"
)

// PassCost aggregates the profile of one pass across many invocations.
type PassCost struct {
	Name        string
	Invocations int           // times the pass ran
	Fired       int           // invocations that changed at least one counter
	Wall        time.Duration // summed wall-clock across invocations
	Delta       Stats         // summed stats-counter deltas
}

// DeltaTotal sums the pass's counter deltas — a deterministic "how much did
// this pass actually do" scalar (wall time is not deterministic).
func (c PassCost) DeltaTotal() int {
	t := 0
	for _, v := range c.Delta {
		t += v
	}
	return t
}

// Profile aggregates per-pass costs: a Manager with a Profile (Manager.Obs)
// runs each pass against a fresh Stats, records its wall-clock time and the
// counters that this single invocation changed, and merges them into the
// cumulative Stats, so the delta attribution is exact and the merged totals
// are identical to an unobserved run. The tuner's evaluation pool records
// from many goroutines; all accounting is mutex-guarded.
type Profile struct {
	mu     sync.Mutex
	byPass map[string]*PassCost
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{byPass: map[string]*PassCost{}} }

// PassRan records one invocation of the named pass.
func (p *Profile) PassRan(name string, wall time.Duration, delta Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.byPass[name]
	if c == nil {
		c = &PassCost{Name: name, Delta: Stats{}}
		p.byPass[name] = c
	}
	c.Invocations++
	if len(delta) > 0 {
		c.Fired++
	}
	c.Wall += wall
	c.Delta.Merge(delta)
}

// Costs returns a deep copy of the aggregated costs in a deterministic
// order: total counter delta descending, then invocations descending, then
// name — the "which passes actually did work" ranking. Wall-based ordering
// (see TopByWall) is intentionally not the default because wall time varies
// run to run while deltas and invocation counts do not.
func (p *Profile) Costs() []PassCost {
	p.mu.Lock()
	out := make([]PassCost, 0, len(p.byPass))
	for _, c := range p.byPass {
		cp := *c
		cp.Delta = make(Stats, len(c.Delta))
		cp.Delta.Merge(c.Delta)
		out = append(out, cp)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].DeltaTotal(), out[j].DeltaTotal()
		if di != dj {
			return di > dj
		}
		if out[i].Invocations != out[j].Invocations {
			return out[i].Invocations > out[j].Invocations
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TopByWall returns the n most expensive passes by summed wall time — the
// "where did compile time go" report.
func TopByWall(costs []PassCost, n int) []PassCost {
	out := append([]PassCost(nil), costs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
