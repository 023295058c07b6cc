// Package passes implements the simulated compiler's middle end: a registry
// of 76 named transformation passes modelled on LLVM 17's -O3 pipeline, a
// pass manager that applies arbitrary pass sequences, and the per-pass
// compilation-statistics machinery (the LLVM `-stats` substitute) that
// CITROEN's cost model consumes as features.
package passes

import (
	"encoding/json"
	"sort"

	"repro/internal/ir"
)

// Stats accumulates pass-related compilation statistics, keyed
// "pass.CounterName" exactly like LLVM's `-stats -stats-json` output.
type Stats map[string]int

// Add increments a counter (no-op for zero increments, matching LLVM, where
// untouched counters are absent from the report).
func (s Stats) Add(key string, n int) {
	if n != 0 {
		s[key] += n
	}
}

// Merge adds all counters of o into s.
func (s Stats) Merge(o Stats) {
	for k, v := range o {
		s[k] += v
	}
}

// Keys returns the counter names in sorted order.
func (s Stats) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// JSON renders the statistics like `opt -stats -stats-json`.
func (s Stats) JSON() string {
	b, _ := json.MarshalIndent(s, "", "  ")
	return string(b)
}

// Clone returns an independent copy of the statistics.
func (s Stats) Clone() Stats {
	out := make(Stats, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Pass is one named transformation.
type Pass struct {
	Name string
	Desc string
	// Run transforms m in place, recording statistics into st.
	Run func(m *ir.Module, st Stats)
}

// registry holds all known passes in registration order.
var registry []*Pass
var byName = map[string]*Pass{}

func register(name, desc string, run func(m *ir.Module, st Stats)) {
	if byName[name] != nil {
		panic("passes: duplicate registration of " + name)
	}
	p := &Pass{Name: name, Desc: desc, Run: run}
	registry = append(registry, p)
	byName[name] = p
}

// Lookup returns the pass with the given name, or nil.
func Lookup(name string) *Pass { return byName[name] }

// All returns every registered pass in registration order.
func All() []*Pass { return append([]*Pass(nil), registry...) }

// Names returns every registered pass name in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, p := range registry {
		out[i] = p.Name
	}
	return out
}

// forEachDefined invokes fn for every function with a body.
func forEachDefined(m *ir.Module, fn func(f *ir.Function)) {
	for _, f := range m.Funcs {
		if !f.IsDecl {
			fn(f)
		}
	}
}
