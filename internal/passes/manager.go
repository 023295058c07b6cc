package passes

import (
	"fmt"
	"time"

	"repro/internal/ir"
)

// Manager runs pass sequences. It holds no state beyond the observer, and a
// pass run leaves nothing behind on the module: every pass computes the
// CFG, dominators and loops it needs from the function as it is, so the
// result of a sequence is a function of (module, sequence) alone. Two
// goroutines must never run managers over the same module concurrently (the
// same rule as running passes concurrently).
type Manager struct {
	// Obs, when non-nil, receives one PassRan record per executed pass with
	// its wall time and exact stats delta (see ApplyObserved).
	Obs Observer
}

// NewManager returns a Manager with no observer.
func NewManager() *Manager { return &Manager{} }

// RunOne executes a single pass (no verification). It is the step primitive
// of the compile cache's builds, which act on the module between passes:
// verification policy is the caller's, exactly as in a mid-sequence position
// of Run.
func (pm *Manager) RunOne(m *ir.Module, p *Pass, st Stats) {
	// COW: give the module private bodies before any pass may mutate it.
	// No-op unless the module still shares function bodies with a clone.
	ir.MaterializeModule(m)
	if pm.Obs == nil {
		p.Run(m, st)
		return
	}
	delta := Stats{}
	t0 := time.Now()
	p.Run(m, delta)
	pm.Obs.PassRan(p.Name, time.Since(t0), delta)
	st.Merge(delta)
}

// Run executes the named passes in order, verifying after every pass when
// verifyEach is set and once at the end otherwise.
func (pm *Manager) Run(m *ir.Module, sequence []string, st Stats, verifyEach bool) error {
	for _, name := range sequence {
		p := byName[name]
		if p == nil {
			return fmt.Errorf("passes: unknown pass %q", name)
		}
		pm.RunOne(m, p, st)
		if verifyEach {
			if err := ir.Verify(m); err != nil {
				return fmt.Errorf("passes: IR invalid after %s: %w", name, err)
			}
		}
	}
	if !verifyEach {
		if err := ir.Verify(m); err != nil {
			return fmt.Errorf("passes: IR invalid after sequence: %w", err)
		}
	}
	return nil
}
