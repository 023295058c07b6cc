package passes

import "repro/internal/ir"

// Exports for the external test package (uses_test.go imports internal/bench,
// which imports this package).

// ModulesForTest returns the builders of the in-package test programs.
func ModulesForTest() map[string]func() *ir.Module { return allTestModules() }

// SetUsesChecked installs fn as the observer of every def-use index a pass
// re-queries or releases, and returns a function restoring the previous one.
func SetUsesChecked(fn func(f *ir.Function, u *ir.Uses)) (restore func()) {
	prev := usesChecked
	usesChecked = fn
	return func() { usesChecked = prev }
}

// MergeKeysForTest renders mergefunc's key of every function of m, in order,
// through one keyer, as one run of the pass renders them.
func MergeKeysForTest(m *ir.Module) []string {
	var k mergeKeyer
	keys := make([]string, len(m.Funcs))
	for i, f := range m.Funcs {
		keys[i] = string(k.render(f))
	}
	return keys
}

// MergeFunctionsForTest runs mergefunc on m as a manager would, with its
// shape pre-test (mergeFunctions) or without it (the key loop alone), and
// returns the number of functions merged.
func MergeFunctionsForTest(m *ir.Module, pretest bool) int {
	ir.MaterializeModule(m)
	if pretest {
		return mergeFunctions(m)
	}
	sc := getScratch()
	defer putScratch(sc)
	return mergeByKey(m, sc)
}

// RunPerEdit runs the named pass as a manager's RunOne does, but as it ran
// before the block edit log: the per-edit version (peredit_test.go) where
// the log changed the pass, the registered one elsewhere.
func RunPerEdit(m *ir.Module, name string, st Stats) {
	ir.MaterializeModule(m)
	if run := perEditPasses[name]; run != nil {
		run(m, st)
		return
	}
	byName[name].Run(m, st)
}

// RunRecovered runs seq through mgr, returning a pass panic as its value.
func RunRecovered(mgr *Manager, m *ir.Module, seq []string) (r any) {
	defer func() { r = recover() }()
	for _, name := range seq {
		mgr.RunOne(m, byName[name], Stats{})
	}
	return nil
}
