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
