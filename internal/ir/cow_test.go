package ir

import "testing"

// TestCOWCloneCarriesFunctionState checks the non-structural Function state
// across the COW clone + materialize path: the temp-name counter must carry
// (so names minted after materialization don't collide with existing ones).
func TestCOWCloneCarriesFunctionState(t *testing.T) {
	m, f := buildCountdown()
	f.nextTmp = 41

	c := m.Clone()
	if !MaterializeModule(c) {
		t.Fatal("materialize reported no shared bodies")
	}
	cf := c.Func("sum")
	if cf == f {
		t.Fatal("materialize did not produce a private body")
	}
	if cf.nextTmp != 41 {
		t.Fatalf("nextTmp not carried: got %d, want 41", cf.nextTmp)
	}
	if cf.isShared() {
		t.Fatal("materialized clone still flagged shared")
	}
}

// TestCOWCloneDeepCopiesMeta ensures module metadata never aliases between a
// module and its clone: passes toggle meta flags, and a shared map would leak
// one module's pipeline decisions into the other.
func TestCOWCloneDeepCopiesMeta(t *testing.T) {
	m, _ := buildCountdown()
	m.Meta = map[string]bool{"vectorized": true}
	c := m.Clone()
	c.Meta["vectorized"] = false
	c.Meta["unrolled"] = true
	if !m.Meta["vectorized"] || m.Meta["unrolled"] {
		t.Fatalf("clone meta aliases original: %v", m.Meta)
	}
}
