package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randVec builds a random sparse vector from fuzz inputs.
func randVec(seed int64, n int) sparseVec {
	rng := rand.New(rand.NewSource(seed))
	v := sparseVec{}
	keys := []string{"a.X", "b.Y", "c.Z", "d.W", "e.V", "f.U"}
	for i := 0; i < n%7; i++ {
		v[keys[rng.Intn(len(keys))]] = float64(rng.Intn(50))
	}
	return v
}

func TestSparseVecKeyIsCanonical(t *testing.T) {
	// Property: the key is a function of the *contents*, independent of
	// construction order, and injective on distinct contents.
	f := func(seed int64, n int) bool {
		v := randVec(seed, abs(n))
		// Rebuild in a different order.
		w := sparseVec{}
		for k, val := range v {
			w[k] = val
		}
		if v.key() != w.key() {
			return false
		}
		// Perturbing one entry must change the key.
		v2 := sparseVec{}
		for k, val := range v {
			v2[k] = val
		}
		v2["zz.Q"] = 1
		return v.key() != v2.key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseRoundTripsThroughIndex(t *testing.T) {
	// Property: densifying and reading back through the index preserves
	// every entry, regardless of the order vectors were registered.
	f := func(s1, s2 int64, n1, n2 int) bool {
		fi := NewFeatureIndex()
		a := randVec(s1, abs(n1))
		b := randVec(s2, abs(n2))
		da := a.dense(fi, "m|")
		_ = da
		db := b.dense(fi, "m|")
		// Re-densify a at the grown dimensionality.
		da2 := a.dense(fi, "m|")
		names := fi.Names()
		for i, name := range names {
			keyA := name[len("m|"):]
			if da2[i] != a[keyA] && !(da2[i] == 0 && a[keyA] == 0) {
				return false
			}
			if db[i] != b[keyA] && !(db[i] == 0 && b[keyA] == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNovelDimsNeverNegativeAndMonotone(t *testing.T) {
	// Property: marking a vector seen can only reduce (or keep) another
	// vector's novelty count.
	f := func(s1, s2 int64, n1, n2 int) bool {
		a := randVec(s1, abs(n1))
		b := randVec(s2, abs(n2))
		seen := map[string]bool{}
		before := b.novelDims(seen, "p|")
		a.markSeen(seen, "p|")
		after := b.novelDims(seen, "p|")
		return before >= 0 && after >= 0 && after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

func TestFeatureKindFromString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FeatureKind
		ok   bool
	}{
		{"", FeatStats, true},
		{"stats", FeatStats, true},
		{"autophase", FeatAutophase, true},
		{"tokenmix", FeatTokenMix, true},
		{"rawseq", FeatRawSeq, true},
		{"bogus", FeatStats, false},
		{"Stats", FeatStats, false},
		{"feature?", FeatStats, false}, // String() of an out-of-range kind
	} {
		got, ok := FeatureKindFromString(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("FeatureKindFromString(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
		if ok && tc.in != "" && got.String() != tc.in {
			t.Errorf("%q does not round-trip: String() = %q", tc.in, got.String())
		}
	}
}
