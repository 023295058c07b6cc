package passes

import (
	"math/rand"
	"testing"
)

// TestManagerStepEquivalence checks that driving passes one at a time through
// Manager.RunOne with a single final verification — the prefix-snapshot
// cache's resume path — matches a plain Apply of the same sequence.
func TestManagerStepEquivalence(t *testing.T) {
	names := Names()
	rng := rand.New(rand.NewSource(7))
	for name, build := range allTestModules() {
		for it := 0; it < 10; it++ {
			seqLen := 4 + rng.Intn(24)
			seq := make([]string, seqLen)
			for i := range seq {
				seq[i] = names[rng.Intn(len(names))]
			}

			whole := build()
			wholeSt := Stats{}
			if err := Apply(whole, seq, wholeSt, false); err != nil {
				continue // a sequence that fails verification has no result to compare
			}

			stepped := build()
			steppedSt := Stats{}
			mgr := NewManager()
			for _, pn := range seq {
				mgr.RunOne(stepped, Lookup(pn), steppedSt)
			}

			whole.Renumber()
			stepped.Renumber()
			if wp, sp := whole.String(), stepped.String(); wp != sp {
				t.Fatalf("%s it=%d: stepped build diverges\nseq=%v\n--- whole ---\n%s\n--- stepped ---\n%s",
					name, it, seq, wp, sp)
			}
			if wj, sj := wholeSt.JSON(), steppedSt.JSON(); wj != sj {
				t.Fatalf("%s it=%d: stepped Stats diverge\nseq=%v\nwhole=%s\nstepped=%s", name, it, seq, wj, sj)
			}
		}
	}
}

// TestCOWSnapshotResumeDifferential interleaves the copy-on-write clone
// protocol with pass execution the way the prefix-snapshot cache does: run a
// random prefix, take a COW snapshot (Clone), keep running the suffix on the
// original, then resume a second build from the snapshot's clone. The
// resumed build must be bit-identical — printed module, fingerprint, and
// Stats — to a fresh build of the whole sequence, and the snapshot itself
// must stay byte-stable while both mutating builds run off it.
func TestCOWSnapshotResumeDifferential(t *testing.T) {
	names := Names()
	iters := 40
	if testing.Short() {
		iters = 8
	}
	rng := rand.New(rand.NewSource(20260808))
	for name, build := range allTestModules() {
		for it := 0; it < iters; it++ {
			seqLen := 4 + rng.Intn(28)
			seq := make([]string, seqLen)
			for i := range seq {
				seq[i] = names[rng.Intn(len(names))]
			}
			cut := 1 + rng.Intn(seqLen-1)
			prefix, suffix := seq[:cut], seq[cut:]

			// Fresh path: the whole sequence in one managed build.
			fresh := build()
			freshSt := Stats{}
			freshErr := Apply(fresh, seq, freshSt, false)

			// Snapshot path: run the prefix, snapshot via COW clone, then
			// continue the original to the end while a second clone resumes
			// the suffix — three modules interleaved over shared bodies.
			base := build()
			baseSt := Stats{}
			mgr := NewManager()
			for _, pn := range prefix {
				mgr.RunOne(base, Lookup(pn), baseSt)
			}
			snap := base.Clone() // immutable snapshot of the prefix state
			snapText := snap.String()
			snapFP := snap.Fingerprint()

			// Continue the original build off the now-shared bodies.
			contSt := baseSt.Clone()
			for _, pn := range suffix {
				mgr.RunOne(base, Lookup(pn), contSt)
			}
			// Resume a second build from the snapshot, as a cache hit does.
			resumed := snap.Clone()
			resumedSt := baseSt.Clone()
			for _, pn := range suffix {
				mgr.RunOne(resumed, Lookup(pn), resumedSt)
			}

			if snap.String() != snapText || snap.Fingerprint() != snapFP {
				t.Fatalf("%s it=%d: snapshot mutated while builds ran off it\nseq=%v cut=%d", name, it, seq, cut)
			}
			if freshErr != nil {
				continue // a sequence that fails verification has no result to compare
			}
			fresh.Renumber()
			base.Renumber()
			resumed.Renumber()
			fp := fresh.String()
			if bp := base.String(); bp != fp {
				t.Fatalf("%s it=%d: continued-original diverges from fresh\nseq=%v cut=%d\n--- fresh ---\n%s\n--- continued ---\n%s",
					name, it, seq, cut, fp, bp)
			}
			if rp := resumed.String(); rp != fp {
				t.Fatalf("%s it=%d: snapshot-resumed diverges from fresh\nseq=%v cut=%d\n--- fresh ---\n%s\n--- resumed ---\n%s",
					name, it, seq, cut, fp, rp)
			}
			if fresh.Fingerprint() != resumed.Fingerprint() {
				t.Fatalf("%s it=%d: fingerprint divergence on identical prints\nseq=%v", name, it, seq)
			}
			if fj, cj, rj := freshSt.JSON(), contSt.JSON(), resumedSt.JSON(); fj != cj || fj != rj {
				t.Fatalf("%s it=%d: Stats divergence\nseq=%v cut=%d\nfresh=%s\ncontinued=%s\nresumed=%s",
					name, it, seq, cut, fj, cj, rj)
			}
		}
	}
}

// TestStatsClone covers the Stats.Clone helper: independent storage, equal
// contents.
func TestStatsClone(t *testing.T) {
	s := Stats{"a.X": 1, "b.Y": 2}
	c := s.Clone()
	if c.JSON() != s.JSON() {
		t.Fatalf("clone differs: %s vs %s", c.JSON(), s.JSON())
	}
	c.Add("a.X", 5)
	if s["a.X"] != 1 {
		t.Fatalf("clone shares storage with original")
	}
	if got := Stats(nil).Clone(); len(got) != 0 {
		t.Fatalf("nil clone not empty: %v", got)
	}
}
