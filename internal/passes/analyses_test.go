package passes_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

// inBlockOrder returns the members of set in f's block order.
func inBlockOrder(f *ir.Function, set func(*ir.Block) bool) []*ir.Block {
	var out []*ir.Block
	for _, b := range f.Blocks {
		if set(b) {
			out = append(out, b)
		}
	}
	return out
}

func names(bs []*ir.Block) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// checkDenseAnalyses holds the Block.idx-indexed CFG, dominator tree and loop
// info of f to the map-based ones: same adjacency in the same order, same
// reverse post-order, same immediate dominators, same dominance relation,
// same loops in the same order with the same shape — and the two orders the
// maps left to chance (dominator-tree children, loop exits) in block order.
func checkDenseAnalyses(f *ir.Function) error {
	c := ir.BuildCFG(f)
	dt := ir.BuildDomTree(c)
	li := ir.FindLoops(c, dt)
	oc := mapBuildCFG(f)
	odt := mapBuildDomTree(oc)
	oloops := mapFindLoops(oc, odt)

	local := make(map[*ir.Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		local[b] = true
	}
	differ := func(what string, b *ir.Block, got, want []*ir.Block) error {
		return fmt.Errorf("%s: %s(%s) = %v, the map CFG has %v", f.Name, what, b.Name, names(got), names(want))
	}
	oreach, reach := oc.Reachable(), c.Reachable()
	ochildren := map[*ir.Block][]*ir.Block{}
	for _, b := range f.Blocks { // block order
		if id := odt.IDom[b]; id != nil && id != b {
			ochildren[id] = append(ochildren[id], b)
		}
	}
	for _, b := range f.Blocks {
		if got, want := c.Succs(b), oc.Succs[b]; !slices.Equal(got, want) {
			return differ("Succs", b, got, want)
		}
		if got, want := c.Preds(b), oc.Preds[b]; !slices.Equal(got, want) {
			return differ("Preds", b, got, want)
		}
		if got, want := reach.Has(b), oreach[b]; got != want {
			return fmt.Errorf("%s: Reachable has %s = %v, want %v", f.Name, b.Name, got, want)
		}
		if got, want := dt.IDom(b), odt.IDom[b]; got != want {
			return fmt.Errorf("%s: IDom(%s) differs from the map dominator tree", f.Name, b.Name)
		}
		if got, want := dt.Children(b), ochildren[b]; !slices.Equal(got, want) {
			return differ("Children", b, got, want)
		}
	}
	// A branch to a block outside the function (invalid IR some pass left
	// behind) shows up in the map traversal; the dense CFG has no index for
	// it. Such a block has no successors, so nothing else moves.
	orpo := slices.DeleteFunc(oc.ReversePostOrder(), func(b *ir.Block) bool { return !local[b] })
	if got := c.ReversePostOrder(); !slices.Equal(got, orpo) {
		return fmt.Errorf("%s: ReversePostOrder = %v, want %v", f.Name, names(got), names(orpo))
	}
	pairs := f.Blocks
	if len(pairs) > 48 {
		pairs = pairs[:48]
	}
	for _, a := range pairs {
		for _, b := range f.Blocks {
			if got, want := dt.Dominates(a, b), odt.Dominates(a, b); got != want {
				return fmt.Errorf("%s: Dominates(%s, %s) = %v, want %v", f.Name, a.Name, b.Name, got, want)
			}
		}
	}

	if len(li.Loops) != len(oloops) {
		return fmt.Errorf("%s: %d loops, the map analysis finds %d", f.Name, len(li.Loops), len(oloops))
	}
	header := func(l *ir.Loop) *ir.Block {
		if l == nil {
			return nil
		}
		return l.Header
	}
	oheader := func(l *mapLoop) *ir.Block {
		if l == nil {
			return nil
		}
		return l.Header
	}
	for i, l := range li.Loops {
		ol := oloops[i]
		if l.Header != ol.Header || l.Latch != ol.Latch || l.Preheader != ol.Preheader ||
			l.Depth != ol.Depth || header(l.Parent) != oheader(ol.Parent) {
			return fmt.Errorf("%s: loop %d (%s) differs in header, latch, preheader, depth or parent", f.Name, i, ol.Header.Name)
		}
		if got, want := l.Blocks(), inBlockOrder(f, func(b *ir.Block) bool { return ol.Blocks[b] }); !slices.Equal(got, want) {
			return differ("loop blocks", l.Header, got, want)
		}
		if got, want := l.Exits, inBlockOrder(f, func(b *ir.Block) bool { return slices.Contains(ol.Exits, b) }); !slices.Equal(got, want) {
			return differ("loop exits", l.Header, got, want)
		}
		for _, b := range f.Blocks {
			if l.Contains(b) != ol.Blocks[b] {
				return fmt.Errorf("%s: loop %s Contains(%s) = %v", f.Name, l.Header.Name, b.Name, l.Contains(b))
			}
		}
	}
	return nil
}

// benchPrograms are the 15 benchmark programs, dataset 0.
func benchPrograms() []*bench.Benchmark {
	return append(bench.CBench(), bench.SPEC()...)
}

// TestDenseAnalysesMatchMapOracle is the oracle test of the slice-backed
// analyses: random 8–120-pass sequences over the whole pass vocabulary on all
// 15 benchmarks, and after every single pass — on the mid-sequence module,
// verified or not — the analyses of every function must agree with the
// map-based ones, adjacency order included.
func TestDenseAnalysesMatchMapOracle(t *testing.T) {
	vocab := passes.Names()
	rng := rand.New(rand.NewSource(20261004))
	mgr := passes.NewManager()
	ran, checked := 0, 0
	for _, b := range benchPrograms() {
		iters := 3
		if testing.Short() {
			iters = 1
		}
		for it := 0; it < iters; it++ {
			seq := make([]string, 8+rng.Intn(113))
			for i := range seq {
				seq[i] = vocab[rng.Intn(len(vocab))]
			}
			for _, m := range b.Build(0, 2) {
				for i, name := range seq {
					// A pass may panic on the invalid IR an earlier pass of
					// the sequence left behind; the module is then abandoned.
					panicked := func() (r any) {
						defer func() { r = recover() }()
						mgr.RunOne(m, passes.Lookup(name), passes.Stats{})
						return nil
					}()
					ran++
					if panicked != nil {
						break
					}
					for _, f := range m.Funcs {
						if f.IsDecl || len(f.Blocks) == 0 {
							continue
						}
						checked++
						if err := checkDenseAnalyses(f); err != nil {
							t.Fatalf("%s/%s after %s: %v\nseq=%v", b.Name, m.Name, name, err, seq[:i+1])
						}
					}
				}
			}
		}
	}
	t.Logf("%d passes run, %d function analyses compared", ran, checked)
}

// loopyFunctions returns the larger benchmark functions after loop-rotate
// and unswitching, which leave multi-exit loops and wide dominator trees.
func loopyFunctions(t *testing.T) []*ir.Function {
	var out []*ir.Function
	for _, b := range benchPrograms() {
		for _, m := range b.Build(0, 2) {
			if err := passes.Apply(m, []string{"loop-rotate", "simple-loop-unswitch"}, passes.Stats{}, false); err != nil {
				t.Fatal(err)
			}
			for _, f := range m.Funcs {
				if !f.IsDecl && len(f.Blocks) > 6 {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// TestAnalysisOrdersAreBlockOrder pins the two orders that used to come out
// of map iteration and differed run to run: Loop.Exits and the dominator
// tree's children. A hundred rebuilds give the same lists, in block order.
func TestAnalysisOrdersAreBlockOrder(t *testing.T) {
	multiExit, multiChild := 0, 0
	for _, f := range loopyFunctions(t) {
		pos := make(map[*ir.Block]int, len(f.Blocks))
		for i, b := range f.Blocks {
			pos[b] = i
		}
		sorted := func(bs []*ir.Block) bool {
			return slices.IsSortedFunc(bs, func(a, b *ir.Block) int { return pos[a] - pos[b] })
		}
		var exits0, kids0 [][]*ir.Block
		for round := 0; round < 100; round++ {
			c := ir.BuildCFG(f)
			dt := ir.BuildDomTree(c)
			var exits, kids [][]*ir.Block
			for _, l := range ir.FindLoops(c, dt).Loops {
				exits = append(exits, l.Exits)
			}
			for _, b := range f.Blocks {
				kids = append(kids, dt.Children(b))
			}
			if round == 0 {
				exits0, kids0 = exits, kids
				for _, e := range exits {
					if !sorted(e) {
						t.Fatalf("%s: loop exits %v are not in block order", f.Name, names(e))
					}
					if len(e) > 1 {
						multiExit++
					}
				}
				for _, k := range kids {
					if !sorted(k) {
						t.Fatalf("%s: dominator-tree children %v are not in block order", f.Name, names(k))
					}
					if len(k) > 1 {
						multiChild++
					}
				}
				continue
			}
			if !slices.EqualFunc(exits, exits0, slices.Equal[[]*ir.Block]) || !slices.EqualFunc(kids, kids0, slices.Equal[[]*ir.Block]) {
				t.Fatalf("%s: rebuild %d orders exits or children differently from the first build", f.Name, round)
			}
		}
	}
	if multiExit == 0 || multiChild == 0 {
		t.Fatalf("no loop with several exits (%d) or no block with several dominator-tree children (%d): the test pins nothing", multiExit, multiChild)
	}
}

// TestStaleCFGAnswersForItsOwnBlockList: a CFG and what was derived from it
// keep answering for the block list they were built from — a block a pass
// adds afterwards is in none of them, exactly as it was in no map, and a
// second BuildCFG of the function does not disturb the first while the blocks
// have not moved.
func TestStaleCFGAnswersForItsOwnBlockList(t *testing.T) {
	for _, f := range loopyFunctions(t)[:8] {
		c := ir.BuildCFG(f)
		dt := ir.BuildDomTree(c)
		li := ir.FindLoops(c, dt)
		reach := c.Reachable()
		before := append([]*ir.Block(nil), f.Blocks...)
		snapshot := func() string {
			s := ""
			for _, b := range before {
				s += fmt.Sprint(b.Name, names(c.Preds(b)), names(c.Succs(b)), reach.Has(b), dt.IDom(b) != nil, names(dt.Children(b)))
				for _, l := range li.Loops {
					s += fmt.Sprint(l.Contains(b))
				}
			}
			return s
		}
		want := snapshot()

		// A second build of the unchanged function re-indexes nothing.
		c2 := ir.BuildCFG(f)
		if got := snapshot(); got != want {
			t.Fatalf("%s: a second BuildCFG changed what the first answers", f.Name)
		}
		if !slices.Equal(c2.ReversePostOrder(), c.ReversePostOrder()) {
			t.Fatalf("%s: two builds of one function disagree", f.Name)
		}

		// A block inserted in the middle of the layout after the build.
		nb := &ir.Block{Name: "late"}
		ir.AttachBlock(nb, f)
		nb.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{f.Blocks[1]}})
		f.Blocks = slices.Insert(f.Blocks, 1, nb)
		if c.Preds(nb) != nil || c.Succs(nb) != nil || reach.Has(nb) || dt.IDom(nb) != nil ||
			dt.Children(nb) != nil || dt.Dominates(nb, before[0]) || dt.Dominates(before[0], nb) || !dt.Dominates(nb, nb) {
			t.Fatalf("%s: a block added after the build is known to the CFG", f.Name)
		}
		for _, l := range li.Loops {
			if l.Contains(nb) {
				t.Fatalf("%s: a block added after the build is in loop %s", f.Name, l.Header.Name)
			}
		}
		if got := snapshot(); got != want {
			t.Fatalf("%s: inserting a block changed what the CFG answers for its own blocks", f.Name)
		}
		// The next build sees the function as it is now.
		if err := checkDenseAnalyses(f); err != nil {
			t.Fatal(err)
		}
	}
}
