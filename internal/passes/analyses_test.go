package passes_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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

// checkDenseAnalyses holds freshly built analyses of f to the map-based ones
// (checkAgainstMap).
func checkDenseAnalyses(f *ir.Function) error {
	c := ir.BuildCFG(f)
	dt := ir.BuildDomTree(c)
	return checkAgainstMap(f, c, dt, ir.FindLoops(c, dt))
}

// checkAgainstMap holds the Block.idx-indexed CFG, dominator tree and loop
// info of f to the map-based ones: same adjacency in the same order, same
// reverse post-order, same immediate dominators, same dominance relation,
// same loops in the same order with the same shape — and the two orders the
// maps left to chance (dominator-tree children, loop exits) in block order.
func checkAgainstMap(f *ir.Function, c *ir.CFG, dt *ir.DomTree, li *ir.LoopInfo) error {
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
// map-based ones, adjacency order included: a fresh build, and what
// ir.LoopsOf serves, which is the slot's analyses when the function's
// control flow has not changed since the last query (a hit) and a rebuild
// when it has (a miss).
func TestDenseAnalysesMatchMapOracle(t *testing.T) {
	vocab := passes.Names()
	rng := rand.New(rand.NewSource(20261004))
	mgr := passes.NewManager()
	ran, checked := 0, 0
	served := map[*ir.Function]*ir.CFG{} // what LoopsOf served at the last check
	hits, misses := 0, 0
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
						c, dt, li := ir.LoopsOf(f)
						if c == served[f] {
							hits++
						} else {
							misses++
						}
						served[f] = c
						if err := checkAgainstMap(f, c, dt, li); err != nil {
							t.Fatalf("%s/%s after %s, LoopsOf: %v\nseq=%v", b.Name, m.Name, name, err, seq[:i+1])
						}
					}
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("LoopsOf served %d hits and %d misses: the test needs both", hits, misses)
	}
	t.Logf("%d passes run, %d function analyses compared; LoopsOf %d hits, %d misses", ran, checked, hits, misses)
}

// sameAsFresh compares analyses the slot served for f with a fresh
// BuildCFG / BuildDomTree / FindLoops: predecessors, successors, reverse
// post-order, immediate dominators, dominator-tree children, and each loop's
// header, latch, preheader, exits, blocks, parent and depth. dt and li may be
// nil (not derived yet).
func sameAsFresh(f *ir.Function, c *ir.CFG, dt *ir.DomTree, li *ir.LoopInfo) error {
	fc := ir.BuildCFG(f)
	fdt := ir.BuildDomTree(fc)
	fli := ir.FindLoops(fc, fdt)
	differ := func(what string, b *ir.Block, got, want []*ir.Block) error {
		return fmt.Errorf("%s: reused %s(%s) = %v, a fresh build has %v", f.Name, what, b.Name, names(got), names(want))
	}
	for _, b := range f.Blocks {
		if got, want := c.Preds(b), fc.Preds(b); !slices.Equal(got, want) {
			return differ("Preds", b, got, want)
		}
		if got, want := c.Succs(b), fc.Succs(b); !slices.Equal(got, want) {
			return differ("Succs", b, got, want)
		}
		if dt == nil {
			continue
		}
		if got, want := dt.IDom(b), fdt.IDom(b); got != want {
			return fmt.Errorf("%s: reused IDom(%s) differs from a fresh build's", f.Name, b.Name)
		}
		if got, want := dt.Children(b), fdt.Children(b); !slices.Equal(got, want) {
			return differ("Children", b, got, want)
		}
	}
	if got, want := c.ReversePostOrder(), fc.ReversePostOrder(); !slices.Equal(got, want) {
		return fmt.Errorf("%s: reused ReversePostOrder = %v, a fresh build has %v", f.Name, names(got), names(want))
	}
	if li == nil {
		return nil
	}
	if len(li.Loops) != len(fli.Loops) {
		return fmt.Errorf("%s: %d reused loops, a fresh build finds %d", f.Name, len(li.Loops), len(fli.Loops))
	}
	parent := func(ls []*ir.Loop, l *ir.Loop) int { return slices.Index(ls, l.Parent) }
	for i, l := range li.Loops {
		fl := fli.Loops[i]
		if l.Header != fl.Header || l.Latch != fl.Latch || l.Preheader != fl.Preheader ||
			l.Depth != fl.Depth || parent(li.Loops, l) != parent(fli.Loops, fl) {
			return fmt.Errorf("%s: reused loop %d (%s) differs in header, latch, preheader, depth or parent", f.Name, i, fl.Header.Name)
		}
		if !slices.Equal(l.Blocks(), fl.Blocks()) {
			return differ("loop blocks", fl.Header, l.Blocks(), fl.Blocks())
		}
		if !slices.Equal(l.Exits, fl.Exits) {
			return differ("loop exits", fl.Header, l.Exits, fl.Exits)
		}
	}
	return nil
}

// checkReuse installs an analysesChecked hook that holds every analysis the
// slots serve to a fresh build, until the returned stop is called. stop
// reports the first difference and how many reuses were checked. Safe for
// passes running concurrently on different modules.
func checkReuse() (stop func() (hits int64, err error)) {
	var mu sync.Mutex
	var first error
	var hits atomic.Int64
	restore := ir.SetAnalysesChecked(func(f *ir.Function, c *ir.CFG, dt *ir.DomTree, li *ir.LoopInfo) {
		hits.Add(1)
		if err := sameAsFresh(f, c, dt, li); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	})
	return func() (int64, error) {
		restore()
		mu.Lock()
		defer mu.Unlock()
		return hits.Load(), first
	}
}

// loopyFunctions returns the larger benchmark functions after loop-rotate
// and unswitching, which leave multi-exit loops and wide dominator trees.
func loopyFunctions(t *testing.T) []*ir.Function {
	var out []*ir.Function
	for _, b := range benchPrograms() {
		for _, m := range b.Build(0, 2) {
			if err := passes.NewManager().Run(m, []string{"loop-rotate", "simple-loop-unswitch"}, passes.Stats{}, false); err != nil {
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

// reuseFunction builds a counting loop with two unreachable blocks after it:
//
//	entry: jmp header            (the loop's preheader)
//	header: br i<n, body, exit
//	body: jmp header             (the latch)
//	exit: ret s
//	dead1: jmp exit
//	dead2: jmp exit
func reuseFunction() *ir.Function {
	m := &ir.Module{Name: "reuse"}
	bd := ir.NewBuilder(m)
	f := bd.NewFunction("count", ir.I64T, ir.I64T)
	n := f.Params[0]
	i := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), i)
	header, body, exit := bd.NewBlock("header"), bd.NewBlock("body"), bd.NewBlock("exit")
	dead1, dead2 := bd.NewBlock("dead1"), bd.NewBlock("dead2")
	bd.Jmp(header)
	bd.SetBlock(header)
	iv := bd.Load(ir.I64T, i)
	bd.Br(bd.ICmp(ir.CmpSLT, iv, n), body, exit)
	bd.SetBlock(body)
	bd.Store(bd.Bin(ir.OpAdd, iv, ir.ConstInt(ir.I64T, 1)), i)
	bd.Jmp(header)
	bd.SetBlock(exit)
	bd.Ret(bd.Load(ir.I64T, i))
	for _, d := range []*ir.Block{dead1, dead2} {
		bd.SetBlock(d)
		bd.Jmp(exit)
	}
	return f
}

// TestStaleCFGSlotIsRebuilt: each change to what the analyses read makes the
// slot stale, one test per reason current() checks, and the next query
// builds analyses equal to a fresh build's.
func TestStaleCFGSlotIsRebuilt(t *testing.T) {
	block := func(f *ir.Function, name string) *ir.Block {
		for _, b := range f.Blocks {
			if b.Name == name {
				return b
			}
		}
		t.Fatalf("no block %s", name)
		return nil
	}
	dropTerm := func(b *ir.Block) { b.Instrs = b.Instrs[:len(b.Instrs)-1] }
	for _, tc := range []struct {
		reason string
		edit   func(f *ir.Function)
	}{
		{"block added", func(f *ir.Function) {
			nb := &ir.Block{Name: "dead3"}
			ir.AttachBlock(nb, f)
			nb.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{block(f, "exit")}})
			f.Blocks = append(f.Blocks, nb)
		}},
		{"block removed", func(f *ir.Function) { f.Blocks = f.Blocks[:len(f.Blocks)-1] }},
		// dead1 and dead2 end in the same jmp: only the block identities
		// differ, and with them the order of exit's predecessors.
		{"blocks reordered", func(f *ir.Function) {
			k := len(f.Blocks)
			f.Blocks[k-2], f.Blocks[k-1] = f.Blocks[k-1], f.Blocks[k-2]
		}},
		{"successor replaced", func(f *ir.Function) { block(f, "header").Term().Blocks[1] = block(f, "dead1") }},
		// Removing the latch's jmp removes the loop.
		{"terminator removed", func(f *ir.Function) { dropTerm(block(f, "body")) }},
		// The same successor behind another opcode: the entry block stops
		// being a dedicated preheader.
		{"opcode changed", func(f *ir.Function) {
			entry := f.Entry()
			dropTerm(entry)
			entry.Append(&ir.Instr{Op: ir.OpSwitch, Ty: ir.VoidT, Ops: []ir.Value{f.Params[0]}, Blocks: []*ir.Block{block(f, "header")}})
		}},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			f := reuseFunction()
			c0, _, li0 := ir.LoopsOf(f)
			if len(li0.Loops) != 1 || li0.Loops[0].Preheader != f.Entry() {
				t.Fatalf("the test function has %d loops, want one with the entry as preheader", len(li0.Loops))
			}
			if c, _, _ := ir.LoopsOf(f); c != c0 {
				t.Fatal("a second query of an unchanged function rebuilt the CFG")
			}
			tc.edit(f)
			c, dt, li := ir.LoopsOf(f)
			if err := sameAsFresh(f, c, dt, li); err != nil {
				t.Fatal(err)
			}
			if c == c0 {
				t.Fatal("the slot still served the CFG built before the edit")
			}
		})
	}
}

// fuzzModules are the modules FuzzAnalysisReuseMatchesFresh picks from: every
// module of the 15 benchmarks, dataset 0.
var fuzzModules = sync.OnceValue(func() []*ir.Module {
	var out []*ir.Module
	for _, b := range benchPrograms() {
		out = append(out, b.Build(0, 2)...)
	}
	return out
})

// fuzzInput encodes a module index and a pass sequence as the fuzz target
// reads them.
func fuzzInput(module byte, seq ...string) []byte {
	in := []byte{module}
	for _, name := range seq {
		in = append(in, byte(slices.Index(passes.Names(), name)))
	}
	return in
}

// FuzzAnalysisReuseMatchesFresh: the first input byte picks a benchmark
// module, each further byte (at most 120) a pass. The sequence runs on a
// clone of the module, and every analysis a function's slot serves to a pass
// must equal a fresh build (checkReuse). A pass that panics, or leaves IR
// that does not verify, ends the sequence: the target checks the reuse, not
// the passes.
func FuzzAnalysisReuseMatchesFresh(f *testing.F) {
	f.Add(fuzzInput(0, "mem2reg", "loop-simplify", "loop-rotate", "licm", "simplifycfg", "loop-unroll", "gvn"))
	f.Add(fuzzInput(7, "sroa", "simple-loop-unswitch", "jump-threading", "loop-deletion", "simplifycfg", "indvars"))
	f.Add(fuzzInput(20, "mem2reg", "lower-switch", "break-crit-edges", "loop-fusion", "loop-vectorize", "adce", "simplifycfg"))
	f.Add(fuzzInput(33, "inline", "mergereturn", "tailcallelim", "early-cse-memssa", "loop-idiom", "loop-simplifycfg"))
	vocab := passes.Names()
	mgr := passes.NewManager()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		mods := fuzzModules()
		pristine := mods[int(in[0])%len(mods)]
		m := pristine.Clone()
		var seq []string
		stop := checkReuse()
		for _, k := range in[1:min(len(in), 121)] {
			seq = append(seq, vocab[int(k)%len(vocab)])
			if passes.RunRecovered(mgr, m, seq[len(seq)-1:]) != nil || ir.Verify(m) != nil {
				break
			}
		}
		if _, err := stop(); err != nil {
			t.Fatalf("%s, passes %v: %v", pristine.Name, seq, err)
		}
	})
}
