package machine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// Val is a runtime value: a scalar (I or F depending on type) or a vector of
// lanes.
type Val struct {
	I   int64
	F   float64
	Vec []Val // non-nil for vector values
}

// OutputEvent is one element of the program's observable output stream,
// produced by the sim.out.* builtins and compared by differential testing.
type OutputEvent struct {
	IsFloat bool
	I       int64
	F       float64
}

// Image is a linked program: functions resolved across modules and globals
// assigned flat memory addresses.
type Image struct {
	Modules     []*ir.Module
	Funcs       map[string]*ir.Function
	GlobalAddr  map[*ir.Global]int64
	GlobalWords int64
	funcSize    map[*ir.Function]int

	// prog is the image's assembled program and progProf the profile whose
	// instruction costs are baked into it (Machine.lowered); progMu guards
	// both, so one image can Run on several machines and goroutines.
	progMu   sync.Mutex
	prog     *bcProgram
	progProf Profile
}

// Link resolves cross-module references and lays out global memory. The
// interpreter's register files and the bytecode lowerer index by instruction
// ID, so each function's IDs must be dense from zero. Link does not renumber
// shared COW snapshots — Module.Clone renumbers before it shares a body, so
// linking is read-only over shared bodies. Private bodies (builder output,
// a module a pass just touched) are renumbered here; a shared body with
// stale IDs is a COW-invariant violation and fails the link.
func Link(mods ...*ir.Module) (*Image, error) {
	img := &Image{
		Funcs:      make(map[string]*ir.Function),
		GlobalAddr: make(map[*ir.Global]int64),
		Modules:    mods,
		funcSize:   make(map[*ir.Function]int),
	}
	addr := int64(0)
	for _, m := range mods {
		if err := ensureDense(m); err != nil {
			return nil, err
		}
		for _, g := range m.Globals {
			img.GlobalAddr[g] = addr
			addr += int64(g.Size)
		}
		for _, f := range m.Funcs {
			if f.IsDecl {
				continue
			}
			if prev, dup := img.Funcs[f.Name]; dup && prev != f {
				return nil, fmt.Errorf("machine: duplicate definition of %q", f.Name)
			}
			img.Funcs[f.Name] = f
			img.funcSize[f] = f.NumInstrs()
		}
	}
	img.GlobalWords = addr
	return img, nil
}

// ensureDense leaves every function's instruction IDs dense from zero.
// Private bodies are renumbered in place (modules built directly against the
// builder API); shared bodies must already be dense — writing to them here
// would race with every other holder of the snapshot.
func ensureDense(m *ir.Module) error {
	for _, f := range m.Funcs {
		if !f.Shared() {
			f.Renumber()
			continue
		}
		id := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.ID != id {
					return fmt.Errorf("machine: module %q has non-dense instruction IDs on a COW-shared body (missing renumber before sharing)", m.Name)
				}
				id++
			}
		}
	}
	return nil
}

// Machine interprets linked images under a cost profile.
type Machine struct {
	Prof         Profile
	MaxSteps     int64
	MaxCallDepth int
	StackWords   int64

	// TreeWalk selects the original tree-walking interpreter, the
	// differential oracle the bytecode engine (lower.go / bcexec.go) is
	// tested against. Nothing on the tuning path sets it.
	TreeWalk bool

	// statePool recycles the tree-walker's execution state (predictor and
	// attribution maps, frame register files) across runs; the bytecode
	// engine's states live on the process-wide bcStates. Both take their
	// memory slab from the process-wide slabs, scrubbed back to the all-zero
	// state a fresh allocation would have, so pooled and unpooled runs are
	// bit-identical.
	statePool freeList[execState]

	// bcMu guards the bytecode-engine counters.
	bcMu    sync.Mutex
	bcStats BcStats
}

// Process-global interpreter scratch-pool counters (Prometheus/env-field
// reporting only: pool behaviour is scheduling-dependent, so these must
// never reach canonical journal fields).
var machinePoolGets, machinePoolNews atomic.Uint64

// PoolCounters returns the cumulative memory-slab acquisitions (one per run)
// and the subset that had to allocate a fresh slab; Results, which are small
// and live in a sync.Pool, are not counted.
func PoolCounters() (gets, news uint64) {
	return machinePoolGets.Load(), machinePoolNews.Load()
}

// freeList keeps idle execution states or memory slabs: at most GOMAXPROCS
// of them, which is how many runs can execute at once. A slab is 16 MiB+,
// and a sync.Pool hands those back to the GC every second cycle only for the
// next run to allocate and clear a new one.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get returns an idle state, or nil when there is none.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// put keeps x for the next get unless the list is full.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < runtime.GOMAXPROCS(0) {
		l.free = append(l.free, x)
	}
}

// New returns a machine with sensible execution limits.
func New(p Profile) *Machine {
	return &Machine{Prof: p, MaxSteps: 200_000_000, MaxCallDepth: 128, StackWords: 1 << 20}
}

// Result is the outcome of one program execution.
type Result struct {
	Output []OutputEvent
	Cycles float64 // modelled cycles including i-cache penalty
	Steps  int64   // executed instruction count
	Ret    Val
	// FuncCycles attributes exclusive (self) cycles to each executed
	// function, the simulator's substitute for `perf`-based hot-function
	// profiling (§5.3.1).
	FuncCycles map[string]float64
}

// Execution errors.
var (
	ErrStepLimit  = errors.New("machine: step limit exceeded")
	ErrStack      = errors.New("machine: stack overflow")
	ErrSegfault   = errors.New("machine: memory access out of bounds")
	ErrDivByZero  = errors.New("machine: division by zero")
	ErrCallDepth  = errors.New("machine: call depth exceeded")
	ErrNoFunction = errors.New("machine: undefined function")
	// ErrUnlowerable: the bytecode lowerer cannot express the image with exact
	// tree-walker semantics — a phi in the entry block, after a non-phi or
	// without an incoming value for a predecessor, a block without a
	// terminator, an unknown op or operand kind. ir.Verify rejects all but the
	// first on every reachable block.
	ErrUnlowerable = errors.New("machine: image cannot be lowered to bytecode")
)

type cell struct {
	i int64
	f float64
}

// runCore is the execution state shared by the tree-walking interpreter and
// the bytecode engine: the flat memory slab, data-cache model, output stream
// and cycle/step accumulators. Both engines run the very same cache model
// (touchLine), load/store and builtin code on this struct, so those parts are
// bit-identical by construction.
type runCore struct {
	m      *Machine
	mem    []cell
	sp     int64
	cycles float64
	steps  int64
	out    []OutputEvent
	dtags  []int64
	// curChild accumulates cycles spent in callees of the current frame so
	// call() can attribute exclusive time.
	curChild float64
	depth    int
	// hi is the dirty high-water mark of mem: one past the highest index
	// written this run (globals, stack growth, stores, memset/memcpy). On
	// reuse only [GlobalWords, hi) needs scrubbing — the global region is
	// fully rewritten at run start anyway.
	hi int64
	// slab backs mem and dtags for the current run (takeSlab / dropSlab).
	slab *memSlab
	// valFree is a LIFO freelist of frame register files ([]Val) released by
	// returned calls; entries are scrubbed on reuse.
	valFree [][]Val
	// phiTmp is per-state scratch for phi parallel copies. No use spans a
	// call, so one buffer per state suffices even under recursion.
	phiTmp []Val
	// Cache geometry and cost constants hoisted out of the per-access path
	// (touchLine and its callers dominate execution time in both engines).
	// Derived from m.Prof by prepMemModel; DCacheLineElt and
	// DCacheLines/dcacheWays are powers of two by Profile contract, so
	// division becomes a shift and modulo a mask.
	lineShift     uint
	setMask       int64
	costLoadHit   float64 // LoadHit
	costLoadMiss  float64 // LoadHit + LoadMiss, pre-summed in charge order
	costStore     float64 // Store
	costStoreFill float64 // LoadMiss / 2 (write-allocate fill)
}

// prepMemModel derives the cache-model constants from the machine profile.
// Must run after st.m is set and before any load/store executes.
func (st *runCore) prepMemModel() {
	p := &st.m.Prof
	st.lineShift = uint(bits.TrailingZeros64(uint64(p.DCacheLineElt)))
	st.setMask = int64(p.DCacheLines/dcacheWays) - 1
	st.costLoadHit = p.LoadHit
	st.costLoadMiss = p.LoadHit + p.LoadMiss
	st.costStore = p.Store
	st.costStoreFill = p.LoadMiss / 2
}

type execState struct {
	runCore
	img    *Image
	bpred  map[*ir.Instr]uint8
	called map[*ir.Function]bool
	fcyc   map[*ir.Function]float64
}

// memSlab is a run's flat memory and data-cache tags: 16 MiB and more, the
// bulk of an execution state. Idle slabs wait in slabs, shared by both
// engines and every machine of the process, so a tree-walking run after
// bytecode runs (the reference check after a tuning run) reuses their slabs.
// A fresh slab's pages stay untouched until the run writes them, a reused
// one's are zeroed by the allocator; which of the two a new slab got would
// depend on when the last GC ran, and so would the peak RSS.
type memSlab struct {
	mem   []cell
	dtags []int64
	hi    int64 // the dirty high-water mark the last run left
}

var slabs freeList[memSlab]

// takeSlab gives st a slab of need cells, scrubbed back to the all-zero state
// a fresh allocation has above globalWords (the globals are fully rewritten
// at run start): a wild but in-bounds pointer above sp must read zero.
// st.m must be set.
func (st *runCore) takeSlab(need, globalWords int64) {
	machinePoolGets.Add(1)
	s := slabs.get()
	if s == nil || int64(cap(s.mem)) < need || len(s.dtags) != st.m.Prof.DCacheLines {
		machinePoolNews.Add(1)
		s = &memSlab{mem: make([]cell, need), dtags: make([]int64, st.m.Prof.DCacheLines)}
	} else if s.hi > globalWords {
		// Scrub before re-slicing: hi is bounded by the previous run's
		// length, which may exceed this image's need.
		clear(s.mem[globalWords:s.hi])
	}
	st.slab = s
	st.mem, st.dtags, st.hi = s.mem[:need], s.dtags, globalWords
	for i := range st.dtags {
		st.dtags[i] = -1
	}
}

// dropSlab returns st's slab to the pool.
func (st *runCore) dropSlab() {
	s := st.slab
	s.mem, s.hi = st.mem, st.hi
	st.slab, st.mem, st.dtags = nil, nil, nil
	slabs.put(s)
}

// dirty widens the scrub region to cover a write ending at index end.
func (st *runCore) dirty(end int64) {
	if end > st.hi {
		st.hi = end
	}
}

// getVals returns a zeroed []Val of length n, reusing a freed frame when the
// most recently released one is large enough.
func (st *runCore) getVals(n int) []Val {
	if k := len(st.valFree); k > 0 {
		if s := st.valFree[k-1]; cap(s) >= n {
			st.valFree = st.valFree[:k-1]
			s = s[:n]
			for i := range s {
				s[i] = Val{}
			}
			return s
		}
	}
	return make([]Val, n)
}

// putVals releases a frame slice for reuse by later calls.
func (st *runCore) putVals(s []Val) {
	if cap(s) > 0 {
		st.valFree = append(st.valFree, s)
	}
}

// call executes f, attributing exclusive cycles to it.
func (st *execState) call(f *ir.Function, args []Val) (Val, error) {
	start := st.cycles
	savedChild := st.curChild
	st.curChild = 0
	v, err := st.callInner(f, args)
	total := st.cycles - start
	st.fcyc[f] += total - st.curChild
	st.curChild = savedChild + total
	return v, err
}

// acquireState returns a run-ready execution state: pooled when available,
// newly allocated otherwise, on a memory slab from the process-wide pool.
func (m *Machine) acquireState(img *Image) *execState {
	st := m.statePool.get()
	if st == nil {
		st = &execState{bpred: make(map[*ir.Instr]uint8)}
	} else {
		clear(st.bpred)
	}
	st.m, st.img = m, img
	st.takeSlab(img.GlobalWords+m.StackWords, img.GlobalWords)
	st.prepMemModel()
	st.sp = img.GlobalWords
	st.cycles, st.steps, st.curChild, st.depth = 0, 0, 0, 0
	st.out = nil // escapes via Result
	st.called = make(map[*ir.Function]bool)
	st.fcyc = make(map[*ir.Function]float64)
	return st
}

// releaseState returns st to the pool. Escaping references (out) were
// detached by the caller; maps that do not escape are cleared lazily on
// reuse.
func (m *Machine) releaseState(st *execState) {
	st.dropSlab()
	st.img = nil
	st.out = nil
	st.called, st.fcyc = nil, nil
	m.statePool.put(st)
}

// resultPool recycles Result values (and their Output / FuncCycles backing
// storage) across measurement runs. Callers done with a Result hand it back
// via ReleaseResult; retained results simply stay out of the pool.
var resultPool sync.Pool

// acquireResult returns a zeroed Result whose Output and FuncCycles storage
// may be recycled from an earlier released run.
func acquireResult() *Result {
	r, _ := resultPool.Get().(*Result)
	if r == nil {
		return &Result{FuncCycles: make(map[string]float64)}
	}
	r.Output = r.Output[:0]
	clear(r.FuncCycles)
	r.Cycles, r.Steps, r.Ret = 0, 0, Val{}
	return r
}

// ReleaseResult returns r to the measurement result pool. The caller must
// not retain r, r.Output or r.FuncCycles afterwards. nil is a no-op.
func ReleaseResult(r *Result) {
	if r == nil {
		return
	}
	resultPool.Put(r)
}

// initGlobals writes every global's initial image into the shared memory
// slab. Identical for both engines.
func (st *runCore) initGlobals(img *Image) {
	for _, mod := range img.Modules {
		for _, g := range mod.Globals {
			base := img.GlobalAddr[g]
			for i := 0; i < g.Size; i++ {
				var c cell
				if g.InitI != nil && i < len(g.InitI) {
					c.i = g.InitI[i]
				}
				if g.InitF != nil && i < len(g.InitF) {
					c.f = g.InitF[i]
				}
				st.mem[base+int64(i)] = c
			}
		}
	}
}

// icachePenalty applies the instruction-footprint penalty for a hot set of
// the given static size. Identical for both engines.
func (m *Machine) icachePenalty(cycles float64, hot int) float64 {
	if hot > m.Prof.ICacheInstrs && m.Prof.ICacheInstrs > 0 {
		over := math.Log2(float64(hot) / float64(m.Prof.ICacheInstrs))
		cycles *= 1 + m.Prof.ICachePenalty*over
	}
	return cycles
}

// Run executes the named entry function with the given arguments and returns
// the observable output and modelled cycle count. The bytecode engine runs it
// unless TreeWalk is set; both engines produce bit-identical Results. An
// image the lowerer cannot express fails with ErrUnlowerable.
func (m *Machine) Run(img *Image, entry string, args ...Val) (*Result, error) {
	if m.TreeWalk {
		return m.runTree(img, entry, args...)
	}
	prog, err := m.lowered(img)
	if err != nil {
		return nil, err
	}
	return m.runBC(prog, img, entry, args)
}

// runTree is the original tree-walking interpreter.
func (m *Machine) runTree(img *Image, entry string, args ...Val) (*Result, error) {
	f, ok := img.Funcs[entry]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoFunction, entry)
	}
	res := acquireResult()
	st := m.acquireState(img)
	defer m.releaseState(st)
	st.out = res.Output
	st.initGlobals(img)
	ret, err := st.call(f, args)
	if err != nil {
		res.Output = st.out
		ReleaseResult(res)
		return nil, err
	}
	// Instruction-footprint penalty over the functions actually executed.
	hot := 0
	for fn := range st.called {
		hot += img.funcSize[fn]
	}
	res.Output = st.out
	res.Cycles = m.icachePenalty(st.cycles, hot)
	res.Steps = st.steps
	res.Ret = ret
	for fn, c := range st.fcyc {
		res.FuncCycles[fn.Name] = c
	}
	return res, nil
}

func (st *execState) callInner(f *ir.Function, args []Val) (Val, error) {
	if st.depth >= st.m.MaxCallDepth {
		return Val{}, ErrCallDepth
	}
	st.depth++
	defer func() { st.depth-- }()
	st.called[f] = true
	st.cycles += st.m.Prof.CallOver

	regs := st.getVals(f.NumInstrs())
	params := st.getVals(len(f.Params))
	defer func() {
		st.putVals(regs)
		st.putVals(params)
	}()
	copy(params, args)
	savedSP := st.sp

	eval := func(v ir.Value) (Val, error) {
		switch t := v.(type) {
		case *ir.Const:
			return Val{I: t.I, F: t.F}, nil
		case *ir.Param:
			return params[t.Index], nil
		case *ir.Global:
			return Val{I: st.img.GlobalAddr[t]}, nil
		case *ir.Instr:
			return regs[t.ID], nil
		default:
			return Val{}, fmt.Errorf("machine: unknown value %T", v)
		}
	}

	var prev *ir.Block
	cur := f.Entry()
	for {
		// Phi nodes: parallel copy semantics on the incoming edge.
		phis := cur.Phis()
		if len(phis) > 0 {
			// Parallel-copy scratch: fully written before read, never live
			// across a call, so the per-state buffer is safe under recursion.
			if cap(st.phiTmp) < len(phis) {
				st.phiTmp = make([]Val, len(phis))
			}
			tmp := st.phiTmp[:len(phis)]
			for pi, phi := range phis {
				found := false
				for i, from := range phi.Blocks {
					if from == prev {
						v, err := eval(phi.Ops[i])
						if err != nil {
							return Val{}, err
						}
						tmp[pi] = v
						found = true
						break
					}
				}
				if !found {
					return Val{}, fmt.Errorf("machine: phi in %s has no incoming for %v", cur.Name, blockName(prev))
				}
				st.steps++
			}
			for pi, phi := range phis {
				regs[phi.ID] = tmp[pi]
			}
		}

		for idx := len(phis); idx < len(cur.Instrs); idx++ {
			in := cur.Instrs[idx]
			st.steps++
			if st.steps > st.m.MaxSteps {
				return Val{}, ErrStepLimit
			}
			st.cycles += st.m.Prof.opCost(in)

			switch in.Op {
			case ir.OpAlloca:
				words := int64(in.NAlloc) * int64(max(1, in.AllocTy.Lanes))
				if st.sp+words > int64(len(st.mem)) {
					return Val{}, ErrStack
				}
				base := st.sp
				for i := int64(0); i < words; i++ {
					st.mem[base+i] = cell{}
				}
				st.sp += words
				regs[in.ID] = Val{I: base}

			case ir.OpLoad:
				p, err := eval(in.Ops[0])
				if err != nil {
					return Val{}, err
				}
				v, err := st.load(p.I, in.Ty)
				if err != nil {
					return Val{}, err
				}
				regs[in.ID] = v

			case ir.OpStore:
				v, err := eval(in.Ops[0])
				if err != nil {
					return Val{}, err
				}
				p, err := eval(in.Ops[1])
				if err != nil {
					return Val{}, err
				}
				if err := st.store(p.I, in.Ops[0].Type(), v); err != nil {
					return Val{}, err
				}

			case ir.OpGEP:
				base, err := eval(in.Ops[0])
				if err != nil {
					return Val{}, err
				}
				idxV, err := eval(in.Ops[1])
				if err != nil {
					return Val{}, err
				}
				regs[in.ID] = Val{I: base.I + idxV.I}

			case ir.OpBr:
				c, err := eval(in.Ops[0])
				if err != nil {
					return Val{}, err
				}
				taken := c.I != 0
				st.chargeBranch(in, taken)
				prev = cur
				if taken {
					cur = in.Blocks[0]
				} else {
					cur = in.Blocks[1]
				}
				goto nextBlock

			case ir.OpJmp:
				prev = cur
				cur = in.Blocks[0]
				goto nextBlock

			case ir.OpSwitch:
				v, err := eval(in.Ops[0])
				if err != nil {
					return Val{}, err
				}
				st.cycles += st.m.Prof.Branch + st.m.Prof.Mispredict/2
				prev = cur
				cur = in.Blocks[0]
				for ci, cv := range in.Cases {
					if cv == v.I {
						cur = in.Blocks[ci+1]
						break
					}
				}
				goto nextBlock

			case ir.OpRet:
				st.sp = savedSP
				if len(in.Ops) == 0 {
					return Val{}, nil
				}
				return eval(in.Ops[0])

			case ir.OpCall:
				// argv is live across the callee, so it comes from the
				// freelist (each frame gets its own) rather than a shared
				// scratch buffer.
				argv := st.getVals(len(in.Ops))
				for i, a := range in.Ops {
					v, err := eval(a)
					if err != nil {
						return Val{}, err
					}
					argv[i] = v
				}
				if ir.IsBuiltin(in.Callee) {
					v, err := st.builtin(in.Callee, argv)
					if err != nil {
						return Val{}, err
					}
					regs[in.ID] = v
				} else {
					callee, ok := st.img.Funcs[in.Callee]
					if !ok {
						return Val{}, fmt.Errorf("%w: %s", ErrNoFunction, in.Callee)
					}
					v, err := st.call(callee, argv)
					if err != nil {
						return Val{}, err
					}
					regs[in.ID] = v
				}
				st.putVals(argv)

			default:
				v, err := st.evalPure(in, eval)
				if err != nil {
					return Val{}, err
				}
				regs[in.ID] = v
			}
		}
		return Val{}, fmt.Errorf("machine: block %s fell through", cur.Name)
	nextBlock:
	}
}

func blockName(b *ir.Block) string {
	if b == nil {
		return "<entry>"
	}
	return b.Name
}

// evalPure computes arithmetic, comparison, cast, select and vector ops:
// it evaluates the operands in order and hands the first three to
// evalPureOp, the evaluator the bytecode engine's generic opcode runs too.
func (st *execState) evalPure(in *ir.Instr, eval func(ir.Value) (Val, error)) (Val, error) {
	g := genOp{op: in.Op, pred: in.Pred, ty: in.Ty}
	var ops [3]Val
	for i, o := range in.Ops {
		v, err := eval(o)
		if err != nil {
			return Val{}, err
		}
		if i < len(ops) {
			ops[i] = v
		}
	}
	if len(in.Ops) > 0 {
		g.opTy = in.Ops[0].Type()
	}
	return evalPureOp(&g, &ops)
}

func binVal(op ir.Op, ty ir.Type, a, b Val) (Val, error) {
	if ty.IsVector() {
		out := Val{Vec: make([]Val, ty.Lanes)}
		for i := 0; i < ty.Lanes; i++ {
			v, err := binScalar(op, ty.Kind, lane(a, i), lane(b, i))
			if err != nil {
				return Val{}, err
			}
			out.Vec[i] = v
		}
		return out, nil
	}
	return binScalar(op, ty.Kind, a, b)
}

func lane(v Val, i int) Val {
	if v.Vec != nil {
		return v.Vec[i]
	}
	return v
}

// binScalar computes one lane of a binary op through ir's semantics.
func binScalar(op ir.Op, k ir.Kind, a, b Val) (Val, error) {
	switch {
	case op.IsIntBinary():
		v, ok := ir.IntBinary(op, k, a.I, b.I)
		if !ok {
			return Val{}, ErrDivByZero
		}
		return Val{I: v}, nil
	case op.IsBinary():
		return Val{F: ir.FloatBinary(op, a.F, b.F)}, nil
	}
	return Val{}, fmt.Errorf("machine: bad binary op %s", op)
}

// boolVal is an i1 result: 1 for true, 0 for false.
func boolVal(r bool) int64 {
	if r {
		return 1
	}
	return 0
}

func cmpVal(p ir.CmpPred, opTy ir.Type, a, b Val, isFloat bool) Val {
	one := func(x, y Val) Val {
		if isFloat {
			return Val{I: boolVal(ir.Compare(p, x.F, y.F))}
		}
		return Val{I: boolVal(ir.Compare(p, x.I, y.I))}
	}
	if opTy.IsVector() {
		out := Val{Vec: make([]Val, opTy.Lanes)}
		for i := 0; i < opTy.Lanes; i++ {
			out.Vec[i] = one(lane(a, i), lane(b, i))
		}
		return out
	}
	return one(a, b)
}

func selectVal(ty ir.Type, c, a, b Val) Val {
	if ty.IsVector() {
		out := Val{Vec: make([]Val, ty.Lanes)}
		for i := 0; i < ty.Lanes; i++ {
			if lane(c, i).I != 0 {
				out.Vec[i] = lane(a, i)
			} else {
				out.Vec[i] = lane(b, i)
			}
		}
		return out
	}
	if c.I != 0 {
		return a
	}
	return b
}

func castVal(op ir.Op, from, to ir.Type, v Val) Val {
	one := func(x Val) Val {
		i, f := ir.Cast(op, from.Kind, to.Kind, x.I, x.F)
		return Val{I: i, F: f}
	}
	if to.IsVector() {
		out := Val{Vec: make([]Val, to.Lanes)}
		for i := 0; i < to.Lanes; i++ {
			out.Vec[i] = one(lane(v, i))
		}
		return out
	}
	return one(v)
}

// load reads a scalar or vector of type ty starting at addr.
func (st *runCore) load(addr int64, ty ir.Type) (Val, error) {
	n := int64(max(1, ty.Lanes))
	if addr < 0 || addr+n > int64(len(st.mem)) {
		return Val{}, ErrSegfault
	}
	st.chargeMem(addr, n, true)
	get := func(a int64) Val {
		c := st.mem[a]
		if ty.Kind.IsFloat() {
			return Val{F: c.f}
		}
		return Val{I: c.i}
	}
	if ty.IsVector() {
		out := Val{Vec: make([]Val, ty.Lanes)}
		for i := int64(0); i < n; i++ {
			out.Vec[i] = get(addr + i)
		}
		return out, nil
	}
	return get(addr), nil
}

// store writes a scalar or vector of type ty starting at addr.
func (st *runCore) store(addr int64, ty ir.Type, v Val) error {
	n := int64(max(1, ty.Lanes))
	if addr < 0 || addr+n > int64(len(st.mem)) {
		return ErrSegfault
	}
	st.chargeMem(addr, n, false)
	st.dirty(addr + n)
	put := func(a int64, x Val) {
		if ty.Kind.IsFloat() {
			st.mem[a].f = x.F
		} else {
			st.mem[a].i = ir.WrapInt(ty.Kind, x.I)
		}
	}
	if ty.IsVector() {
		for i := int64(0); i < n; i++ {
			put(addr+i, lane(v, int(i)))
		}
		return nil
	}
	put(addr, v)
	return nil
}

// dcacheWays is the associativity of the modelled data cache.
const dcacheWays = 4

// touchLine looks line ln up in the modelled data cache (4-way set
// associative, LRU replacement) and makes it the most recently used way of
// its set, evicting the least recently used way on a miss. Every load and
// store of both engines goes through it — chargeMem's per-line loop and the
// bytecode engine's scalar fast path — and the caller adds the charge. The
// set index uses the shift/mask constants from prepMemModel. A hit on the
// MRU way, the common case, changes nothing: that test is kept small enough
// to be inlined into the callers, and promoteLine does the rest.
func (st *runCore) touchLine(ln int64) (hit bool) {
	if st.dtags[(ln&st.setMask)*dcacheWays] == ln {
		return true
	}
	return st.promoteLine(ln)
}

// promoteLine moves line ln, which is not the MRU way of its set, to the
// front: on a hit the younger ways shift down, on a miss the LRU way falls
// off the end. The way scan is unrolled.
func (st *runCore) promoteLine(ln int64) (hit bool) {
	set := (ln & st.setMask) * dcacheWays
	ways := (*[dcacheWays]int64)(st.dtags[set : set+dcacheWays])
	hit = true
	switch ln {
	case ways[1]:
	case ways[2]:
		ways[2] = ways[1]
	case ways[3]:
		ways[3] = ways[2]
		ways[2] = ways[1]
	default:
		hit = false
		ways[3] = ways[2]
		ways[2] = ways[1]
	}
	ways[1] = ways[0]
	ways[0] = ln
	return hit
}

// chargeMem charges an access of n words at addr, line by line: a load
// LoadHit or LoadHit+LoadMiss, a store Store plus the write-allocate fill on
// a miss. The cycle charges are added in exactly the order the
// straightforward loop would, so results stay bit-identical.
func (st *runCore) chargeMem(addr, n int64, isLoad bool) {
	first := addr >> st.lineShift
	last := (addr + n - 1) >> st.lineShift
	for ln := first; ln <= last; ln++ {
		hit := st.touchLine(ln)
		if isLoad {
			if hit {
				st.cycles += st.costLoadHit
			} else {
				st.cycles += st.costLoadMiss
			}
		} else {
			st.cycles += st.costStore
			if !hit {
				st.cycles += st.costStoreFill
			}
		}
	}
}

// chargeBranch models a per-branch 2-bit saturating predictor.
func (st *execState) chargeBranch(in *ir.Instr, taken bool) {
	p := &st.m.Prof
	st.cycles += p.Branch
	state := st.bpred[in]
	predictTaken := state >= 2
	if predictTaken != taken {
		st.cycles += p.Mispredict
	}
	if taken && state < 3 {
		state++
	} else if !taken && state > 0 {
		state--
	}
	st.bpred[in] = state
}

// builtin executes a runtime-provided function.
func (st *runCore) builtin(name string, args []Val) (Val, error) {
	p := &st.m.Prof
	switch name {
	case "sim.out.i64":
		st.cycles += 2
		st.out = append(st.out, OutputEvent{I: args[0].I})
		return Val{}, nil
	case "sim.out.f64":
		st.cycles += 2
		st.out = append(st.out, OutputEvent{IsFloat: true, F: args[0].F})
		return Val{}, nil
	case "sim.memset":
		ptr, v, n := args[0].I, args[1].I, args[2].I
		if ptr < 0 || ptr+n > int64(len(st.mem)) || n < 0 {
			return Val{}, ErrSegfault
		}
		st.dirty(ptr + n)
		for i := int64(0); i < n; i++ {
			st.mem[ptr+i] = cell{i: v, f: float64(v)}
		}
		// Streaming stores: cheaper than elementwise store loop.
		st.cycles += float64(n) * 0.5
		return Val{}, nil
	case "sim.memcpy":
		dst, src, n := args[0].I, args[1].I, args[2].I
		if dst < 0 || src < 0 || n < 0 || dst+n > int64(len(st.mem)) || src+n > int64(len(st.mem)) {
			return Val{}, ErrSegfault
		}
		st.dirty(dst + n)
		copy(st.mem[dst:dst+n], st.mem[src:src+n])
		st.cycles += float64(n) * 0.75
		return Val{}, nil
	case "sim.abs.i64":
		st.cycles += p.IntALU
		v := args[0].I
		if v < 0 {
			v = -v
		}
		return Val{I: v}, nil
	case "sim.min.i64":
		st.cycles += p.IntALU
		if args[0].I < args[1].I {
			return args[0], nil
		}
		return args[1], nil
	case "sim.max.i64":
		st.cycles += p.IntALU
		if args[0].I > args[1].I {
			return args[0], nil
		}
		return args[1], nil
	case "sim.sqrt":
		st.cycles += p.FloatDiv
		return Val{F: math.Sqrt(args[0].F)}, nil
	case "sim.exp":
		st.cycles += 4 * p.FloatALU
		return Val{F: math.Exp(args[0].F)}, nil
	case "sim.log":
		st.cycles += 4 * p.FloatALU
		return Val{F: math.Log(args[0].F)}, nil
	case "sim.prefetch":
		// Warm the line containing the address; costs one issue slot. The
		// benefit materialises as later hits in chargeMem.
		st.cycles++
		addr := args[0].I
		if addr >= 0 && addr < int64(len(st.mem)) {
			ln := addr >> st.lineShift
			set := (ln & st.setMask) * dcacheWays
			ways := st.dtags[set : set+dcacheWays]
			found := false
			for _, tag := range ways {
				if tag == ln {
					found = true
					break
				}
			}
			if !found {
				copy(ways[1:], ways[:dcacheWays-1])
				ways[0] = ln
			}
		}
		return Val{}, nil
	case "sim.memcmp":
		pp, q, n := args[0].I, args[1].I, args[2].I
		if pp < 0 || q < 0 || n < 0 || pp+n > int64(len(st.mem)) || q+n > int64(len(st.mem)) {
			return Val{}, ErrSegfault
		}
		st.cycles += float64(n) * 0.6
		for i := int64(0); i < n; i++ {
			if st.mem[pp+i].i != st.mem[q+i].i {
				return Val{I: 0}, nil
			}
		}
		return Val{I: 1}, nil
	}
	return Val{}, fmt.Errorf("machine: unknown builtin %q", name)
}
