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

	// prog is the image's lowered program and progProf the profile whose
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

	// statePool recycles execution state (the flat memory slab, predictor
	// and attribution maps, frame register files) across runs. Reused memory
	// is scrubbed back to the all-zero state a fresh allocation would have,
	// so pooled and unpooled runs are bit-identical. bcPool is the same for
	// the bytecode engine's states.
	statePool freeList[execState]
	bcPool    freeList[bcState]

	// bcMu guards the bytecode-engine counters.
	bcMu    sync.Mutex
	bcStats BcStats
}

// Process-global interpreter scratch-pool counters (Prometheus/env-field
// reporting only: pool behaviour is scheduling-dependent, so these must
// never reach canonical journal fields).
var machinePoolGets, machinePoolNews atomic.Uint64

// PoolCounters returns the cumulative execution-state acquisitions (one per
// run) and the subset that had to allocate a fresh state; Results, which are
// small and live in a sync.Pool, are not counted.
func PoolCounters() (gets, news uint64) {
	return machinePoolGets.Load(), machinePoolNews.Load()
}

// freeList keeps the idle execution states of one machine: at most
// GOMAXPROCS of them, which is how many runs can be in flight. A state is a
// 16 MiB+ slab, and a sync.Pool hands those back to the GC every second
// cycle only for the next run to allocate and clear a new one.
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
// and cycle/step accumulators. Both engines run the very same load/store/
// builtin code on this struct, so those parts are bit-identical by
// construction.
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
	// valFree is a LIFO freelist of frame register files ([]Val) released by
	// returned calls; entries are scrubbed on reuse.
	valFree [][]Val
	// phiTmp is per-state scratch for phi parallel copies. No use spans a
	// call, so one buffer per state suffices even under recursion.
	phiTmp []Val
	// Cache geometry and cost constants hoisted out of chargeMem's per-access
	// path (it dominates execution time in both engines). Derived from m.Prof
	// by prepMemModel; DCacheLineElt and DCacheLines/dcacheWays are powers of
	// two by Profile contract, so division becomes a shift and modulo a mask.
	lineShift     uint
	setMask       int64
	costLoadHit   float64 // LoadHit
	costLoadMiss  float64 // LoadHit + LoadMiss, pre-summed in charge order
	costStore     float64 // Store
	costStoreFill float64 // LoadMiss / 2 (write-allocate fill)
}

// prepMemModel derives the chargeMem constants from the machine profile.
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
	// opsTmp is scratch for pure-op operand evaluation; evalPure never
	// re-enters the interpreter, so the buffer cannot be live twice.
	opsTmp []Val
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

// acquireState returns a run-ready execution state: pooled when available
// (scrubbed back to fresh-allocation equivalence), newly allocated otherwise.
func (m *Machine) acquireState(img *Image) *execState {
	machinePoolGets.Add(1)
	need := img.GlobalWords + m.StackWords
	st := m.statePool.get()
	if st == nil || int64(cap(st.mem)) < need || len(st.dtags) != m.Prof.DCacheLines {
		machinePoolNews.Add(1)
		st = &execState{
			runCore: runCore{
				mem:   make([]cell, need),
				dtags: make([]int64, m.Prof.DCacheLines),
			},
			bpred: make(map[*ir.Instr]uint8),
		}
	} else {
		// Scrub what previous runs dirtied above the current global region
		// (the globals themselves are fully rewritten below). A wild but
		// in-bounds pointer above sp must read zero, exactly as from a fresh
		// allocation. Scrub before re-slicing: hi is bounded by the previous
		// run's length, which may exceed this image's need.
		if st.hi > img.GlobalWords {
			scrub := st.mem[img.GlobalWords:st.hi]
			for i := range scrub {
				scrub[i] = cell{}
			}
		}
		st.mem = st.mem[:need]
		clear(st.bpred)
	}
	st.m, st.img = m, img
	st.prepMemModel()
	st.sp = img.GlobalWords
	st.hi = img.GlobalWords
	st.cycles, st.steps, st.curChild, st.depth = 0, 0, 0, 0
	st.out = nil // escapes via Result
	st.called = make(map[*ir.Function]bool)
	st.fcyc = make(map[*ir.Function]float64)
	for i := range st.dtags {
		st.dtags[i] = -1
	}
	return st
}

// releaseState returns st to the pool. Escaping references (out) were
// detached by the caller; maps that do not escape are cleared lazily on
// reuse.
func (m *Machine) releaseState(st *execState) {
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

// evalPure computes arithmetic, comparison, cast, select and vector ops.
func (st *execState) evalPure(in *ir.Instr, eval func(ir.Value) (Val, error)) (Val, error) {
	// Operand scratch: evalPure never re-enters the interpreter, so the
	// per-state buffer cannot be live twice.
	if cap(st.opsTmp) < len(in.Ops) {
		st.opsTmp = make([]Val, len(in.Ops))
	}
	ops := st.opsTmp[:len(in.Ops)]
	for i, o := range in.Ops {
		v, err := eval(o)
		if err != nil {
			return Val{}, err
		}
		ops[i] = v
	}
	switch {
	case in.Op.IsBinary():
		return binVal(in.Op, in.Ty, ops[0], ops[1])
	case in.Op == ir.OpICmp:
		return cmpVal(in.Pred, in.Ops[0].Type(), ops[0], ops[1], false)
	case in.Op == ir.OpFCmp:
		return cmpVal(in.Pred, in.Ops[0].Type(), ops[0], ops[1], true)
	case in.Op == ir.OpSelect:
		return selectVal(in.Ty, ops[0], ops[1], ops[2]), nil
	case in.Op.IsCast():
		return castVal(in.Op, in.Ops[0].Type(), in.Ty, ops[0]), nil
	case in.Op == ir.OpBroadcast:
		out := Val{Vec: make([]Val, in.Ty.Lanes)}
		for i := range out.Vec {
			out.Vec[i] = ops[0]
		}
		return out, nil
	case in.Op == ir.OpExtractElement:
		lane := ops[1].I
		if lane < 0 || int(lane) >= len(ops[0].Vec) {
			return Val{}, fmt.Errorf("machine: extractelement lane %d out of range", lane)
		}
		return ops[0].Vec[lane], nil
	case in.Op == ir.OpInsertElement:
		lane := ops[2].I
		if lane < 0 || int(lane) >= len(ops[0].Vec) {
			return Val{}, fmt.Errorf("machine: insertelement lane %d out of range", lane)
		}
		out := Val{Vec: append([]Val(nil), ops[0].Vec...)}
		out.Vec[lane] = ops[1]
		return out, nil
	case in.Op == ir.OpVecReduceAdd:
		elem := in.Ops[0].Type().Kind
		if elem.IsFloat() {
			s := 0.0
			for _, l := range ops[0].Vec {
				s += l.F
			}
			return Val{F: s}, nil
		}
		s := int64(0)
		for _, l := range ops[0].Vec {
			s += l.I
		}
		return Val{I: ir.WrapInt(elem, s)}, nil
	}
	return Val{}, fmt.Errorf("machine: cannot execute op %s", in.Op)
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

func binScalar(op ir.Op, k ir.Kind, a, b Val) (Val, error) {
	switch op {
	case ir.OpAdd:
		return Val{I: ir.WrapInt(k, a.I+b.I)}, nil
	case ir.OpSub:
		return Val{I: ir.WrapInt(k, a.I-b.I)}, nil
	case ir.OpMul:
		return Val{I: ir.WrapInt(k, a.I*b.I)}, nil
	case ir.OpSDiv:
		if b.I == 0 {
			return Val{}, ErrDivByZero
		}
		if a.I == math.MinInt64 && b.I == -1 {
			return Val{I: a.I}, nil
		}
		return Val{I: ir.WrapInt(k, a.I/b.I)}, nil
	case ir.OpSRem:
		if b.I == 0 {
			return Val{}, ErrDivByZero
		}
		if a.I == math.MinInt64 && b.I == -1 {
			return Val{I: 0}, nil
		}
		return Val{I: ir.WrapInt(k, a.I%b.I)}, nil
	case ir.OpUDiv:
		if b.I == 0 {
			return Val{}, ErrDivByZero
		}
		return Val{I: ir.WrapInt(k, int64(uint64(a.I)/uint64(b.I)))}, nil
	case ir.OpAnd:
		return Val{I: a.I & b.I}, nil
	case ir.OpOr:
		return Val{I: a.I | b.I}, nil
	case ir.OpXor:
		return Val{I: a.I ^ b.I}, nil
	case ir.OpShl:
		return Val{I: ir.WrapInt(k, a.I<<uint64(b.I&63))}, nil
	case ir.OpLShr:
		return Val{I: ir.WrapInt(k, int64(uint64(a.I)>>uint64(b.I&63)))}, nil
	case ir.OpAShr:
		return Val{I: ir.WrapInt(k, a.I>>uint64(b.I&63))}, nil
	case ir.OpFAdd:
		return Val{F: a.F + b.F}, nil
	case ir.OpFSub:
		return Val{F: a.F - b.F}, nil
	case ir.OpFMul:
		return Val{F: a.F * b.F}, nil
	case ir.OpFDiv:
		return Val{F: a.F / b.F}, nil
	}
	return Val{}, fmt.Errorf("machine: bad binary op %s", op)
}

func cmpVal(p ir.CmpPred, opTy ir.Type, a, b Val, isFloat bool) (Val, error) {
	one := func(x, y Val) Val {
		var r bool
		if isFloat {
			switch p {
			case ir.CmpEQ:
				r = x.F == y.F
			case ir.CmpNE:
				r = x.F != y.F
			case ir.CmpSLT:
				r = x.F < y.F
			case ir.CmpSLE:
				r = x.F <= y.F
			case ir.CmpSGT:
				r = x.F > y.F
			case ir.CmpSGE:
				r = x.F >= y.F
			}
		} else {
			switch p {
			case ir.CmpEQ:
				r = x.I == y.I
			case ir.CmpNE:
				r = x.I != y.I
			case ir.CmpSLT:
				r = x.I < y.I
			case ir.CmpSLE:
				r = x.I <= y.I
			case ir.CmpSGT:
				r = x.I > y.I
			case ir.CmpSGE:
				r = x.I >= y.I
			}
		}
		if r {
			return Val{I: 1}
		}
		return Val{}
	}
	if opTy.IsVector() {
		out := Val{Vec: make([]Val, opTy.Lanes)}
		for i := 0; i < opTy.Lanes; i++ {
			out.Vec[i] = one(lane(a, i), lane(b, i))
		}
		return out, nil
	}
	return one(a, b), nil
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
		switch op {
		case ir.OpSExt:
			return Val{I: x.I} // values carried sign-extended already
		case ir.OpZExt:
			bits := from.Kind.Bits()
			if bits >= 64 {
				return Val{I: x.I}
			}
			mask := int64(1)<<uint(bits) - 1
			return Val{I: x.I & mask}
		case ir.OpTrunc:
			return Val{I: ir.WrapInt(to.Kind, x.I)}
		case ir.OpSIToFP:
			return Val{F: float64(x.I)}
		case ir.OpFPToSI:
			return Val{I: ir.WrapInt(to.Kind, int64(x.F))}
		case ir.OpFPExt, ir.OpFPTrunc:
			if to.Kind == ir.F32 {
				return Val{F: float64(float32(x.F))}
			}
			return Val{F: x.F}
		}
		return x
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

// chargeMem models the data cache: 4-way set associative with LRU
// replacement, line granularity. This is the hottest function in both
// engines, so the way scan is unrolled and the geometry math uses the
// shift/mask constants from prepMemModel; the cycle charges are added in
// exactly the order the straightforward loop would, so results stay
// bit-identical.
func (st *runCore) chargeMem(addr, n int64, isLoad bool) {
	first := addr >> st.lineShift
	last := (addr + n - 1) >> st.lineShift
	for ln := first; ln <= last; ln++ {
		set := (ln & st.setMask) * dcacheWays
		ways := st.dtags[set : set+dcacheWays : set+dcacheWays]
		// Unrolled 4-way LRU: on hit shift the younger ways down and move the
		// line to MRU; on miss evict the LRU way.
		hit := true
		switch ln {
		case ways[0]:
			// Already MRU.
		case ways[1]:
			ways[1] = ways[0]
			ways[0] = ln
		case ways[2]:
			ways[2] = ways[1]
			ways[1] = ways[0]
			ways[0] = ln
		case ways[3]:
			ways[3] = ways[2]
			ways[2] = ways[1]
			ways[1] = ways[0]
			ways[0] = ln
		default:
			hit = false
			ways[3] = ways[2]
			ways[2] = ways[1]
			ways[1] = ways[0]
			ways[0] = ln
		}
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
