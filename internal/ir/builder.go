package ir

import "fmt"

// Builder incrementally constructs a function. It is the API used by
// internal/irgen and by tests to author IR.
type Builder struct {
	M   *Module
	F   *Function
	B   *Block
	nbl int
}

// NewBuilder returns a builder appending to module m.
func NewBuilder(m *Module) *Builder { return &Builder{M: m} }

// NewFunction starts a new function with the given signature and creates its
// entry block.
func (bd *Builder) NewFunction(name string, ret Type, params ...Type) *Function {
	f := &Function{Name: name, RetTy: ret}
	for i, t := range params {
		f.Params = append(f.Params, &Param{Name: fmt.Sprintf("a%d", i), Ty: t, Index: i})
	}
	bd.M.Funcs = append(bd.M.Funcs, f)
	bd.F = f
	bd.nbl = 0
	bd.B = bd.NewBlock("entry")
	return f
}

// DeclareFunction adds an external declaration (no body).
func (bd *Builder) DeclareFunction(name string, ret Type, params ...Type) *Function {
	f := &Function{Name: name, RetTy: ret, IsDecl: true}
	for i, t := range params {
		f.Params = append(f.Params, &Param{Name: fmt.Sprintf("a%d", i), Ty: t, Index: i})
	}
	bd.M.Funcs = append(bd.M.Funcs, f)
	return f
}

// NewBlock appends a new block to the current function and returns it
// (without switching to it).
func (bd *Builder) NewBlock(name string) *Block {
	if name == "" {
		name = fmt.Sprintf("b%d", bd.nbl)
	}
	bd.nbl++
	b := &Block{Name: name, parent: bd.F}
	bd.F.Blocks = append(bd.F.Blocks, b)
	return b
}

// SetBlock switches the insertion point to b.
func (bd *Builder) SetBlock(b *Block) { bd.B = b }

func (bd *Builder) emit(in *Instr) *Instr { return bd.B.Append(in) }

// Alloca allocates n elements of type elem on the frame.
func (bd *Builder) Alloca(elem Type, n int) *Instr {
	return bd.emit(&Instr{Op: OpAlloca, Ty: PtrT, AllocTy: elem, NAlloc: n})
}

// Load loads a value of type t from ptr.
func (bd *Builder) Load(t Type, ptr Value) *Instr {
	return bd.emit(&Instr{Op: OpLoad, Ty: t, Ops: []Value{ptr}})
}

// Store stores v to ptr.
func (bd *Builder) Store(v, ptr Value) *Instr {
	return bd.emit(&Instr{Op: OpStore, Ty: VoidT, Ops: []Value{v, ptr}})
}

// GEP computes ptr + idx (element-scaled address arithmetic).
func (bd *Builder) GEP(ptr, idx Value) *Instr {
	return bd.emit(&Instr{Op: OpGEP, Ty: PtrT, Ops: []Value{ptr, idx}})
}

// Bin emits a binary arithmetic instruction.
func (bd *Builder) Bin(op Op, a, b Value) *Instr {
	if !op.IsBinary() {
		panic("ir: Bin with non-binary op " + op.String())
	}
	return bd.emit(&Instr{Op: op, Ty: a.Type(), Ops: []Value{a, b}})
}

// ICmp emits an integer comparison producing i1 (vector compares produce a
// vector of i1 with matching lanes).
func (bd *Builder) ICmp(p CmpPred, a, b Value) *Instr {
	t := Type{Kind: I1, Lanes: a.Type().Lanes}
	return bd.emit(&Instr{Op: OpICmp, Ty: t, Pred: p, Ops: []Value{a, b}})
}

// Select emits cond ? a : b.
func (bd *Builder) Select(c, a, b Value) *Instr {
	return bd.emit(&Instr{Op: OpSelect, Ty: a.Type(), Ops: []Value{c, a, b}})
}

// Cast emits a conversion to type t.
func (bd *Builder) Cast(op Op, v Value, t Type) *Instr {
	if !op.IsCast() {
		panic("ir: Cast with non-cast op " + op.String())
	}
	return bd.emit(&Instr{Op: op, Ty: t, Ops: []Value{v}})
}

// Br emits a conditional branch.
func (bd *Builder) Br(cond Value, then, els *Block) *Instr {
	return bd.emit(&Instr{Op: OpBr, Ty: VoidT, Ops: []Value{cond}, Blocks: []*Block{then, els}})
}

// Jmp emits an unconditional branch.
func (bd *Builder) Jmp(to *Block) *Instr {
	return bd.emit(&Instr{Op: OpJmp, Ty: VoidT, Blocks: []*Block{to}})
}

// Switch emits a switch terminator.
func (bd *Builder) Switch(v Value, def *Block, cases []int64, targets []*Block) *Instr {
	if len(cases) != len(targets) {
		panic("ir: switch case/target length mismatch")
	}
	blocks := append([]*Block{def}, targets...)
	return bd.emit(&Instr{Op: OpSwitch, Ty: VoidT, Ops: []Value{v}, Blocks: blocks, Cases: append([]int64(nil), cases...)})
}

// Ret emits a return; v may be nil for void returns.
func (bd *Builder) Ret(v Value) *Instr {
	in := &Instr{Op: OpRet, Ty: VoidT}
	if v != nil {
		in.Ops = []Value{v}
	}
	return bd.emit(in)
}

// Phi emits a phi node of type t; incoming edges are added with AddIncoming.
func (bd *Builder) Phi(t Type) *Instr {
	return bd.emit(&Instr{Op: OpPhi, Ty: t})
}

// AddIncoming appends an incoming (value, predecessor) pair to a phi.
func AddIncoming(phi *Instr, v Value, from *Block) {
	if phi.Op != OpPhi {
		panic("ir: AddIncoming on non-phi")
	}
	phi.Ops = append(phi.Ops, v)
	phi.Blocks = append(phi.Blocks, from)
}

// Call emits a call to the named function.
func (bd *Builder) Call(callee string, ret Type, args ...Value) *Instr {
	return bd.emit(&Instr{Op: OpCall, Ty: ret, Callee: callee, Ops: args})
}

// AddGlobal appends a global array to the module.
func (bd *Builder) AddGlobal(name string, elem Type, size int) *Global {
	g := &Global{Name: name, Elem: elem, Size: size}
	bd.M.Globals = append(bd.M.Globals, g)
	return g
}
