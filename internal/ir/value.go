package ir

import "fmt"

// Value is anything an instruction can use as an operand.
type Value interface {
	Type() Type
	valueName() string
}

// Const is a compile-time constant scalar.
type Const struct {
	Ty Type
	I  int64
	F  float64
}

// ConstInt returns an integer constant of type t.
func ConstInt(t Type, v int64) *Const { return &Const{Ty: t, I: truncInt(t.Kind, v)} }

// ConstFloat returns a floating constant of type t.
func ConstFloat(t Type, v float64) *Const { return &Const{Ty: t, F: v} }

// ConstBool returns an i1 constant.
func ConstBool(b bool) *Const {
	if b {
		return &Const{Ty: I1T, I: 1}
	}
	return &Const{Ty: I1T}
}

// Type implements Value.
func (c *Const) Type() Type { return c.Ty }

func (c *Const) valueName() string {
	if c.Ty.Kind.IsFloat() {
		return fmt.Sprintf("%s %g", c.Ty, c.F)
	}
	return fmt.Sprintf("%s %d", c.Ty, c.I)
}

// IsZero reports whether the constant is the additive identity.
func (c *Const) IsZero() bool {
	if c.Ty.Kind.IsFloat() {
		return c.F == 0
	}
	return c.I == 0
}

// IsOne reports whether the constant is the multiplicative identity.
func (c *Const) IsOne() bool {
	if c.Ty.Kind.IsFloat() {
		return c.F == 1
	}
	return c.I == 1
}

// truncInt wraps v to the bit width of kind k (sign-extended).
func truncInt(k Kind, v int64) int64 {
	switch k {
	case I1:
		return v & 1
	case I8:
		return int64(int8(v))
	case I16:
		return int64(int16(v))
	case I32:
		return int64(int32(v))
	default:
		return v
	}
}

// Param is a function parameter.
type Param struct {
	Name  string
	Ty    Type
	Index int
}

// Type implements Value.
func (p *Param) Type() Type        { return p.Ty }
func (p *Param) valueName() string { return "%" + p.Name }

// Global is a module-level array variable.
type Global struct {
	Name string
	Elem Type // element type
	Size int  // number of elements
	// InitI / InitF are the optional initialiser (len Size or nil). Their
	// contents are read-only once the module is built: every clone of the
	// module shares the backing arrays (cloneGlobals), so a pass may read an
	// initialiser, drop it or point the field at a new array, but never
	// writes an element.
	InitI   []int64
	InitF   []float64
	Const   bool // read-only data
	address int64
}

// Type implements Value; globals evaluate to their address.
func (g *Global) Type() Type        { return PtrT }
func (g *Global) valueName() string { return "@" + g.Name }

// InstrFlags carries per-instruction transformation markers.
type InstrFlags uint8

// Instruction flags.
const (
	// FlagWidened marks values whose width was canonicalised upward by
	// instcombine (the paper's Fig 5.1c interaction: widened reduction chains
	// defeat SLP profitability).
	FlagWidened InstrFlags = 1 << iota
	// FlagNoWrap marks arithmetic proven not to overflow (set by indvars),
	// a precondition for some loop transforms.
	FlagNoWrap
	// FlagAddressTaken marks allocas whose address escapes (not promotable).
	FlagAddressTaken
)

// Instr is a single IR instruction. Instructions are Values when they produce
// a result (Ty != VoidT).
type Instr struct {
	Op      Op
	Ty      Type    // result type; VoidT if none
	Ops     []Value // operands
	Blocks  []*Block
	Cases   []int64 // switch case values (parallel to Blocks[1:])
	Pred    CmpPred // for icmp/fcmp
	Callee  string  // for call
	AllocTy Type    // for alloca: element type
	NAlloc  int     // for alloca: element count
	Flags   InstrFlags
	// ID is the instruction's position in its function in block order, as of
	// the last Function.Renumber — the only writer. Clone, fingerprint and
	// verify index their tables by it, the printer names values by it, and
	// machine.Link and the bytecode lowerer use it as the register slot. It
	// goes stale as passes insert and remove instructions, so every reader
	// renumbers first (or, on a COW-shared body, relies on Module.Clone
	// having done so) and proves a reference local by identity.
	ID     int
	parent *Block
	// uid is this instruction's slot (1-based) in the tables of the Uses
	// index that last numbered it, identity-checked. It is not ID: a pass
	// keeps its index while it inserts and removes instructions, and CSE and
	// reassociate renumber ID under a live index. It means nothing once that
	// index is released.
	uid int32
}

// Type implements Value.
func (in *Instr) Type() Type { return in.Ty }

func (in *Instr) valueName() string { return fmt.Sprintf("%%%d", in.ID) }

// Parent returns the containing block (nil if detached).
func (in *Instr) Parent() *Block { return in.parent }

// IsTerminator reports whether the instruction ends its block.
func (in *Instr) IsTerminator() bool { return in.Op.IsTerminator() }

// Succs returns the successor blocks of a terminator.
func (in *Instr) Succs() []*Block {
	if !in.IsTerminator() {
		return nil
	}
	return in.Blocks
}

// ConstOperand returns operand i as *Const if it is one.
func (in *Instr) ConstOperand(i int) (*Const, bool) {
	c, ok := in.Ops[i].(*Const)
	return c, ok
}
