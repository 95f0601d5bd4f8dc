// Package expr implements the symbolic expression DAG used throughout the
// verifier.
//
// Expressions are immutable, hash-consed bitvector terms: two structurally
// equal expressions are always the same pointer, so pointer equality is
// structural equality and maps keyed by *Expr memoize correctly. The
// constructors fold constants eagerly (using internal/bv semantics, the
// same semantics the concrete interpreter and the bit-blaster use) and
// apply a small set of algebraic simplifications, which keeps the terms
// produced by symbolic execution compact.
//
// Packets are modeled as byte arrays (see Array): a base symbolic array
// plus a chain of stores. Select applies read-over-write rewriting at
// construction time, so reads of concretely-addressed, concretely-written
// bytes resolve without ever reaching the solver.
//
// Substitution (Subst) is the composition primitive from the paper: to
// stitch segment e2 after segment e1, the verifier substitutes e1's output
// state for e2's input variables in e2's path constraint.
//
// The codec (codec.go) serializes DAGs into a stable binary record
// stream and decodes by rebuilding through the constructors, so decoded
// terms re-intern into this universe — the foundation of the verifier's
// persistent summary store (DESIGN.md §7).
package expr

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vsd/internal/bv"
)

// Kind discriminates expression nodes.
type Kind uint8

// Expression node kinds.
const (
	KConst   Kind = iota // constant bitvector
	KVar                 // free bitvector variable
	KBin                 // binary operation (arithmetic, bitwise, comparison)
	KNot                 // bitwise complement
	KNeg                 // two's-complement negation
	KIte                 // if-then-else on a 1-bit condition
	KZExt                // zero extension
	KSExt                // sign extension
	KTrunc               // truncation
	KExtract             // bit-field extraction
	KSelect              // byte read from an Array
)

// Op identifies the operator of a KBin node.
type Op uint8

// Binary operators. Comparison operators produce 1-bit results; the
// remaining operators require both operands to share a width and produce
// that width. On 1-bit values And/Or/Xor double as the boolean
// connectives.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	OpEq
	OpNe
	OpUlt
	OpUle
	OpSlt
	OpSle
)

var opNames = [...]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpURem: "urem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr",
	OpAShr: "ashr", OpEq: "eq", OpNe: "ne", OpUlt: "ult", OpUle: "ule",
	OpSlt: "slt", OpSle: "sle",
}

func (o Op) String() string { return opNames[o] }

// IsCompare reports whether o produces a 1-bit comparison result.
func (o Op) IsCompare() bool { return o >= OpEq }

// Expr is an immutable, interned expression node. Do not construct Expr
// values directly; use the package constructors, which intern, fold, and
// validate widths.
type Expr struct {
	Kind  Kind
	Op    Op       // for KBin
	W     bv.Width // result width
	Val   bv.V     // for KConst
	Name  string   // for KVar
	A, B  *Expr    // operands (A for unary; A,B for binary; unused for const/var)
	Cond  *Expr    // for KIte
	Arr   *Array   // for KSelect
	Lo    int      // for KExtract: low bit index
	hash  uint64
	id    uint64 // interning sequence number, unique per distinct term
	depth int32  // max node depth, used to bound printing and recursion
}

// ID returns the node's interning sequence number: distinct terms have
// distinct IDs, equal terms share one. Callers use it for stable,
// order-insensitive hashing of term sets (e.g. the solver query cache).
func (e *Expr) ID() uint64 { return e.id }

// Hash returns the node's structural hash, memoized at construction.
// Interning makes it as exact as pointer identity for most purposes, and
// callers hashing large term sets (the solver's verdict cache) use it to
// avoid re-walking DAGs.
func (e *Expr) Hash() uint64 { return e.hash }

// Width returns the bitvector width of the expression's value.
func (e *Expr) Width() bv.Width { return e.W }

// Array is an immutable, interned byte-array value: a named base array
// with a linked chain of byte stores (most recent first). Index
// expressions are 32-bit; stored values are 8-bit.
type Array struct {
	Name     string // base array name (only on the chain root)
	Prev     *Array // previous version, nil at the root
	Idx      *Expr  // store index (nil at the root)
	Val      *Expr  // stored byte (nil at the root)
	hash     uint64
	numStore int
}

// Base returns the root array this chain was built from.
func (a *Array) Base() *Array {
	for a.Prev != nil {
		a = a.Prev
	}
	return a
}

// BaseName returns the name of the root array.
func (a *Array) BaseName() string { return a.Base().Name }

// NumStores returns the number of stores layered on the base array.
func (a *Array) NumStores() int { return a.numStore }

// ---- interning ----

type internTable struct {
	mu    sync.Mutex
	exprs map[uint64][]*Expr
	arrs  map[uint64][]*Array
}

var interned = internTable{
	exprs: make(map[uint64][]*Expr),
	arrs:  make(map[uint64][]*Array),
}

var internSeq uint64

func mix(h uint64, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return h
}

func (e *Expr) computeHash() uint64 {
	h := uint64(0xcbf29ce484222325)
	h = mix(h, uint64(e.Kind))
	h = mix(h, uint64(e.Op))
	h = mix(h, uint64(e.W))
	h = mix(h, e.Val.U)
	h = mix(h, uint64(e.Lo))
	h = hashString(h, e.Name)
	if e.A != nil {
		h = mix(h, e.A.hash)
	}
	if e.B != nil {
		h = mix(h, e.B.hash)
	}
	if e.Cond != nil {
		h = mix(h, e.Cond.hash)
	}
	if e.Arr != nil {
		h = mix(h, e.Arr.hash)
	}
	return h
}

func sameExpr(a, b *Expr) bool {
	return a.Kind == b.Kind && a.Op == b.Op && a.W == b.W && a.Val == b.Val &&
		a.Name == b.Name && a.A == b.A && a.B == b.B && a.Cond == b.Cond &&
		a.Arr == b.Arr && a.Lo == b.Lo
}

func intern(e *Expr) *Expr {
	e.hash = e.computeHash()
	d := int32(0)
	for _, c := range []*Expr{e.A, e.B, e.Cond} {
		if c != nil && c.depth > d {
			d = c.depth
		}
	}
	e.depth = d + 1
	interned.mu.Lock()
	defer interned.mu.Unlock()
	for _, x := range interned.exprs[e.hash] {
		if sameExpr(x, e) {
			return x
		}
	}
	internSeq++
	e.id = internSeq
	interned.exprs[e.hash] = append(interned.exprs[e.hash], e)
	return e
}

func internArray(a *Array) *Array {
	h := uint64(0x9e3779b97f4a7c15)
	h = hashString(h, a.Name)
	if a.Prev != nil {
		h = mix(h, a.Prev.hash)
	}
	if a.Idx != nil {
		h = mix(h, a.Idx.hash)
	}
	if a.Val != nil {
		h = mix(h, a.Val.hash)
	}
	a.hash = h
	interned.mu.Lock()
	defer interned.mu.Unlock()
	for _, x := range interned.arrs[h] {
		if x.Name == a.Name && x.Prev == a.Prev && x.Idx == a.Idx && x.Val == a.Val {
			return x
		}
	}
	interned.arrs[h] = append(interned.arrs[h], a)
	return a
}

// ---- constructors ----

// Const returns the constant expression with value u truncated to width w.
func Const(w bv.Width, u uint64) *Expr {
	return intern(&Expr{Kind: KConst, W: w, Val: bv.New(w, u)})
}

// ConstV returns the constant expression for the bitvector v.
func ConstV(v bv.V) *Expr { return intern(&Expr{Kind: KConst, W: v.W, Val: v}) }

// True is the 1-bit constant 1.
func True() *Expr { return Const(1, 1) }

// False is the 1-bit constant 0.
func False() *Expr { return Const(1, 0) }

// Bool returns True or False.
func Bool(b bool) *Expr {
	if b {
		return True()
	}
	return False()
}

// Var returns the free variable with the given name and width. Two Var
// calls with the same name must use the same width; widths are the
// caller's responsibility (the IR layer guarantees this).
func Var(name string, w bv.Width) *Expr {
	return intern(&Expr{Kind: KVar, W: w, Name: name})
}

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (bv.V, bool) {
	if e.Kind == KConst {
		return e.Val, true
	}
	return bv.V{}, false
}

// IsConstEq reports whether e is a constant with unsigned value u.
func (e *Expr) IsConstEq(u uint64) bool { return e.Kind == KConst && e.Val.U == u }

// IsTrue reports whether e is the constant true.
func (e *Expr) IsTrue() bool { return e.Kind == KConst && e.Val.IsTrue() }

// IsFalse reports whether e is the constant false (1-bit zero).
func (e *Expr) IsFalse() bool { return e.Kind == KConst && e.W == 1 && e.Val.IsZero() }

var binFold = map[Op]func(a, b bv.V) bv.V{
	OpAdd: bv.Add, OpSub: bv.Sub, OpMul: bv.Mul, OpUDiv: bv.UDiv,
	OpURem: bv.URem, OpAnd: bv.And, OpOr: bv.Or, OpXor: bv.Xor,
	OpShl: bv.Shl, OpLShr: bv.LShr, OpAShr: bv.AShr, OpEq: bv.Eq,
	OpNe: bv.Ne, OpUlt: bv.Ult, OpUle: bv.Ule, OpSlt: bv.Slt, OpSle: bv.Sle,
}

// Bin returns the binary operation op(a, b), constant-folding and
// simplifying where possible.
func Bin(op Op, a, b *Expr) *Expr {
	if a.W != b.W {
		panic(fmt.Sprintf("expr: %s width mismatch %s vs %s", op, a.W, b.W))
	}
	av, ac := a.IsConst()
	bvv, bc := b.IsConst()
	if ac && bc {
		return ConstV(binFold[op](av, bvv))
	}
	w := a.W
	if op.IsCompare() {
		w = 1
	}
	// Algebraic simplifications. Each is a semantics-preserving rewrite
	// verified by TestSimplificationsPreserveSemantics.
	switch op {
	case OpAdd:
		if ac && av.IsZero() {
			return b
		}
		if bc && bvv.IsZero() {
			return a
		}
	case OpSub:
		if bc && bvv.IsZero() {
			return a
		}
		if a == b {
			return Const(w, 0)
		}
	case OpMul:
		if ac && av.IsZero() || bc && bvv.IsZero() {
			return Const(w, 0)
		}
		if ac && av.Int() == 1 {
			return b
		}
		if bc && bvv.Int() == 1 {
			return a
		}
	case OpAnd:
		if ac && av.IsZero() || bc && bvv.IsZero() {
			return Const(w, 0)
		}
		if ac && av.Int() == w.Mask() {
			return b
		}
		if bc && bvv.Int() == w.Mask() {
			return a
		}
		if a == b {
			return a
		}
	case OpOr:
		if ac && av.IsZero() {
			return b
		}
		if bc && bvv.IsZero() {
			return a
		}
		if ac && av.Int() == w.Mask() || bc && bvv.Int() == w.Mask() {
			return Const(w, w.Mask())
		}
		if a == b {
			return a
		}
	case OpXor:
		if ac && av.IsZero() {
			return b
		}
		if bc && bvv.IsZero() {
			return a
		}
		if a == b {
			return Const(w, 0)
		}
	case OpShl, OpLShr, OpAShr:
		if bc && bvv.IsZero() {
			return a
		}
	case OpEq:
		if a == b {
			return True()
		}
		if a.W == 1 {
			// (a == true) -> a ; (a == false) -> !a
			if bc {
				if bvv.IsTrue() {
					return a
				}
				return Not(a)
			}
			if ac {
				if av.IsTrue() {
					return b
				}
				return Not(b)
			}
		}
		// Addition cancellation (valid in modular arithmetic: x+y = x+z
		// iff y = z). Packet-parsing code compares base+offset indices
		// constantly — the solver's Ackermann consistency axioms hinge on
		// these equalities folding when the offsets differ.
		if r, ok := cancelAddEq(a, b); ok {
			return r
		}
	case OpNe:
		if a == b {
			return False()
		}
		return Not(Bin(OpEq, a, b))
	case OpUlt, OpSlt:
		if a == b {
			return False()
		}
	case OpUle, OpSle:
		if a == b {
			return True()
		}
	}
	// Canonicalize commutative operand order so interning catches
	// symmetric duplicates.
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq:
		if b.hash < a.hash || (b.hash == a.hash && b.Kind < a.Kind) {
			a, b = b, a
		}
	}
	return intern(&Expr{Kind: KBin, Op: op, W: w, A: a, B: b})
}

// cancelAddEq simplifies equalities between sums sharing an operand:
// (x+y == x+z) -> (y == z), (x+y == x) -> (y == 0), and the symmetric
// variants. Sound for any width because bitvector addition is a group
// (cancel by adding -x to both sides). Reports ok=false when no shared
// operand exists.
func cancelAddEq(a, b *Expr) (*Expr, bool) {
	aAdd := a.Kind == KBin && a.Op == OpAdd
	bAdd := b.Kind == KBin && b.Op == OpAdd
	switch {
	case aAdd && bAdd:
		switch {
		case a.A == b.A:
			return Bin(OpEq, a.B, b.B), true
		case a.A == b.B:
			return Bin(OpEq, a.B, b.A), true
		case a.B == b.A:
			return Bin(OpEq, a.A, b.B), true
		case a.B == b.B:
			return Bin(OpEq, a.A, b.A), true
		}
	case aAdd:
		if a.A == b {
			return Bin(OpEq, a.B, Const(a.W, 0)), true
		}
		if a.B == b {
			return Bin(OpEq, a.A, Const(a.W, 0)), true
		}
	case bAdd:
		if b.A == a {
			return Bin(OpEq, b.B, Const(b.W, 0)), true
		}
		if b.B == a {
			return Bin(OpEq, b.A, Const(b.W, 0)), true
		}
	}
	return nil, false
}

// Convenience binary constructors.

// Add returns a + b.
func Add(a, b *Expr) *Expr { return Bin(OpAdd, a, b) }

// Sub returns a - b.
func Sub(a, b *Expr) *Expr { return Bin(OpSub, a, b) }

// Mul returns a * b.
func Mul(a, b *Expr) *Expr { return Bin(OpMul, a, b) }

// UDiv returns the unsigned quotient a / b (all-ones when b is zero).
func UDiv(a, b *Expr) *Expr { return Bin(OpUDiv, a, b) }

// URem returns the unsigned remainder a % b (a when b is zero).
func URem(a, b *Expr) *Expr { return Bin(OpURem, a, b) }

// BvAnd returns the bitwise conjunction a & b.
func BvAnd(a, b *Expr) *Expr { return Bin(OpAnd, a, b) }

// BvOr returns the bitwise disjunction a | b.
func BvOr(a, b *Expr) *Expr { return Bin(OpOr, a, b) }

// BvXor returns the bitwise exclusive-or a ^ b.
func BvXor(a, b *Expr) *Expr { return Bin(OpXor, a, b) }

// Shl returns a << b.
func Shl(a, b *Expr) *Expr { return Bin(OpShl, a, b) }

// LShr returns the logical right shift a >> b.
func LShr(a, b *Expr) *Expr { return Bin(OpLShr, a, b) }

// Eq returns the 1-bit comparison a == b.
func Eq(a, b *Expr) *Expr { return Bin(OpEq, a, b) }

// Ne returns the 1-bit comparison a != b.
func Ne(a, b *Expr) *Expr { return Bin(OpNe, a, b) }

// Ult returns the 1-bit unsigned comparison a < b.
func Ult(a, b *Expr) *Expr { return Bin(OpUlt, a, b) }

// Ule returns the 1-bit unsigned comparison a <= b.
func Ule(a, b *Expr) *Expr { return Bin(OpUle, a, b) }

// Not returns the bitwise complement of a; on 1-bit values this is
// boolean negation. Double negation cancels.
func Not(a *Expr) *Expr {
	if v, ok := a.IsConst(); ok {
		return ConstV(bv.Not(v))
	}
	if a.Kind == KNot {
		return a.A
	}
	return intern(&Expr{Kind: KNot, W: a.W, A: a})
}

// Neg returns the two's-complement negation of a.
func Neg(a *Expr) *Expr {
	if v, ok := a.IsConst(); ok {
		return ConstV(bv.Neg(v))
	}
	if a.Kind == KNeg {
		return a.A
	}
	return intern(&Expr{Kind: KNeg, W: a.W, A: a})
}

// And returns the boolean conjunction of 1-bit expressions, short-
// circuiting constants.
func And(xs ...*Expr) *Expr {
	r := True()
	for _, x := range xs {
		if x.W != 1 {
			panic("expr: And on non-boolean")
		}
		if x.IsFalse() {
			return False()
		}
		if x.IsTrue() || x == r {
			continue
		}
		if r.IsTrue() {
			r = x
		} else {
			r = Bin(OpAnd, r, x)
		}
	}
	return r
}

// Or returns the boolean disjunction of 1-bit expressions, short-
// circuiting constants.
func Or(xs ...*Expr) *Expr {
	r := False()
	for _, x := range xs {
		if x.W != 1 {
			panic("expr: Or on non-boolean")
		}
		if x.IsTrue() {
			return True()
		}
		if x.IsFalse() || x == r {
			continue
		}
		if r.IsFalse() {
			r = x
		} else {
			r = Bin(OpOr, r, x)
		}
	}
	return r
}

// Implies returns the boolean implication a -> b.
func Implies(a, b *Expr) *Expr { return Or(Not(a), b) }

// Ite returns if cond then a else b. cond must be 1-bit; a and b must
// share a width.
func Ite(cond, a, b *Expr) *Expr {
	if cond.W != 1 {
		panic("expr: Ite condition must be 1-bit")
	}
	if a.W != b.W {
		panic(fmt.Sprintf("expr: Ite width mismatch %s vs %s", a.W, b.W))
	}
	if cond.IsTrue() {
		return a
	}
	if cond.IsFalse() {
		return b
	}
	if a == b {
		return a
	}
	if a.W == 1 {
		// Boolean Ite lowers to connectives, which fold better.
		if a.IsTrue() && b.IsFalse() {
			return cond
		}
		if a.IsFalse() && b.IsTrue() {
			return Not(cond)
		}
		return Or(And(cond, a), And(Not(cond), b))
	}
	if cond.Kind == KNot {
		return Ite(cond.A, b, a)
	}
	if r, ok := hoistAddIte(cond, a, b); ok {
		return r
	}
	return intern(&Expr{Kind: KIte, W: a.W, Cond: cond, A: a, B: b})
}

// hoistAddIte pulls an addend both arms share out of an ite:
// ite(c, x+p, x+q) -> x + ite(c, p, q), and ite(c, x+p, x) ->
// x + ite(c, p, 0) with its mirror image. Exact in modular arithmetic
// (each arm adds the same x), so merged loop cursors stay one adder over
// an ite of offsets instead of a chain of nested adders. Reports
// ok=false when no addend is shared.
func hoistAddIte(cond, a, b *Expr) (*Expr, bool) {
	aAdd := a.Kind == KBin && a.Op == OpAdd
	bAdd := b.Kind == KBin && b.Op == OpAdd
	switch {
	case aAdd && bAdd:
		switch {
		case a.A == b.A:
			return Add(a.A, Ite(cond, a.B, b.B)), true
		case a.A == b.B:
			return Add(a.A, Ite(cond, a.B, b.A)), true
		case a.B == b.A:
			return Add(a.B, Ite(cond, a.A, b.B)), true
		case a.B == b.B:
			return Add(a.B, Ite(cond, a.A, b.A)), true
		}
	case aAdd:
		if a.A == b {
			return Add(b, Ite(cond, a.B, Const(b.W, 0))), true
		}
		if a.B == b {
			return Add(b, Ite(cond, a.A, Const(b.W, 0))), true
		}
	case bAdd:
		if b.A == a {
			return Add(a, Ite(cond, Const(a.W, 0), b.B)), true
		}
		if b.B == a {
			return Add(a, Ite(cond, Const(a.W, 0), b.A)), true
		}
	}
	return nil, false
}

// ZExt zero-extends a to width w (identity when w == a.W).
func ZExt(a *Expr, w bv.Width) *Expr {
	if w == a.W {
		return a
	}
	if w < a.W {
		panic(fmt.Sprintf("expr: zext to narrower width %s -> %s", a.W, w))
	}
	if v, ok := a.IsConst(); ok {
		return ConstV(bv.ZExt(v, w))
	}
	if a.Kind == KZExt {
		return ZExt(a.A, w)
	}
	return intern(&Expr{Kind: KZExt, W: w, A: a})
}

// SExt sign-extends a to width w (identity when w == a.W).
func SExt(a *Expr, w bv.Width) *Expr {
	if w == a.W {
		return a
	}
	if w < a.W {
		panic(fmt.Sprintf("expr: sext to narrower width %s -> %s", a.W, w))
	}
	if v, ok := a.IsConst(); ok {
		return ConstV(bv.SExt(v, w))
	}
	return intern(&Expr{Kind: KSExt, W: w, A: a})
}

// Trunc truncates a to width w (identity when w == a.W).
func Trunc(a *Expr, w bv.Width) *Expr {
	if w == a.W {
		return a
	}
	if w > a.W {
		panic(fmt.Sprintf("expr: trunc to wider width %s -> %s", a.W, w))
	}
	if v, ok := a.IsConst(); ok {
		return ConstV(bv.Trunc(v, w))
	}
	if a.Kind == KZExt || a.Kind == KSExt {
		if w <= a.A.W {
			return Trunc(a.A, w)
		}
	}
	return Extract(a, 0, w)
}

// Extract returns bits [lo, lo+w) of a as a width-w expression.
func Extract(a *Expr, lo int, w bv.Width) *Expr {
	if lo < 0 || lo+int(w) > int(a.W) {
		panic(fmt.Sprintf("expr: extract [%d,%d) out of range for width %d", lo, lo+int(w), a.W))
	}
	if lo == 0 && w == a.W {
		return a
	}
	if v, ok := a.IsConst(); ok {
		return ConstV(bv.Extract(v, lo, w))
	}
	if a.Kind == KExtract {
		return Extract(a.A, a.Lo+lo, w)
	}
	if a.Kind == KZExt && lo+int(w) <= int(a.A.W) {
		return Extract(a.A, lo, w)
	}
	return intern(&Expr{Kind: KExtract, W: w, A: a, Lo: lo})
}

// Concat returns hi:lo with hi in the high bits, implemented with
// shifts so the bit-blaster needs no dedicated node.
func Concat(hi, lo *Expr) *Expr {
	w := bv.Width(uint(hi.W) + uint(lo.W))
	if uint(hi.W)+uint(lo.W) > uint(bv.MaxWidth) {
		panic("expr: concat exceeds max width")
	}
	return BvOr(Shl(ZExt(hi, w), Const(w, uint64(lo.W))), ZExt(lo, w))
}

// ---- arrays ----

// BaseArray returns the named symbolic byte array with no stores.
func BaseArray(name string) *Array { return internArray(&Array{Name: name}) }

// Store returns arr with the byte val (8-bit) written at idx (32-bit).
func Store(arr *Array, idx, val *Expr) *Array {
	if idx.W != 32 {
		panic("expr: array index must be 32-bit")
	}
	if val.W != 8 {
		panic("expr: array value must be 8-bit")
	}
	// Overwrite of the same syntactic index collapses the chain.
	if arr.Prev != nil && arr.Idx == idx {
		arr = arr.Prev
	}
	return internArray(&Array{Prev: arr, Idx: idx, Val: val, numStore: arr.numStore + 1})
}

// Select returns the byte of arr at idx (32-bit), applying read-over-write
// rewriting: stores at syntactically equal indices resolve immediately,
// stores at provably different constant indices are skipped, and the
// remainder becomes an Ite chain over a base-array read.
func Select(arr *Array, idx *Expr) *Expr {
	if idx.W != 32 {
		panic("expr: array index must be 32-bit")
	}
	iv, ic := idx.IsConst()
	// Walk the store chain, skipping stores that provably differ.
	type pending struct{ idx, val *Expr }
	var hits []pending
	a := arr
	for a.Prev != nil {
		if a.Idx == idx {
			// Same syntactic index: definite hit, shadows everything older.
			r := a.Val
			for i := len(hits) - 1; i >= 0; i-- {
				r = Ite(Eq(idx, hits[i].idx), hits[i].val, r)
			}
			return r
		}
		if jv, jc := a.Idx.IsConst(); jc && ic && jv != iv {
			a = a.Prev // provably disjoint, skip
			continue
		}
		hits = append(hits, pending{a.Idx, a.Val})
		a = a.Prev
	}
	r := intern(&Expr{Kind: KSelect, W: 8, Arr: a, B: idx})
	for i := len(hits) - 1; i >= 0; i-- {
		r = Ite(Eq(idx, hits[i].idx), hits[i].val, r)
	}
	return r
}

// SelectWide reads n consecutive bytes starting at idx and concatenates
// them big-endian (network byte order) into an 8n-bit expression.
// n must be 1, 2, 4, or 8.
func SelectWide(arr *Array, idx *Expr, n int) *Expr {
	switch n {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("expr: SelectWide n=%d", n))
	}
	r := Select(arr, idx)
	for i := 1; i < n; i++ {
		r = Concat(r, Select(arr, Add(idx, Const(32, uint64(i)))))
	}
	return r
}

// StoreWide writes the 8n-bit value val at idx..idx+n-1 in big-endian
// byte order. n must be 1, 2, 4, or 8 and val must be 8n bits wide.
func StoreWide(arr *Array, idx, val *Expr, n int) *Array {
	if int(val.W) != 8*n {
		panic(fmt.Sprintf("expr: StoreWide width %d != %d", val.W, 8*n))
	}
	for i := 0; i < n; i++ {
		b := Extract(val, 8*(n-1-i), 8)
		arr = Store(arr, Add(idx, Const(32, uint64(i))), b)
	}
	return arr
}

// ---- traversal ----

// Vars appends to dst the distinct free variables of e in first-visit
// order, including variables reachable through array store chains, and
// returns the extended slice.
func Vars(e *Expr, dst []*Expr) []*Expr {
	seen := map[*Expr]bool{}
	seenArr := map[*Array]bool{}
	var walkA func(a *Array)
	var walk func(x *Expr)
	walk = func(x *Expr) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		if x.Kind == KVar {
			dst = append(dst, x)
			return
		}
		walk(x.Cond)
		walk(x.A)
		walk(x.B)
		if x.Arr != nil {
			walkA(x.Arr)
		}
	}
	walkA = func(a *Array) {
		for a != nil && !seenArr[a] {
			seenArr[a] = true
			walk(a.Idx)
			walk(a.Val)
			a = a.Prev
		}
	}
	walk(e)
	return dst
}

// SelectsOf appends to dst every KSelect node in e (deduplicated) and
// returns the extended slice. The solver Ackermannizes these.
func SelectsOf(e *Expr, dst []*Expr) []*Expr {
	seen := map[*Expr]bool{}
	var walk func(x *Expr)
	walk = func(x *Expr) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		if x.Kind == KSelect {
			dst = append(dst, x)
		}
		walk(x.Cond)
		walk(x.A)
		walk(x.B)
	}
	walk(e)
	return dst
}

// ---- substitution ----

// Subst maps variable names to replacement expressions and base-array
// names to replacement arrays. It is the stitching primitive of Step 2:
// composing segment summaries substitutes the upstream segment's output
// state into the downstream segment's constraint and effect.
type Subst struct {
	Vars map[string]*Expr
	Arrs map[string]*Array
	memo map[*Expr]*Expr
	amem map[*Array]*Array
}

// NewSubst returns an empty substitution.
func NewSubst() *Subst {
	return &Subst{Vars: map[string]*Expr{}, Arrs: map[string]*Array{}}
}

// BindVar adds the mapping name -> r. Binding invalidates the Apply
// memo: substitutions may be extended between Apply calls (sequence
// execution binds each state read as it is resolved), and results
// cached under the old binding set would otherwise leak through.
func (s *Subst) BindVar(name string, r *Expr) *Subst {
	s.Vars[name] = r
	s.memo, s.amem = nil, nil
	return s
}

// BindArr adds the mapping of base array name -> r (same memo
// invalidation as BindVar).
func (s *Subst) BindArr(name string, r *Array) *Subst {
	s.Arrs[name] = r
	s.memo, s.amem = nil, nil
	return s
}

// Apply rewrites e under the substitution, rebuilding (and thus
// re-simplifying) every affected node. Results are memoized per Subst.
func (s *Subst) Apply(e *Expr) *Expr {
	if s.memo == nil {
		s.memo = map[*Expr]*Expr{}
		s.amem = map[*Array]*Array{}
	}
	return s.apply(e)
}

func (s *Subst) apply(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	if r, ok := s.memo[e]; ok {
		return r
	}
	var r *Expr
	switch e.Kind {
	case KConst:
		r = e
	case KVar:
		if b, ok := s.Vars[e.Name]; ok {
			if b.W != e.W {
				panic(fmt.Sprintf("expr: substitution width mismatch for %s: %s vs %s", e.Name, e.W, b.W))
			}
			r = b
		} else {
			r = e
		}
	case KBin:
		r = Bin(e.Op, s.apply(e.A), s.apply(e.B))
	case KNot:
		r = Not(s.apply(e.A))
	case KNeg:
		r = Neg(s.apply(e.A))
	case KIte:
		r = Ite(s.apply(e.Cond), s.apply(e.A), s.apply(e.B))
	case KZExt:
		r = ZExt(s.apply(e.A), e.W)
	case KSExt:
		r = SExt(s.apply(e.A), e.W)
	case KTrunc:
		r = Trunc(s.apply(e.A), e.W)
	case KExtract:
		r = Extract(s.apply(e.A), e.Lo, e.W)
	case KSelect:
		r = Select(s.ApplyArray(e.Arr), s.apply(e.B))
	default:
		panic("expr: unknown kind in substitution")
	}
	s.memo[e] = r
	return r
}

// ApplyArray rewrites an array value under the substitution.
func (s *Subst) ApplyArray(a *Array) *Array {
	if s.memo == nil {
		s.memo = map[*Expr]*Expr{}
		s.amem = map[*Array]*Array{}
	}
	return s.applyArray(a)
}

func (s *Subst) applyArray(a *Array) *Array {
	if a == nil {
		return nil
	}
	if r, ok := s.amem[a]; ok {
		return r
	}
	var r *Array
	if a.Prev == nil {
		if b, ok := s.Arrs[a.Name]; ok {
			r = b
		} else {
			r = a
		}
	} else {
		r = Store(s.applyArray(a.Prev), s.apply(a.Idx), s.apply(a.Val))
	}
	s.amem[a] = r
	return r
}

// ---- evaluation ----

// Assignment provides concrete values for free variables and base-array
// bytes during evaluation.
type Assignment struct {
	Vars map[string]bv.V
	// Arrays maps base array name -> byte content; reads beyond the
	// slice return 0.
	Arrays map[string][]byte
}

// NewAssignment returns an empty assignment.
func NewAssignment() *Assignment {
	return &Assignment{Vars: map[string]bv.V{}, Arrays: map[string][]byte{}}
}

// Eval computes the concrete value of e under a. Unbound variables
// evaluate to zero, matching the solver's model-completion convention.
func Eval(e *Expr, a *Assignment) bv.V {
	return eval(e, a, map[*Expr]bv.V{})
}

// An Evaluator evaluates expressions under one assignment with one memo
// for all of them, so the subterms they share are computed once. Its
// assignment may gain bindings between calls, but not for a variable an
// earlier call already read.
type Evaluator struct {
	a    *Assignment
	memo map[*Expr]bv.V
}

// NewEvaluator returns an Evaluator over a.
func NewEvaluator(a *Assignment) *Evaluator {
	return &Evaluator{a: a, memo: map[*Expr]bv.V{}}
}

// Assignment returns the assignment the evaluator reads.
func (ev *Evaluator) Assignment() *Assignment { return ev.a }

// Eval computes the concrete value of e, as Eval does.
func (ev *Evaluator) Eval(e *Expr) bv.V { return eval(e, ev.a, ev.memo) }

func eval(e *Expr, a *Assignment, memo map[*Expr]bv.V) bv.V {
	if v, ok := memo[e]; ok {
		return v
	}
	var r bv.V
	switch e.Kind {
	case KConst:
		r = e.Val
	case KVar:
		if v, ok := a.Vars[e.Name]; ok {
			if v.W != e.W {
				panic(fmt.Sprintf("expr: assignment width mismatch for %s", e.Name))
			}
			r = v
		} else {
			r = bv.New(e.W, 0)
		}
	case KBin:
		r = binFold[e.Op](eval(e.A, a, memo), eval(e.B, a, memo))
	case KNot:
		r = bv.Not(eval(e.A, a, memo))
	case KNeg:
		r = bv.Neg(eval(e.A, a, memo))
	case KIte:
		if eval(e.Cond, a, memo).IsTrue() {
			r = eval(e.A, a, memo)
		} else {
			r = eval(e.B, a, memo)
		}
	case KZExt:
		r = bv.ZExt(eval(e.A, a, memo), e.W)
	case KSExt:
		r = bv.SExt(eval(e.A, a, memo), e.W)
	case KTrunc:
		r = bv.Trunc(eval(e.A, a, memo), e.W)
	case KExtract:
		r = bv.Extract(eval(e.A, a, memo), e.Lo, e.W)
	case KSelect:
		idx := eval(e.B, a, memo).Int()
		r = bv.New(8, uint64(evalArray(e.Arr, idx, a, memo)))
	default:
		panic("expr: unknown kind in evaluation")
	}
	memo[e] = r
	return r
}

func evalArray(arr *Array, idx uint64, a *Assignment, memo map[*Expr]bv.V) byte {
	for arr.Prev != nil {
		if eval(arr.Idx, a, memo).Int() == idx {
			return byte(eval(arr.Val, a, memo).Int())
		}
		arr = arr.Prev
	}
	content := a.Arrays[arr.Name]
	if idx < uint64(len(content)) {
		return content[idx]
	}
	return 0
}

// ---- printing ----

// String renders the expression in a compact prefix syntax, useful in
// error messages, logs, and the CLI report.
func (e *Expr) String() string {
	var b strings.Builder
	writeExpr(&b, e, 0)
	return b.String()
}

const printDepthLimit = 12

func writeExpr(b *strings.Builder, e *Expr, depth int) {
	if depth > printDepthLimit {
		b.WriteString("…")
		return
	}
	switch e.Kind {
	case KConst:
		fmt.Fprintf(b, "%s", e.Val)
	case KVar:
		b.WriteString(e.Name)
	case KBin:
		fmt.Fprintf(b, "(%s ", e.Op)
		writeExpr(b, e.A, depth+1)
		b.WriteByte(' ')
		writeExpr(b, e.B, depth+1)
		b.WriteByte(')')
	case KNot:
		b.WriteString("(not ")
		writeExpr(b, e.A, depth+1)
		b.WriteByte(')')
	case KNeg:
		b.WriteString("(neg ")
		writeExpr(b, e.A, depth+1)
		b.WriteByte(')')
	case KIte:
		b.WriteString("(ite ")
		writeExpr(b, e.Cond, depth+1)
		b.WriteByte(' ')
		writeExpr(b, e.A, depth+1)
		b.WriteByte(' ')
		writeExpr(b, e.B, depth+1)
		b.WriteByte(')')
	case KZExt:
		fmt.Fprintf(b, "(zext%d ", e.W)
		writeExpr(b, e.A, depth+1)
		b.WriteByte(')')
	case KSExt:
		fmt.Fprintf(b, "(sext%d ", e.W)
		writeExpr(b, e.A, depth+1)
		b.WriteByte(')')
	case KTrunc:
		fmt.Fprintf(b, "(trunc%d ", e.W)
		writeExpr(b, e.A, depth+1)
		b.WriteByte(')')
	case KExtract:
		fmt.Fprintf(b, "(extract[%d:%d] ", e.Lo+int(e.W)-1, e.Lo)
		writeExpr(b, e.A, depth+1)
		b.WriteByte(')')
	case KSelect:
		fmt.Fprintf(b, "(select %s[+%d] ", e.Arr.BaseName(), e.Arr.numStore)
		writeExpr(b, e.B, depth+1)
		b.WriteByte(')')
	}
}

// SortVarNames returns the sorted names of the given variables,
// deduplicated; a convenience for deterministic reporting.
func SortVarNames(vars []*Expr) []string {
	set := map[string]bool{}
	for _, v := range vars {
		set[v.Name] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
