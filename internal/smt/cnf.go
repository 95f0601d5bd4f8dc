package smt

import (
	"fmt"
	"sync"

	"vsd/internal/bv"
	"vsd/internal/expr"
)

// gateKey identifies a Tseitin gate structurally: operator plus the
// canonicalized operands (z is litNone for the two-input gates). AND,
// XOR, MAJ and XOR3 cover every gate the blaster emits (OR is AND over
// flipped literals, IFF is flipped XOR, MUX lowers to AND/OR, adders and
// comparators are MAJ/XOR3 chains), so two gates with equal keys always
// denote the same function and may share one output literal.
type gateKey struct {
	op      gateOp
	x, y, z Lit
}

type gateOp uint8

const (
	opAnd gateOp = iota
	opXor
	opMaj  // majority of three: the carry of a full adder
	opXor3 // parity of three: the sum of a full adder
)

// blaster translates bitvector expressions into CNF over a SatSolver.
// Each expression node maps to a little-endian vector of literals (bit 0
// first). Variable 0 of the solver is pinned true so that constant bits
// are ordinary literals.
//
// Gates are hash-consed (AIG style): before allocating a fresh Tseitin
// variable, the gate constructors canonicalize their operands and look
// them up in the gate cache, so syntactically repeated structure —
// parallel adders over shared inputs, the equality ladders that segment
// stitching emits — reaches the SAT core as one gate instead of many.
//
// The emitted circuit is a pure and-inverter/xor/majority graph, and the
// blaster keeps its shape: fanin records, per variable, the operand
// literals of the gate that defines it. cone walks that record backwards
// from a set of root literals, which is what lets a solve on a shared
// instance branch only on the variables its own query depends on.
type blaster struct {
	sat      *SatSolver
	tru      Lit // literal that is always true
	exprMem  map[*expr.Expr][]Lit
	varBits  map[string][]Lit
	divMem   map[divModKey]divModResult
	gates    map[gateKey]Lit
	gateHits int64

	// fanin[v] is what variable v is a function of: two operand literals
	// for an AND/XOR gate, three for a MAJ/XOR3 gate, one for a session
	// guard (its atom's root), none for a free input, and a tie index for
	// an input that a side constraint binds to other literals (see tie).
	fanin []gateIn
	ties  []tie

	// Scratch of the cone walk, reused across queries. coneMark stamps
	// visited variables with coneGen, so a walk costs O(cone).
	coneMark  []uint32
	coneGen   uint32
	coneVars  []int32
	coneSels  []int32
	coneStack []int32
}

// gateIn is one variable's defining operands, unused ones litNone.
// x == litNone marks a free input; x == litTie an input whose tie index
// is y.
type gateIn struct{ x, y, z Lit }

const (
	litNone Lit = -1
	litTie  Lit = -2
)

// A tie records that some input variables are read or constrained
// together with other literals outside any guard: the eight value bits
// of an Ackermannized select with the bits of its index (the session's
// model check compares both, and the consistency axioms it asserts on
// demand constrain both), or the quotient and remainder bits of a
// division with the root of its defining constraint. A cone that reaches
// one tied input takes in every literal of the tie, so such a check or
// constraint is never left half inside a cone. sel is the session's
// index of the select, -1 for a division.
type tie struct {
	lits []Lit
	sel  int32
	mark uint32 // coneGen of the walk that last expanded it
}

// blasterPool recycles blasters (and their SAT instances) across
// sessions: a session opened per query (CheckFresh, a Step-1 engine run)
// would otherwise rebuild variable 0, the constant clauses, and every
// per-variable slice each time; a pooled blaster resets in place and
// keeps its allocations warm.
var blasterPool sync.Pool

func newBlaster() *blaster {
	if v := blasterPool.Get(); v != nil {
		b := v.(*blaster)
		b.reset()
		return b
	}
	b := &blaster{
		sat:     NewSatSolver(),
		exprMem: map[*expr.Expr][]Lit{},
		varBits: map[string][]Lit{},
		divMem:  map[divModKey]divModResult{},
		gates:   map[gateKey]Lit{},
	}
	b.pinConstants()
	return b
}

// release returns the blaster to the pool. The caller must not use it
// (or literals/models read from it) afterwards.
func (b *blaster) release() {
	blasterPool.Put(b)
}

func (b *blaster) reset() {
	b.sat.reset()
	b.sat.MaxConflicts = 0
	clear(b.exprMem)
	clear(b.varBits)
	clear(b.divMem)
	clear(b.gates)
	b.gateHits = 0
	b.fanin = b.fanin[:0]
	b.ties = b.ties[:0]
	b.coneMark = b.coneMark[:0]
	b.pinConstants()
}

// pinConstants allocates variable 0 and pins it true so constant bits
// are ordinary literals.
func (b *blaster) pinConstants() {
	b.tru = b.fresh()
	b.sat.AddClause(b.tru)
}

func (b *blaster) fls() Lit { return b.tru.Flip() }

func (b *blaster) isConst(l Lit) (bool, bool) {
	if l == b.tru {
		return true, true
	}
	if l == b.fls() {
		return false, true
	}
	return false, false
}

// fresh allocates a variable, recorded as a free input until a gate
// constructor, tieInputs or the session's guard says otherwise. Every
// variable of the instance comes from here, so fanin covers them all.
func (b *blaster) fresh() Lit {
	b.fanin = append(b.fanin, gateIn{litNone, litNone, litNone})
	return MkLit(b.sat.NewVar(), false)
}

// tieInputs ties the input variables behind bits to lits (see tie).
func (b *blaster) tieInputs(bits, lits []Lit, sel int32) {
	b.ties = append(b.ties, tie{lits: lits, sel: sel})
	for _, l := range bits {
		b.fanin[l.Var()] = gateIn{litTie, Lit(len(b.ties) - 1), litNone}
	}
}

// cone returns the variables in the transitive fan-in of roots, closed
// over ties, and the session indices of the selects among them. Both
// slices are scratch, valid until the next call.
func (b *blaster) cone(roots []Lit) (vars, sels []int32) {
	if b.coneGen++; b.coneGen == 0 {
		clear(b.coneMark)
		for i := range b.ties {
			b.ties[i].mark = 0
		}
		b.coneGen = 1
	}
	for len(b.coneMark) < len(b.fanin) {
		b.coneMark = append(b.coneMark, 0)
	}
	vars, sels, stack := b.coneVars[:0], b.coneSels[:0], b.coneStack[:0]
	visit := func(l Lit) {
		if v := l.Var(); b.coneMark[v] != b.coneGen {
			b.coneMark[v] = b.coneGen
			vars = append(vars, v)
			stack = append(stack, v)
		}
	}
	for _, l := range roots {
		visit(l)
	}
	for len(stack) > 0 {
		f := b.fanin[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		switch f.x {
		case litNone:
		case litTie:
			// Every input of a tie points at it; the first one reached
			// expands it.
			t := &b.ties[f.y]
			if t.mark == b.coneGen {
				continue
			}
			t.mark = b.coneGen
			if t.sel >= 0 {
				sels = append(sels, t.sel)
			}
			for _, l := range t.lits {
				visit(l)
			}
		default:
			visit(f.x)
			if f.y != litNone {
				visit(f.y)
			}
			if f.z != litNone {
				visit(f.z)
			}
		}
	}
	b.coneVars, b.coneSels, b.coneStack = vars, sels, stack
	return vars, sels
}

// gate constructors with constant propagation and structural hashing

func (b *blaster) mkAnd(x, y Lit) Lit {
	if v, ok := b.isConst(x); ok {
		if v {
			return y
		}
		return b.fls()
	}
	if v, ok := b.isConst(y); ok {
		if v {
			return x
		}
		return b.fls()
	}
	if x == y { // idempotence: x ∧ x → x
		return x
	}
	if x == y.Flip() { // complement: x ∧ ¬x → ⊥
		return b.fls()
	}
	// Canonical operand order, then the structural cache.
	if y < x {
		x, y = y, x
	}
	key := gateKey{opAnd, x, y, litNone}
	if z, ok := b.gates[key]; ok {
		b.gateHits++
		return z
	}
	z := b.fresh()
	b.fanin[z.Var()] = gateIn{x, y, litNone}
	b.sat.AddClause(z.Flip(), x)
	b.sat.AddClause(z.Flip(), y)
	b.sat.AddClause(z, x.Flip(), y.Flip())
	b.gates[key] = z
	return z
}

func (b *blaster) mkOr(x, y Lit) Lit { return b.mkAnd(x.Flip(), y.Flip()).Flip() }

func (b *blaster) mkXor(x, y Lit) Lit {
	if v, ok := b.isConst(x); ok {
		if v {
			return y.Flip()
		}
		return y
	}
	if v, ok := b.isConst(y); ok {
		if v {
			return x.Flip()
		}
		return x
	}
	if x == y {
		return b.fls()
	}
	if x == y.Flip() {
		return b.tru
	}
	// XOR absorbs operand complements into an output flip, so the cache
	// key uses sign-stripped operands: x⊕y, ¬x⊕y, x⊕¬y, ¬x⊕¬y all share
	// one gate.
	flip := false
	if x.Neg() {
		flip = !flip
		x = x.Flip()
	}
	if y.Neg() {
		flip = !flip
		y = y.Flip()
	}
	if y < x {
		x, y = y, x
	}
	key := gateKey{opXor, x, y, litNone}
	if z, ok := b.gates[key]; ok {
		b.gateHits++
		if flip {
			return z.Flip()
		}
		return z
	}
	z := b.fresh()
	b.fanin[z.Var()] = gateIn{x, y, litNone}
	b.sat.AddClause(z.Flip(), x, y)
	b.sat.AddClause(z.Flip(), x.Flip(), y.Flip())
	b.sat.AddClause(z, x.Flip(), y)
	b.sat.AddClause(z, x, y.Flip())
	b.gates[key] = z
	if flip {
		return z.Flip()
	}
	return z
}

func (b *blaster) mkIff(x, y Lit) Lit { return b.mkXor(x, y).Flip() }

// mkMaj returns the majority of x, y, z: the carry out of a full adder
// over them. It is one variable with the gate's six prime clauses, where
// the AND/OR decomposition takes three variables and nine; a constant or
// repeated operand reduces it to the two-input gate it then is.
func (b *blaster) mkMaj(x, y, z Lit) Lit {
	if v, ok := b.isConst(x); ok {
		if v {
			return b.mkOr(y, z)
		}
		return b.mkAnd(y, z)
	}
	if _, ok := b.isConst(y); ok {
		return b.mkMaj(y, x, z)
	}
	if _, ok := b.isConst(z); ok {
		return b.mkMaj(z, x, y)
	}
	switch {
	case x == y || x == z:
		return x
	case y == z:
		return y
	case x == y.Flip():
		return z
	case x == z.Flip():
		return y
	case y == z.Flip():
		return x
	}
	x, y, z = sort3(x, y, z)
	key := gateKey{opMaj, x, y, z}
	if o, ok := b.gates[key]; ok {
		b.gateHits++
		return o
	}
	o := b.fresh()
	b.fanin[o.Var()] = gateIn{x, y, z}
	b.sat.AddClause(o.Flip(), x, y)
	b.sat.AddClause(o.Flip(), x, z)
	b.sat.AddClause(o.Flip(), y, z)
	b.sat.AddClause(o, x.Flip(), y.Flip())
	b.sat.AddClause(o, x.Flip(), z.Flip())
	b.sat.AddClause(o, y.Flip(), z.Flip())
	b.gates[key] = o
	return o
}

// mkXor3 returns x ⊕ y ⊕ z: the sum bit of a full adder. It is one
// variable with the parity's eight clauses, where two chained XORs take
// two variables and eight. Like mkXor it absorbs operand complements
// into an output flip, and a constant or repeated operand reduces it to
// a two-input XOR.
func (b *blaster) mkXor3(x, y, z Lit) Lit {
	if v, ok := b.isConst(x); ok {
		if v {
			return b.mkXor(y, z).Flip()
		}
		return b.mkXor(y, z)
	}
	if _, ok := b.isConst(y); ok {
		return b.mkXor3(y, x, z)
	}
	if _, ok := b.isConst(z); ok {
		return b.mkXor3(z, x, y)
	}
	switch {
	case x == y:
		return z
	case x == z:
		return y
	case y == z:
		return x
	case x == y.Flip():
		return z.Flip()
	case x == z.Flip():
		return y.Flip()
	case y == z.Flip():
		return x.Flip()
	}
	flip := x.Neg() != y.Neg() != z.Neg()
	x, y, z = sort3(x&^1, y&^1, z&^1)
	key := gateKey{opXor3, x, y, z}
	o, ok := b.gates[key]
	if ok {
		b.gateHits++
	} else {
		o = b.fresh()
		b.fanin[o.Var()] = gateIn{x, y, z}
		// One clause per operand assignment, forcing the output to its
		// parity: the literals of the clause say "not this assignment".
		for m := 0; m < 8; m++ {
			lx, ly, lz, lo := x, y, z, o
			if m&1 != 0 {
				lx, lo = lx.Flip(), lo.Flip()
			}
			if m&2 != 0 {
				ly, lo = ly.Flip(), lo.Flip()
			}
			if m&4 != 0 {
				lz, lo = lz.Flip(), lo.Flip()
			}
			b.sat.AddClause(lx, ly, lz, lo.Flip())
		}
		b.gates[key] = o
	}
	if flip {
		return o.Flip()
	}
	return o
}

// sort3 returns its operands in ascending order, the canonical operand
// order of the three-input gates.
func sort3(x, y, z Lit) (Lit, Lit, Lit) {
	if y < x {
		x, y = y, x
	}
	if z < y {
		y, z = z, y
	}
	if y < x {
		x, y = y, x
	}
	return x, y, z
}

// mkMux returns c ? x : y.
func (b *blaster) mkMux(c, x, y Lit) Lit {
	if v, ok := b.isConst(c); ok {
		if v {
			return x
		}
		return y
	}
	if x == y {
		return x
	}
	return b.mkOr(b.mkAnd(c, x), b.mkAnd(c.Flip(), y))
}

// vector helpers

func (b *blaster) constBits(v bv.V) []Lit {
	out := make([]Lit, v.W)
	for i := range out {
		if v.Bit(i) {
			out[i] = b.tru
		} else {
			out[i] = b.fls()
		}
	}
	return out
}

func (b *blaster) zeros(n int) []Lit {
	out := make([]Lit, n)
	for i := range out {
		out[i] = b.fls()
	}
	return out
}

// addBits is a ripple-carry adder: each bit is one XOR3 (the sum) and
// one MAJ (the carry) over the operand bits and the incoming carry.
func (b *blaster) addBits(x, y []Lit, cin Lit) (sum []Lit, cout Lit) {
	if len(x) != len(y) {
		panic("smt: addBits width mismatch")
	}
	sum = make([]Lit, len(x))
	c := cin
	for i := range x {
		sum[i] = b.mkXor3(x[i], y[i], c)
		c = b.mkMaj(x[i], y[i], c)
	}
	return sum, c
}

func (b *blaster) negBits(x []Lit) []Lit { return b.subBits(b.zeros(len(x)), x) }

// subBits computes x - y as x + ¬y + 1.
func (b *blaster) subBits(x, y []Lit) []Lit {
	s, _ := b.addBits(x, flipBits(y), b.tru)
	return s
}

func flipBits(x []Lit) []Lit {
	out := make([]Lit, len(x))
	for i := range x {
		out[i] = x[i].Flip()
	}
	return out
}

func (b *blaster) mulBits(x, y []Lit) []Lit {
	n := len(x)
	acc := b.zeros(n)
	for i := 0; i < n; i++ {
		// Partial product: (x << i) gated by y[i].
		pp := b.zeros(n)
		for j := 0; i+j < n; j++ {
			pp[i+j] = b.mkAnd(x[j], y[i])
		}
		acc, _ = b.addBits(acc, pp, b.fls())
	}
	return acc
}

// mulConst multiplies a literal vector by a constant via shift-adds on
// the constant's set bits.
func (b *blaster) mulConst(x []Lit, c uint64) []Lit {
	n := len(x)
	acc := b.zeros(n)
	for i := 0; i < n; i++ {
		if c>>uint(i)&1 == 0 {
			continue
		}
		pp := b.zeros(n)
		copy(pp[i:], x[:n-i])
		acc, _ = b.addBits(acc, pp, b.fls())
	}
	return acc
}

func (b *blaster) eqBits(x, y []Lit) Lit {
	r := b.tru
	for i := range x {
		r = b.mkAnd(r, b.mkIff(x[i], y[i]))
	}
	return r
}

// ultBits computes unsigned x < y as the borrow out of x - y: the carry
// chain of x + ¬y + 1, one MAJ per bit, ends in 1 exactly when x >= y.
// The chain is the one subBits(x, y) builds, so a comparison and a
// difference over the same operands share it through the gate cache.
func (b *blaster) ultBits(x, y []Lit) Lit {
	c := b.tru
	for i := range x {
		c = b.mkMaj(x[i], y[i].Flip(), c)
	}
	return c.Flip()
}

func (b *blaster) muxBits(c Lit, x, y []Lit) []Lit {
	out := make([]Lit, len(x))
	for i := range x {
		out[i] = b.mkMux(c, x[i], y[i])
	}
	return out
}

// shiftBits builds a barrel shifter. dir: "shl", "lshr", or "ashr".
// Stages where the stride meets or exceeds the width saturate to the
// fill value, which makes oversized shift amounts behave per bv
// semantics (zero, or sign-fill for ashr).
func (b *blaster) shiftBits(dir string, x, amt []Lit) []Lit {
	n := len(x)
	fill := b.fls()
	if dir == "ashr" {
		fill = x[n-1]
	}
	cur := x
	for s := 0; s < len(amt); s++ {
		shifted := make([]Lit, n)
		if s >= 30 || 1<<uint(s) >= n {
			// This stage's stride meets or exceeds the width: the whole
			// vector becomes fill when the amount bit is set.
			for i := range shifted {
				shifted[i] = fill
			}
		} else {
			stride := 1 << uint(s)
			for i := 0; i < n; i++ {
				src := i + stride
				if dir == "shl" {
					src = i - stride
				}
				if src < 0 || src >= n {
					shifted[i] = fill
				} else {
					shifted[i] = cur[src]
				}
			}
		}
		cur = b.muxBits(amt[s], shifted, cur)
	}
	return cur
}

// blast returns the literal vector for e, memoized.
func (b *blaster) blast(e *expr.Expr) []Lit {
	if bits, ok := b.exprMem[e]; ok {
		return bits
	}
	bits := b.blastNode(e)
	if len(bits) != int(e.Width()) {
		panic(fmt.Sprintf("smt: blasted %d bits for width-%d node", len(bits), e.Width()))
	}
	b.exprMem[e] = bits
	return bits
}

func (b *blaster) varLits(name string, w bv.Width) []Lit {
	if bits, ok := b.varBits[name]; ok {
		if len(bits) != int(w) {
			panic(fmt.Sprintf("smt: variable %s used at widths %d and %d", name, len(bits), w))
		}
		return bits
	}
	bits := make([]Lit, w)
	for i := range bits {
		bits[i] = b.fresh()
	}
	b.varBits[name] = bits
	return bits
}

func (b *blaster) blastNode(e *expr.Expr) []Lit {
	switch e.Kind {
	case expr.KConst:
		return b.constBits(e.Val)
	case expr.KVar:
		return b.varLits(e.Name, e.Width())
	case expr.KNot:
		return flipBits(b.blast(e.A))
	case expr.KNeg:
		return b.negBits(b.blast(e.A))
	case expr.KZExt:
		x := b.blast(e.A)
		out := append([]Lit{}, x...)
		for len(out) < int(e.Width()) {
			out = append(out, b.fls())
		}
		return out
	case expr.KSExt:
		x := b.blast(e.A)
		out := append([]Lit{}, x...)
		sign := x[len(x)-1]
		for len(out) < int(e.Width()) {
			out = append(out, sign)
		}
		return out
	case expr.KTrunc:
		return b.blast(e.A)[:e.Width()]
	case expr.KExtract:
		x := b.blast(e.A)
		return x[e.Lo : e.Lo+int(e.Width())]
	case expr.KIte:
		c := b.blast(e.Cond)[0]
		return b.muxBits(c, b.blast(e.A), b.blast(e.B))
	case expr.KSelect:
		panic("smt: select reached bit-blaster; Ackermannization must run first")
	case expr.KBin:
		x, y := b.blast(e.A), b.blast(e.B)
		switch e.Op {
		case expr.OpAdd:
			s, _ := b.addBits(x, y, b.fls())
			return s
		case expr.OpSub:
			return b.subBits(x, y)
		case expr.OpMul:
			// Multiplication by a constant reduces to shift-adds over the
			// constant's set bits — packet code multiplies by 2 and 4
			// (header-length scaling) constantly, and the generic
			// shift-add array is needlessly large for that.
			if v, ok := e.A.IsConst(); ok {
				return b.mulConst(y, v.U)
			}
			if v, ok := e.B.IsConst(); ok {
				return b.mulConst(x, v.U)
			}
			return b.mulBits(x, y)
		case expr.OpUDiv:
			q, _ := b.blastDivMod(e.A, e.B, x, y)
			return q
		case expr.OpURem:
			_, r := b.blastDivMod(e.A, e.B, x, y)
			return r
		case expr.OpAnd:
			out := make([]Lit, len(x))
			for i := range x {
				out[i] = b.mkAnd(x[i], y[i])
			}
			return out
		case expr.OpOr:
			out := make([]Lit, len(x))
			for i := range x {
				out[i] = b.mkOr(x[i], y[i])
			}
			return out
		case expr.OpXor:
			out := make([]Lit, len(x))
			for i := range x {
				out[i] = b.mkXor(x[i], y[i])
			}
			return out
		case expr.OpShl:
			return b.shiftBits("shl", x, y)
		case expr.OpLShr:
			return b.shiftBits("lshr", x, y)
		case expr.OpAShr:
			return b.shiftBits("ashr", x, y)
		case expr.OpEq:
			return []Lit{b.eqBits(x, y)}
		case expr.OpNe:
			return []Lit{b.eqBits(x, y).Flip()}
		case expr.OpUlt:
			return []Lit{b.ultBits(x, y)}
		case expr.OpUle:
			return []Lit{b.ultBits(y, x).Flip()}
		case expr.OpSlt:
			return []Lit{b.ultBits(b.flipSign(x), b.flipSign(y))}
		case expr.OpSle:
			return []Lit{b.ultBits(b.flipSign(y), b.flipSign(x)).Flip()}
		}
	}
	panic("smt: unhandled node kind in bit-blaster")
}

// flipSign inverts the sign bit, mapping signed comparison onto unsigned.
func (b *blaster) flipSign(x []Lit) []Lit {
	out := append([]Lit{}, x...)
	out[len(out)-1] = out[len(out)-1].Flip()
	return out
}

// divModKey keys on the operand expression pair so that a udiv and a
// urem over the same operands share one encoding.
type divModKey struct{ a, b *expr.Expr }

// blastDivMod encodes unsigned division and remainder with fresh result
// vectors q and r constrained by:
//
//	b == 0  ->  q == all-ones  &&  r == a
//	b != 0  ->  zext(q)*zext(b) + zext(r) == zext(a)  (in 2w bits)
//	            &&  r < b
//
// The 2w-bit equation cannot wrap because q, b < 2^w.
func (b *blaster) blastDivMod(ea, eb *expr.Expr, x, y []Lit) (q, r []Lit) {
	key := divModKey{ea, eb}
	if got, ok := b.divMem[key]; ok {
		return got.q, got.r
	}
	n := len(x)
	q = make([]Lit, n)
	r = make([]Lit, n)
	for i := 0; i < n; i++ {
		q[i] = b.fresh()
		r[i] = b.fresh()
	}
	ext := func(v []Lit) []Lit {
		out := append([]Lit{}, v...)
		for len(out) < 2*n {
			out = append(out, b.fls())
		}
		return out
	}
	prod := b.mulBits(ext(q), ext(y))
	sum, _ := b.addBits(prod, ext(r), b.fls())
	eqn := b.eqBits(sum, ext(x))
	rLtB := b.ultBits(r, y)
	bZero := b.eqBits(y, b.zeros(n))
	qOnes := b.eqBits(q, b.constBits(bv.New(bv.Width(n), bv.Width(n).Mask())))
	rEqA := b.eqBits(r, x)
	zeroCase := b.mkAnd(qOnes, rEqA)
	posCase := b.mkAnd(eqn, rLtB)
	side := b.mkMux(bZero, zeroCase, posCase)
	b.sat.AddClause(side)
	b.tieInputs(append(append([]Lit{}, q...), r...), []Lit{side}, -1)
	b.divMem[key] = divModResult{q, r}
	return q, r
}

type divModResult struct{ q, r []Lit }

// assertTrue constrains the 1-bit expression e to hold.
func (b *blaster) assertTrue(e *expr.Expr) {
	if e.Width() != 1 {
		panic("smt: asserting non-boolean")
	}
	b.sat.AddClause(b.blast(e)[0])
}

// modelVar reads back the model value of a named variable; variables the
// formula never mentioned read as zero.
func (b *blaster) modelVar(name string, w bv.Width) bv.V {
	bits, ok := b.varBits[name]
	if !ok {
		return bv.New(w, 0)
	}
	var u uint64
	for i, l := range bits {
		val := b.sat.ModelValue(l.Var())
		if l.Neg() {
			val = !val
		}
		if val {
			u |= 1 << uint(i)
		}
	}
	return bv.New(w, u)
}
