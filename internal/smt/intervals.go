package smt

import (
	"math/bits"
	"sync"

	"vsd/internal/bv"
	"vsd/internal/expr"
)

// interval is an inclusive unsigned range [Lo, Hi] of values of some
// width. Intervals never wrap; analyses that could wrap return the full
// range instead. The analysis is sound for refutation: if any constraint
// evaluates to the definitely-false interval, the conjunction is
// unsatisfiable.
type interval struct {
	Lo, Hi uint64
}

func fullRange(w bv.Width) interval { return interval{0, w.Mask()} }

func single(u uint64) interval { return interval{u, u} }

func (iv interval) isSingle() bool { return iv.Lo == iv.Hi }

// intersect returns the intersection and whether it is non-empty.
func (iv interval) intersect(o interval) (interval, bool) {
	lo, hi := max64(iv.Lo, o.Lo), min64(iv.Hi, o.Hi)
	return interval{lo, hi}, lo <= hi
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// intervalAnalysis holds per-variable refinements discovered from the
// conjuncts of a query.
// Refinements are keyed by leaf node: KVar nodes and KSelect nodes
// (packet-byte reads). Treating each select as an independent
// pseudo-variable ignores aliasing between reads, which over-approximates
// the solution set — sound for the Unsat answer, and exactly the case
// (byte-compare chains from classifiers and parsers) that dominates the
// symbolic executor's pruning queries. The Sat fast path stays restricted
// to select-free formulas, where no aliasing exists.
type intervalAnalysis struct {
	leaves  map[*expr.Expr]interval
	memo    map[*expr.Expr]interval
	changed bool // set by narrow when some range shrinks
}

// iaPool recycles analyses: one runs per solver query, and the two maps
// were a measurable share of per-query allocation churn.
var iaPool = sync.Pool{New: func() any {
	return &intervalAnalysis{leaves: map[*expr.Expr]interval{}, memo: map[*expr.Expr]interval{}}
}}

func newIntervalAnalysis() *intervalAnalysis {
	ia := iaPool.Get().(*intervalAnalysis)
	clear(ia.leaves)
	clear(ia.memo)
	ia.changed = false
	return ia
}

// rangeOf computes a sound over-approximation of e's value range given
// the current variable refinements.
func (ia *intervalAnalysis) rangeOf(e *expr.Expr) interval {
	if iv, ok := ia.memo[e]; ok {
		return iv
	}
	iv := ia.computeRange(e)
	ia.memo[e] = iv
	return iv
}

func (ia *intervalAnalysis) computeRange(e *expr.Expr) interval {
	w := e.Width()
	full := fullRange(w)
	switch e.Kind {
	case expr.KConst:
		return single(e.Val.U)
	case expr.KVar:
		if iv, ok := ia.leaves[e]; ok {
			return iv
		}
		return full
	case expr.KSelect:
		if iv, ok := ia.leaves[e]; ok {
			return iv
		}
		return interval{0, 0xff}
	case expr.KNot:
		a := ia.rangeOf(e.A)
		return interval{w.Mask() - a.Hi, w.Mask() - a.Lo}
	case expr.KNeg:
		a := ia.rangeOf(e.A)
		if a.isSingle() {
			return single(bv.Neg(bv.New(w, a.Lo)).U)
		}
		return full
	case expr.KZExt:
		return ia.rangeOf(e.A)
	case expr.KSExt:
		a := ia.rangeOf(e.A)
		srcW := e.A.Width()
		if a.Hi < uint64(1)<<(srcW-1) { // provably non-negative
			return a
		}
		return full
	case expr.KTrunc, expr.KExtract:
		if e.Kind == expr.KExtract && e.Lo != 0 {
			a := ia.rangeOf(e.A)
			if a.isSingle() {
				return single(bv.Extract(bv.New(e.A.Width(), a.Lo), e.Lo, w).U)
			}
			return full
		}
		a := ia.rangeOf(e.A)
		if a.Hi <= w.Mask() {
			return a
		}
		return full
	case expr.KIte:
		c := ia.rangeOf(e.Cond)
		if c == single(1) {
			return ia.rangeOf(e.A)
		}
		if c == single(0) {
			return ia.rangeOf(e.B)
		}
		a, b := ia.rangeOf(e.A), ia.rangeOf(e.B)
		return interval{min64(a.Lo, b.Lo), max64(a.Hi, b.Hi)}
	case expr.KBin:
		a, b := ia.rangeOf(e.A), ia.rangeOf(e.B)
		return binRange(e.Op, w, a, b)
	}
	return full
}

func binRange(op expr.Op, w bv.Width, a, b interval) interval {
	full := fullRange(w)
	switch op {
	case expr.OpAdd:
		hi, carry := bits.Add64(a.Hi, b.Hi, 0)
		if carry == 0 && hi <= w.Mask() {
			return interval{a.Lo + b.Lo, hi}
		}
		return full
	case expr.OpSub:
		if a.Lo >= b.Hi {
			return interval{a.Lo - b.Hi, a.Hi - b.Lo}
		}
		return full
	case expr.OpMul:
		hiHi, hiLo := bits.Mul64(a.Hi, b.Hi)
		if hiHi == 0 && hiLo <= w.Mask() {
			return interval{a.Lo * b.Lo, hiLo}
		}
		return full
	case expr.OpUDiv:
		if b.Lo > 0 {
			return interval{a.Lo / b.Hi, a.Hi / b.Lo}
		}
		return full // divisor may be zero -> all-ones possible
	case expr.OpURem:
		if b.Lo > 0 {
			return interval{0, min64(a.Hi, b.Hi-1)}
		}
		return full
	case expr.OpAnd:
		return interval{0, min64(a.Hi, b.Hi)}
	case expr.OpOr:
		hi, carry := bits.Add64(a.Hi, b.Hi, 0)
		if carry != 0 || hi > w.Mask() {
			hi = w.Mask()
		}
		return interval{max64(a.Lo, b.Lo), hi}
	case expr.OpXor:
		hi, carry := bits.Add64(a.Hi, b.Hi, 0)
		if carry != 0 || hi > w.Mask() {
			hi = w.Mask()
		}
		return interval{0, hi}
	case expr.OpShl:
		if b.isSingle() && b.Lo < 64 && a.Hi <= w.Mask()>>b.Lo {
			return interval{a.Lo << b.Lo, a.Hi << b.Lo}
		}
		return full
	case expr.OpLShr:
		if b.isSingle() {
			if b.Lo >= uint64(w) {
				return single(0)
			}
			return interval{a.Lo >> b.Lo, a.Hi >> b.Lo}
		}
		return interval{0, a.Hi}
	case expr.OpAShr:
		return full
	case expr.OpEq:
		if a.isSingle() && b.isSingle() {
			if a.Lo == b.Lo {
				return single(1)
			}
			return single(0)
		}
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return single(0)
		}
		return interval{0, 1}
	case expr.OpNe:
		eq := binRange(expr.OpEq, w, a, b)
		if eq.isSingle() {
			return single(1 - eq.Lo)
		}
		return interval{0, 1}
	case expr.OpUlt:
		if a.Hi < b.Lo {
			return single(1)
		}
		if a.Lo >= b.Hi {
			return single(0)
		}
		return interval{0, 1}
	case expr.OpUle:
		if a.Hi <= b.Lo {
			return single(1)
		}
		if a.Lo > b.Hi {
			return single(0)
		}
		return interval{0, 1}
	case expr.OpSlt, expr.OpSle:
		return interval{0, 1}
	}
	return full
}

// refineFromAtom tightens variable ranges using simple atom shapes:
// comparisons between a (possibly zero-extended) variable and a constant.
// It returns false if a refinement empties some variable's range, i.e.
// the conjunction is unsatisfiable.
func (ia *intervalAnalysis) refineFromAtom(atom *expr.Expr, positive bool) bool {
	if atom.Kind == expr.KNot {
		return ia.refineFromAtom(atom.A, !positive)
	}
	if atom.Kind == expr.KVar && atom.Width() == 1 {
		if positive {
			return ia.narrow(atom, single(1))
		}
		return ia.narrow(atom, single(0))
	}
	if atom.Kind != expr.KBin {
		return true
	}
	// Identify leaf-vs-const shape on either side.
	leaf, c, varLeft, ok := splitLeafConst(atom.A, atom.B)
	if !ok {
		return true
	}
	op := atom.Op
	if !positive {
		// Negate the comparison.
		switch op {
		case expr.OpEq:
			op = expr.OpNe
		case expr.OpNe:
			op = expr.OpEq
		case expr.OpUlt: // !(a < b) -> b <= a
			op = expr.OpUle
			varLeft = !varLeft
		case expr.OpUle: // !(a <= b) -> b < a
			op = expr.OpUlt
			varLeft = !varLeft
		default:
			return true
		}
	}
	switch op {
	case expr.OpEq:
		return ia.narrow(leaf, single(c))
	case expr.OpNe:
		if iv, okv := ia.leaves[leaf]; okv && iv.isSingle() && iv.Lo == c {
			return false
		}
		return true
	case expr.OpUlt:
		if varLeft { // x < c
			if c == 0 {
				return false
			}
			return ia.narrow(leaf, interval{0, c - 1})
		}
		// c < x
		if c == ^uint64(0) {
			return false
		}
		return ia.narrow(leaf, interval{c + 1, ^uint64(0)})
	case expr.OpUle:
		if varLeft { // x <= c
			return ia.narrow(leaf, interval{0, c})
		}
		return ia.narrow(leaf, interval{c, ^uint64(0)})
	}
	return true
}

// splitLeafConst recognizes (leaf, const) or (zext leaf, const) pairs in
// either operand order, where a leaf is a variable or a packet-byte
// select. It returns the leaf node, the constant, and whether the leaf
// is the left operand.
func splitLeafConst(a, b *expr.Expr) (leaf *expr.Expr, c uint64, varLeft, ok bool) {
	if n, okv := asLeaf(a); okv {
		if v, okc := b.IsConst(); okc {
			return n, v.U, true, true
		}
	}
	if n, okv := asLeaf(b); okv {
		if v, okc := a.IsConst(); okc {
			return n, v.U, false, true
		}
	}
	return nil, 0, false, false
}

func asLeaf(e *expr.Expr) (*expr.Expr, bool) {
	if e.Kind == expr.KVar || e.Kind == expr.KSelect {
		return e, true
	}
	if e.Kind == expr.KZExt && (e.A.Kind == expr.KVar || e.A.Kind == expr.KSelect) {
		return e.A, true
	}
	return nil, false
}

func (ia *intervalAnalysis) narrow(leaf *expr.Expr, iv interval) bool {
	cur, ok := ia.leaves[leaf]
	if !ok {
		cur = fullRange(leaf.Width())
	}
	nw, nonEmpty := cur.intersect(iv)
	if !nonEmpty {
		return false
	}
	if nw != cur {
		ia.leaves[leaf] = nw
		ia.memo = map[*expr.Expr]interval{} // ranges changed; drop memo
		ia.changed = true
	}
	return true
}

// intervalVerdict is the outcome of the interval pre-pass.
type intervalVerdict int8

const (
	intervalMaybe intervalVerdict = iota
	intervalUnsat
	intervalSat // only reported for select-free formulas
)

// preAnalyze runs the interval pre-pass over the conjunction of atoms.
// It may decide Unsat (some atom definitely false under refinements) or,
// for select-free formulas, Sat (every atom definitely true), producing
// a model from the refined ranges.
func preAnalyze(atoms []*expr.Expr) (intervalVerdict, *expr.Assignment) {
	ia := newIntervalAnalysis()
	defer iaPool.Put(ia)
	// Refine to fixpoint (ranges only shrink; cap rounds defensively).
	for round := 0; round < 8; round++ {
		ia.changed = false
		for _, a := range atoms {
			if !ia.refineFromAtom(a, true) {
				return intervalUnsat, nil
			}
		}
		if !ia.changed {
			break
		}
	}
	allTrue := true
	hasSelect := false
	for _, a := range atoms {
		if len(expr.SelectsOf(a, nil)) > 0 {
			hasSelect = true
		}
		switch ia.rangeOf(a) {
		case single(0):
			return intervalUnsat, nil
		case single(1):
		default:
			allTrue = false
		}
	}
	if allTrue && !hasSelect {
		// Every atom holds for all values in the refined ranges, so any
		// point works: take each variable's low endpoint.
		asn := expr.NewAssignment()
		var vars []*expr.Expr
		for _, a := range atoms {
			vars = expr.Vars(a, vars)
		}
		for _, v := range vars {
			iv, ok := ia.leaves[v]
			if !ok {
				iv = fullRange(v.Width())
			}
			asn.Vars[v.Name] = bv.New(v.Width(), iv.Lo)
		}
		return intervalSat, asn
	}
	return intervalMaybe, nil
}

// Ranges returns, for each expression, a sound over-approximation
// [lo, hi] of the values it can take under any assignment: the interval
// pre-pass's range analysis with no refinements, shared across es. The
// analysis is not pooled: its memo spans whole expression DAGs, and a
// map keeps its size, so every later query that drew it from iaPool
// would pay for that size when clearing it.
func Ranges(es []*expr.Expr) [][2]uint64 {
	ia := &intervalAnalysis{leaves: map[*expr.Expr]interval{}, memo: map[*expr.Expr]interval{}}
	out := make([][2]uint64, len(es))
	for i, e := range es {
		iv := ia.rangeOf(e)
		out[i] = [2]uint64{iv.Lo, iv.Hi}
	}
	return out
}
