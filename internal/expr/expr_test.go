package expr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"vsd/internal/bv"
)

func TestInterningGivesPointerEquality(t *testing.T) {
	a1 := Add(Var("x", 32), Const(32, 5))
	a2 := Add(Var("x", 32), Const(32, 5))
	if a1 != a2 {
		t.Error("structurally equal expressions are different pointers")
	}
	// Commutative canonicalization: x+5 and 5+x intern to the same node.
	a3 := Add(Const(32, 5), Var("x", 32))
	if a1 != a3 {
		t.Error("commutative operands not canonicalized")
	}
	if Var("x", 32) == Var("y", 32) {
		t.Error("distinct variables interned together")
	}
}

func TestConstantFolding(t *testing.T) {
	cases := []struct {
		got  *Expr
		want uint64
		w    bv.Width
	}{
		{Add(Const(8, 200), Const(8, 100)), 44, 8},
		{Mul(Const(16, 300), Const(16, 300)), 90000 & 0xffff, 16},
		{UDiv(Const(32, 7), Const(32, 0)), 0xffffffff, 32},
		{Eq(Const(8, 3), Const(8, 3)), 1, 1},
		{Ult(Const(8, 0xff), Const(8, 1)), 0, 1},
		{Not(Const(1, 0)), 1, 1},
		{Shl(Const(8, 1), Const(8, 9)), 0, 8},
		{Extract(Const(32, 0xdeadbeef), 8, 8), 0xbe, 8},
	}
	for i, c := range cases {
		v, ok := c.got.IsConst()
		if !ok {
			t.Errorf("case %d: not folded to constant: %s", i, c.got)
			continue
		}
		if v.U != c.want || v.W != c.w {
			t.Errorf("case %d: got %v, want %d:u%d", i, v, c.want, c.w)
		}
	}
}

func TestIdentitySimplifications(t *testing.T) {
	x := Var("x", 32)
	if Add(x, Const(32, 0)) != x {
		t.Error("x+0 != x")
	}
	if Sub(x, x).Kind != KConst {
		t.Error("x-x not folded")
	}
	if Mul(x, Const(32, 1)) != x {
		t.Error("x*1 != x")
	}
	if BvAnd(x, Const(32, 0)).Kind != KConst {
		t.Error("x&0 not folded")
	}
	if BvAnd(x, Const(32, 0xffffffff)) != x {
		t.Error("x&~0 != x")
	}
	if BvOr(x, x) != x {
		t.Error("x|x != x")
	}
	if BvXor(x, x).Kind != KConst {
		t.Error("x^x not folded")
	}
	if Eq(x, x) != True() {
		t.Error("x==x != true")
	}
	if Ult(x, x) != False() {
		t.Error("x<x != false")
	}
	if Not(Not(x)) != x {
		t.Error("double negation survives")
	}
	b := Var("b", 1)
	if Ite(b, True(), False()) != b {
		t.Error("ite(b,1,0) != b")
	}
	if Ite(Not(b), x, Var("y", 32)) != Ite(b, Var("y", 32), x) {
		t.Error("ite(not b, x, y) not normalized")
	}
}

func TestBooleanConnectives(t *testing.T) {
	p, q := Var("p", 1), Var("q", 1)
	if And(p, True()) != p || And(p, False()) != False() {
		t.Error("And constant short-circuit broken")
	}
	if Or(p, False()) != p || Or(p, True()) != True() {
		t.Error("Or constant short-circuit broken")
	}
	if And(p, p) != p {
		t.Error("And(p,p) != p")
	}
	if Implies(False(), q) != True() {
		t.Error("false -> q should be true")
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched widths did not panic")
		}
	}()
	Add(Var("a", 8), Var("b", 16))
}

// randomExpr builds a random expression over variables x(8), y(8) with
// the given depth budget.
func randomExpr(r *rand.Rand, depth int) *Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return Const(8, uint64(r.Intn(256)))
		case 1:
			return Var("x", 8)
		default:
			return Var("y", 8)
		}
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr}
	switch r.Intn(6) {
	case 0:
		return Not(randomExpr(r, depth-1))
	case 1:
		return Neg(randomExpr(r, depth-1))
	case 2:
		cmp := []Op{OpEq, OpNe, OpUlt, OpUle, OpSlt, OpSle}[r.Intn(6)]
		c := Bin(cmp, randomExpr(r, depth-1), randomExpr(r, depth-1))
		return Ite(c, randomExpr(r, depth-1), randomExpr(r, depth-1))
	default:
		op := ops[r.Intn(len(ops))]
		return Bin(op, randomExpr(r, depth-1), randomExpr(r, depth-1))
	}
}

// refEval evaluates without any of the constructor simplifications by
// mirroring the semantics directly, for cross-checking. Because
// constructors fold eagerly, we instead check that evaluation of the
// built expression matches evaluation of the same tree built purely from
// leaves: the simplifications must be semantics-preserving for every
// assignment.
func TestSimplificationsPreserveSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		e := randomExpr(r, 4)
		// Evaluate under several assignments; compare against an
		// evaluation that substitutes constants first (exercising the
		// constructor rewrites a second time along a different path).
		for k := 0; k < 4; k++ {
			xv := bv.New(8, uint64(r.Intn(256)))
			yv := bv.New(8, uint64(r.Intn(256)))
			a := NewAssignment()
			a.Vars["x"] = xv
			a.Vars["y"] = yv
			direct := Eval(e, a)
			sub := NewSubst().BindVar("x", ConstV(xv)).BindVar("y", ConstV(yv))
			folded := sub.Apply(e)
			fv, ok := folded.IsConst()
			if !ok {
				t.Fatalf("substituting constants did not fold: %s", folded)
			}
			if fv != direct {
				t.Fatalf("semantics changed by simplification: eval=%v folded=%v expr=%s x=%v y=%v",
					direct, fv, e, xv, yv)
			}
		}
	}
	// The shared-addend ite rule, which random trees rarely reach: with
	// addends hashed below and above the shared one, so that every operand
	// order the canonical sums can take occurs, ite(c, x+p, x+q),
	// ite(c, x+p, x) and ite(c, x, x+q) are hoisted and evaluate as the
	// unsimplified ite does, including sums that wrap around.
	x, c := Var("x", 8), Var("c", 1)
	var below, above []*Expr
	for i := 0; len(below) < 2 || len(above) < 2; i++ {
		if v := Var(fmt.Sprintf("v%d", i), 8); v.Hash() < x.Hash() {
			below = append(below, v)
		} else {
			above = append(above, v)
		}
	}
	pick := func(cv bv.V, then, els bv.V) bv.V {
		if cv.IsTrue() {
			return then
		}
		return els
	}
	for _, p := range []*Expr{below[0], above[0]} {
		for _, q := range []*Expr{below[1], above[1]} {
			for _, cond := range []*Expr{c, Not(c)} {
				shapes := []struct {
					e    *Expr
					then func(x, p, q bv.V) bv.V
					els  func(x, p, q bv.V) bv.V
				}{
					{Ite(cond, Add(x, p), Add(x, q)),
						func(x, p, q bv.V) bv.V { return bv.Add(x, p) }, func(x, p, q bv.V) bv.V { return bv.Add(x, q) }},
					{Ite(cond, Add(x, p), x),
						func(x, p, q bv.V) bv.V { return bv.Add(x, p) }, func(x, p, q bv.V) bv.V { return x }},
					{Ite(cond, x, Add(x, q)),
						func(x, p, q bv.V) bv.V { return x }, func(x, p, q bv.V) bv.V { return bv.Add(x, q) }},
				}
				for i, s := range shapes {
					if s.e.Kind != KBin || s.e.Op != OpAdd {
						t.Fatalf("shape %d: shared addend not hoisted: %s", i, s.e)
					}
					for k := 0; k < 64; k++ {
						xu, pu, qu := uint64(r.Intn(256)), uint64(r.Intn(256)), uint64(r.Intn(256))
						if k < 8 { // sums that wrap around
							xu, pu, qu = 0xff-uint64(k), 0x80+uint64(k), 0xff
						}
						xv, pv, qv := bv.New(8, xu), bv.New(8, pu), bv.New(8, qu)
						a := NewAssignment()
						a.Vars["c"] = bv.New(1, uint64(k&1))
						a.Vars["x"], a.Vars[p.Name], a.Vars[q.Name] = xv, pv, qv
						want := pick(Eval(cond, a), s.then(xv, pv, qv), s.els(xv, pv, qv))
						if got := Eval(s.e, a); got != want {
							t.Fatalf("%s at x=%v %s=%v %s=%v c=%v: %v, want %v", s.e, xv, p.Name, pv, q.Name, qv, a.Vars["c"], got, want)
						}
					}
				}
			}
		}
	}
}

func TestEvalUnboundVarIsZero(t *testing.T) {
	e := Add(Var("unbound", 16), Const(16, 3))
	if got := Eval(e, NewAssignment()); got.U != 3 {
		t.Errorf("Eval with unbound var = %v, want 3", got)
	}
}

func TestArrayReadOverWrite(t *testing.T) {
	pkt := BaseArray("pkt")
	i5 := Const(32, 5)
	i6 := Const(32, 6)
	a := Store(pkt, i5, Const(8, 0xaa))
	a = Store(a, i6, Const(8, 0xbb))

	if got := Select(a, i5); !got.IsConstEq(0xaa) {
		t.Errorf("read of written byte = %s", got)
	}
	if got := Select(a, i6); !got.IsConstEq(0xbb) {
		t.Errorf("read of written byte = %s", got)
	}
	// Read of an unwritten constant index skips both stores and reads the
	// base array directly.
	got := Select(a, Const(32, 7))
	if got.Kind != KSelect || got.Arr != pkt {
		t.Errorf("read of unwritten byte should reach base array, got %s", got)
	}
	// Overwrite at the same index collapses.
	b := Store(a, i5, Const(8, 0xcc))
	if got := Select(b, i5); !got.IsConstEq(0xcc) {
		t.Errorf("overwrite not visible: %s", got)
	}
}

func TestArraySymbolicIndex(t *testing.T) {
	pkt := BaseArray("pkt")
	k := Var("k", 32)
	a := Store(pkt, k, Const(8, 0x42))
	// Read at the same symbolic index resolves immediately.
	if got := Select(a, k); !got.IsConstEq(0x42) {
		t.Errorf("symbolic same-index read = %s", got)
	}
	// Read at a different index produces an ite guarded by k == 3.
	got := Select(a, Const(32, 3))
	if got.Kind != KIte {
		t.Fatalf("expected ite for may-alias read, got %s", got)
	}
	// Evaluate both branches.
	asn := NewAssignment()
	asn.Arrays["pkt"] = []byte{0, 1, 2, 3}
	asn.Vars["k"] = bv.New(32, 3)
	if v := Eval(got, asn); v.U != 0x42 {
		t.Errorf("aliased read = %v, want 0x42", v)
	}
	asn.Vars["k"] = bv.New(32, 9)
	if v := Eval(got, asn); v.U != 3 {
		t.Errorf("non-aliased read = %v, want base byte 3", v)
	}
}

func TestSelectWideBigEndian(t *testing.T) {
	pkt := BaseArray("pkt")
	asn := NewAssignment()
	asn.Arrays["pkt"] = []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0}
	e := SelectWide(pkt, Const(32, 0), 4)
	if e.W != 32 {
		t.Fatalf("SelectWide width = %d", e.W)
	}
	if v := Eval(e, asn); v.U != 0x12345678 {
		t.Errorf("SelectWide = %#x, want 0x12345678", v.U)
	}
	e2 := SelectWide(pkt, Const(32, 6), 2)
	if v := Eval(e2, asn); v.U != 0xdef0 {
		t.Errorf("SelectWide@6 = %#x, want 0xdef0", v.U)
	}
}

func TestStoreWideRoundTrip(t *testing.T) {
	f := func(val uint32, off uint8) bool {
		pkt := BaseArray("p")
		idx := Const(32, uint64(off))
		a := StoreWide(pkt, idx, Const(32, uint64(val)), 4)
		back := SelectWide(a, idx, 4)
		v, ok := back.IsConst()
		return ok && uint32(v.U) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubstComposesStateCorrectly(t *testing.T) {
	// Mirror the paper's Fig. 2 stitching: E1 output out = ite(in<0, 0, in);
	// E2 asserts in' >= 0. After substitution the crash condition
	// (in' < 0) composed with S1 must be infeasible (here: fold to a
	// contradiction checkable by evaluation).
	in := Var("in", 32)
	zero := Const(32, 0)
	s1out := Ite(Bin(OpSlt, in, zero), zero, in)
	crashCond := Bin(OpSlt, Var("in2", 32), zero)
	stitched := NewSubst().BindVar("in2", s1out).Apply(crashCond)
	// stitched = (ite(in<0,0,in) <s 0) which is false for all in.
	for _, u := range []uint64{0, 1, 0x7fffffff, 0x80000000, 0xffffffff} {
		a := NewAssignment()
		a.Vars["in"] = bv.New(32, u)
		if Eval(stitched, a).IsTrue() {
			t.Errorf("stitched crash condition satisfiable at in=%#x", u)
		}
	}
}

func TestSubstArrays(t *testing.T) {
	// Element 2 reads byte 0 of its input packet; element 1 wrote 0x11
	// there. Substituting e1's output array into e2's read must resolve.
	p1 := BaseArray("pkt1")
	out1 := Store(p1, Const(32, 0), Const(8, 0x11))
	read2 := Select(BaseArray("pkt2"), Const(32, 0))
	stitched := NewSubst().BindArr("pkt2", out1).Apply(read2)
	if !stitched.IsConstEq(0x11) {
		t.Errorf("array substitution did not resolve: %s", stitched)
	}
}

func TestVarsCollection(t *testing.T) {
	e := Add(Var("a", 8), Ite(Var("c", 1), Var("b", 8), Select(Store(BaseArray("p"), Var("i", 32), Var("v", 8)), Const(32, 9))))
	names := SortVarNames(Vars(e, nil))
	want := []string{"a", "b", "c", "i", "v"}
	if len(names) != len(want) {
		t.Fatalf("Vars = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", names, want)
		}
	}
}

func TestStringOutput(t *testing.T) {
	e := Ult(Add(Var("x", 8), Const(8, 1)), Const(8, 10))
	if got := e.String(); got == "" {
		t.Error("empty String()")
	}
}

func TestConcatMatchesBV(t *testing.T) {
	f := func(hi, lo uint8) bool {
		e := Concat(Const(8, uint64(hi)), Const(8, uint64(lo)))
		v, ok := e.IsConst()
		return ok && v.U == bv.Concat(bv.New(8, uint64(hi)), bv.New(8, uint64(lo))).U
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
