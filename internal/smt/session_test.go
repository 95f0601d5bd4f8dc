package smt

import (
	"math/rand"
	"testing"

	"vsd/internal/bv"
	"vsd/internal/expr"
)

func TestSessionBasic(t *testing.T) {
	s := New(Options{})
	sess := s.NewSession()
	x := expr.Var("sx", 8)
	r, m := sess.Check([]*expr.Expr{expr.Eq(expr.Add(x, expr.Const(8, 1)), expr.Const(8, 0))})
	if r != Sat || m.Vars["sx"].U != 255 {
		t.Fatalf("r=%v m=%v", r, m)
	}
	// A contradictory follow-up on the same session.
	r, _ = sess.Check([]*expr.Expr{
		expr.Ult(x, expr.Const(8, 5)),
		expr.Ult(expr.Const(8, 9), x),
	})
	if r != Unsat {
		t.Fatalf("r=%v, want unsat", r)
	}
	// And a satisfiable one again: the session must stay usable.
	r, m = sess.Check([]*expr.Expr{expr.Ult(x, expr.Const(8, 5))})
	if r != Sat || m.Vars["sx"].U >= 5 {
		t.Fatalf("r=%v m=%v", r, m)
	}
}

// TestSessionClauseAdditionAfterSat is the regression test for the
// stale-trail bug: clauses asserted after a Sat answer (whose search
// assignments are still on the trail) must not be dropped as
// "already satisfied".
func TestSessionClauseAdditionAfterSat(t *testing.T) {
	s := New(Options{DisableIntervals: true})
	sess := s.NewSession()
	x := expr.Var("stale", 8)
	// First query leaves x assigned in the SAT core (say x = v).
	r, m := sess.Check([]*expr.Expr{expr.Ult(x, expr.Const(8, 200))})
	if r != Sat {
		t.Fatal(r)
	}
	got := m.Vars["stale"].U
	// Second query asserts x == got+1; if the new clause were simplified
	// against the stale assignment x=got, it could be mishandled.
	want := (got + 1) % 200
	r, m2 := sess.Check([]*expr.Expr{
		expr.Ult(x, expr.Const(8, 200)),
		expr.Eq(x, expr.Const(8, want)),
	})
	if r != Sat {
		t.Fatalf("second query unsat")
	}
	if m2.Vars["stale"].U != want {
		t.Fatalf("x = %d, want %d", m2.Vars["stale"].U, want)
	}
	// Third: force the complement of everything seen so far.
	r, _ = sess.Check([]*expr.Expr{
		expr.Eq(x, expr.Const(8, want)),
		expr.Eq(x, expr.Const(8, (want+7)%256)),
	})
	if r != Unsat {
		t.Fatalf("contradiction not detected: %v", r)
	}
}

// TestSessionArrayConsistency pins the lazy array axioms on the smallest
// case: two reads of one packet at symbolic indices i and j with i = j
// cannot hold different bytes, and can hold equal ones. The pair runs
// at a small index and at one past the model's materialisation cap
// (2²⁰), where the check must still compare the reads. The Unsat
// answers exist only because a model broke the axiom and the session
// asserted it.
func TestSessionArrayConsistency(t *testing.T) {
	pkt := expr.BaseArray("acpkt")
	i, j := expr.Var("aci", 32), expr.Var("acj", 32)
	for _, at := range []uint64{3, 1<<20 + 3} {
		s := New(Options{})
		sess := s.NewSession()
		query := func(vi, vj uint64) []*expr.Expr {
			return []*expr.Expr{
				expr.Eq(i, j),
				expr.Eq(i, expr.Const(32, at)),
				expr.Eq(expr.Select(pkt, i), expr.Const(8, vi)),
				expr.Eq(expr.Select(pkt, j), expr.Const(8, vj)),
			}
		}
		if r, _ := sess.Check(query(5, 7)); r != Unsat {
			t.Fatalf("index %d: pkt[i]=5, pkt[j]=7, i=j: %v, want unsat", at, r)
		}
		if s.Stats().ArrayLemmas == 0 {
			t.Fatalf("index %d: unsat without an array lemma; the query did not test the check", at)
		}
		r, m := sess.Check(query(5, 5))
		if r != Sat {
			t.Fatalf("index %d: pkt[i]=5, pkt[j]=5, i=j: %v, want sat", at, r)
		}
		if m.Vars["aci"].U != at || m.Vars["acj"].U != at {
			t.Fatalf("index %d: model i=%d j=%d", at, m.Vars["aci"].U, m.Vars["acj"].U)
		}
		if content := m.Arrays[pkt.BaseName()]; at < 1<<20 && (uint64(len(content)) <= at || content[at] != 5) {
			t.Fatalf("index %d: model bytes %v, want 5 at %d", at, content, at)
		}
	}
}

// TestSessionNestedSelectsAreDistinct: a read whose index is itself a
// packet read (pkt[pkt[0]], an option cursor) is a different byte from
// the read inside it. When the outer read was met first, both once got
// the same session variable, so pkt[0] = 3 ∧ pkt[pkt[0]] = 7 was
// refuted and a model could place bytes where evaluation does not read
// them. Both a shared session and a fresh solve must answer Sat with a
// model that evaluation confirms.
func TestSessionNestedSelectsAreDistinct(t *testing.T) {
	pkt := expr.BaseArray("nspkt")
	inner := expr.Select(pkt, expr.Const(32, 0))
	outer := expr.Select(pkt, expr.ZExt(inner, 32))
	query := []*expr.Expr{expr.Eq(outer, expr.Const(8, 7)), expr.Eq(inner, expr.Const(8, 3))}
	s := New(Options{})
	sess := s.NewSession()
	defer sess.Close()
	r1, m1 := sess.Check(query)
	r2, m2, _ := s.CheckFresh(query)
	for i, got := range []struct {
		r Result
		m *expr.Assignment
	}{{r1, m1}, {r2, m2}} {
		if got.r != Sat {
			t.Fatalf("solve %d: %v, want sat", i, got.r)
		}
		for _, c := range query {
			if !expr.Eval(c, got.m).IsTrue() {
				t.Fatalf("solve %d: model %v violates %s", i, got.m.Arrays[pkt.BaseName()], c)
			}
		}
	}
}

// TestCheckFromFollowsHint: CheckFrom decides the hint's variables and
// packet bytes first, to the hint's values. A hint that is a model comes
// back as the model with no conflict; one that breaks a constraint still
// yields a model of the formula. Either way the model is a function of
// the formula and the hint: a solver whose sessions answered other
// queries over the same variables first returns the same one.
func TestCheckFromFollowsHint(t *testing.T) {
	x, y := expr.Var("hx", 32), expr.Var("hy", 32)
	pkt := expr.BaseArray("hpkt")
	b2 := expr.Select(pkt, expr.Const(32, 2))
	b5 := expr.Select(pkt, expr.Const(32, 5))
	query := []*expr.Expr{
		expr.Eq(expr.Add(x, y), expr.Const(32, 1000)),
		expr.Ult(x, expr.Const(32, 600)),
		expr.Eq(b2, expr.Const(8, 9)),
		expr.Ult(b5, expr.Const(8, 100)),
	}
	hint := func(xv, yv uint64, bytes ...byte) *expr.Assignment {
		a := expr.NewAssignment()
		a.Vars["hx"] = bv.New(32, xv)
		a.Vars["hy"] = bv.New(32, yv)
		a.Arrays[pkt.BaseName()] = bytes
		return a
	}
	solve := func(s *Solver, h *expr.Assignment) (*expr.Assignment, SolveInfo) {
		t.Helper()
		r, m, info := s.CheckFrom(query, h)
		if r != Sat {
			t.Fatalf("CheckFrom: %v, want sat", r)
		}
		for _, c := range query {
			if !expr.Eval(c, m).IsTrue() {
				t.Fatalf("model %v %v violates %s", m.Vars, m.Arrays, c)
			}
		}
		return m, info
	}
	m, info := solve(New(Options{}), hint(123, 877, 0, 0, 9, 0, 0, 42))
	if m.Vars["hx"].U != 123 || m.Vars["hy"].U != 877 || expr.Eval(b5, m).U != 42 || info.Conflicts != 0 {
		t.Errorf("model of a satisfying hint: x=%d y=%d pkt[5]=%d after %d conflicts, want the hint with none",
			m.Vars["hx"].U, m.Vars["hy"].U, expr.Eval(b5, m).U, info.Conflicts)
	}
	broken := hint(700, 300, 0, 0, 1, 0, 0, 200)
	want, _ := solve(New(Options{}), broken)
	busy := New(Options{})
	sess := busy.NewSession()
	for _, q := range [][]*expr.Expr{
		{expr.Eq(x, expr.Const(32, 5))},
		{expr.Ult(y, x), expr.Eq(b2, expr.Const(8, 3))},
		{expr.Eq(expr.Add(x, y), expr.Const(32, 999)), expr.Ult(b5, expr.Const(8, 7))},
	} {
		sess.Check(q)
	}
	sess.Close()
	got, _ := solve(busy, broken)
	for _, e := range []*expr.Expr{x, y, b2, b5} {
		if g, w := expr.Eval(e, got), expr.Eval(e, want); g != w {
			t.Errorf("%s = %d after other queries, %d on a new solver", e, g.U, w.U)
		}
	}
}

// TestSessionAgainstStatelessSolver cross-checks the incremental path
// against the stateless Check on random query sequences sharing
// variables and packet-array selects.
func TestSessionAgainstStatelessSolver(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pkt := expr.BaseArray("spkt")
	vars := []*expr.Expr{expr.Var("sa", 8), expr.Var("sb", 8)}
	leaf := func() *expr.Expr {
		switch r.Intn(4) {
		case 0:
			return expr.Const(8, uint64(r.Intn(256)))
		case 1:
			return expr.Select(pkt, expr.Const(32, uint64(r.Intn(4))))
		default:
			return vars[r.Intn(len(vars))]
		}
	}
	atom := func() *expr.Expr {
		ops := []expr.Op{expr.OpEq, expr.OpNe, expr.OpUlt, expr.OpUle}
		a := leaf()
		if r.Intn(2) == 0 {
			a = expr.Add(a, leaf())
		}
		return expr.Bin(ops[r.Intn(len(ops))], a, leaf())
	}
	solver := New(Options{})
	sess := solver.NewSession()
	stateless := New(Options{})
	for q := 0; q < 120; q++ {
		n := 1 + r.Intn(4)
		cons := make([]*expr.Expr, n)
		for i := range cons {
			cons[i] = atom()
		}
		rs, ms := sess.Check(cons)
		rp, _ := stateless.Check(cons)
		if rs != rp {
			t.Fatalf("query %d: session=%v stateless=%v cons=%v", q, rs, rp, cons)
		}
		if rs == Sat {
			for _, c := range cons {
				if !expr.Eval(c, ms).IsTrue() {
					t.Fatalf("query %d: session model violates %s", q, c)
				}
			}
		}
	}
}
