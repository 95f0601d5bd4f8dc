package smt

// Robustness tests (DESIGN.md §9): the fault-injection hook, the
// watchdog interrupt, and the conflict and wall-clock budgets. The
// contract under test is uniform — a failed, cancelled or cut-off
// search may only ever degrade to Unknown, never to a fabricated
// verdict and never to a downed process.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"vsd/internal/expr"
)

// hardQuery returns constraints that reach the SAT core (the interval
// pre-pass cannot decide multiplication).
func hardQuery() []*expr.Expr {
	x := expr.Var("x", 16)
	y := expr.Var("y", 16)
	return []*expr.Expr{
		expr.Eq(expr.Mul(x, y), expr.Const(16, 0x2a3)),
		expr.Ult(expr.Const(16, 1), x),
		expr.Ult(expr.Const(16, 1), y),
	}
}

func TestFaultHookForcesUnknown(t *testing.T) {
	for _, fault := range []SolveFault{ForceUnknown, ForceTimeout} {
		s := New(Options{FaultHook: func() SolveFault { return fault }})
		r, m := s.Check(hardQuery())
		if r != Unknown || m != nil {
			t.Fatalf("fault %v: Check = %v (model %v), want Unknown", fault, r, m)
		}
		st := s.Stats()
		if st.InjectedFaults == 0 || st.Unknowns == 0 {
			t.Fatalf("fault %v: counters not bumped: %+v", fault, st)
		}
	}
}

func TestFaultHookPanicPropagates(t *testing.T) {
	// The smt layer itself does NOT contain an injected panic: that is
	// the verify workers' job (containment there is what keeps a daemon
	// alive). Here the panic must actually fire.
	s := New(Options{FaultHook: func() SolveFault { return ForcePanic }})
	defer func() {
		if recover() == nil {
			t.Fatal("ForcePanic did not panic")
		}
	}()
	s.Check(hardQuery())
}

func TestFaultHookOneShotThenClean(t *testing.T) {
	// A transient fault: first search forced Unknown, retry decides.
	// This is the queue's retry ladder in miniature.
	var fired atomic.Bool
	s := New(Options{FaultHook: func() SolveFault {
		if fired.CompareAndSwap(false, true) {
			return ForceUnknown
		}
		return NoFault
	}})
	if r, _ := s.Check(hardQuery()); r != Unknown {
		t.Fatalf("first Check = %v, want Unknown", r)
	}
	r, m := s.Check(hardQuery())
	if r != Sat || m == nil {
		t.Fatalf("retry Check = %v, want Sat with model", r)
	}
	for _, c := range hardQuery() {
		if !expr.Eval(c, m).IsTrue() {
			t.Fatalf("retry model violates %s", c)
		}
	}
}

func TestInterruptCancelsSearches(t *testing.T) {
	var interrupt atomic.Bool
	s := New(Options{Interrupt: &interrupt})
	interrupt.Store(true)
	if r, _ := s.Check(hardQuery()); r != Unknown {
		t.Fatalf("interrupted Check = %v, want Unknown", r)
	}
	if st := s.Stats(); st.Interrupted == 0 {
		t.Fatalf("Interrupted counter not bumped: %+v", st)
	}
	// Clearing the flag restores service — the watchdog's Resume path.
	interrupt.Store(false)
	if r, m := s.Check(hardQuery()); r != Sat || m == nil {
		t.Fatalf("post-resume Check = %v, want Sat", r)
	}
}

func TestInterruptCancelsIncrementalSessions(t *testing.T) {
	var interrupt atomic.Bool
	s := New(Options{Interrupt: &interrupt})
	sess := s.NewSession()
	q := hardQuery()
	if r, _ := sess.Check(q); r != Sat {
		t.Fatalf("clean session Check = %v, want Sat", r)
	}
	interrupt.Store(true)
	// A structurally different query (the verdict cache must miss).
	x := expr.Var("x", 16)
	q2 := []*expr.Expr{expr.Eq(expr.Mul(x, x), expr.Const(16, 0x39))}
	if r, _ := sess.Check(q2); r != Unknown {
		t.Fatalf("interrupted session Check = %v, want Unknown", r)
	}
}

// php encodes the pigeonhole principle PHP(p, p-1) — p pigeons into p-1
// holes, unsatisfiable and exponentially hard for resolution — as the
// budget tests' reliably conflict-heavy instance.
func php(s *SatSolver, pigeons int) {
	holes := pigeons - 1
	vars := make([][]Lit, pigeons)
	for i := range vars {
		vars[i] = make([]Lit, holes)
		for j := range vars[i] {
			vars[i][j] = MkLit(s.NewVar(), false)
		}
	}
	for i := 0; i < pigeons; i++ {
		s.AddClause(vars[i]...) // each pigeon sits somewhere
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(vars[i][j].Flip(), vars[k][j].Flip())
			}
		}
	}
}

// TestSolveConflictBudgetUnknown asserts the budget contract: a search
// cut off by MaxConflicts reports SatUnknown — never a verdict — and
// the same instance solves to SatUnsat once the budget is lifted.
func TestSolveConflictBudgetUnknown(t *testing.T) {
	s := NewSatSolver()
	php(s, 7)
	s.MaxConflicts = 5
	if got := s.Solve(); got != SatUnknown {
		t.Fatalf("budgeted solve = %v, want SatUnknown", got)
	}
	s.MaxConflicts = 0
	if got := s.Solve(); got != SatUnsat {
		t.Fatalf("unbounded solve = %v, want SatUnsat", got)
	}
}

// TestSolveDeadlineUnknown asserts the wall-clock budget: an expired
// Deadline yields SatUnknown without fabricating a verdict.
func TestSolveDeadlineUnknown(t *testing.T) {
	s := NewSatSolver()
	php(s, 9)
	s.Deadline = time.Now().Add(-time.Second)
	if got := s.Solve(); got != SatUnknown {
		t.Fatalf("expired-deadline solve = %v, want SatUnknown", got)
	}
}

// aliasedDistinct requires n reads of one packet, at indices x_k & 3
// for fresh variables x_k, to be pairwise distinct. With n > 4 two reads
// share an index, so the query is Unsat, and a session can only find that
// out through array lemmas: round after round of models that put
// different bytes at one index.
func aliasedDistinct(n int) []*expr.Expr {
	pkt := expr.BaseArray("adpkt")
	sels := make([]*expr.Expr, n)
	for k := range sels {
		x := expr.Var(fmt.Sprintf("adx%d", k), 8)
		sels[k] = expr.Select(pkt, expr.ZExt(expr.BvAnd(x, expr.Const(8, 3)), 32))
	}
	var cons []*expr.Expr
	for i := range sels {
		for j := i + 1; j < n; j++ {
			cons = append(cons, expr.Ne(sels[i], sels[j]))
		}
	}
	return cons
}

// The refinement rounds of one session Check are one search to the
// degradation ladder (DESIGN.md §9): the fault hook is consulted once,
// the conflict budget and the deadline are shared, and running out of
// either between rounds is Unknown.

func TestRefinementConsultsFaultHookOnce(t *testing.T) {
	calls := 0
	s := New(Options{FaultHook: func() SolveFault { calls++; return NoFault }})
	if r, _ := s.NewSession().Check(aliasedDistinct(5)); r != Unsat {
		t.Fatalf("Check = %v, want Unsat", r)
	}
	if n := s.Stats().ArrayLemmas; n < 2 {
		t.Fatalf("%d array lemmas; the query did not need refinement rounds", n)
	}
	if calls != 1 || s.Stats().SatCalls != 1 {
		t.Fatalf("fault hook consulted %d times over %d SAT calls, want once for one call", calls, s.Stats().SatCalls)
	}
}

func TestRefinementSharesConflictBudget(t *testing.T) {
	q := aliasedDistinct(5)
	ref := New(Options{})
	sess := ref.NewSession()
	if r, _ := sess.Check(q); r != Unsat {
		t.Fatalf("unbudgeted Check = %v, want Unsat", r)
	}
	total := sess.LastSolve().Conflicts
	// Every budget below what the rounds need between them is Unknown,
	// with no model, after about as many conflicts as the budget: a
	// search checks its cap between conflicts, so a chain of them can
	// overshoot it by a few, but the rounds do not each get a cap.
	midRefinement := 0
	for budget := int64(1); budget < total; budget++ {
		s := New(Options{MaxConflicts: budget})
		sess := s.NewSession()
		if r, m := sess.Check(q); r != Unknown || m != nil {
			t.Fatalf("budget %d of the %d conflicts needed: %v, want Unknown without a model", budget, total, r)
		}
		if used := sess.LastSolve().Conflicts; used > budget+3 {
			t.Fatalf("budget %d: the rounds spent %d conflicts between them", budget, used)
		}
		if s.Stats().ArrayLemmas > 0 {
			midRefinement++
		}
	}
	if midRefinement == 0 {
		t.Fatalf("no budget below %d ran out after a lemma; nothing tested the shared budget", total)
	}
}

func TestRefinementSharesDeadline(t *testing.T) {
	// Two reads at one-bit indices holding different bytes: satisfiable
	// only at different indices, and the first model reads both at 0.
	// Each round is far too short to reach the search's own clock check,
	// so only the check between rounds sees the deadline pass.
	pkt := expr.BaseArray("dlpkt")
	x, y := expr.Var("dlx", 1), expr.Var("dly", 1)
	q := []*expr.Expr{
		expr.Eq(expr.Select(pkt, expr.ZExt(x, 32)), expr.Const(8, 5)),
		expr.Eq(expr.Select(pkt, expr.ZExt(y, 32)), expr.Const(8, 7)),
	}
	ref := New(Options{})
	if r, _ := ref.NewSession().Check(q); r != Sat || ref.Stats().ArrayLemmas == 0 {
		t.Fatalf("unbounded Check = %v after %d lemmas, want Sat after at least one", r, ref.Stats().ArrayLemmas)
	}
	s := New(Options{QueryTimeout: time.Nanosecond})
	if r, m := s.NewSession().Check(q); r != Unknown || m != nil {
		t.Fatalf("Check past its deadline = %v, want Unknown without a model", r)
	}
}

// TestSessionBudgetUnknown exercises the budget through an incremental
// session: a conflict-capped Check on a hard factoring formula returns
// Unknown with no model, and Stats counts the unresolved search.
func TestSessionBudgetUnknown(t *testing.T) {
	s := New(Options{MaxConflicts: 2, DisableIntervals: true})
	sess := s.NewSession()
	x := expr.Var("x", 24)
	y := expr.Var("y", 24)
	res, m := sess.Check([]*expr.Expr{
		expr.Eq(expr.Mul(x, y), expr.Const(24, 7919*6101&0xffffff)),
		expr.Ult(expr.Const(24, 1), x),
		expr.Ult(expr.Const(24, 1), y),
	})
	if res == Sat {
		t.Skip("budget test got lucky; acceptable")
	}
	if res != Unknown {
		t.Fatalf("budgeted session Check = %v, want Unknown", res)
	}
	if m != nil {
		t.Fatal("Unknown must carry no model")
	}
	if s.Stats().Unknowns == 0 {
		t.Fatal("Stats().Unknowns not incremented")
	}
}
