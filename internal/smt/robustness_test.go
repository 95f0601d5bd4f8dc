package smt

// Robustness tests (DESIGN.md §9): the fault-injection hook, the
// watchdog interrupt, and portfolio-seat panic containment. The
// contract under test is uniform — a failed or cancelled search may
// only ever degrade to Unknown, never to a fabricated verdict and never
// to a downed process.

import (
	"sync/atomic"
	"testing"
	"time"

	"vsd/internal/expr"
)

// hardQuery returns constraints that reach the SAT core (the interval
// and equality pre-passes cannot decide multiplication).
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

func TestRaceContainsSeatPanics(t *testing.T) {
	defer func() { seatStartHook = nil }()
	// A small satisfiable instance: (v0 ∨ v1) ∧ (¬v0 ∨ v1).
	s := NewSatSolver()
	v0, v1 := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(v0, false), MkLit(v1, false))
	s.AddClause(MkLit(v0, true), MkLit(v1, false))

	// Every seat but 0 panics at start; the race must survive, count the
	// panics, and still return seat 0's correct verdict.
	seatStartHook = func(seat int) {
		if seat != 0 {
			panic("injected seat panic")
		}
	}
	verdict, winner, panics := racePortfolio(s, s.everyVar(), nil, 3, -1, time.Time{}, nil)
	if panics != 2 {
		t.Fatalf("panics = %d, want 2", panics)
	}
	if verdict != SatSat || winner == nil {
		t.Fatalf("race verdict = %v (winner %v), want Sat from the surviving seat", verdict, winner != nil)
	}

	// All seats panic: the race degrades to Unknown — never a verdict
	// from a dead seat, never a crash.
	seatStartHook = func(int) { panic("injected seat panic") }
	verdict, winner, panics = racePortfolio(s, s.everyVar(), nil, 3, -1, time.Time{}, nil)
	if verdict != SatUnknown || winner != nil || panics != 3 {
		t.Fatalf("all-dead race = %v (winner %v, panics %d), want Unknown/nil/3", verdict, winner != nil, panics)
	}
}
