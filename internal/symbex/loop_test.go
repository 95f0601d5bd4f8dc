package symbex

import (
	"fmt"
	"strings"
	"testing"

	"vsd/internal/bv"
	"vsd/internal/elements"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/smt"
)

// segmentShape renders a summary as "kind steps" per segment, in order.
func segmentShape(segs []*Segment) string {
	var parts []string
	for _, s := range segs {
		kind := fmt.Sprintf("emit%d", s.Port)
		switch {
		case s.Crash != nil && s.Crash.Kind == ir.CrashOOB:
			kind = "OOB"
		case s.Crash != nil:
			kind = "crash"
		case s.Disposition == ir.Dropped:
			kind = "drop"
		}
		parts = append(parts, fmt.Sprintf("%s %d", kind, s.Steps))
	}
	return strings.Join(parts, ", ")
}

// checkPartition asks the solver that, under pre, the segment conditions
// are pairwise disjoint and together cover every input.
func checkPartition(t *testing.T, pre []*expr.Expr, segs []*Segment) {
	t.Helper()
	sess := smt.New(smt.Options{}).NewSession()
	defer sess.Close()
	var conds []*expr.Expr
	for i, a := range segs {
		conds = append(conds, a.CondExpr())
		for j := i + 1; j < len(segs); j++ {
			cons := append(append([]*expr.Expr{}, pre...), a.CondExpr(), segs[j].CondExpr())
			if r, _ := sess.Check(cons); r != smt.Unsat {
				t.Errorf("segments %d and %d overlap (%v)", i, j, r)
			}
		}
	}
	cons := append(append([]*expr.Expr{}, pre...), expr.Not(expr.Or(conds...)))
	if r, _ := sess.Check(cons); r != smt.Unsat {
		t.Errorf("the segments leave inputs uncovered (%v)", r)
	}
}

// TestLoopElementsGolden pins the merged summaries of the two loop
// elements at the verifier's usual bounds: segment kinds, order and step
// counts, and the solver's word that the conditions still partition the
// input space. The segments are those of the per-member check the group
// rule replaced, so they also show the rule changes no result. The
// check counts are exact gates on its cost. A group check is skipped
// when its parent's cached witness covers it, and the witnesses are the
// models the solver finds, so the counts follow what shapes those
// models — the CNF encoding (DESIGN.md §4.1), the session's assumption
// order and kept trail (§2) — while the segments stay. Each count is
// the same alone and in the whole package: nothing in a run depends on
// intern IDs or on earlier tests.
func TestLoopElementsGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prog   func(string) (*ir.Program, error)
		want   string
		checks int64
	}{
		{"IPOptions", elements.IPOptions, "OOB 2, OOB 732, emit1 730, emit0 733", 74},
		{"CheckIPHeader", elements.CheckIPHeader,
			"emit1 8, OOB 8, emit1 15, emit1 21, emit1 27, emit1 33, emit1 37, emit1 427, emit0 427", 62},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.prog("")
			if err != nil {
				t.Fatal(err)
			}
			in := DefaultInput(packet.MinFrame, 48)
			e := newEngine(Options{})
			segs, err := e.Run(p, in)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Stats().SolverChecks; got != tc.checks {
				t.Errorf("%d Step-1 solver checks, want %d", got, tc.checks)
			}
			if got := segmentShape(segs); got != tc.want {
				t.Errorf("segments\n got %s\nwant %s", got, tc.want)
			}
			if !e.Stats().Merged {
				t.Error("no merge reported on a loop with several continuations")
			}
			checkPartition(t, in.Pre, segs)
		})
	}
}

// buildShrinkingLoop has two fall-through body paths: a long one taken
// while the counter, which starts at 0 or 1, is below 2, and a short
// one. At iteration 0 only the long path is feasible, at iteration 1
// both are, from iteration 2 on only the short one.
func buildShrinkingLoop() *ir.Program {
	b := ir.NewBuilder("Shrink", 1, 1)
	i := b.ZExt(b.BinC(ir.And, b.MetaLoad("n", 8), 1), 32)
	b.Loop(4, func() {
		b.If(b.BinC(ir.Ult, i, 2), func() {
			for k := 0; k < 3; k++ {
				b.SetReg(i, b.BinC(ir.Add, i, 0))
			}
		}, nil)
		b.SetReg(i, b.BinC(ir.Add, i, 1))
	})
	b.Emit(0)
	return b.MustBuild()
}

// buildNeverCrashLoop asserts a condition no input can break, but only
// the solver can tell: the crash kind has a summary, never an instance.
func buildNeverCrashLoop() *ir.Program {
	b := ir.NewBuilder("NeverCrash", 1, 1)
	v := b.ZExt(b.MetaLoad("v", 8), 32)
	i := b.Mov(b.ConstU(32, 0))
	b.Loop(5, func() {
		b.Assert(b.Bin(ir.Ult, b.Bin(ir.Add, v, i), b.ConstU(32, 1000)), "unreachable")
		b.SetReg(i, b.BinC(ir.Add, i, 1))
	})
	b.Emit(0)
	return b.MustBuild()
}

// concreteMaxSteps runs p on every value of the 8-bit metadata slot and
// returns the largest step count.
func concreteMaxSteps(p *ir.Program, slot string) int64 {
	var most int64
	for v := 0; v < 256; v++ {
		env := &ir.ExecEnv{Pkt: []byte{0}, Meta: map[string]bv.V{slot: bv.New(8, uint64(v))}, State: ir.NewState()}
		if out := ir.Exec(p, env); out.Steps > most {
			most = out.Steps
		}
	}
	return most
}

// TestLoopMergeGroupRule pins the merge-group feasibility rule on loops
// small enough to reason about by hand.
func TestLoopMergeGroupRule(t *testing.T) {
	run := func(t *testing.T, p *ir.Program, so smt.Options, opts Options) ([]*Segment, Stats) {
		t.Helper()
		e := New(smt.New(so), opts)
		segs, err := e.Run(p, DefaultInput(1, 8))
		if err != nil {
			t.Fatal(err)
		}
		return segs, e.Stats()
	}
	// A member deeper than the first feasible one is dropped once it is
	// proven infeasible, so the merged step count is the largest over
	// feasible members: here the interpreter's maximum, where keeping the
	// infeasible long path at iterations 2 and 3 would overshoot it.
	t.Run("infeasible-sibling-dropped", func(t *testing.T) {
		p := buildShrinkingLoop()
		segs, st := run(t, p, smt.Options{}, Options{})
		if len(segs) != 1 {
			t.Fatalf("%d segments, want 1: %s", len(segs), segmentShape(segs))
		}
		if want := concreteMaxSteps(p, "n"); segs[0].Steps != want {
			t.Errorf("merged steps %d, want the concrete maximum %d", segs[0].Steps, want)
		}
		if !st.Merged {
			t.Error("iteration 1 has two feasible members, yet no merge is reported")
		}
	})
	// A crash kind with no feasible instance is checked at every
	// iteration against that iteration's parent, refuted each time, and
	// never emitted.
	t.Run("unreachable-crash-refuted-per-iteration", func(t *testing.T) {
		p := buildNeverCrashLoop()
		segs, st := run(t, p, smt.Options{}, Options{})
		if got, want := segmentShape(segs), fmt.Sprintf("emit0 %d", concreteMaxSteps(p, "v")); got != want {
			t.Errorf("segments %q, want %q", got, want)
		}
		if st.ForksCut != 5 {
			t.Errorf("%d refutations, want one per iteration (5)", st.ForksCut)
		}
	})
	// Kinds are emitted in the order their first feasible instance
	// appears, not the order their summaries do: the emit1 exit (first
	// in the body) is infeasible at iteration 0 and feasible from
	// iteration 1, the assert crash feasible at iteration 0.
	t.Run("kinds-in-first-feasible-order", func(t *testing.T) {
		b := ir.NewBuilder("LateExit", 1, 2)
		i := b.ZExt(b.BinC(ir.And, b.MetaLoad("n", 8), 1), 32)
		b.Loop(3, func() {
			b.If(b.BinC(ir.Eq, i, 2), func() { b.Emit(1) }, nil)
			b.Assert(b.Not(b.BinC(ir.Eq, i, 0)), "zero")
			b.SetReg(i, b.BinC(ir.Add, i, 1))
		})
		b.Emit(0)
		segs, _ := run(t, b.MustBuild(), smt.Options{}, Options{})
		if got := segmentShape(segs); !strings.HasPrefix(got, "crash ") || !strings.Contains(got, ", emit1 ") {
			t.Errorf("segments %q, want the crash before the emit1 exit", got)
		}
	})
	// With one feasible member per group nothing is merged, so step
	// counts stay exact: the never-feasible else arm is the member
	// checked, and dropped, to keep that flag honest.
	t.Run("single-member-groups-not-merged", func(t *testing.T) {
		b := ir.NewBuilder("OneWay", 1, 1)
		i := b.ZExt(b.MetaLoad("n", 8), 32)
		b.Loop(3, func() {
			b.If(b.BinC(ir.Ult, i, 300), func() { b.SetReg(i, b.BinC(ir.Add, i, 1)) },
				func() { b.SetReg(i, b.BinC(ir.Add, i, 2)) })
		})
		b.Emit(0)
		p := b.MustBuild()
		segs, st := run(t, p, smt.Options{}, Options{})
		if st.Merged {
			t.Errorf("merge reported although the else arm is never feasible: %s", segmentShape(segs))
		}
		if len(segs) != 1 || segs[0].Steps != concreteMaxSteps(p, "n") {
			t.Errorf("segments %s, want one emit with the concrete step count %d", segmentShape(segs), concreteMaxSteps(p, "n"))
		}
	})
	// Unknown counts as feasible: a run whose every SAT search the fault
	// hook forces to Unknown drops nothing, exactly like a run that never
	// asks the solver. The wanted shapes are those of an engine that cut
	// only branches folding to a constant. The crash of NeverCrash then
	// stays a suspect segment, and Shrink keeps its infeasible long
	// paths: its step count overshoots the interpreter's maximum.
	t.Run("unknown-kept-as-feasible", func(t *testing.T) {
		so := smt.Options{DisableIntervals: true, FaultHook: func() smt.SolveFault { return smt.ForceUnknown }}
		for _, tc := range []struct {
			p    *ir.Program
			want string
		}{
			{buildShrinkingLoop(), "emit0 85"},
			{buildNeverCrashLoop(), "crash 46, emit0 51"},
		} {
			segs, _ := run(t, tc.p, so, Options{})
			if got := segmentShape(segs); got != tc.want {
				t.Errorf("%s: segments %q under Unknown, want %q, the shape without pruning", tc.p.Name, got, tc.want)
			}
		}
	})
}

// TestMergeGuardsSelectTheirMember checks the ite guards of every merged
// state of the two loop elements at the verifier's usual bounds with the
// solver (DESIGN.md §3.1): under the merged condition, member i's delta
// implies its own guard and refutes the guard of every earlier member,
// so the ite-chain yields the value of the one member whose delta holds.
func TestMergeGuardsSelectTheirMember(t *testing.T) {
	type merge struct {
		cond   []*expr.Expr
		deltas [][]*expr.Expr
		guards []*expr.Expr
	}
	for _, prog := range []func(string) (*ir.Program, error){elements.IPOptions, elements.CheckIPHeader} {
		p, err := prog("")
		if err != nil {
			t.Fatal(err)
		}
		var merges []merge
		onMerge = func(pre, merged []*expr.Expr, deltas [][]*expr.Expr, guards []*expr.Expr) {
			cond := append(append([]*expr.Expr{}, pre...), merged...)
			merges = append(merges, merge{cond, deltas, guards})
		}
		_, err = newEngine(Options{}).Run(p, DefaultInput(packet.MinFrame, 48))
		onMerge = nil
		if err != nil {
			t.Fatal(err)
		}
		if len(merges) == 0 {
			t.Fatalf("%s: no merge to check", p.Name)
		}
		sess := smt.New(smt.Options{}).NewSession()
		checks := 0
		unsat := func(what string, m merge, extra ...*expr.Expr) {
			t.Helper()
			checks++
			if r, _ := sess.Check(append(append([]*expr.Expr{}, m.cond...), extra...)); r != smt.Unsat {
				t.Errorf("%s: %s (%v)", p.Name, what, r)
			}
		}
		for _, m := range merges {
			for i, d := range m.deltas {
				delta := expr.And(d...)
				if i < len(m.deltas)-1 {
					unsat(fmt.Sprintf("member %d of %d holds but its guard does not", i, len(m.deltas)), m, delta, expr.Not(m.guards[i]))
				}
				if i > 0 {
					unsat(fmt.Sprintf("member %d of %d holds and so does an earlier member's guard", i, len(m.deltas)), m, delta, expr.Or(m.guards[:i]...))
				}
			}
		}
		sess.Close()
		t.Logf("%s: %d merges, %d solver checks", p.Name, len(merges), checks)
	}
}
