package smt

import (
	"fmt"
	"math/rand"
	"testing"

	"vsd/internal/expr"
)

// This file fuzzes the CDCL core against brute-force enumeration on
// random CNFs over up to 16 variables. Widths 1..5 produce unit chains
// (binary watch lists) and quick top-level conflicts; the hard-search
// test generates 3-CNF at the satisfiability phase transition with the
// restart and clause-deletion thresholds lowered, so recursive
// minimization, LBD tracking, Luby restarts, reduceDB, and arena
// compaction all run on instances small enough to cross-check by
// enumeration. Repeated solves with assumption sets stress the
// incremental path over a shared instance.
//
// Random CNFs cannot exercise cone-restricted solving — its Sat answers
// are only sound on the gate-structured CNF the blaster emits — so the
// generator has a second level, randAtom, producing bitvector atoms over
// packet selects, and TestSatFuzzConeDifferential checks sessions that
// hold far more than a query's cone against one-shot solves.

// randCNF returns a random CNF over nv variables.
func randCNF(r *rand.Rand, nv int) [][]Lit {
	nc := 1 + r.Intn(8*nv)
	cnf := make([][]Lit, 0, nc)
	for i := 0; i < nc; i++ {
		width := 1 + r.Intn(5)
		cl := make([]Lit, width)
		for j := range cl {
			cl[j] = MkLit(int32(r.Intn(nv)), r.Intn(2) == 1)
		}
		cnf = append(cnf, cl)
	}
	return cnf
}

// atomGen draws random 1-bit atoms over 8-bit terms: constants, the
// given variables, constant- and symbolic-index reads of pkt, arithmetic,
// ite chains and division/remainder (the node kinds whose encodings tie
// inputs together outside any guard: the select tie, the div/rem side
// constraint).
type atomGen struct {
	r    *rand.Rand
	pkt  *expr.Array
	vars []*expr.Expr
	// base, when set, puts every read at base plus a tiny offset —
	// constant reads at base+0..3, symbolic ones at base + (v & 3) — so
	// reads alias one another far more often than at constant-or-masked
	// indices, and the session must refine its models.
	base *expr.Expr
}

func (g *atomGen) term(depth int) *expr.Expr {
	r := g.r
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(5) {
		case 0:
			return expr.Const(8, uint64(r.Intn(256)))
		case 1:
			if g.base != nil {
				return expr.Select(g.pkt, expr.Add(g.base, expr.Const(32, uint64(r.Intn(4)))))
			}
			return expr.Select(g.pkt, expr.Const(32, uint64(r.Intn(6))))
		case 2:
			v := expr.ZExt(g.vars[r.Intn(len(g.vars))], 32)
			if g.base != nil {
				return expr.Select(g.pkt, expr.Add(g.base, expr.BvAnd(v, expr.Const(32, 3))))
			}
			// Symbolic index into the first 8 bytes: aliases the constant
			// reads, so functional consistency matters.
			return expr.Select(g.pkt, expr.BvAnd(v, expr.Const(32, 7)))
		default:
			return g.vars[r.Intn(len(g.vars))]
		}
	}
	a, b := g.term(depth-1), g.term(depth-1)
	switch r.Intn(16) {
	case 0: // division is rare: each node blasts to ~2k variables
		return expr.UDiv(a, b)
	case 1:
		return expr.URem(a, b)
	case 2:
		return expr.Bin(expr.OpShl, a, expr.Const(8, uint64(r.Intn(8))))
	case 3, 4:
		return expr.Sub(a, b)
	case 5, 6:
		return expr.BvAnd(a, b)
	case 7, 8:
		return expr.Bin(expr.OpXor, a, b)
	case 9, 10, 11:
		return expr.Ite(g.atom(depth-1), a, b)
	default:
		return expr.Add(a, b)
	}
}

func (g *atomGen) atom(depth int) *expr.Expr {
	cmps := []expr.Op{expr.OpEq, expr.OpNe, expr.OpUlt, expr.OpUle, expr.OpSlt}
	return expr.Bin(cmps[g.r.Intn(len(cmps))], g.term(depth), g.term(depth))
}

// TestSatFuzzConeDifferential is the soundness gate of cone-restricted
// solving (DESIGN.md §2, "Relevance"). One session is first polluted
// with a large formula family over its own variables but the same packet
// array — symbolic-index selects, ite chains, division nodes — so that
// every later query's cone is a small part of the instance and reads
// inside and outside it share an array. Then, for seeded random atom
// sets: (a) the session's verdict equals a one-shot Check on a fresh
// solver; (b) every Sat model makes every queried atom evaluate to true,
// array bytes included; (c) the model's array bytes all come from
// selects inside the query's cone. Two configurations run: bare, where
// every query reaches the SAT core, and the verifier's, where the
// interval pre-analysis decides what it can first.
func TestSatFuzzConeDifferential(t *testing.T) {
	pkt := expr.BaseArray("fzpkt")
	shared := expr.Var("fzs", 8)
	for _, intervals := range []bool{false, true} {
		opts := Options{DisableIntervals: !intervals}
		var sat, small int
		// Several sessions rather than one long one, and query variables
		// renewed every 25 queries: propagation evaluates every gate whose
		// inputs a query assigns, inside its cone or not, so queries over
		// the same inputs pay for all their predecessors.
		for seed := int64(0); seed < 7; seed++ {
			r := rand.New(rand.NewSource(2013 + seed))
			sess := New(opts).NewSession()
			pollution := &atomGen{r: r, pkt: pkt, vars: []*expr.Expr{
				expr.Var("fzp0", 8), expr.Var("fzp1", 8), expr.Var("fzp2", 8), shared}}
			for i := 0; i < 30; i++ {
				// Every atom lands in the instance; one round in five is
				// also solved, so learnt clauses are part of the pollution.
				a, b := pollution.atom(3), pollution.atom(3)
				if i%5 == 0 {
					sess.Check([]*expr.Expr{a, b})
				} else {
					sess.guardFor(a)
					sess.guardFor(b)
				}
			}
			polluted := sess.bl.sat.NumVars()

			queries := &atomGen{r: r, pkt: pkt}
			for q := 0; q < 150; q++ {
				if q%25 == 0 {
					queries.vars = []*expr.Expr{
						expr.Var(fmt.Sprintf("fzq%d", q), 8), expr.Var(fmt.Sprintf("fzr%d", q), 8), shared}
				}
				cons := make([]*expr.Expr, 1+r.Intn(4))
				for i := range cons {
					cons[i] = queries.atom(1 + r.Intn(2))
				}
				if r.Intn(2) == 0 {
					// Pin a low byte to a nonzero value: a select placed from
					// outside the cone would land on index 0 with value 0.
					cons = append(cons, expr.Eq(expr.Select(pkt, expr.Const(32, uint64(r.Intn(2)))),
						expr.Const(8, uint64(1+r.Intn(255)))))
				}
				got, m := sess.Check(cons)
				want, _ := New(opts).Check(cons)
				if got != want {
					t.Fatalf("intervals=%v seed %d query %d: session=%v one-shot=%v cons=%v", intervals, seed, q, got, want, cons)
				}
				if got != Sat {
					continue
				}
				for _, c := range cons {
					if !expr.Eval(c, m).IsTrue() {
						t.Fatalf("intervals=%v seed %d query %d: session model violates %s\nvars %v arrays %v",
							intervals, seed, q, c, m.Vars, m.Arrays)
					}
				}
				if !sess.LastSolve().SATCore {
					continue
				}
				sat++
				if 4*len(sess.bl.coneVars) < polluted {
					small++
				}
				// (c): every array byte sits at the index of a cone select.
				placed := map[uint64]bool{}
				for _, k := range sess.bl.coneSels {
					placed[expr.Eval(sess.selInfo[k].sel.B, m).Int()] = true
				}
				content := m.Arrays[pkt.BaseName()]
				for i, b := range content {
					if b != 0 && !placed[uint64(i)] {
						t.Fatalf("intervals=%v seed %d query %d: byte %d = %#x placed by a select outside the cone", intervals, seed, q, i, b)
					}
				}
				if n := len(content); n > 0 && !placed[uint64(n-1)] {
					t.Fatalf("intervals=%v seed %d query %d: array extended to %d bytes by a select outside the cone", intervals, seed, q, n)
				}
			}
		}
		t.Logf("intervals=%v: %d Sat answers from the SAT core, %d with a cone under a quarter of the polluted instance", intervals, sat, small)
		if small < 100 {
			t.Errorf("intervals=%v: only %d queries had a small cone; the pollution is not out of cone and the test checks nothing", intervals, small)
		}
	}
}

// TestSatFuzzAliasingDifferential is the soundness gate of the lazy
// array axioms (DESIGN.md §2): a session asserts a read pair's
// consistency axiom only when a model breaks it. Reads here share a
// symbolic base plus an offset in 0..3, so indices collide in most
// queries. Polluted sessions answer seeded random atom sets; each
// verdict must equal that of one-shot Check, which asserts every axiom
// up front, and each Sat model must make every atom evaluate to true.
// The run must have asserted lemmas, or it never exercised refinement.
func TestSatFuzzAliasingDifferential(t *testing.T) {
	pkt := expr.BaseArray("fapkt")
	base := expr.ZExt(expr.Var("fab", 8), 32)
	var lemmas, sat, unsat int64
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(1503 + seed))
		s := New(Options{})
		sess := s.NewSession()
		pollution := &atomGen{r: r, pkt: pkt, base: base, vars: []*expr.Expr{
			expr.Var("fap0", 8), expr.Var("fap1", 8), expr.Var("fas", 8)}}
		for i := 0; i < 20; i++ {
			a, b := pollution.atom(3), pollution.atom(3)
			if i%4 == 0 {
				sess.Check([]*expr.Expr{a, b})
			} else {
				sess.guardFor(a)
				sess.guardFor(b)
			}
		}
		queries := &atomGen{r: r, pkt: pkt, base: base}
		for q := 0; q < 100; q++ {
			if q%25 == 0 {
				queries.vars = []*expr.Expr{
					expr.Var(fmt.Sprintf("faq%d", q), 8), expr.Var(fmt.Sprintf("far%d", q), 8), expr.Var("fas", 8)}
			}
			cons := make([]*expr.Expr, 2+r.Intn(4))
			for i := range cons {
				cons[i] = queries.atom(1 + r.Intn(2))
			}
			got, m := sess.Check(cons)
			want, _ := New(Options{}).Check(cons)
			if got != want {
				t.Fatalf("seed %d query %d: session=%v one-shot=%v cons=%v", seed, q, got, want, cons)
			}
			switch got {
			case Unsat:
				unsat++
			case Sat:
				sat++
				for _, c := range cons {
					if !expr.Eval(c, m).IsTrue() {
						t.Fatalf("seed %d query %d: session model violates %s\nvars %v arrays %v", seed, q, c, m.Vars, m.Arrays)
					}
				}
			}
		}
		lemmas += s.Stats().ArrayLemmas
	}
	t.Logf("%d Sat, %d Unsat; %d array lemmas asserted on demand", sat, unsat, lemmas)
	if lemmas == 0 {
		t.Error("no model ever broke an array axiom; the test checks nothing")
	}
}

// bruteForceSatUnder checks satisfiability of cnf under forced literal
// assignments (assumptions) by enumeration.
func bruteForceSatUnder(nv int, cnf [][]Lit, assumptions []Lit) bool {
	for m := 0; m < 1<<nv; m++ {
		ok := true
		for _, a := range assumptions {
			val := m>>uint(a.Var())&1 == 1
			if a.Neg() {
				val = !val
			}
			if !val {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func checkModel(t *testing.T, s *SatSolver, cnf [][]Lit, trial int) {
	t.Helper()
	for _, cl := range cnf {
		sat := false
		for _, l := range cl {
			val := s.ModelValue(l.Var())
			if l.Neg() {
				val = !val
			}
			if val {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("trial %d: model does not satisfy clause %v", trial, cl)
		}
	}
}

// TestSatFuzzOneShot cross-checks single solves on random CNFs over up
// to 16 variables against enumeration.
func TestSatFuzzOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		nv := 2 + r.Intn(15) // 2..16 vars
		cnf := randCNF(r, nv)
		s := NewSatSolver()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		early := false
		for _, cl := range cnf {
			// AddClause owns nothing (arena copy), but simplifies the
			// argument slice in place: pass a copy to keep cnf intact for
			// the brute-force cross-check.
			if !s.AddClause(append([]Lit{}, cl...)...) {
				early = true
				break
			}
		}
		want := bruteForceSatUnder(nv, cnf, nil)
		if early {
			if want {
				t.Fatalf("trial %d: AddClause declared unsat but formula is sat: %v", trial, cnf)
			}
			continue
		}
		got := s.Solve()
		if (got == SatSat) != want {
			t.Fatalf("trial %d: Solve = %v, brute force = %v, cnf = %v", trial, got, want, cnf)
		}
		if got == SatSat {
			checkModel(t, s, cnf, trial)
		}
	}
}

// TestSatFuzzAssumptions cross-checks repeated assumption solves over a
// single shared instance — the incremental-session usage pattern — with
// random assumption sets per round, including rounds that add clauses
// between solves (exercising the trail-preserving AddClause attach).
func TestSatFuzzAssumptions(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 120; trial++ {
		nv := 3 + r.Intn(14) // 3..16 vars
		s := NewSatSolver()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		var cnf [][]Lit
		addBatch := func(n int) bool {
			for i := 0; i < n; i++ {
				width := 1 + r.Intn(5)
				cl := make([]Lit, width)
				for j := range cl {
					cl[j] = MkLit(int32(r.Intn(nv)), r.Intn(2) == 1)
				}
				cnf = append(cnf, cl)
				if !s.AddClause(append([]Lit{}, cl...)...) {
					return false
				}
			}
			return true
		}
		dead := !addBatch(1 + r.Intn(4*nv))
		for round := 0; round < 6; round++ {
			// Random assumptions over distinct variables.
			var assumptions []Lit
			for v := 0; v < nv; v++ {
				if r.Intn(4) == 0 {
					assumptions = append(assumptions, MkLit(int32(v), r.Intn(2) == 1))
				}
			}
			want := bruteForceSatUnder(nv, cnf, assumptions)
			if dead {
				// The instance hit a top-level conflict during AddClause;
				// everything afterwards must answer unsat.
				if want {
					t.Fatalf("trial %d round %d: dead instance but formula+assumptions sat", trial, round)
				}
				if got := s.Solve(assumptions...); got != SatUnsat {
					t.Fatalf("trial %d round %d: dead instance Solve = %v", trial, round, got)
				}
				continue
			}
			got := s.Solve(assumptions...)
			if (got == SatSat) != want {
				t.Fatalf("trial %d round %d: Solve = %v, brute force = %v, cnf = %v assumptions = %v",
					trial, round, got, want, cnf, assumptions)
			}
			if got == SatSat {
				checkModel(t, s, cnf, trial)
				for _, a := range assumptions {
					val := s.ModelValue(a.Var())
					if a.Neg() {
						val = !val
					}
					if !val {
						t.Fatalf("trial %d round %d: model violates assumption %v", trial, round, a)
					}
				}
			}
			// Grow the instance mid-session half the time: clauses attach
			// against whatever trail the previous solve left standing.
			if r.Intn(2) == 0 {
				if !addBatch(1 + r.Intn(nv)) {
					dead = true
				}
			}
		}
	}
}

// gateCNF returns the defining clauses of o = x ∧ y (kind 0),
// o = x ⊕ y (kind 1) or o = maj(x, y, z) (kind 2).
func gateCNF(kind int, o, x, y, z Lit) [][]Lit {
	switch kind {
	case 0:
		return [][]Lit{{o.Flip(), x}, {o.Flip(), y}, {o, x.Flip(), y.Flip()}}
	case 1:
		return [][]Lit{{o.Flip(), x, y}, {o.Flip(), x.Flip(), y.Flip()}, {o, x.Flip(), y}, {o, x, y.Flip()}}
	}
	return [][]Lit{{o.Flip(), x, y}, {o.Flip(), x, z}, {o.Flip(), y, z},
		{o, x.Flip(), y.Flip()}, {o, x.Flip(), z.Flip()}, {o, y.Flip(), z.Flip()}}
}

// freshVerdict solves cnf under assumptions on a new solver.
func freshVerdict(nv int, cnf [][]Lit, assumptions []Lit) SatResult {
	s := NewSatSolver()
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		if !s.AddClause(append([]Lit{}, cl...)...) {
			return SatUnsat
		}
	}
	return s.Solve(assumptions...)
}

// checkClosed fails unless the trail a solve left standing is closed
// under unit propagation: every literal on it propagated, no clause
// falsified, and no clause unit with its last literal unassigned.
func checkClosed(t *testing.T, s *SatSolver, cnf [][]Lit, trial, round int) {
	t.Helper()
	if s.qhead != len(s.trail) {
		t.Fatalf("trial %d round %d: %d trail literals left unpropagated", trial, round, len(s.trail)-s.qhead)
	}
	for _, cl := range cnf {
		open := 0
		for _, l := range cl {
			if v := s.value(l); v == lTrue {
				open = -1
				break
			} else if v != lFalse {
				open++
			}
		}
		if open == 0 || open == 1 {
			t.Fatalf("trial %d round %d: clause %v has %d unassigned literals and the rest false", trial, round, cl, open)
		}
	}
}

// TestSatTrailReuseDifferential interleaves two things on one solver:
// gate clauses added over variables the standing trail assigns, and
// solves whose assumption lists share random prefixes with the previous
// solve's. The solver keeps the shared assumption levels and rewinds
// into them past literals the new clauses imply (or that satisfy them)
// above the level where they became unit. Each verdict is compared with
// a fresh solver's, each Sat model must satisfy every clause, and every
// answer must leave the trail closed under unit propagation — the check
// that sees a forced literal the rewind dropped, since a solve that
// stops at a false assumption decides nothing after it.
func TestSatTrailReuseDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(4343))
	var keptLevels, lifted, stopped int64
	for trial := 0; trial < 300; trial++ {
		s := NewSatSolver()
		s.restartBase = 4 // restarts rewind into the kept levels too
		for i := 4 + r.Intn(6); i > 0; i-- {
			s.NewVar()
		}
		var cnf [][]Lit
		add := func(cl ...Lit) {
			cnf = append(cnf, cl)
			s.AddClause(append([]Lit{}, cl...)...)
		}
		someLit := func() Lit { return MkLit(int32(r.Intn(s.NumVars())), r.Intn(2) == 1) }
		var prev []Lit
		for round := 0; round < 16; round++ {
			for g := r.Intn(4); g > 0; g-- {
				x, y, z := someLit(), someLit(), someLit()
				o := MkLit(s.NewVar(), false)
				def := gateCNF(r.Intn(3), o, x, y, z)
				r.Shuffle(len(def), func(i, j int) { def[i], def[j] = def[j], def[i] })
				for _, cl := range def {
					add(cl...)
				}
			}
			if r.Intn(4) == 0 {
				add(someLit(), someLit(), someLit())
			}
			for v := range s.liftLvl {
				if s.liftLvl[v] != 0 {
					lifted++
				}
			}
			// Keep a random prefix of the previous assumptions, then assume
			// fresh literals over variables the prefix leaves free.
			as := append([]Lit{}, prev[:r.Intn(len(prev)+1)]...)
			used := map[int32]bool{}
			for _, a := range as {
				used[a.Var()] = true
			}
			for i := r.Intn(4); i > 0; i-- {
				if l := someLit(); !used[l.Var()] {
					used[l.Var()] = true
					as = append(as, l)
				}
			}
			before := s.cnt.AssumLevels
			got := s.Solve(as...)
			keptLevels += int64(len(as)) - (s.cnt.AssumLevels - before)
			if want := freshVerdict(s.NumVars(), cnf, as); got != want {
				t.Fatalf("trial %d round %d: Solve = %v, fresh solver = %v", trial, round, got, want)
			}
			if !s.ok {
				break
			}
			checkClosed(t, s, cnf, trial, round)
			if got == SatSat {
				checkModel(t, s, cnf, trial)
				for _, a := range as {
					if s.ModelValue(a.Var()) == a.Neg() {
						t.Fatalf("trial %d round %d: model violates assumption %v", trial, round, a)
					}
				}
			} else {
				stopped++
			}
			prev = as
		}
	}
	t.Logf("%d assumption levels kept, %d lifted literals recorded, %d solves stopped at an assumption", keptLevels, lifted, stopped)
	if keptLevels == 0 || lifted == 0 || stopped == 0 {
		t.Error("the solves never kept a level, lifted a literal or stopped at an assumption; the test checks nothing")
	}
}

// TestSatFuzzPooledReset runs fuzz rounds through one solver instance
// with reset between formulas, validating that pooled blaster reuse
// (warm arenas, truncated state) cannot leak state across queries.
func TestSatFuzzPooledReset(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := NewSatSolver()
	for trial := 0; trial < 200; trial++ {
		s.reset()
		nv := 2 + r.Intn(15)
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		cnf := randCNF(r, nv)
		early := false
		for _, cl := range cnf {
			if !s.AddClause(append([]Lit{}, cl...)...) {
				early = true
				break
			}
		}
		want := bruteForceSatUnder(nv, cnf, nil)
		if early {
			if want {
				t.Fatalf("trial %d: AddClause declared unsat but formula is sat", trial)
			}
			continue
		}
		if got := s.Solve(); (got == SatSat) != want {
			t.Fatalf("trial %d: Solve = %v, brute force = %v, cnf = %v", trial, got, want, cnf)
		}
	}
}

// TestSatFuzzHardSearch generates random 3-CNF at the phase-transition
// clause ratio (~4.3), where search is genuinely hard, with restart and
// reduceDB thresholds lowered so the deep CDCL machinery (Luby
// restarts, clause deletion, arena compaction, ccmin on long conflict
// chains) runs on enumerable instances. Aggregate counters assert the
// machinery actually engaged.
func TestSatFuzzHardSearch(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	var conflicts, restarts, minimized int64
	for trial := 0; trial < 150; trial++ {
		nv := 10 + r.Intn(7) // 10..16 vars
		nc := int(4.3 * float64(nv))
		cnf := make([][]Lit, 0, nc)
		for i := 0; i < nc; i++ {
			cl := make([]Lit, 3)
			perm := r.Perm(nv)
			for j := range cl {
				cl[j] = MkLit(int32(perm[j]), r.Intn(2) == 1)
			}
			cnf = append(cnf, cl)
		}
		s := NewSatSolver()
		s.restartBase = 4 // force frequent Luby restarts
		s.reduceMin = 8   // force clause-database reduction
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		early := false
		for _, cl := range cnf {
			if !s.AddClause(append([]Lit{}, cl...)...) {
				early = true
				break
			}
		}
		want := bruteForceSatUnder(nv, cnf, nil)
		if early {
			if want {
				t.Fatalf("trial %d: AddClause declared unsat but formula is sat", trial)
			}
			continue
		}
		// Two assumption rounds after the plain solve keep the instance
		// shared across searches.
		if got := s.Solve(); (got == SatSat) != want {
			t.Fatalf("trial %d: Solve = %v, brute force = %v, cnf = %v", trial, got, want, cnf)
		}
		for round := 0; round < 2; round++ {
			var assumptions []Lit
			for v := 0; v < nv; v++ {
				if r.Intn(5) == 0 {
					assumptions = append(assumptions, MkLit(int32(v), r.Intn(2) == 1))
				}
			}
			want := bruteForceSatUnder(nv, cnf, assumptions)
			got := s.Solve(assumptions...)
			if s.ok && (got == SatSat) != want {
				t.Fatalf("trial %d round %d: Solve = %v, brute force = %v", trial, round, got, want)
			}
			if got == SatSat {
				checkModel(t, s, cnf, trial)
			}
		}
		c := s.Counters()
		conflicts += c.Conflicts
		restarts += c.Restarts
		minimized += c.MinimizedLits
	}
	t.Logf("aggregate: %d conflicts, %d restarts, %d minimized literals", conflicts, restarts, minimized)
	if conflicts < 500 {
		t.Errorf("phase-transition instances produced only %d conflicts; search machinery not exercised", conflicts)
	}
	if restarts == 0 {
		t.Error("no restarts fired despite lowered restartBase")
	}
	if minimized == 0 {
		t.Error("learnt-clause minimization removed no literals")
	}
}

// TestSatCompaction drives one instance through enough learning and
// reduction cycles that the arena compacts, then re-checks the verdict
// and model validity on the compacted database.
func TestSatCompaction(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	s := NewSatSolver()
	s.restartBase = 4
	s.reduceMin = 8
	s.compactMin = 64 // compact as soon as dead literals dominate
	nv := 16
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	var cnf [][]Lit
	maxArena := 0
	for batch := 0; batch < 60 && s.ok; batch++ {
		for i := 0; i < 8; i++ {
			cl := make([]Lit, 3)
			perm := r.Perm(nv)
			for j := range cl {
				cl[j] = MkLit(int32(perm[j]), r.Intn(2) == 1)
			}
			cnf = append(cnf, cl)
			if !s.AddClause(append([]Lit{}, cl...)...) {
				break
			}
		}
		want := bruteForceSatUnder(nv, cnf, nil)
		got := s.Solve()
		if s.ok && (got == SatSat) != want {
			t.Fatalf("batch %d: Solve = %v, brute force = %v", batch, got, want)
		}
		if !s.ok && want {
			t.Fatalf("batch %d: instance died but formula is sat", batch)
		}
		if got == SatSat {
			checkModel(t, s, cnf, batch)
		}
		if len(s.larena) > maxArena {
			maxArena = len(s.larena)
		}
	}
	// Compaction must have run (the arena shrank below its high-water
	// mark at least once) and left no deleted clause behind.
	if len(s.larena) >= maxArena && s.deadLits > 0 {
		t.Errorf("arena never compacted: len=%d high-water=%d deadLits=%d", len(s.larena), maxArena, s.deadLits)
	}
	for _, c := range append(append([]cref{}, s.clauses...), s.learnts...) {
		if s.cdb[c].deleted {
			t.Fatal("deleted clause left in live lists after compaction")
		}
	}
}
