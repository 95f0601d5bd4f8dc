package verify

import (
	"testing"

	"vsd/internal/click"
	"vsd/internal/packet"
	"vsd/internal/smt"
)

// filterConfig is a light, loop-free pipeline sharing its front end with
// ipRouterConfig (the corpus firewall).
const filterConfig = `
	src :: InfiniteSource;
	cls :: Classifier(12/0800, -);
	strip :: Strip(14);
	chk :: CheckIPHeader(NOCHECKSUM);
	flt :: IPFilter(allow proto udp dport 53, deny dst 10.0.0.0/8, allow proto tcp);

	src -> cls;
	cls [0] -> strip -> chk;
	cls [1] -> Discard;
	chk [0] -> flt;
	chk [1] -> Discard;
`

// certifyCounted certifies p on v and returns the verdicts, the segment
// count of every element's summary, and the solver work it took.
func certifyCounted(t *testing.T, v *Verifier, p *click.Pipeline) (verified bool, bound int64, segs []int, work smt.Stats) {
	t.Helper()
	before := v.Stats().Solver
	crash, err := v.CrashFreedom(p)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := v.BoundedInstructions(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Elements {
		s, err := v.Summarize(e)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, len(s))
	}
	after := v.Stats().Solver
	work = smt.Stats{
		SatCalls:     after.SatCalls - before.SatCalls,
		Decisions:    after.Decisions - before.Decisions,
		Propagations: after.Propagations - before.Propagations,
		CNFClauses:   after.CNFClauses - before.CNFClauses,
	}
	return crash.Verified, steps.MaxSteps, segs, work
}

// TestOptionsRouterClauseBudget is the count-based gate of the lazy
// array axioms (DESIGN.md §2), of the loop merge-group rule (§3.1) and
// of the per-value table forks (§3.2) and of the order pass (§4.4):
// certifying the IPOptions router on one worker takes exactly 118 SAT
// calls, and under half the clauses that eager axioms needed (816 286
// eager, 227 161 lazy when the clause gate was set). Of the 118, 107
// are Step 1 — 79 of them IPOptions
// which checks each merge group once instead of every member (the
// per-member check made the total 305; 77 until merged loop states kept
// the body's branch structure, §3.1, whose smaller formulas give the
// solver other witnesses, so two more group checks miss the cached
// one), none the route lookup's, which
// forks per value unchecked (per range it cost 5); bounds checks that
// the path's byte window proves cost none either (DESIGN.md §3.3), which
// took 9 (Classifier 5 → 4, CheckIPHeader 9 → 8, DecIPTTL 7 → 5,
// EtherEncap 14 → 9) — 10 the crash walk's stitches (19
// over the route table's five ranges; 11 until the order pass refuted
// the chk → opt crash stitch, the paper's central argument, without
// the SAT core), and one is the bound witness, solved on a fresh
// session (DESIGN.md §7.5). The instruction bound 922 is the 48-byte
// bound; from maxlen 64 up to 1514 the router's bound is 1230.
func TestOptionsRouterClauseBudget(t *testing.T) {
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 1})
	ok, bound, _, work := certifyCounted(t, v, parsePipeline(t, ipRouterConfig))
	t.Logf("certified %v, bound %d, %d SAT calls, %d CNF clauses, %d array lemmas", ok, bound, work.SatCalls, work.CNFClauses, v.Stats().Solver.ArrayLemmas)
	if !ok || bound != 922 {
		t.Errorf("certified %v with bound %d, want certified with bound 922", ok, bound)
	}
	if work.SatCalls != 118 {
		t.Errorf("%d SAT calls, want 118", work.SatCalls)
	}
	if work.CNFClauses > 400_000 {
		t.Errorf("%d CNF clauses, want at most 400 000", work.CNFClauses)
	}
}

// TestLightCertificationUnaffectedBySessionHistory is the regression
// gate for the benchmark's serve-mixed finding (benchmark/README.md):
// once a long-lived verifier had certified a router with IPOptions, every
// later light pipeline cost 10-20x more, because each SAT call completed
// a model of everything its session had ever blasted. It compares counts,
// not wall time: the search effort per SAT call of a filter certified
// after the options router must stay within 2x of the same filter on a
// fresh verifier (it was above 50x), with identical verdicts.
func TestLightCertificationUnaffectedBySessionHistory(t *testing.T) {
	router := parsePipeline(t, ipRouterConfig)
	filter := parsePipeline(t, filterConfig)

	polluted := newVerifier(48)
	if ok, _, _, _ := certifyCounted(t, polluted, router); !ok {
		t.Fatal("router not certified")
	}
	okP, boundP, segsP, workP := certifyCounted(t, polluted, filter)
	okF, boundF, segsF, workF := certifyCounted(t, newVerifier(48), filter)

	if okP != okF || boundP != boundF {
		t.Errorf("verdicts differ: polluted (certified %v, bound %d), fresh (certified %v, bound %d)", okP, boundP, okF, boundF)
	}
	if len(segsP) != len(segsF) {
		t.Fatalf("element counts differ: %d vs %d", len(segsP), len(segsF))
	}
	for i := range segsP {
		if segsP[i] != segsF[i] {
			t.Errorf("element %d: %d segments on the polluted verifier, %d on the fresh one", i, segsP[i], segsF[i])
		}
	}
	if workP.SatCalls == 0 || workF.SatCalls == 0 {
		t.Fatalf("filter reached the SAT core %d and %d times; the test measures nothing", workP.SatCalls, workF.SatCalls)
	}
	t.Logf("per SAT call: polluted %d decisions, %d propagations (%d calls); fresh %d decisions, %d propagations (%d calls)",
		workP.Decisions/workP.SatCalls, workP.Propagations/workP.SatCalls, workP.SatCalls,
		workF.Decisions/workF.SatCalls, workF.Propagations/workF.SatCalls, workF.SatCalls)
	// a/b <= 2 * c/d, in integers.
	within2x := func(a, b, c, d int64) bool { return a*d <= 2*c*b }
	if !within2x(workP.Decisions, workP.SatCalls, workF.Decisions, workF.SatCalls) {
		t.Errorf("decisions per SAT call: polluted %d/%d, fresh %d/%d — more than 2x",
			workP.Decisions, workP.SatCalls, workF.Decisions, workF.SatCalls)
	}
	if !within2x(workP.Propagations, workP.SatCalls, workF.Propagations, workF.SatCalls) {
		t.Errorf("propagations per SAT call: polluted %d/%d, fresh %d/%d — more than 2x",
			workP.Propagations, workP.SatCalls, workF.Propagations, workF.SatCalls)
	}
}

// TestFreshVerifiersAgree pins that no solver state outlives a Verifier:
// four fresh verifiers in one process, each on one worker, must return
// byte-identical reports (witness bytes included) for the same pipeline
// and spend exactly the same search effort on them, down to the array
// lemmas their sessions assert on demand. A process-wide
// learnt-clause pool made both a function of what the process had
// verified before. It is not the multi-core schedule independence of
// ROADMAP item 0: Parallelism is 1 here.
func TestFreshVerifiersAgree(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"strip-check-ttl", storeTestPipeline},
		{"filter", filterConfig},
		{"router", ipRouterConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := parsePipeline(t, tc.src)
			var firstReports string
			var firstWork [5]int64
			for i := 0; i < 4; i++ {
				v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 1})
				reports := reportsJSON(t, v, p)
				s := v.Stats().Solver
				work := [5]int64{s.SatCalls, s.SatConflicts, s.Decisions, s.Propagations, s.ArrayLemmas}
				if i == 0 {
					firstReports, firstWork = reports, work
					continue
				}
				if reports != firstReports {
					t.Errorf("verifier %d reports differ from the first:\nfirst: %s\nthis:  %s", i, firstReports, reports)
				}
				if work != firstWork {
					t.Errorf("verifier %d {sat calls, conflicts, decisions, propagations, array lemmas} = %v, the first took %v", i, work, firstWork)
				}
			}
		})
	}
}
