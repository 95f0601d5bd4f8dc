package verify

import (
	"testing"

	"vsd/internal/packet"
)

// TestSolverBudgetReportsUnresolved pins the budget contract end to
// end: with an absurdly small per-obligation conflict budget on a
// pipeline whose obligations need real search (the IP-options loop
// behind a checksumming CheckIPHeader), the verifier must degrade to
// "unresolved" — Verified=false with Unresolved>0 — and must never
// fabricate a verdict or an error. (Behind CheckIPHeader(NOCHECKSUM)
// the order pass refutes the options loop's crash stitch without a SAT
// search, so no budget starves it; the checksum loop's stitch still
// needs one.) A
// trivially crashing pipeline under the same budget must still produce
// a genuine witness (small obligations fit any budget, and witnesses
// are cross-checked under evaluation semantics before being reported).
func TestSolverBudgetReportsUnresolved(t *testing.T) {
	p := parsePipeline(t, `
		src :: InfiniteSource;
		src -> Strip(14) -> chk :: CheckIPHeader;
		chk[0] -> opt :: IPOptions; chk[1] -> Discard;
		opt[1] -> Discard;`)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 40, SolverMaxConflicts: 1})
	rep, err := v.CrashFreedom(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatal("a starved solver must not certify the pipeline")
	}
	if rep.Unresolved == 0 {
		t.Fatal("starved obligations must surface as Unresolved")
	}
	if v.Stats().Solver.Unknowns == 0 {
		t.Fatal("Unresolved reported but no SAT search ended Unknown")
	}

	crash := parsePipeline(t, `
		src :: InfiniteSource;
		e2 :: ToyE2;
		sink :: Discard;
		src -> e2 -> sink;
	`)
	vc := New(Options{MinLen: packet.MinFrame, MaxLen: 64, SolverMaxConflicts: 1})
	crep, err := vc.CrashFreedom(crash)
	if err != nil {
		t.Fatal(err)
	}
	if crep.Verified || len(crep.Witnesses) == 0 {
		t.Fatalf("budgeted verifier lost the easy witness: verified=%v witnesses=%d",
			crep.Verified, len(crep.Witnesses))
	}
}

// TestSolverBudgetGenerousMatchesUnbudgeted asserts that a budget large
// enough for the instance changes nothing: same verdict, no unresolved
// obligations.
func TestSolverBudgetGenerousMatchesUnbudgeted(t *testing.T) {
	p := parsePipeline(t, `
		src :: InfiniteSource;
		e1 :: ToyE1;
		e2 :: ToyE2;
		sink :: Discard;
		src -> e1 -> e2 -> sink;
	`)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 64, SolverMaxConflicts: 100000})
	rep, err := v.CrashFreedom(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified || rep.Unresolved != 0 {
		t.Fatalf("generous budget changed the verdict: verified=%v unresolved=%d",
			rep.Verified, rep.Unresolved)
	}
}
