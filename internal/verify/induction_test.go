package verify

import (
	"testing"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/expr"
	"vsd/internal/ir"
)

func seqVerifier(t *testing.T) *Verifier {
	t.Helper()
	return New(Options{MinLen: 14, MaxLen: 48})
}

func parseSeq(t *testing.T, src string) *click.Pipeline {
	t.Helper()
	p, err := click.Parse(elements.Default(), src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const counterSatConfig = `
	src :: InfiniteSource;
	cnt :: Counter(SATURATE);
	src -> cnt -> Discard;`

const counterOverflowConfig = `
	src :: InfiniteSource;
	cnt :: Counter;
	src -> cnt -> Discard;`

// The saturating counter is crash-free for packet sequences of ANY
// length: the inductive step closes at k=1 with zero unrolling — the
// single-packet analysis cannot state this at all (its bad-value
// refinement only asks about one packet).
func TestInductionProvesSaturatingCounterUnbounded(t *testing.T) {
	v := seqVerifier(t)
	rep, err := v.SeqCrashFreedom(parseSeq(t, counterSatConfig), SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Proved || rep.K != 1 {
		t.Fatalf("report %+v, want proved at k=1", rep)
	}
	if rep.Witness != nil {
		t.Error("proved report carries a witness")
	}
	st := v.Stats()
	if st.InductionProved != 1 {
		t.Errorf("InductionProved = %d, want 1", st.InductionProved)
	}
	if st.InductionDepth != 1 {
		t.Errorf("InductionDepth = %d, want 1", st.InductionDepth)
	}
}

// The plain counter overflows eventually, so induction must NOT prove
// it; the evidence is a minimal multi-packet counterexample to
// induction — at least two packets (one non-crashing step is assumed by
// the k=1 hypothesis) from a seeded near-overflow state — and the
// concrete dataplane replays it byte for byte.
func TestInductionRefutesPlainCounterWithReplayableCTI(t *testing.T) {
	v := seqVerifier(t)
	p := parseSeq(t, counterOverflowConfig)
	rep, err := v.SeqCrashFreedom(p, SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Proved {
		t.Fatal("plain Counter proved crash-free — the overflow is gone?")
	}
	if rep.Refuted {
		t.Fatal("base case refuted: the overflow must not be reachable from boot state within MaxK packets")
	}
	if !rep.CTI || rep.Witness == nil {
		t.Fatalf("report %+v, want a counterexample to induction", rep)
	}
	w := rep.Witness
	if len(w.Packets) < 2 {
		t.Fatalf("CTI has %d packet(s), want >= 2 (a non-crashing step plus the crash)", len(w.Packets))
	}
	if len(w.InitState) == 0 {
		t.Fatal("CTI carries no seeded state; a fresh counter cannot overflow in 2 packets")
	}
	if w.Dispositions[len(w.Dispositions)-1] != ir.Crashed {
		t.Fatalf("final disposition %v, want crash", w.Dispositions[len(w.Dispositions)-1])
	}
	if err := ReplaySeq(p, w); err != nil {
		t.Fatalf("dataplane replay diverged from the witness: %v", err)
	}
}

// The same CTI must fail replay if the seeded state is dropped — i.e.
// the witness is genuinely multi-packet-from-that-state, not a
// single-packet artifact.
func TestInductionCTINeedsItsSeededState(t *testing.T) {
	v := seqVerifier(t)
	p := parseSeq(t, counterOverflowConfig)
	rep, err := v.SeqCrashFreedom(p, SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := *rep.Witness
	w.InitState = nil
	if err := ReplaySeq(p, &w); err == nil {
		t.Fatal("replay succeeded without the seeded state; witness does not depend on it")
	}
}

// Bounded unrolling agrees with the induction verdicts: the saturating
// counter has no reachable crash at any explored depth, and the
// exploration cost grows with depth (the S1 experiment's shape).
func TestSeqCrashBoundedOnCounters(t *testing.T) {
	v := seqVerifier(t)
	rep, err := v.SeqCrashBounded(parseSeq(t, counterSatConfig), 4, SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refuted {
		t.Fatal("bounded exploration found a crash in the saturating counter")
	}
	if rep.Sequences == 0 {
		t.Fatal("no sequences explored")
	}
	// Plain counter: no crash reachable from boot within 3 packets
	// either (the overflow needs 2^32) — bounded unrolling simply cannot
	// answer the unbounded question, which is the point of induction.
	v2 := seqVerifier(t)
	rep2, err := v2.SeqCrashBounded(parseSeq(t, counterOverflowConfig), 3, SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Refuted {
		t.Fatal("plain counter crashed within 3 packets of boot state")
	}
}

// The token-bucket level invariant (tokens <= capacity) is preserved by
// every packet: proved by 1-induction, for sequences of any length.
func TestProveInvariantTokenBucketLevel(t *testing.T) {
	v := seqVerifier(t)
	p := parseSeq(t, `
		src :: InfiniteSource;
		tb :: TokenBucket(3);
		src -> tb; tb[1] -> Discard;`)
	inv := StateInvariant{
		Name: "token-level-bound",
		Pred: func(sv *StateView) *expr.Expr {
			return expr.Ule(sv.Read("tb.tokens", expr.Const(8, 0)), expr.Const(32, 3))
		},
	}
	rep, err := v.ProveInvariant(p, inv, SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Proved || rep.K != 1 {
		t.Fatalf("report %+v, want proved at k=1", rep)
	}
	// The converse bound (tokens < capacity) fails at boot: the base
	// case refutes it with a zero-packet witness.
	bad := StateInvariant{
		Name: "too-tight",
		Pred: func(sv *StateView) *expr.Expr {
			return expr.Ult(sv.Read("tb.tokens", expr.Const(8, 0)), expr.Const(32, 3))
		},
	}
	rep2, err := v.ProveInvariant(p, bad, SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Refuted {
		t.Fatalf("report %+v, want base-case refutation", rep2)
	}
	if len(rep2.Witness.Packets) != 0 {
		t.Fatalf("boot-state refutation should need no packets, got %d", len(rep2.Witness.Packets))
	}
}

// Stateless pipelines and state-writing-only pipelines close trivially:
// no crash path depends on state, so induction proves at k=1 with no
// sequence exploration beyond the crash probes.
func TestInductionTrivialOnNonReadingPipelines(t *testing.T) {
	v := seqVerifier(t)
	p := parseSeq(t, `
		src :: InfiniteSource;
		cls :: Classifier(12/0800, -);
		strip :: Strip(14);
		chk :: CheckIPHeader(NOCHECKSUM);
		nat :: IPRewriter(SNAT 100.64.0.1);
		src -> cls; cls[0] -> strip -> chk; cls[1] -> Discard;
		chk[0] -> nat -> Discard; chk[1] -> Discard;`)
	rep, err := v.SeqCrashFreedom(p, SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Proved || rep.K != 1 {
		t.Fatalf("report %+v, want trivially proved at k=1", rep)
	}
}

// Induction results are deterministic: two fresh verifiers produce the
// same verdict and byte-identical witnesses (batch verdicts embed them,
// and batch reruns must be reproducible).
func TestInductionDeterministic(t *testing.T) {
	run := func() *InductionReport {
		v := seqVerifier(t)
		rep, err := v.SeqCrashFreedom(parseSeq(t, counterOverflowConfig), SeqOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Proved != b.Proved || a.K != b.K || a.CTI != b.CTI {
		t.Fatalf("verdicts differ: %+v vs %+v", a, b)
	}
	if len(a.Witness.Packets) != len(b.Witness.Packets) {
		t.Fatalf("witness lengths differ")
	}
	for i := range a.Witness.Packets {
		if string(a.Witness.Packets[i]) != string(b.Witness.Packets[i]) {
			t.Fatalf("witness packet %d differs between runs", i)
		}
	}
}

// TestSeqWitnessesIndependentOfReplay: sequence witnesses are solved
// fresh from their formula (DESIGN.md §7.5), so the plain counter's
// 2-packet counterexample to induction and its invariant refutation
// are byte-identical on a cold run, a warm run that replayed the
// induction's extensions from the certificate, and an eager run that
// builds every replayed prefix at once. make race runs it at -cpu
// 1,2,4.
func TestSeqWitnessesIndependentOfReplay(t *testing.T) {
	p := parseSeq(t, counterOverflowConfig)
	inv := StateInvariant{Name: "count-below-2", Pred: func(sv *StateView) *expr.Expr {
		return expr.Ult(sv.Read("cnt.count", expr.Const(8, 0)), expr.Const(32, 2))
	}}
	store := NewMemStore()
	run := func(eager bool) (string, *InductionReport, Stats) {
		v := New(Options{MinLen: 14, MaxLen: 48, Store: store})
		v.eagerBuild = eager
		crash, err := v.SeqCrashFreedom(p, SeqOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !crash.CTI || crash.Witness == nil || len(crash.Witness.Packets) != 2 {
			t.Fatalf("report %+v, want a 2-packet counterexample to induction", crash)
		}
		broken, err := v.ProveInvariant(p, inv, SeqOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !broken.Refuted || broken.Witness == nil {
			t.Fatalf("invariant report %+v, want a refutation", broken)
		}
		return FormatMultiWitness(crash.Witness) + FormatMultiWitness(broken.Witness), crash, v.Stats()
	}
	cold, coldRep, coldSt := run(false)
	for _, eager := range []bool{false, true} {
		got, rep, st := run(eager)
		if got != cold {
			t.Errorf("eager=%v: witnesses differ from the cold run's:\ncold:\n%s\ngot:\n%s", eager, cold, got)
		}
		if st.StitchesReplayed == 0 {
			t.Errorf("eager=%v: the warm run replayed nothing", eager)
		}
		if rep.K != coldRep.K || rep.Sequences != coldRep.Sequences ||
			st.SeqSequences != coldSt.SeqSequences || st.SeqInfeasible != coldSt.SeqInfeasible {
			t.Errorf("eager=%v: k %d, %d sequences, %d feasible, %d infeasible; cold %d, %d, %d, %d", eager,
				rep.K, rep.Sequences, st.SeqSequences, st.SeqInfeasible,
				coldRep.K, coldRep.Sequences, coldSt.SeqSequences, coldSt.SeqInfeasible)
		}
	}
}
