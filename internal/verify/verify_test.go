package verify

import (
	"strings"
	"testing"

	"vsd/internal/bv"
	"vsd/internal/click"
	"vsd/internal/dataplane"
	"vsd/internal/elements"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/symbex"
)

func parsePipeline(t *testing.T, src string) *click.Pipeline {
	t.Helper()
	p, err := click.Parse(elements.Default(), src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newVerifier(maxLen uint64) *Verifier {
	return New(Options{MinLen: packet.MinFrame, MaxLen: maxLen})
}

// TestFig2Pipeline reproduces the paper's Fig. 2 walkthrough: ToyE2's
// assertion makes segment e3 suspect in isolation, but composed after
// ToyE1 both crashing paths (p1, p4) are infeasible and the pipeline is
// proved crash-free.
func TestFig2PipelineCrashFree(t *testing.T) {
	p := parsePipeline(t, `
		src :: InfiniteSource;
		e1 :: ToyE1;
		e2 :: ToyE2;
		sink :: Discard;
		src -> e1 -> e2 -> sink;
	`)
	v := newVerifier(64)
	rep, err := v.CrashFreedom(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("Fig. 2 pipeline not verified; witnesses: %v", rep.Witnesses)
	}
	st := v.Stats()
	if st.Suspects == 0 {
		t.Error("expected ToyE2's e3 segment to be tagged suspect in Step 1")
	}
	if st.ComposedInfeasible == 0 {
		t.Error("expected the p1/p4 stitched paths to be discharged as infeasible")
	}
}

// TestFig2E2AloneCrashes is the counterpoint: without ToyE1 upstream the
// suspect is realizable, and the witness actually crashes the runtime.
func TestFig2E2AloneCrashes(t *testing.T) {
	p := parsePipeline(t, `
		src :: InfiniteSource;
		e2 :: ToyE2;
		sink :: Discard;
		src -> e2 -> sink;
	`)
	v := newVerifier(64)
	rep, err := v.CrashFreedom(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatal("ToyE2 alone must not verify")
	}
	if len(rep.Witnesses) == 0 {
		t.Fatal("no witness produced")
	}
	// Replay every witness on the concrete runtime: each must crash.
	for _, w := range rep.Witnesses {
		runner := dataplane.NewRunner(p)
		res := runner.Process(packet.NewBuffer(append([]byte{}, w.Packet...)))
		if res.Disposition != ir.Crashed {
			t.Errorf("witness % x did not crash the runtime: %+v", w.Packet, res)
		}
	}
}

// ipRouterConfig is the paper's evaluation pipeline: the default Click
// IP-router elements. NOCHECKSUM keeps the unit test fast; the checksum
// variant runs in the long test below and in the benchmarks.
const ipRouterConfig = `
	src :: InfiniteSource;
	cls :: Classifier(12/0800, -);
	strip :: Strip(14);
	chk :: CheckIPHeader(NOCHECKSUM);
	opt :: IPOptions;
	rt :: LookupIPRoute(10.0.0.0/8 0, 192.168.0.0/16 1, 0.0.0.0/0 2);
	ttl :: DecIPTTL;
	encap :: EtherEncap(0800, 02:00:00:00:00:01, 02:00:00:00:00:02);
	bad :: Discard;

	src -> cls;
	cls [0] -> strip -> chk;
	cls [1] -> Discard;
	chk [0] -> opt;
	chk [1] -> bad;
	opt [0] -> rt;
	opt [1] -> bad;
	rt [0] -> ttl;
	rt [1] -> ttl;
	rt [2] -> ttl;
	ttl [0] -> encap;
	ttl [1] -> Discard;
`

func TestIPRouterCrashFreedom(t *testing.T) {
	// E1 from the paper's evaluation: the pipeline built from the
	// default IP-router elements never crashes, for any packet. Several
	// elements are suspect in isolation (DecIPTTL, LookupIPRoute, and
	// EtherEncap read or write without bounds checks); composition after
	// CheckIPHeader discharges all of them.
	p := parsePipeline(t, ipRouterConfig)
	v := newVerifier(40)
	rep, err := v.CrashFreedom(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		for _, w := range rep.Witnesses {
			t.Logf("witness:\n%s", FormatWitness(w))
		}
		t.Fatal("IP router not crash-free")
	}
	st := v.Stats()
	if st.Suspects == 0 {
		t.Error("expected suspects in isolation (unchecked header reads)")
	}
	t.Logf("stats: %+v", st)
}

func TestIPRouterInstructionBound(t *testing.T) {
	// E2 from the paper: the longest pipeline executes at most ~3600
	// instructions per packet, and the verifier names the packet. Our
	// IR statement counts differ from x86 instruction counts; the claim
	// reproduced is the existence of a finite bound plus a witness that
	// attains it exactly.
	p := parsePipeline(t, ipRouterConfig)
	v := newVerifier(40)
	rep, err := v.BoundedInstructions(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrashPossible {
		t.Fatal("router unexpectedly crashable")
	}
	if rep.MaxSteps <= 0 {
		t.Fatal("no instruction bound computed")
	}
	// The bound must not exceed the static worst case of the inlined
	// program.
	inlined, err := click.Inline(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxSteps > inlined.MaxStmts() {
		t.Errorf("bound %d exceeds static maximum %d", rep.MaxSteps, inlined.MaxStmts())
	}
	// The witness packet, replayed concretely, attains the bound
	// exactly.
	runner := dataplane.NewRunner(p)
	res := runner.Process(packet.NewBuffer(append([]byte{}, rep.Witness.Packet...)))
	if res.Disposition == ir.Crashed {
		t.Fatalf("witness crashed the runtime: %+v", res)
	}
	if res.Steps > rep.MaxSteps {
		t.Errorf("witness executes %d statements, above the bound %d", res.Steps, rep.MaxSteps)
	}
	if !v.Stats().SymbexStats.Merged && res.Steps != rep.MaxSteps {
		t.Errorf("no merge reported: witness executes %d statements, bound says %d", res.Steps, rep.MaxSteps)
	}
	t.Logf("instruction bound: %d, witness %d bytes", rep.MaxSteps, len(rep.Witness.Packet))
}

func TestComposedAgreesWithMonolithic(t *testing.T) {
	// The composed verdict and the whole-pipeline baseline must agree on
	// stateless pipelines (the baseline treats unconstrained state reads
	// as free, so stateful discharge is compositional-only by design).
	configs := []struct {
		name string
		src  string
	}{
		{"fig2", "s :: InfiniteSource; s -> ToyE1 -> ToyE2 -> Discard;"},
		{"e2 alone", "s :: InfiniteSource; s -> ToyE2 -> Discard;"},
		{"strip+check", "s :: InfiniteSource; s -> Strip(14) -> CheckIPHeader(NOCHECKSUM) -> Discard;"},
		{"unsafe reader", "s :: InfiniteSource; s -> UnsafeReader(16) -> Discard;"},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			p := parsePipeline(t, c.src)
			v := newVerifier(64)
			rep, err := v.CrashFreedom(p)
			if err != nil {
				t.Fatal(err)
			}
			mono, err := Monolithic(p, Options{MinLen: packet.MinFrame, MaxLen: 64}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !mono.Completed {
				t.Fatalf("monolithic did not complete: %s", mono.BudgetReached)
			}
			if rep.Verified != (mono.Crashes == 0) {
				t.Fatalf("composed verified=%v but monolithic found %d crashes",
					rep.Verified, mono.Crashes)
			}
			// Maximum instruction counts agree too.
			bound, err := v.BoundedInstructions(p)
			if err != nil {
				t.Fatal(err)
			}
			if bound.MaxSteps != mono.MaxSteps {
				t.Fatalf("composed bound %d != monolithic bound %d", bound.MaxSteps, mono.MaxSteps)
			}
		})
	}
}

func TestReachability(t *testing.T) {
	p := parsePipeline(t, `
		src :: InfiniteSource;
		cls :: Classifier(12/0800, -);
		ip :: Strip(14);
		src -> cls;
		cls [0] -> ip;
		// cls[1] and ip[0] are egresses 0 and 1
	`)
	v := newVerifier(64)
	pkt := expr.BaseArray(symbex.PktArrayName)
	isIPv4 := []*expr.Expr{
		expr.Eq(expr.Select(pkt, expr.Const(32, 12)), expr.Const(8, 0x08)),
		expr.Eq(expr.Select(pkt, expr.Const(32, 13)), expr.Const(8, 0x00)),
	}
	// Property: every IPv4-ethertype packet leaves through the IP path.
	ipEgress := p.EgressID(2, 0) // ip element, port 0
	rep, err := v.Reachability(p, ReachSpec{
		Name:         "ipv4-to-ip-path",
		Assume:       isIPv4,
		AcceptEgress: func(e int) bool { return e == ipEgress },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("reachability failed: %v", rep.Witnesses)
	}
	// The negation must fail and produce an IPv4 witness that indeed
	// exits on the classifier's catch-all... i.e. property "ipv4 goes to
	// catch-all" is violated by every IPv4 packet.
	rep2, err := v.Reachability(p, ReachSpec{
		Name:         "ipv4-to-catchall (expected to fail)",
		Assume:       isIPv4,
		AcceptEgress: func(e int) bool { return e != ipEgress },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Verified {
		t.Fatal("impossible property verified")
	}
	w := rep2.Witnesses[0]
	if len(w.Packet) < 14 || w.Packet[12] != 0x08 || w.Packet[13] != 0x00 {
		t.Errorf("witness does not satisfy the assumption: % x", w.Packet)
	}
}

func TestStatefulCounterOverflow(t *testing.T) {
	// The paper's counter-overflow example: the unsafe counter asserts
	// it never wraps, and the data-structure analysis finds the bad
	// value (max) reachable via the element's own writes.
	unsafe := parsePipeline(t, "s :: InfiniteSource; s -> Counter -> Discard;")
	v := newVerifier(64)
	rep, err := v.CrashFreedom(unsafe)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatal("unsafe counter verified; overflow missed")
	}

	// The saturating counter never writes the bad value, so the same
	// suspect is discharged and the pipeline verifies.
	safe := parsePipeline(t, "s :: InfiniteSource; s -> Counter(SATURATE) -> Discard;")
	v2 := newVerifier(64)
	rep2, err := v2.CrashFreedom(safe)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Verified {
		t.Fatalf("saturating counter not verified: %v", rep2.Witnesses)
	}
}

func TestStatefulDischargeUnwritableBadValue(t *testing.T) {
	// A custom element whose assertion can only fail if the store holds
	// 7 — but the element only ever writes 5. The refinement must
	// discharge the suspect and verify the pipeline.
	b := ir.NewBuilder("OnlyFives", 1, 1)
	b.DeclareState(ir.StateDecl{Name: "vals", KeyW: 8, ValW: 8, Default: 0})
	k := b.ConstU(8, 0)
	vreg := b.StateRead("vals", k)
	b.Assert(b.Not(b.BinC(ir.Eq, vreg, 7)), "value 7 is impossible")
	b.StateWrite("vals", k, b.ConstU(8, 5))
	b.Emit(0)
	prog := b.MustBuild()

	srcProg, err := elements.InfiniteSource("")
	if err != nil {
		t.Fatal(err)
	}
	sinkProg, err := elements.Discard("")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := click.Build([]*click.Instance{
		click.NewInstance("src", "InfiniteSource", "", srcProg),
		click.NewInstance("of", "OnlyFives", "", prog),
		click.NewInstance("sink", "Discard", "", sinkProg),
	}, []click.Connection{{From: 0, FromPort: 0, To: 1}, {From: 1, FromPort: 0, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier(64)
	rep, err := v.CrashFreedom(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("unwritable bad value not discharged: %v", rep.Witnesses)
	}
	if rep.Discharged == 0 {
		t.Error("expected a discharged suspect in the report")
	}
}

func TestSummaryCacheSharesAcrossPositions(t *testing.T) {
	// The same element class+config at two pipeline positions is
	// summarized once ("we process each element once, even if it may be
	// called from different points in the pipeline").
	src := `
		s :: InfiniteSource;
		a :: Strip(7);
		b :: Strip(7);
		s -> a -> b -> Discard;
	`
	p := parsePipeline(t, src)
	v := newVerifier(64)
	if _, err := v.CrashFreedom(p); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.SummaryCacheHits == 0 {
		t.Errorf("no cache hits; stats = %+v", st)
	}
	if st.ElementsSummarized >= len(p.Elements) {
		t.Errorf("%d engine runs for %d elements; the two Strip(7) positions should share one",
			st.ElementsSummarized, len(p.Elements))
	}
}

func TestUnsafeReaderWitnessReplay(t *testing.T) {
	// The app-market scenario end to end: the buggy element is rejected
	// with a witness that crashes the runtime; the fixed element
	// verifies.
	buggy := parsePipeline(t, "s :: InfiniteSource; s -> UnsafeReader(16) -> Discard;")
	v := newVerifier(64)
	rep, err := v.CrashFreedom(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatal("UnsafeReader verified")
	}
	runner := dataplane.NewRunner(buggy)
	res := runner.Process(packet.NewBuffer(append([]byte{}, rep.Witnesses[0].Packet...)))
	if res.Disposition != ir.Crashed || res.Crash.Kind != ir.CrashOOB {
		t.Fatalf("witness replay: %+v, want OOB crash", res)
	}

	fixed := parsePipeline(t, "s :: InfiniteSource; s -> FixedReader(16) -> Discard;")
	rep2, err := newVerifier(64).CrashFreedom(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Verified {
		t.Fatalf("FixedReader not verified: %v", rep2.Witnesses)
	}
}

func TestVerifierStatsAndPre(t *testing.T) {
	v := newVerifier(64)
	pre := v.Pre()
	if len(pre) != 2 {
		t.Fatalf("Pre() = %v", pre)
	}
	// minLen <= len <= maxLen must hold of any witness packet length.
	asn := expr.NewAssignment()
	asn.Vars[symbex.PktLenVar] = bv.New(32, 64)
	for _, c := range pre {
		if !expr.Eval(c, asn).IsTrue() {
			t.Errorf("len=64 violates precondition %s", c)
		}
	}
}

// TestEmptyLengthRangeRejected pins the length-range check: with MinLen
// above MaxLen (here MaxLen 10 below the default MinLen 14) no packet
// exists, so a property must report an error, never a vacuous verdict.
// Every property and Monolithic fail the same way; a one-length range
// is still valid.
func TestEmptyLengthRangeRejected(t *testing.T) {
	p := parsePipeline(t, ipRouterConfig)
	v := New(Options{MaxLen: 10})
	if rep, err := v.CrashFreedom(p); err == nil || !strings.Contains(err.Error(), "14..10") {
		t.Errorf("crash freedom over lengths 14..10: report %+v, error %v; want the empty-range error", rep, err)
	}
	if rep, err := v.BoundedInstructions(p); err == nil {
		t.Errorf("bound over an empty range: %+v, want an error", rep)
	}
	if segs, err := v.Summarize(p.Elements[0]); err == nil {
		t.Errorf("Step 1 over an empty range gave %d segments, want an error", len(segs))
	}
	if st := v.Stats(); st.ElementsSummarized != 0 || st.Solver.Queries != 0 {
		t.Errorf("an invalid configuration did work: %d engine runs, %d solver queries", st.ElementsSummarized, st.Solver.Queries)
	}
	if rep, err := Monolithic(p, Options{MinLen: 60, MaxLen: 59}, 0); err == nil {
		t.Errorf("monolithic baseline over an empty range: %+v, want an error", rep)
	}
	// UnsafeReader(16) reads packet bytes 16..19: a one-length range at
	// 20 is safe, one at 19 is not.
	one := parsePipeline(t, "s :: InfiniteSource; s -> UnsafeReader(16) -> Discard;")
	for _, tc := range []struct {
		n    uint64
		safe bool
	}{{20, true}, {19, false}} {
		rep, err := New(Options{MinLen: tc.n, MaxLen: tc.n}).CrashFreedom(one)
		if err != nil {
			t.Fatalf("lengths %d..%d: %v", tc.n, tc.n, err)
		}
		if rep.Verified != tc.safe || !tc.safe && len(rep.Witnesses[0].Packet) != int(tc.n) {
			t.Errorf("lengths %d..%d: verified %v, witnesses %d; want verified %v", tc.n, tc.n, rep.Verified, len(rep.Witnesses), tc.safe)
		}
	}
}
