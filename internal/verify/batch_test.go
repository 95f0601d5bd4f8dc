package verify

import (
	"encoding/hex"
	"strings"
	"testing"

	"vsd/internal/click"
	"vsd/internal/dataplane"
	"vsd/internal/elements"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/packet"
)

func TestBatchDeduplicatesAndShares(t *testing.T) {
	safe := `
		src :: InfiniteSource;
		src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
		chk[0] -> ttl :: DecIPTTL; chk[1] -> Discard;
		ttl[1] -> Discard;`
	// Same pipeline, same instance names — a resubmission.
	unsafe := `s :: InfiniteSource; s -> UnsafeReader(30) -> Discard;`
	items := []BatchItem{
		{Name: "a.click", Pipeline: parsePipeline(t, safe)},
		{Name: "bad.click", Pipeline: parsePipeline(t, unsafe)},
		{Name: "a-again.click", Pipeline: parsePipeline(t, safe)},
	}
	verdicts, st, _ := Batch(items, Options{MinLen: packet.MinFrame, MaxLen: 48})
	if len(verdicts) != 3 {
		t.Fatalf("got %d verdicts", len(verdicts))
	}
	a, bad, again := verdicts[0], verdicts[1], verdicts[2]
	if !a.Certified || a.DuplicateOf != "" {
		t.Errorf("a: %+v", a)
	}
	if bad.Certified || bad.CrashFree || len(bad.Witnesses) == 0 {
		t.Errorf("bad: %+v", bad)
	}
	if again.DuplicateOf != "a.click" {
		t.Errorf("resubmission not deduplicated: %+v", again)
	}
	if again.Name != "a-again.click" || again.Certified != a.Certified ||
		again.Fingerprint != a.Fingerprint || again.BoundSteps != a.BoundSteps {
		t.Errorf("duplicate verdict diverges: %+v vs %+v", again, a)
	}
	// The shared verifier reuses summaries across submissions: the
	// duplicate costs nothing and the distinct pipelines share classes.
	if st.SummaryCacheHits == 0 {
		t.Error("batch did not share any summaries")
	}
	// A rejection witness must be a real crash on the rejected pipeline.
	pkt, err := hex.DecodeString(bad.Witnesses[0].Packet)
	if err != nil {
		t.Fatal(err)
	}
	res := dataplane.NewRunner(items[1].Pipeline).Process(packet.NewBuffer(pkt))
	if res.Disposition != ir.Crashed {
		t.Errorf("batch witness did not crash the pipeline: %+v", res)
	}
}

func TestBatchSpecGate(t *testing.T) {
	src := `
		src :: InfiniteSource;
		src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
		chk[0] -> ttl :: DecIPTTL; chk[1] -> Discard;
		ttl[1] -> Discard;`
	// A vacuous contract and an unsatisfiable one: the same pipeline
	// must certify under the first and be rejected under the second —
	// and the two submissions must NOT deduplicate (same fingerprint,
	// different spec lists).
	pass := FuncSpec{Name: "pass", Post: func(pi *PathInfo) *expr.Expr { return expr.True() }}
	fail := FuncSpec{Name: "fail", Post: func(pi *PathInfo) *expr.Expr {
		if !pi.Emitted() {
			return nil
		}
		return expr.False()
	}}
	items := []BatchItem{
		{Name: "with-pass", Pipeline: parsePipeline(t, src), Specs: []FuncSpec{pass}},
		{Name: "with-fail", Pipeline: parsePipeline(t, src), Specs: []FuncSpec{fail}},
	}
	verdicts, _, _ := Batch(items, Options{MinLen: packet.MinFrame, MaxLen: 48})
	ok, bad := verdicts[0], verdicts[1]
	if !ok.Certified || len(ok.SpecsPassed) != 1 {
		t.Errorf("with-pass: %+v", ok)
	}
	if bad.DuplicateOf != "" {
		t.Error("different spec lists must not deduplicate")
	}
	if bad.Certified || !bad.CrashFree || len(bad.SpecsFailed) != 1 {
		t.Errorf("with-fail: %+v", bad)
	}
	if bad.Fingerprint != ok.Fingerprint {
		t.Error("same pipeline must share a fingerprint across spec lists")
	}
}

func TestBatchInductionResults(t *testing.T) {
	items := []BatchItem{
		{Name: "sat.click", Pipeline: parsePipeline(t, `
			src :: InfiniteSource;
			cnt :: Counter(SATURATE);
			src -> cnt -> Discard;`)},
		{Name: "overflow.click", Pipeline: parsePipeline(t, `
			src :: InfiniteSource;
			cnt :: Counter;
			src -> cnt -> Discard;`)},
		{Name: "bucket.click", Pipeline: parsePipeline(t, `
			src :: InfiniteSource;
			tb :: TokenBucket(2);
			src -> tb; tb[1] -> Discard;`),
			Invariants: []StateInvariant{{
				Name: "token-level-bound",
				Pred: func(sv *StateView) *expr.Expr {
					return expr.Ule(sv.Read("tb.tokens", expr.Const(8, 0)), expr.Const(32, 2))
				},
			}},
		},
	}
	verdicts, _, _ := Batch(items, Options{MinLen: packet.MinFrame, MaxLen: 48})
	sat, overflow, bucket := verdicts[0], verdicts[1], verdicts[2]

	// Saturating counter: certified, and the verdict carries the
	// UNBOUNDED crash-freedom proof the single-packet gate cannot give.
	if !sat.Certified || len(sat.Induction) != 1 {
		t.Fatalf("sat: %+v", sat)
	}
	if got := sat.Induction[0]; got.Invariant != "crash-freedom" || !got.Proved || got.K != 1 {
		t.Errorf("sat induction: %+v", got)
	}

	// Plain counter: rejected by the single-packet gate already, and the
	// induction result records the CTI evidence.
	if overflow.Certified || overflow.CrashFree {
		t.Fatalf("overflow: %+v", overflow)
	}
	if got := overflow.Induction[0]; got.Proved || !got.CTI || got.WitnessPackets < 2 {
		t.Errorf("overflow induction: %+v", got)
	}

	// Attached invariant: proved, listed per invariant.
	if !bucket.Certified || len(bucket.Induction) != 2 {
		t.Fatalf("bucket: %+v", bucket)
	}
	if got := bucket.Induction[1]; got.Invariant != "token-level-bound" || !got.Proved {
		t.Errorf("bucket invariant: %+v", got)
	}
	// Invariant-carrying items must not be deduplicated against each
	// other (closures have no identity); spec-free identical items are.
	again, _, _ := Batch([]BatchItem{items[2], items[2]}, Options{MinLen: packet.MinFrame, MaxLen: 48})
	if again[1].DuplicateOf != "" {
		t.Errorf("invariant-carrying item deduplicated: %+v", again[1])
	}
}

// TestBatchBoundIsUpperOnlyWhenMerged: loop merging checks a merge
// group's next member before its first merge (DESIGN.md §3.1), so a loop
// whose groups each have one feasible member merges nothing and keeps
// its bound exact, while the checksum loop, whose exits merge, reports
// an upper bound.
func TestBatchBoundIsUpperOnlyWhenMerged(t *testing.T) {
	reg := elements.Default()
	reg.Register("OneWay", func(string) (*ir.Program, error) {
		b := ir.NewBuilder("OneWay", 1, 1)
		i := b.ZExt(b.MetaLoad("n", 8), 32)
		b.Loop(3, func() {
			b.If(b.BinC(ir.Ult, i, 300), func() { b.SetReg(i, b.BinC(ir.Add, i, 1)) },
				func() { b.SetReg(i, b.BinC(ir.Add, i, 2)) })
		})
		b.Emit(0)
		return b.Build()
	})
	var items []BatchItem
	for _, src := range []string{
		`s :: InfiniteSource; s -> OneWay -> Discard;`,
		`s :: InfiniteSource; s -> Strip(14) -> chk :: CheckIPHeader; chk[0] -> Discard; chk[1] -> Discard;`,
	} {
		p, err := click.Parse(reg, src)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{Name: src, Pipeline: p})
	}
	verdicts, _, _ := Batch(items, Options{MinLen: packet.MinFrame, MaxLen: 48})
	if v := verdicts[0]; !v.Certified || v.BoundIsUpper {
		t.Errorf("one-way loop: certified %v, bound %d upper %v; want certified with an exact bound", v.Certified, v.BoundSteps, v.BoundIsUpper)
	}
	if v := verdicts[1]; !v.Certified || !v.BoundIsUpper {
		t.Errorf("checksum loop: certified %v, bound %d upper %v; want certified with an upper bound", v.Certified, v.BoundSteps, v.BoundIsUpper)
	}
}

// TestBatchRejectsEmptyLengthRange: a batch under MinLen > MaxLen gives
// every submission its configuration error as the verdict's Error, and
// certifies none.
func TestBatchRejectsEmptyLengthRange(t *testing.T) {
	items := []BatchItem{
		{Name: "router", Pipeline: parsePipeline(t, ipRouterConfig)},
		{Name: "counter", Pipeline: parsePipeline(t, counterSatConfig)},
	}
	verdicts, _, _ := Batch(items, Options{MinLen: packet.MinFrame, MaxLen: 10})
	for _, v := range verdicts {
		if v.Certified || v.CrashFree || !strings.Contains(v.Error, "empty packet-length range 14..10") {
			t.Errorf("%s: certified %v, crash-free %v, error %q; want the empty-range error", v.Name, v.Certified, v.CrashFree, v.Error)
		}
	}
}
