package verify

import (
	"fmt"
	"strings"
	"testing"

	"vsd/internal/click"
	"vsd/internal/dataplane"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/symbex"
)

// routeSplitConfig routes 10/8 to rt[0] and everything else to rt[1],
// both pipeline egresses.
const routeSplitConfig = `
	src :: InfiniteSource;
	strip :: Strip(14);
	chk :: CheckIPHeader(NOCHECKSUM);
	rt :: LookupIPRoute(10.0.0.0/8 0, 0.0.0.0/0 1);
	src -> strip -> chk;
	chk [0] -> rt;
	chk [1] -> Discard;
`

// TestReachThroughRouteTable is the leaf rule's reachability gate
// (DESIGN.md §3.2): Step 1 forks the lookup on both ports with the
// destination unconstrained, so only the concrete table can prove that
// a 10/8 destination leaves on port 0, and only the concrete table can
// make the negation's witness one that replays.
func TestReachThroughRouteTable(t *testing.T) {
	p := parsePipeline(t, routeSplitConfig)
	rtIdx := -1
	for i, e := range p.Elements {
		if e.Name() == "rt" {
			rtIdx = i
		}
	}
	port0, port1 := p.EgressID(rtIdx, 0), p.EgressID(rtIdx, 1)
	pkt := expr.BaseArray(symbex.PktArrayName)
	well := []*expr.Expr{
		expr.Ule(expr.Const(32, 34), expr.Var(symbex.PktLenVar, 32)),
		expr.Eq(expr.Select(pkt, expr.Const(32, 14)), expr.Const(8, 0x45)), // IPv4, no options
		expr.Eq(expr.Select(pkt, expr.Const(32, 30)), expr.Const(8, 10)),   // dst in 10/8
	}
	// Drops at chk are not this spec's business: accept its egress-free
	// drop by assuming a header CheckIPHeader passes.
	well = append(well, expr.Ule(expr.Const(16, 20), expr.SelectWide(pkt, expr.Const(32, 16), 2)),
		expr.Ule(expr.ZExt(expr.SelectWide(pkt, expr.Const(32, 16), 2), 32),
			expr.Sub(expr.Var(symbex.PktLenVar, 32), expr.Const(32, 14))))

	v := newVerifier(48)
	rep, err := v.Reachability(p, ReachSpec{Name: "10/8 exits rt[0]", Assume: well,
		AcceptEgress: func(e int) bool { return e == port0 }})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("10/8 -> rt[0] not verified: %d witnesses, first %+v", len(rep.Witnesses), rep.Witnesses)
	}
	if n := v.Stats().TableRefinements; n < 1 {
		t.Errorf("TableRefinements = %d, want >= 1 (the port-1 fork is spurious for 10/8)", n)
	}

	neg, err := v.Reachability(p, ReachSpec{Name: "10/8 exits rt[1]", Assume: well,
		AcceptEgress: func(e int) bool { return e == port1 }})
	if err != nil {
		t.Fatal(err)
	}
	if neg.Verified || len(neg.Witnesses) != 1 {
		t.Fatalf("negation: verified %v with %d witnesses, want one refutation", neg.Verified, len(neg.Witnesses))
	}
	w := neg.Witnesses[0]
	if len(w.Packet) < 34 || w.Packet[30] != 10 {
		t.Fatalf("witness destination is not in 10/8: % x", w.Packet)
	}
	res := dataplane.NewRunner(p).Process(packet.NewBuffer(append([]byte{}, w.Packet...)))
	if res.Disposition != ir.Emitted || res.Egress != port0 {
		t.Errorf("witness replays to %s at %q, want rt[0]", res.Disposition, res.EgressName)
	}
}

// TestBoundSkipsSpuriousCostliestPort: the filter upstream of rt lets
// only 10/8 through, which the table sends to port 0, so the lookup's
// costlier port-1 fork is spurious. The bound is the port-0 path's,
// exact, as it was when the engine forked per range, whether the
// attaining path is checked by its witness query or, in Batch, by
// leafFeasible.
func TestBoundSkipsSpuriousCostliestPort(t *testing.T) {
	p := parsePipeline(t, `
		src :: InfiniteSource;
		cls :: Classifier(12/0800, -);
		strip :: Strip(14);
		chk :: CheckIPHeader(NOCHECKSUM);
		flt :: IPFilter(allow dst 10.0.0.0/8);
		rt :: LookupIPRoute(10.0.0.0/8 0, 0.0.0.0/0 1);
		src -> cls;
		cls [0] -> strip -> chk;
		cls [1] -> Discard;
		chk [0] -> flt -> rt;
		chk [1] -> Discard;
	`)
	const want = 104 // the per-range engine's bound
	v := newVerifier(48)
	rep, err := v.BoundedInstructions(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxSteps != want || rep.upper || !strings.HasSuffix(rep.Witness.Path, "rt[0]") {
		t.Fatalf("bound %d (upper %v) via %s, want exactly %d via rt[0]", rep.MaxSteps, rep.upper, rep.Witness.Path, want)
	}
	res := dataplane.NewRunner(p).Process(packet.NewBuffer(append([]byte{}, rep.Witness.Packet...)))
	if res.Steps != want {
		t.Errorf("bound witness replays in %d steps, want %d", res.Steps, want)
	}
	if n := v.Stats().TableRefinements; n < 1 {
		t.Errorf("TableRefinements = %d, want >= 1", n)
	}

	bv := newVerifier(48)
	verdicts := bv.Batch([]BatchItem{{Name: "flt-rt", Pipeline: p}})
	if vd := verdicts[0]; vd.BoundSteps != want || vd.BoundIsUpper || !vd.Certified {
		t.Fatalf("batch verdict %+v, want certified with exact bound %d", vd, want)
	}
	if n := bv.Stats().TableRefinements; n < 1 {
		t.Errorf("batch TableRefinements = %d, want >= 1", n)
	}
}

// TestLeafEntriesBindConcreteTables: a bound candidate whose key the
// path's conditions read is decided by the solver and recorded under
// the concrete pipeline. A warm batch of the same pipeline replays it
// with no query and no build. A route edit that keeps the value set
// keeps the summaries and the certificate, but not that decision: with
// 10/8 moved to port 1, the costlier fork is real and the bound rises.
func TestLeafEntriesBindConcreteTables(t *testing.T) {
	pipeline := func(routes string) *click.Pipeline {
		return parsePipeline(t, fmt.Sprintf(`
			src :: InfiniteSource;
			cls :: Classifier(12/0800, -);
			strip :: Strip(14);
			chk :: CheckIPHeader(NOCHECKSUM);
			flt :: IPFilter(allow dst 10.0.0.0/8);
			rt :: LookupIPRoute(%s);
			src -> cls;
			cls [0] -> strip -> chk;
			cls [1] -> Discard;
			chk [0] -> flt -> rt;
			chk [1] -> Discard;
		`, routes))
	}
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	batch := func(p *click.Pipeline) (BatchVerdict, Stats) {
		v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
		return v.Batch([]BatchItem{{Name: "flt-rt", Pipeline: p}})[0], v.Stats()
	}
	orig := pipeline("10.0.0.0/8 0, 0.0.0.0/0 1")
	cold, _ := batch(orig)
	warm, st := batch(orig)
	if cold.BoundSteps != 104 || warm.BoundSteps != 104 {
		t.Fatalf("bounds cold %d, warm %d, want 104", cold.BoundSteps, warm.BoundSteps)
	}
	if st.ElementsSummarized != 0 || st.SolverQueries != 0 || st.StitchesBuilt != 0 {
		t.Errorf("warm batch: %d engine runs, %d Step-2 queries, %d built; want 0", st.ElementsSummarized, st.SolverQueries, st.StitchesBuilt)
	}
	edited, st := batch(pipeline("11.0.0.0/8 0, 0.0.0.0/0 1"))
	if edited.BoundSteps != 107 {
		t.Errorf("edited table: bound %d, want 107 (10/8 now takes the costlier port)", edited.BoundSteps)
	}
	if st.ElementsSummarized != 0 || st.SolverQueries == 0 {
		t.Errorf("edited table: %d engine runs, %d Step-2 queries; want none and the leaf check solved", st.ElementsSummarized, st.SolverQueries)
	}
}

// TestCrashThroughRouteTable: the reader behind rt[1] faults on every
// packet, but the filter lets only 10/8 through, which the table sends
// to rt[0]. The crash walk and the crash-freedom induction both reach
// the abstract crash through the port-1 fork and rule it out at the
// leaf, so the stateful pipeline is certified with its induction proved.
func TestCrashThroughRouteTable(t *testing.T) {
	p := parsePipeline(t, `
		src :: InfiniteSource;
		cls :: Classifier(12/0800, -);
		strip :: Strip(14);
		chk :: CheckIPHeader(NOCHECKSUM);
		flt :: IPFilter(allow dst 10.0.0.0/8);
		cnt :: Counter(SATURATE);
		rt :: LookupIPRoute(10.0.0.0/8 0, 0.0.0.0/0 1);
		rd :: UnsafeReader(60);
		src -> cls;
		cls [0] -> strip -> chk;
		cls [1] -> Discard;
		chk [0] -> flt -> cnt -> rt;
		chk [1] -> Discard;
		rt [0] -> Discard;
		rt [1] -> rd -> Discard;
	`)
	v := newVerifier(48)
	vd := v.Batch([]BatchItem{{Name: "rt-rd", Pipeline: p}})[0]
	if !vd.Certified || !vd.CrashFree || len(vd.Witnesses) != 0 || len(vd.Induction) != 1 || !vd.Induction[0].Proved {
		t.Fatalf("verdict %+v, want certified and crash-free with the induction proved", vd)
	}
	if n := v.Stats().TableRefinements; n < 2 {
		t.Errorf("TableRefinements = %d, want >= 2 (the walk's crash end, the induction's crashing sequence)", n)
	}
}

// TestStaticTableForksPerValue pins Step 1's table rule: one unchecked
// fork per value in first-appearance order, none per range, the default
// only when some key falls in no range, and the key left unconstrained.
func TestStaticTableForksPerValue(t *testing.T) {
	lookup := func(entries []ir.RangeEntry) *click.Instance {
		b := ir.NewBuilder("Lookup", 1, 1)
		b.DeclareTable(&ir.StaticTable{Name: "t", KeyW: 8, ValW: 8, Entries: entries, Default: 9})
		b.MetaStore("v", b.StaticLookup("t", b.LoadPktC(0, 1)))
		b.Emit(0)
		return click.NewInstance("lk", "Lookup", "", b.MustBuild())
	}
	cases := []struct {
		name    string
		entries []ir.RangeEntry
		want    []uint64
	}{
		{"covering", []ir.RangeEntry{{Lo: 0, Hi: 99, Val: 2}, {Lo: 100, Hi: 199, Val: 1}, {Lo: 200, Hi: 255, Val: 2}}, []uint64{2, 1}},
		{"gap", []ir.RangeEntry{{Lo: 10, Hi: 99, Val: 2}, {Lo: 100, Hi: 199, Val: 1}}, []uint64{2, 1, 9}},
		{"gap, default among the values", []ir.RangeEntry{{Lo: 10, Hi: 99, Val: 9}, {Lo: 100, Hi: 199, Val: 1}}, []uint64{9, 1}},
	}
	for _, c := range cases {
		segs, err := newVerifier(48).Summarize(lookup(c.entries))
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, s := range segs {
			if s.Disposition != ir.Emitted || len(s.Lookups) != 1 {
				t.Fatalf("%s: segment %d: %s with %d lookups", c.name, s.Index, s.Disposition, len(s.Lookups))
			}
			for _, cond := range s.Cond {
				if len(expr.SelectsOf(cond, nil)) > 0 {
					t.Errorf("%s: segment %d constrains the key: %s", c.name, s.Index, cond)
				}
			}
			got = append(got, s.Lookups[0].Val)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: forks on %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRouteTableSizeFree is the scale gate of per-value forks: a 10 000
// route table over ports 0-2 costs Step 2 exactly what the 3-route
// router does — the same rt segments, composed paths and SAT calls —
// because its summary is the same.
func TestRouteTableSizeFree(t *testing.T) {
	router := func(routes string) *click.Pipeline {
		return parsePipeline(t, fmt.Sprintf(`
			src :: InfiniteSource;
			cls :: Classifier(12/0800, -);
			strip :: Strip(14);
			chk :: CheckIPHeader(NOCHECKSUM);
			rt :: LookupIPRoute(%s);
			ttl :: DecIPTTL;
			src -> cls;
			cls [0] -> strip -> chk;
			cls [1] -> Discard;
			chk [0] -> rt;
			chk [1] -> Discard;
			rt [0] -> ttl;
			rt [1] -> ttl;
			rt [2] -> ttl;
			ttl [1] -> Discard;
		`, routes))
	}
	var big []string
	for i := 0; i < 10000; i++ {
		big = append(big, fmt.Sprintf("%d.%d.%d.0/24 %d", 11+i/65536, (i/256)%256, i%256, i%3))
	}
	big = append(big, "0.0.0.0/0 2")
	type cost struct {
		rtSegs, paths int
		sat           int64
		bound         int64
		certified     bool
	}
	measure := func(p *click.Pipeline) cost {
		// One worker: pooled sessions make SAT counts schedule-dependent.
		v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 1})
		var c cost
		for _, e := range p.Elements {
			segs, err := v.Summarize(e)
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == "rt" {
				c.rtSegs = len(segs)
			}
		}
		before := v.Stats().Solver.SatCalls
		vd := v.Batch([]BatchItem{{Name: "r", Pipeline: p}})[0]
		st := v.Stats()
		c.paths, c.sat, c.bound, c.certified = st.ComposedPaths, st.Solver.SatCalls-before, vd.BoundSteps, vd.Certified
		return c
	}
	small := measure(router("10.0.0.0/8 0, 192.168.0.0/16 1, 0.0.0.0/0 2"))
	large := measure(router(strings.Join(big, ", ")))
	if !small.certified || small.rtSegs != 4 {
		t.Fatalf("3-route router: %+v, want certified with 4 rt segments (one per port, and the short packet's)", small)
	}
	if large != small {
		t.Errorf("10 000 routes cost %+v, 3 routes %+v", large, small)
	}
}
