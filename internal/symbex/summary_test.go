package symbex

import (
	"math/rand"
	"testing"

	"vsd/internal/bv"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/smt"
)

// summarizeStateful builds and summarizes an element exercising every
// segment feature: packet loads/stores, metadata, state reads/writes,
// crashes (bounds + divide), multiple dispositions, and a loop whose
// table lookup merging guards.
func summarizeStateful(t *testing.T) *Summary {
	t.Helper()
	b := ir.NewBuilder("Rich", 1, 2)
	b.DeclareState(ir.StateDecl{Name: "flows", KeyW: 32, ValW: 32, Default: 1})
	b.DeclareTable(&ir.StaticTable{Name: "t", KeyW: 8, ValW: 8, Entries: []ir.RangeEntry{{Lo: 0, Hi: 127, Val: 1}, {Lo: 128, Hi: 255, Val: 2}}})
	v := b.LoadPktC(0, 2)
	m := b.MetaLoad("mark", 16)
	b.MetaStore("mark", b.Bin(ir.Add, m, v))
	key := b.ZExt(v, 32)
	cnt := b.StateRead("flows", key)
	q := b.Bin(ir.UDiv, b.ConstU(32, 100), cnt) // divide crash branch
	b.StateWrite("flows", key, q)
	b.Loop(2, func() {
		b.StorePkt(b.ConstU(32, 2), b.ConstU(8, 0xfe), 1)
		b.MetaStore("tv", b.StaticLookup("t", b.LoadPktC(3, 1)))
	})
	b.If(b.BinC(ir.Ult, v, 1000), func() {
		b.Emit(0)
	}, func() {
		b.If(b.BinC(ir.Ult, v, 40000), func() { b.Drop() }, nil)
		b.Emit(1)
	})
	prog := b.MustBuild()
	eng := New(smt.New(smt.Options{}), Options{})
	segs, err := eng.Run(prog, DefaultInput(14, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return &Summary{Segments: segs, Merged: eng.Stats().Merged}
}

// TestSummaryRoundTrip: encode → decode must reproduce every segment
// field, with all expression nodes pointer-identical (re-interning into
// the same hash-consed universe).
func TestSummaryRoundTrip(t *testing.T) {
	sum := summarizeStateful(t)
	guarded := false
	got, err := DecodeSummary(EncodeSummary(sum))
	if err != nil {
		t.Fatal(err)
	}
	if got.Merged != sum.Merged {
		t.Errorf("Merged = %v, want %v", got.Merged, sum.Merged)
	}
	if len(got.Segments) != len(sum.Segments) {
		t.Fatalf("segments = %d, want %d", len(got.Segments), len(sum.Segments))
	}
	for i, want := range sum.Segments {
		g := got.Segments[i]
		if g.Element != want.Element || g.Index != want.Index ||
			g.Disposition != want.Disposition || g.Port != want.Port ||
			g.Steps != want.Steps {
			t.Errorf("segment %d scalar fields differ: %+v vs %+v", i, g, want)
		}
		if (g.Crash == nil) != (want.Crash == nil) {
			t.Fatalf("segment %d crash presence differs", i)
		}
		if g.Crash != nil && *g.Crash != *want.Crash {
			t.Errorf("segment %d crash = %+v, want %+v", i, g.Crash, want.Crash)
		}
		if len(g.Cond) != len(want.Cond) {
			t.Fatalf("segment %d: %d conds, want %d", i, len(g.Cond), len(want.Cond))
		}
		for j := range want.Cond {
			if g.Cond[j] != want.Cond[j] {
				t.Errorf("segment %d cond %d not pointer-equal", i, j)
			}
		}
		if g.Pkt != want.Pkt {
			t.Errorf("segment %d packet array not pointer-equal", i)
		}
		if len(g.Meta) != len(want.Meta) {
			t.Fatalf("segment %d meta size differs", i)
		}
		for k, e := range want.Meta {
			if g.Meta[k] != e {
				t.Errorf("segment %d meta %q not pointer-equal", i, k)
			}
		}
		// Slices compare element-wise (nil vs empty is not a difference:
		// the engine's fork() materializes empty slices, the decoder
		// leaves absent ones nil).
		if len(g.Reads) != len(want.Reads) {
			t.Fatalf("segment %d: %d reads, want %d", i, len(g.Reads), len(want.Reads))
		}
		for j := range want.Reads {
			if g.Reads[j] != want.Reads[j] {
				t.Errorf("segment %d read %d differs", i, j)
			}
		}
		if len(g.Writes) != len(want.Writes) {
			t.Fatalf("segment %d: %d writes, want %d", i, len(g.Writes), len(want.Writes))
		}
		for j := range want.Writes {
			if g.Writes[j] != want.Writes[j] {
				t.Errorf("segment %d write %d differs", i, j)
			}
		}
		if len(g.Lookups) != len(want.Lookups) {
			t.Fatalf("segment %d: %d lookups, want %d", i, len(g.Lookups), len(want.Lookups))
		}
		for j := range want.Lookups {
			if g.Lookups[j] != want.Lookups[j] {
				t.Errorf("segment %d lookup %d differs", i, j)
			}
			if want.Lookups[j].Guard != nil {
				guarded = true
			}
		}
	}
	if !guarded {
		t.Error("no segment carries a guarded lookup: the loop merge is not covered")
	}
}

// TestSummaryRoundTripMerged covers the loop-merging path (ite-heavy
// packet chains) on a realistic element shape.
func TestSummaryRoundTripMerged(t *testing.T) {
	b := ir.NewBuilder("Opts", 1, 1)
	n := b.LoadPktC(0, 1)
	b.Loop(4, func() {
		done := b.BinC(ir.Eq, n, 0)
		b.If(done, func() { b.Break() }, nil)
		b.StorePkt(b.ZExt(n, 32), b.ConstU(8, 1), 1)
		b.SetReg(n, b.BinC(ir.Sub, n, 1))
	})
	b.Emit(0)
	prog := b.MustBuild()
	eng := New(smt.New(smt.Options{}), Options{LoopMode: LoopMerge})
	segs, err := eng.Run(prog, DefaultInput(14, 32))
	if err != nil {
		t.Fatal(err)
	}
	sum := &Summary{Segments: segs, Merged: eng.Stats().Merged}
	got, err := DecodeSummary(EncodeSummary(sum))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sum.Segments {
		if got.Segments[i].Pkt != sum.Segments[i].Pkt {
			t.Errorf("merged segment %d packet array not pointer-equal", i)
		}
		if expr.And(got.Segments[i].Cond...) != expr.And(sum.Segments[i].Cond...) {
			t.Errorf("merged segment %d conds not pointer-equal", i)
		}
	}
}

// TestSummaryTruncation: every proper prefix must fail with an error,
// never panic and never decode — the store's corrupt-entry fallback
// depends on this.
func TestSummaryTruncation(t *testing.T) {
	data := EncodeSummary(summarizeStateful(t))
	for n := 0; n < len(data); n += 1 {
		if _, err := DecodeSummary(data[:n]); err == nil {
			t.Fatalf("prefix %d/%d decoded without error", n, len(data))
		}
	}
}

// TestSummaryMutation: random corruption must never panic.
func TestSummaryMutation(t *testing.T) {
	data := EncodeSummary(summarizeStateful(t))
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1500; i++ {
		mut := append([]byte{}, data...)
		for k := 0; k < 1+r.Intn(4); k++ {
			mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		}
		DecodeSummary(mut) // must not panic
	}
}

// TestSummaryBadValues rejects structurally invalid dispositions and
// crash kinds even when the stream is otherwise well-formed.
func TestSummaryBadValues(t *testing.T) {
	sum := &Summary{Segments: []*Segment{{
		Element:     "X",
		Cond:        []*expr.Expr{expr.Eq(expr.Var("v", bv.W8), expr.Const(bv.W8, 3))},
		Pkt:         expr.BaseArray(PktArrayName),
		Disposition: ir.Emitted,
	}}}
	data := EncodeSummary(sum)
	if _, err := DecodeSummary(data); err != nil {
		t.Fatalf("baseline must decode: %v", err)
	}
	if _, err := DecodeSummary([]byte("not a summary at all")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeSummary(append(append([]byte{}, data...), 0x7)); err == nil {
		t.Error("trailing bytes accepted")
	}
}
