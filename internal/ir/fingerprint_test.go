package ir

import (
	"testing"

	"vsd/internal/bv"
)

// fig1Variant builds the Fig. 1 program with a tweakable constant so
// tests can produce content-distinct programs that share everything
// else.
func fig1Variant(t testing.TB, threshold uint64) *Program {
	t.Helper()
	b := NewBuilder("Fig1", 1, 1)
	in := b.MetaLoad("in", 32)
	zero := b.ConstU(32, 0)
	b.Assert(b.Bin(Sle, zero, in), "in >= 0")
	b.If(b.Bin(Slt, in, b.ConstU(32, threshold)), func() {
		b.MetaStore("out", b.ConstU(32, 10))
	}, func() {
		b.MetaStore("out", in)
	})
	b.Emit(0)
	return b.MustBuild()
}

func TestFingerprintDeterministic(t *testing.T) {
	a := fig1Variant(t, 10)
	b := fig1Variant(t, 10)
	if a == b {
		t.Fatal("want two distinct Program values")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical programs fingerprint differently: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	// Cached value is stable.
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not stable across calls")
	}
}

func TestFingerprintSeparatesContent(t *testing.T) {
	base := fig1Variant(t, 10)
	seen := map[Fingerprint]string{base.Fingerprint(): "base"}
	add := func(name string, p *Program) {
		fp := p.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
	// A changed constant inside the body.
	add("different-threshold", fig1Variant(t, 11))
	// Same body, different program name (crash messages embed it, so it
	// is part of the identity).
	b := NewBuilder("Other", 1, 1)
	in := b.MetaLoad("in", 32)
	zero := b.ConstU(32, 0)
	b.Assert(b.Bin(Sle, zero, in), "in >= 0")
	b.If(b.Bin(Slt, in, b.ConstU(32, 10)), func() {
		b.MetaStore("out", b.ConstU(32, 10))
	}, func() {
		b.MetaStore("out", in)
	})
	b.Emit(0)
	add("different-name", b.MustBuild())
	// Declarations matter even with an identical body.
	tbl := &StaticTable{Name: "t", KeyW: 8, ValW: 8, Entries: []RangeEntry{{Lo: 0, Hi: 1, Val: 2}}}
	withTable := fig1Variant(t, 10)
	withTable2 := &Program{
		Name: withTable.Name, NumIn: withTable.NumIn, NumOut: withTable.NumOut,
		RegWidths: withTable.RegWidths, Tables: []*StaticTable{tbl},
		Body: withTable.Body, MetaSlots: withTable.MetaSlots,
	}
	add("extra-table", withTable2)
	// A table entry's value participates.
	tbl2 := &StaticTable{Name: "t", KeyW: 8, ValW: 8, Entries: []RangeEntry{{Lo: 0, Hi: 1, Val: 3}}}
	withTable3 := &Program{
		Name: withTable.Name, NumIn: withTable.NumIn, NumOut: withTable.NumOut,
		RegWidths: withTable.RegWidths, Tables: []*StaticTable{tbl2},
		Body: withTable.Body, MetaSlots: withTable.MetaSlots,
	}
	add("different-table-value", withTable3)
}

// TestFingerprintNoFieldConcatCollision guards the length-prefixing:
// moving a byte between adjacent string fields must change the hash.
func TestFingerprintNoFieldConcatCollision(t *testing.T) {
	mk := func(store, msg string) *Program {
		b := NewBuilder("P", 1, 1)
		b.Assert(b.ConstU(1, 1), msg)
		_ = store
		b.Emit(0)
		return b.MustBuild()
	}
	a := mk("s", "ab")
	bb := mk("sa", "b")
	if a.Fingerprint() == bb.Fingerprint() {
		t.Error("adjacent string fields collide")
	}
}

func TestParseFingerprint(t *testing.T) {
	fp := fig1Variant(t, 10).Fingerprint()
	got, err := ParseFingerprint(fp.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Errorf("round trip: %s != %s", got, fp)
	}
	if _, err := ParseFingerprint("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := ParseFingerprint("abcd"); err == nil {
		t.Error("short fingerprint accepted")
	}
}

// TestFingerprintCoversEveryStatement fingerprints a program using every
// statement form, twice, and checks stability — a canary for a
// statement type missing from the switch (which would panic).
func TestFingerprintCoversEveryStatement(t *testing.T) {
	build := func() *Program {
		b := NewBuilder("All", 1, 2)
		b.DeclareState(StateDecl{Name: "st", KeyW: 32, ValW: 32})
		b.DeclareTable(&StaticTable{Name: "tbl", KeyW: 8, ValW: 8, Entries: []RangeEntry{{Lo: 0, Hi: 9, Val: 1}}})
		c := b.ConstU(32, 7)
		d := b.Bin(Add, c, c)
		n := b.Not(d)
		tr := b.Trunc(n, 8)
		z := b.ZExt(tr, 32)
		sx := b.SExt(tr, 32)
		sel := b.Select(b.Bin(Eq, z, sx), z, sx)
		ln := b.PktLen()
		_ = ln
		pv := b.LoadPktC(0, 1)
		b.StorePkt(b.ConstU(32, 1), pv, 1)
		m := b.MetaLoad("slot", 16)
		b.MetaStore("slot", m)
		sv := b.StateRead("st", sel)
		b.StateWrite("st", sel, sv)
		lk := b.StaticLookup("tbl", tr)
		_ = lk
		b.Assert(b.ConstU(1, 1), "ok")
		b.If(b.Bin(Ult, pv, b.ConstU(8, 10)), func() {
			b.Loop(3, func() { b.Break() })
			b.Emit(1)
		}, nil)
		b.Drop()
		return b.MustBuild()
	}
	if build().Fingerprint() != build().Fingerprint() {
		t.Error("full-coverage program not deterministic")
	}
}

func TestFingerprintWidthMatters(t *testing.T) {
	mk := func(w bv.Width) *Program {
		b := NewBuilder("W", 1, 1)
		b.MetaStore("out", b.ConstU(w, 1))
		b.Emit(0)
		return b.MustBuild()
	}
	if mk(16).Fingerprint() == mk(32).Fingerprint() {
		t.Error("constant width ignored by fingerprint")
	}
}

// TestSummaryFingerprintSeesValueSets pins the summary identity of
// static tables (DESIGN.md §3.2): a table counts by name, widths,
// default and the set of values a lookup can return, never by its
// ranges, while the concrete fingerprint still sees every range.
func TestSummaryFingerprintSeesValueSets(t *testing.T) {
	body := fig1Variant(t, 10)
	withTable := func(entries ...RangeEntry) *Program {
		return &Program{
			Name: body.Name, NumIn: body.NumIn, NumOut: body.NumOut, RegWidths: body.RegWidths,
			Tables: []*StaticTable{{Name: "t", KeyW: 8, ValW: 8, Entries: entries, Default: 7}},
			Body:   body.Body, MetaSlots: body.MetaSlots,
		}
	}
	base := withTable(RangeEntry{Lo: 0, Hi: 99, Val: 1}, RangeEntry{Lo: 100, Hi: 255, Val: 2})
	same := []*Program{
		withTable(RangeEntry{Lo: 0, Hi: 9, Val: 2}, RangeEntry{Lo: 10, Hi: 255, Val: 1}),
		withTable(RangeEntry{Lo: 0, Hi: 9, Val: 1}, RangeEntry{Lo: 10, Hi: 19, Val: 2}, RangeEntry{Lo: 20, Hi: 255, Val: 1}),
	}
	for i, p := range same {
		if p.SummaryFingerprint() != base.SummaryFingerprint() {
			t.Errorf("same value set %d: summary fingerprints differ", i)
		}
		if p.Fingerprint() == base.Fingerprint() {
			t.Errorf("other ranges %d: concrete fingerprints collide", i)
		}
	}
	differ := map[string]*Program{
		"other value":         withTable(RangeEntry{Lo: 0, Hi: 99, Val: 1}, RangeEntry{Lo: 100, Hi: 255, Val: 3}),
		"a gap adds 7":        withTable(RangeEntry{Lo: 0, Hi: 99, Val: 1}, RangeEntry{Lo: 100, Hi: 254, Val: 2}),
		"the table's program": body,
	}
	for name, p := range differ {
		if p.SummaryFingerprint() == base.SummaryFingerprint() {
			t.Errorf("%s: summary fingerprints collide", name)
		}
	}
	if body.SummaryFingerprint() != body.Fingerprint() {
		t.Error("a program without tables has a second identity")
	}
}

func TestStaticTableValuesAndKeys(t *testing.T) {
	tbl := &StaticTable{Name: "t", KeyW: 8, ValW: 8, Default: 7, Entries: []RangeEntry{
		{Lo: 5, Hi: 9, Val: 2}, {Lo: 10, Hi: 19, Val: 1}, {Lo: 20, Hi: 29, Val: 2}, {Lo: 40, Hi: 255, Val: 1}}}
	if got := tbl.Values(); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 7 {
		t.Errorf("Values = %v, want [2 1 7]: first appearance, then the default of the gaps", got)
	}
	keys := map[uint64][]RangeEntry{
		2: {{Lo: 5, Hi: 9}, {Lo: 20, Hi: 29}},
		1: {{Lo: 10, Hi: 19}, {Lo: 40, Hi: 255}},
		7: {{Lo: 0, Hi: 4}, {Lo: 30, Hi: 39}},
		9: nil,
	}
	for val, want := range keys {
		got := tbl.KeysOf(val)
		if len(got) != len(want) {
			t.Errorf("KeysOf(%d) = %v, want %v", val, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("KeysOf(%d) = %v, want %v", val, got, want)
			}
		}
	}
	for k := uint64(0); k <= 255; k++ {
		v, _ := tbl.Lookup(k)
		found := false
		for _, iv := range tbl.KeysOf(v) {
			found = found || (iv.Lo <= k && k <= iv.Hi)
		}
		if !found {
			t.Fatalf("key %d looks up %d but is not among KeysOf(%d)", k, v, v)
		}
	}
	full := &StaticTable{Name: "f", KeyW: 8, ValW: 8, Default: 7, Entries: []RangeEntry{{Lo: 0, Hi: 127, Val: 1}, {Lo: 128, Hi: 255, Val: 1}}}
	if got := full.Values(); len(got) != 1 || got[0] != 1 {
		t.Errorf("covering table Values = %v, want [1] (no default)", got)
	}
	if got := full.KeysOf(1); len(got) != 1 || got[0] != (RangeEntry{Lo: 0, Hi: 255}) {
		t.Errorf("adjacent ranges of one value: KeysOf = %v, want one merged interval", got)
	}
}
