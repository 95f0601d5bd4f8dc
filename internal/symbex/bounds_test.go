package symbex

import (
	"fmt"
	"math/rand"
	"testing"

	"vsd/internal/bv"
	"vsd/internal/elements"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/smt"
)

// TestProvesInBounds is the table of the bounds-check decision
// (bounds.go): which accesses a path's windows, end facts and length
// bound prove in bounds, including the cases where 32-bit offsets wrap.
func TestProvesInBounds(t *testing.T) {
	hoff := MetaVar(packet.MetaHeaderOffset, 32)
	other := MetaVar("other", 32)
	plen := expr.Var(PktLenVar, 32)
	guard := func(base *expr.Expr, h uint64) *expr.Expr {
		return expr.Ule(expr.Add(base, expr.Const(32, h)), plen)
	}
	const noL = ^uint64(0)
	for _, tc := range []struct {
		name    string
		windows []window
		conds   []*expr.Expr
		base    *expr.Expr
		k, n    uint64
		maxLen  uint64 // noL: the run has no length bound
		want    bool
	}{
		{"contained", []window{{hoff, 10, 16}}, nil, hoff, 12, 2, noL, true},
		{"contained at both edges", []window{{hoff, 10, 16}}, nil, hoff, 10, 6, noL, true},
		{"past the window end", []window{{hoff, 10, 16}}, nil, hoff, 15, 2, 48, false},
		{"other base", []window{{other, 10, 16}}, nil, hoff, 12, 2, noL, false},
		{"constant offsets", []window{{nil, 0, 14}}, nil, nil, 12, 2, noL, true},
		// hoff+14 ≤ len alone says nothing about hoff+12: with
		// hoff+12 = 2^32-2 the guard reads 0 ≤ len and the read wraps.
		{"end fact without window", nil, []*expr.Expr{guard(hoff, 14)}, hoff, 12, 1, 48, false},
		{"end fact and window below", []window{{hoff, 12, 13}}, []*expr.Expr{guard(hoff, 14)}, hoff, 13, 1, 48, true},
		{"end fact in a conjunction", []window{{hoff, 12, 13}},
			[]*expr.Expr{expr.And(expr.Ule(hoff, plen), guard(hoff, 14))}, hoff, 13, 1, 48, true},
		{"end fact too short", []window{{hoff, 12, 13}}, []*expr.Expr{guard(hoff, 13)}, hoff, 13, 1, 48, false},
		{"end fact of another base", []window{{hoff, 12, 13}}, []*expr.Expr{guard(other, 14)}, hoff, 13, 1, 48, false},
		{"end fact without length bound", []window{{hoff, 12, 13}}, []*expr.Expr{guard(hoff, 14)}, hoff, 13, 1, noL, false},
		{"window starts above the access", []window{{hoff, 13, 14}}, []*expr.Expr{guard(hoff, 14)}, hoff, 12, 1, 48, false},
		// L + (h - lo) must stay below 2^32: here h - lo = 2.
		{"largest bound that cannot wrap", []window{{hoff, 12, 13}}, []*expr.Expr{guard(hoff, 14)}, hoff, 13, 1, 1<<32 - 3, true},
		{"bound that can wrap", []window{{hoff, 12, 13}}, []*expr.Expr{guard(hoff, 14)}, hoff, 13, 1, 1<<32 - 2, false},
		{"gap without length bound", []window{{hoff, 0, 2}, {hoff, 4, 6}}, nil, hoff, 2, 2, noL, false},
		{"gap under a length bound", []window{{hoff, 0, 2}, {hoff, 4, 6}}, nil, hoff, 2, 2, 48, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &pathState{plen: plen, conds: tc.conds, windows: tc.windows}
			if got := st.provesInBounds(tc.base, tc.k, tc.n, tc.maxLen, tc.maxLen != noL); got != tc.want {
				t.Errorf("bytes [%d, %d) proven %v, want %v", tc.k, tc.k+tc.n, got, tc.want)
			}
		})
	}
}

// TestAddWindowMerges: windows of one base merge when they overlap or
// touch, and only then.
func TestAddWindowMerges(t *testing.T) {
	hoff := MetaVar(packet.MetaHeaderOffset, 32)
	st := &pathState{}
	st.addWindow(hoff, 0, 2)
	st.addWindow(hoff, 4, 6)
	st.addWindow(nil, 2, 4)
	if len(st.windows) != 3 {
		t.Fatalf("windows %v, want [0,2) and [4,6) of hoff apart and [2,4) of 0", st.windows)
	}
	st.addWindow(hoff, 2, 4)
	want := []window{{nil, 2, 4}, {hoff, 0, 6}}
	if len(st.windows) != 2 || st.windows[0] != want[0] || st.windows[1] != want[1] {
		t.Fatalf("windows %v, want %v", st.windows, want)
	}
}

func TestLenBound(t *testing.T) {
	plen := expr.Var(PktLenVar, 32)
	if l, ok := lenBound(DefaultInput(14, 48).Pre, plen); !ok || l != 48 {
		t.Errorf("DefaultInput(14, 48): bound %d %v, want 48", l, ok)
	}
	pre := []*expr.Expr{expr.Ule(plen, expr.Const(32, 120)), expr.Ule(plen, expr.Const(32, 100))}
	if l, ok := lenBound(pre, plen); !ok || l != 100 {
		t.Errorf("len ≤ 120 ∧ len ≤ 100: bound %d %v, want 100", l, ok)
	}
	if _, ok := lenBound([]*expr.Expr{expr.Ule(expr.Const(32, 14), plen)}, plen); ok {
		t.Error("a lower bound was taken for an upper one")
	}
}

// guardedRead reads n bytes at hoff+12 under the guard hoff+14 ≤ len,
// after reading the byte at hoff when first.
func guardedRead(first bool, n int) *ir.Program {
	b := ir.NewBuilder("GuardedRead", 1, 1)
	hoff := b.MetaLoad(packet.MetaHeaderOffset, 32)
	b.If(b.Bin(ir.Ule, b.BinC(ir.Add, hoff, 14), b.PktLen()), func() {
		if first {
			b.MetaStore("b0", b.LoadPkt(hoff, 1))
		}
		b.MetaStore("v", b.LoadPkt(b.BinC(ir.Add, hoff, 12), n))
	}, nil)
	b.Emit(0)
	return b.MustBuild()
}

func oobSegments(segs []*Segment) []*Segment {
	var out []*Segment
	for _, s := range segs {
		if s.Crash != nil && s.Crash.Kind == ir.CrashOOB {
			out = append(out, s)
		}
	}
	return out
}

// TestGuardWithoutWindowKeepsCrash: a length guard alone proves nothing
// below its end. The guarded read at hoff+12 keeps its OOB segment, and
// the segment's witness (hoff+12 at 2^32-2 or 2^32-1) crashes the
// interpreter.
func TestGuardWithoutWindowKeepsCrash(t *testing.T) {
	p := guardedRead(false, 2)
	in := DefaultInput(packet.MinFrame, 48)
	segs, err := newEngine(Options{}).Run(p, in)
	if err != nil {
		t.Fatal(err)
	}
	oob := oobSegments(segs)
	if len(oob) != 1 {
		t.Fatalf("%d OOB segments, want 1:\n%s", len(oob), describe(segs))
	}
	r, m, _ := smt.New(smt.Options{}).CheckFresh(append(append([]*expr.Expr{}, in.Pre...), oob[0].Cond...))
	if r != smt.Sat {
		t.Fatalf("OOB segment: %v, want Sat", r)
	}
	hoff := m.Vars[MetaVarPrefix+packet.MetaHeaderOffset].U
	if off := (hoff + 12) & 0xffffffff; off < 1<<32-2 {
		t.Errorf("witness reads at %#x, want a wrapping offset", off)
	}
	pkt := make([]byte, m.Vars[PktLenVar].U)
	copy(pkt, m.Arrays[PktArrayName])
	meta := map[string]bv.V{packet.MetaHeaderOffset: bv.New(32, hoff)}
	out := ir.Exec(p, &ir.ExecEnv{Pkt: pkt, Meta: meta, State: ir.NewState()})
	if out.Disposition != ir.Crashed || out.Crash.Kind != ir.CrashOOB {
		t.Fatalf("witness hoff=%#x len=%d: %+v, want an OOB crash", hoff, len(pkt), out)
	}
	checkAgreement(t, p, segs, false, make([]byte, 20), map[string]bv.V{packet.MetaHeaderOffset: bv.New(32, 1<<32-14)})
}

// TestLengthBoundDecidesGuardedRead: after the byte at hoff, the guard
// hoff+14 ≤ len proves the read at hoff+12 in bounds when len ≤ 48, but
// not when len may reach 2^32-1: then hoff = 2^32-13 passes the guard
// (hoff+14 = 1) and hoff+12 wraps.
func TestLengthBoundDecidesGuardedRead(t *testing.T) {
	p := guardedRead(true, 1)
	for _, tc := range []struct {
		maxLen uint64
		oob    int
	}{{48, 1}, {1<<32 - 1, 2}} {
		segs, err := newEngine(Options{}).Run(p, DefaultInput(packet.MinFrame, tc.maxLen))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(oobSegments(segs)); got != tc.oob {
			t.Errorf("maxlen %d: %d OOB segments, want %d:\n%s", tc.maxLen, got, tc.oob, describe(segs))
		}
		if tc.maxLen == 48 {
			r := rand.New(rand.NewSource(5))
			for trial := 0; trial < 200; trial++ {
				pkt := make([]byte, packet.MinFrame+r.Intn(48-packet.MinFrame+1))
				hoff := uint64(r.Intn(len(pkt) + 2))
				if r.Intn(2) == 0 {
					hoff = 1<<32 - 1 - uint64(r.Intn(20))
				}
				checkAgreement(t, p, segs, false, pkt, map[string]bv.V{packet.MetaHeaderOffset: bv.New(32, hoff)})
			}
		}
	}
}

// TestWindowGapNeedsLengthBound: windows [0,2) and [4,6) of hoff do not
// merge, so the read of [2,4) between them is proven only under a length
// bound. With len up to 2^32-1, hoff = 2^32-3 passes both reads (bytes
// 2^32-3.. and 1..2) while the middle one wraps.
func TestWindowGapNeedsLengthBound(t *testing.T) {
	b := ir.NewBuilder("GapRead", 1, 1)
	hoff := b.MetaLoad(packet.MetaHeaderOffset, 32)
	for i, k := range []uint64{0, 4, 2} {
		b.MetaStore(fmt.Sprint("v", i), b.LoadPkt(b.BinC(ir.Add, hoff, k), 2))
	}
	b.Emit(0)
	p := b.MustBuild()
	for _, tc := range []struct {
		maxLen uint64
		oob    int
	}{{48, 2}, {1<<32 - 1, 3}} {
		segs, err := newEngine(Options{}).Run(p, DefaultInput(packet.MinFrame, tc.maxLen))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(oobSegments(segs)); got != tc.oob {
			t.Errorf("maxlen %d: %d OOB segments, want %d:\n%s", tc.maxLen, got, tc.oob, describe(segs))
		}
	}
}

// elementConfigs configures every class of elements.Default() for the
// agreement test; a new class must be added here.
var elementConfigs = map[string]string{
	"BuggyDecIPTTL":  "",
	"CheckIPHeader":  "",
	"CheckLength":    "40",
	"Classifier":     "12/0800 23/11, 12/0806, -",
	"Counter":        "",
	"DecIPTTL":       "",
	"Discard":        "",
	"EtherEncap":     "0800, 02:00:00:00:00:01, 02:00:00:00:00:02",
	"FixedReader":    "16",
	"FromDevice":     "",
	"IPFilter":       "allow proto udp dport 53, deny dst 10.0.0.0/8, allow",
	"IPOptions":      "",
	"IPRewriter":     "SNAT 10.0.0.1",
	"InfiniteSource": "",
	"LeakyNAT":       "10.0.0.100",
	"LookupIPRoute":  "10.0.0.0/8 0, 192.168.0.0/16 1, 0.0.0.0/0 2",
	"NetFlow":        "",
	"Paint":          "3",
	"Strip":          "14",
	"TokenBucket":    "",
	"ToDevice":       "",
	"ToyE1":          "",
	"ToyE2":          "",
	"UnsafeReader":   "16",
	"Unstrip":        "14",
}

// touchesPacket reports whether body reads or writes packet bytes.
func touchesPacket(body []ir.Stmt) bool {
	for _, s := range body {
		switch st := s.(type) {
		case ir.LoadPktStmt, ir.StorePktStmt:
			return true
		case ir.IfStmt:
			if touchesPacket(st.Then) || touchesPacket(st.Else) {
				return true
			}
		case ir.LoopStmt:
			if touchesPacket(st.Body) {
				return true
			}
		}
	}
	return false
}

// TestElementsAgreeWithInterpreter cross-validates the summary of every
// packet-touching element against the interpreter on random packets of
// 14 to 48 bytes, with the header offset drawn both inside the packet
// and from [2^32-64, 2^32), where offsets wrap: each packet satisfies
// exactly one segment, with the interpreter's disposition, port and
// crash kind.
func TestElementsAgreeWithInterpreter(t *testing.T) {
	reg := elements.Default()
	for _, class := range reg.Classes() {
		cfg, ok := elementConfigs[class]
		if !ok {
			t.Errorf("class %s has no configuration in elementConfigs", class)
			continue
		}
		inst, err := reg.Make("e", class, cfg)
		if err != nil {
			t.Fatalf("%s(%s): %v", class, cfg, err)
		}
		p := inst.Program()
		if !touchesPacket(p.Body) {
			continue
		}
		t.Run(class, func(t *testing.T) {
			e := newEngine(Options{})
			segs, err := e.Run(p, DefaultInput(packet.MinFrame, 48))
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(len(class))))
			for trial := 0; trial < 150; trial++ {
				pkt := make([]byte, packet.MinFrame+r.Intn(48-packet.MinFrame+1))
				r.Read(pkt)
				hoff := uint64(r.Intn(len(pkt) + 1))
				if r.Intn(3) == 0 {
					hoff = 1<<32 - 1 - uint64(r.Intn(64))
				} else if r.Intn(2) == 0 && hoff+4 <= uint64(len(pkt)) {
					// A plausible IPv4 header start, so deeper paths run.
					pkt[hoff] = 0x45 + byte(r.Intn(3))
					tot := uint64(len(pkt)) - hoff - uint64(r.Intn(2))
					pkt[hoff+2], pkt[hoff+3] = byte(tot>>8), byte(tot)
				}
				checkAgreement(t, p, segs, e.Stats().Merged, pkt, map[string]bv.V{packet.MetaHeaderOffset: bv.New(32, hoff)})
			}
		})
	}
}
