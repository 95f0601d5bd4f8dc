package symbex

import (
	"testing"

	"vsd/internal/ir"
)

// TestLoopMergeKeepsCrashDetection ensures merging never hides a crash:
// a loop whose body crashes on a specific byte still yields a crash
// segment whose witness the interpreter confirms.
func TestLoopMergeKeepsCrashDetection(t *testing.T) {
	b := ir.NewBuilder("CrashInLoop", 1, 1)
	idx := b.Mov(b.ConstU(32, 0))
	plen := b.PktLen()
	b.Loop(6, func() {
		done := b.Bin(ir.Ule, plen, idx)
		b.If(done, func() { b.Break() }, nil)
		v := b.LoadPkt(idx, 1)
		b.Assert(b.Not(b.BinC(ir.Eq, v, 0x66)), "byte 0x66 is fatal")
		b.SetReg(idx, b.BinC(ir.Add, idx, 1))
	})
	b.Emit(0)
	p := b.MustBuild()

	e := newEngine(Options{})
	segs, err := e.Run(p, DefaultInput(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range segs {
		if s.Crash != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("merge mode lost the in-loop crash")
	}
	// A packet with 0x66 at any position must match a crash segment.
	for pos := 0; pos < 4; pos++ {
		pkt := []byte{1, 1, 1, 1}
		pkt[pos] = 0x66
		asn := assignmentFor(pkt, nil)
		var match *Segment
		for _, s := range segs {
			if evalSegment(s, asn) {
				match = s
				break
			}
		}
		if match == nil || match.Disposition != ir.Crashed {
			t.Fatalf("0x66 at %d not predicted to crash", pos)
		}
	}
}
