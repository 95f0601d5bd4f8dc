package symbex

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"vsd/internal/bv"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/smt"
)

func newEngine(opts Options) *Engine { return New(smt.New(smt.Options{}), opts) }

// buildFig1 is the paper's Fig. 1 toy program (input via metadata).
func buildFig1() *ir.Program {
	b := ir.NewBuilder("Fig1", 1, 1)
	in := b.MetaLoad("in", 32)
	zero := b.ConstU(32, 0)
	b.Assert(b.Bin(ir.Sle, zero, in), "in >= 0")
	b.If(b.Bin(ir.Slt, in, b.ConstU(32, 10)), func() {
		b.MetaStore("out", b.ConstU(32, 10))
	}, func() {
		b.MetaStore("out", in)
	})
	b.Emit(0)
	return b.MustBuild()
}

func TestFig1SegmentsMatchPaper(t *testing.T) {
	// The paper's Fig. 1 execution tree has exactly three feasible
	// paths: crash (in < 0), return 10 (0 <= in < 10), return in
	// (in >= 10).
	e := newEngine(Options{})
	segs, err := e.Run(buildFig1(), DefaultInput(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3:\n%v", len(segs), describe(segs))
	}
	var crashes, emits int
	for _, s := range segs {
		switch s.Disposition {
		case ir.Crashed:
			crashes++
			if s.Crash.Kind != ir.CrashAssert {
				t.Errorf("crash kind = %v, want assert", s.Crash.Kind)
			}
		case ir.Emitted:
			emits++
		}
	}
	if crashes != 1 || emits != 2 {
		t.Errorf("crashes=%d emits=%d, want 1 and 2", crashes, emits)
	}
}

func describe(segs []*Segment) string {
	out := ""
	for _, s := range segs {
		out += s.CondExpr().String() + " -> " + s.Disposition.String() + "\n"
	}
	return out
}

// buildParser is a small packet parser: dispatch on byte 0, read a word,
// divide by a packet byte, and classify. It exercises loads, stores,
// division crashes, bounds crashes, and If forking.
func buildParser() *ir.Program {
	b := ir.NewBuilder("Parser", 1, 2)
	tag := b.LoadPktC(0, 1)
	b.If(b.BinC(Eq, tag, 1), func() {
		v := b.LoadPktC(1, 4) // may be out of bounds on short packets
		b.If(b.BinC(ir.Ult, v, 1000), func() {
			b.StorePkt(b.ConstU(32, 1), b.ConstU(32, 0xdeadbeef), 4)
			b.Emit(0)
		}, func() {
			b.Emit(1)
		})
	}, nil)
	b.If(b.BinC(Eq, tag, 2), func() {
		d := b.LoadPktC(1, 1)
		q := b.Bin(ir.UDiv, b.ConstU(8, 100), d) // crash when pkt[1] == 0
		b.MetaStore("q", q)
		b.Emit(0)
	}, nil)
	b.Drop()
	return b.MustBuild()
}

// Eq is a shorthand used by buildParser.
const Eq = ir.Eq

// evalSegment reports whether asn satisfies every condition of s.
func evalSegment(s *Segment, asn *expr.Assignment) bool {
	for _, c := range s.Cond {
		if !expr.Eval(c, asn).IsTrue() {
			return false
		}
	}
	return true
}

// assignmentFor builds the evaluation environment corresponding to a
// concrete packet.
func assignmentFor(pkt []byte, meta map[string]bv.V) *expr.Assignment {
	asn := expr.NewAssignment()
	asn.Arrays[PktArrayName] = pkt
	asn.Vars[PktLenVar] = bv.New(32, uint64(len(pkt)))
	for k, v := range meta {
		asn.Vars[MetaVarPrefix+k] = v
	}
	return asn
}

// lookupsHold reports whether every static-table lookup of s that asn
// reaches returns, on the concrete table, the value the segment took:
// the tie to the table that a reporting caller conjoins (DESIGN.md
// §3.2).
func lookupsHold(p *ir.Program, s *Segment, asn *expr.Assignment) bool {
	for _, lk := range s.Lookups {
		if lk.Guard != nil && !expr.Eval(lk.Guard, asn).IsTrue() {
			continue
		}
		t, _ := p.TableByName(lk.Table)
		if v, _ := t.Lookup(expr.Eval(lk.Key, asn).U); v != lk.Val {
			return false
		}
	}
	return true
}

// checkAgreement runs the cross-validation property at the heart of the
// test suite: for a concrete packet, exactly one segment's constraint
// (with its table lookups tied to the concrete tables) is
// satisfied, and that segment's symbolic effect predicts the concrete
// interpreter's behaviour exactly (disposition, port, crash kind, every
// packet byte, every written metadata slot). The step count is exact
// unless the run merged loop states (merged, from Stats.Merged), in
// which case it is an upper bound.
func checkAgreement(t *testing.T, p *ir.Program, segs []*Segment, merged bool, pkt []byte, meta map[string]bv.V) {
	t.Helper()
	asn := assignmentFor(pkt, meta)
	var match *Segment
	for _, s := range segs {
		if evalSegment(s, asn) && lookupsHold(p, s, asn) {
			if match != nil {
				t.Fatalf("packet % x satisfies two segments:\n%s\n%s",
					pkt, match.CondExpr(), s.CondExpr())
			}
			match = s
		}
	}
	if match == nil {
		t.Fatalf("packet % x satisfies no segment of %s", pkt, p.Name)
	}
	env := &ir.ExecEnv{Pkt: append([]byte{}, pkt...), Meta: map[string]bv.V{}, State: ir.NewState()}
	for k, v := range meta {
		env.Meta[k] = v
	}
	out := ir.Exec(p, env)
	if out.Disposition != match.Disposition {
		t.Fatalf("packet % x: concrete %v, symbolic %v", pkt, out.Disposition, match.Disposition)
	}
	if out.Disposition == ir.Emitted && out.Port != match.Port {
		t.Fatalf("packet % x: concrete port %d, symbolic %d", pkt, out.Port, match.Port)
	}
	if out.Disposition == ir.Crashed && out.Crash.Kind != match.Crash.Kind {
		t.Fatalf("packet % x: concrete crash %v, symbolic %v", pkt, out.Crash.Kind, match.Crash.Kind)
	}
	if out.Steps > match.Steps || !merged && out.Steps != match.Steps {
		t.Fatalf("packet % x: concrete steps %d, symbolic %d (merged %v)", pkt, out.Steps, match.Steps, merged)
	}
	if out.Disposition != ir.Crashed {
		for i := range pkt {
			want := env.Pkt[i]
			got := expr.Eval(expr.Select(match.Pkt, expr.Const(32, uint64(i))), asn)
			if byte(got.Int()) != want {
				t.Fatalf("packet % x: byte %d concrete %#x symbolic %#x", pkt, i, want, got.Int())
			}
		}
		for slot, e := range match.Meta {
			got := expr.Eval(e, asn)
			want, ok := env.Meta[slot]
			if !ok {
				t.Fatalf("symbolic wrote meta %q but concrete did not", slot)
			}
			if got.U != want.U {
				t.Fatalf("meta %q: concrete %v symbolic %v", slot, want, got)
			}
		}
	}
}

func TestParserSymbexAgreesWithInterpreter(t *testing.T) {
	p := buildParser()
	for _, mode := range []LoopMode{LoopMerge, LoopUnroll} {
		e := newEngine(Options{LoopMode: mode})
		segs, err := e.Run(p, DefaultInput(1, 16))
		if err != nil {
			t.Fatal(err)
		}
		merged := e.Stats().Merged
		r := rand.New(rand.NewSource(3))
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(16)
			pkt := make([]byte, n)
			r.Read(pkt)
			// Bias byte 0 toward interesting tags.
			if r.Intn(2) == 0 {
				pkt[0] = byte(1 + r.Intn(2))
			}
			if n > 1 && r.Intn(3) == 0 {
				pkt[1] = 0 // trigger the division crash path
			}
			checkAgreement(t, p, segs, merged, pkt, nil)
		}
	}
}

func TestParserFindsAllCrashKinds(t *testing.T) {
	e := newEngine(Options{})
	segs, err := e.Run(buildParser(), DefaultInput(1, 16))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[ir.CrashKind]bool{}
	for _, s := range segs {
		if s.Crash != nil {
			kinds[s.Crash.Kind] = true
		}
	}
	if !kinds[ir.CrashOOB] {
		t.Error("missed the out-of-bounds crash (tag 1, short packet)")
	}
	if !kinds[ir.CrashDivZero] {
		t.Error("missed the division-by-zero crash (tag 2, pkt[1]=0)")
	}
}

// buildOptionsLoop models the shape of IP options parsing: a cursor
// walks TLV-encoded options with a bounded loop.
func buildOptionsLoop(bound int) *ir.Program {
	b := ir.NewBuilder("TLVWalk", 1, 1)
	cur := b.Mov(b.ConstU(32, 1))
	end := b.ZExt(b.LoadPktC(0, 1), 32) // option bytes end (from packet)
	b.Loop(bound, func() {
		done := b.Bin(ir.Ule, end, cur)
		b.If(done, func() { b.Break() }, nil)
		typ := b.LoadPkt(cur, 1)
		b.If(b.BinC(ir.Eq, typ, 0), func() { b.Break() }, nil) // EOL
		b.If(b.BinC(ir.Eq, typ, 1), func() {                   // NOP: advance 1
			b.SetReg(cur, b.BinC(ir.Add, cur, 1))
		}, func() { // TLV: advance by length byte
			ln := b.ZExt(b.LoadPkt(b.BinC(ir.Add, cur, 1), 1), 32)
			b.Assert(b.Bin(ir.Ule, b.ConstU(32, 2), ln), "option length >= 2")
			b.SetReg(cur, b.Bin(ir.Add, cur, ln))
		})
	})
	b.Emit(0)
	return b.MustBuild()
}

// TestLoopModesAgreeWithInterpreter cross-validates both loop modes
// against the interpreter on TLV walks. The merge cases hold the
// production mode to the contract checkAgreement states: segments
// partition the input space, predictions match the interpreter, and step
// counts are exact unless the run merged, upper bounds otherwise.
func TestLoopModesAgreeWithInterpreter(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   LoopMode
		bound  int
		maxLen uint64
		seed   int64
		trials int
	}{
		{"unroll", LoopUnroll, 4, 12, 11, 250},
		{"merge", LoopMerge, 4, 12, 11, 250},
		{"merge-bound6", LoopMerge, 6, 16, 17, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := buildOptionsLoop(tc.bound)
			e := newEngine(Options{LoopMode: tc.mode})
			segs, err := e.Run(p, DefaultInput(1, tc.maxLen))
			if err != nil {
				t.Fatal(err)
			}
			merged := e.Stats().Merged
			if tc.mode == LoopMerge && !merged {
				t.Error("merge mode reported no merging on a loop with multiple continuations")
			}
			r := rand.New(rand.NewSource(tc.seed))
			for trial := 0; trial < tc.trials; trial++ {
				n := 1 + r.Intn(int(tc.maxLen))
				pkt := make([]byte, n)
				r.Read(pkt)
				pkt[0] = byte(r.Intn(n + 2)) // end cursor near packet size
				for i := 1; i < n; i++ {
					// Bias option bytes toward the interesting kinds.
					switch r.Intn(4) {
					case 0:
						pkt[i] = 0
					case 1:
						pkt[i] = 1
					case 2:
						pkt[i] = byte(2 + r.Intn(4))
					}
				}
				checkAgreement(t, p, segs, merged, pkt, nil)
			}
		})
	}
}

func TestLoopSummarizeExploresFewerStepsThanUnroll(t *testing.T) {
	// The point of the paper's loop decomposition: the body is executed
	// once; iterations are composed. The unrolled engine re-executes the
	// body per iteration per path, so its symbolic step count grows much
	// faster with the bound than the summarizing (merge) engine's.
	p := buildOptionsLoop(5)
	eu := newEngine(Options{LoopMode: LoopUnroll})
	if _, err := eu.Run(p, DefaultInput(1, 12)); err != nil {
		t.Fatal(err)
	}
	es := newEngine(Options{LoopMode: LoopMerge})
	if _, err := es.Run(p, DefaultInput(1, 12)); err != nil {
		t.Fatal(err)
	}
	if es.Stats().StepsSymbex >= eu.Stats().StepsSymbex {
		t.Errorf("summarize executed %d statements, unroll %d; expected summarize < unroll",
			es.Stats().StepsSymbex, eu.Stats().StepsSymbex)
	}
}

func TestStaticLookupForksPerValue(t *testing.T) {
	table := &ir.StaticTable{
		Name: "rt", KeyW: 32, ValW: 8,
		Entries: []ir.RangeEntry{
			{Lo: 100, Hi: 199, Val: 1},
			{Lo: 200, Hi: 299, Val: 2},
		},
		Default: 0,
	}
	b := ir.NewBuilder("Route", 1, 3)
	b.DeclareTable(table)
	dst := b.LoadPktC(0, 4)
	port := b.StaticLookup("rt", dst)
	b.If(b.BinC(ir.Eq, b.ZExt(port, 32), 1), func() { b.Emit(1) }, nil)
	b.If(b.BinC(ir.Eq, b.ZExt(port, 32), 2), func() { b.Emit(2) }, nil)
	b.Emit(0)
	p := b.MustBuild()

	e := newEngine(Options{})
	segs, err := e.Run(p, DefaultInput(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	// 3 lookup values (the default covers the gaps) + 1 OOB crash branch
	// that is impossible (len >= 4), so expect exactly 3 emitted segments
	// on ports 1, 2, 0, each logging its lookup and none constraining the
	// key: it is the caller's to tie a reported path's key to its value.
	ports := map[int]int{}
	for _, s := range segs {
		if s.Disposition != ir.Emitted {
			t.Fatalf("unexpected %v segment: %s", s.Disposition, s.CondExpr())
		}
		ports[s.Port]++
		if len(s.Lookups) != 1 || s.Lookups[0].Table != "rt" || s.Lookups[0].Key != expr.SelectWide(expr.BaseArray(PktArrayName), expr.Const(32, 0), 4) {
			t.Errorf("segment %d lookups = %+v, want the one on the packet's first word", s.Index, s.Lookups)
		}
		for _, c := range s.Cond {
			if len(expr.SelectsOf(c, nil)) > 0 {
				t.Errorf("segment %d constrains the key: %s", s.Index, c)
			}
		}
	}
	if ports[0] != 1 || ports[1] != 1 || ports[2] != 1 {
		t.Errorf("port distribution = %v, want one segment per port", ports)
	}
}

func TestStateReadsAreLoggedAndUnconstrained(t *testing.T) {
	b := ir.NewBuilder("Flow", 1, 1)
	b.DeclareState(ir.StateDecl{Name: "tbl", KeyW: 32, ValW: 32})
	key := b.LoadPktC(0, 4)
	v := b.StateRead("tbl", key)
	// Counter overflow assertion, the paper's example of a checkable
	// property on stateful elements.
	b.Assert(b.BinC(ir.Ult, v, 0xffffffff), "counter overflow")
	b.StateWrite("tbl", key, b.BinC(ir.Add, v, 1))
	b.Emit(0)
	p := b.MustBuild()

	e := newEngine(Options{})
	segs, err := e.Run(p, DefaultInput(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	var crash, emit *Segment
	for _, s := range segs {
		if s.Disposition == ir.Crashed {
			crash = s
		}
		if s.Disposition == ir.Emitted {
			emit = s
		}
	}
	if crash == nil {
		t.Fatal("overflow crash not found: the state read must be unconstrained")
	}
	if emit == nil {
		t.Fatal("normal path not found")
	}
	if len(emit.Reads) != 1 || len(emit.Writes) != 1 {
		t.Fatalf("reads=%d writes=%d, want 1 and 1", len(emit.Reads), len(emit.Writes))
	}
	if emit.Reads[0].Store != "tbl" || emit.Writes[0].Store != "tbl" {
		t.Error("wrong store names in access log")
	}
}

func TestSegmentBudgetExceeded(t *testing.T) {
	// A chain of independent packet-byte branches has 2^12 paths; a
	// budget of 16 segments must abort with ErrBudget.
	b := ir.NewBuilder("Wide", 1, 1)
	acc := b.Mov(b.ConstU(8, 0))
	for i := 0; i < 12; i++ {
		v := b.LoadPktC(uint64(i), 1)
		b.If(b.BinC(ir.Ult, v, 128), func() {
			b.SetReg(acc, b.BinC(ir.Add, acc, 1))
		}, nil)
	}
	b.MetaStore("acc", acc)
	b.Emit(0)
	p := b.MustBuild()

	e := newEngine(Options{MaxSegments: 16})
	_, err := e.Run(p, DefaultInput(12, 64))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestMaxStepsBudget(t *testing.T) {
	p := buildOptionsLoop(8)
	e := newEngine(Options{LoopMode: LoopUnroll, MaxSteps: 50})
	_, err := e.Run(p, DefaultInput(1, 40))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestRunsShareNoSolverState pins the lifetime of Step-1 solver state to
// one Run: an engine that has summarized a loop element and a parser
// yields, for each, exactly the summary a fresh engine yields (so
// nothing a run needs is carried over, and nothing carried over changes
// a result), and every Run opens — and closes — its own session. The
// last program's first merge group has an infeasible sibling that only
// a run which has not merged yet checks (and drops).
func TestRunsShareNoSolverState(t *testing.T) {
	progs := []*ir.Program{buildOptionsLoop(3), buildParser(), buildOptionsLoop(3), buildShrinkingLoop()}
	reused := newEngine(Options{})
	for i, p := range progs {
		got, err := reused.Run(p, DefaultInput(1, 16))
		if err != nil {
			t.Fatal(err)
		}
		want, err := newEngine(Options{}).Run(p, DefaultInput(1, 16))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeSummary(&Summary{Segments: got}), EncodeSummary(&Summary{Segments: want})) {
			t.Errorf("run %d (%s): reused engine's summary differs from a fresh engine's:\n%s\nvs\n%s",
				i, p.Name, describe(got), describe(want))
		}
		if n := reused.Solver.Stats().SessionsOpened; n != int64(i+1) {
			t.Errorf("after %d runs the engine has opened %d sessions, want one per run", i+1, n)
		}
	}
}
