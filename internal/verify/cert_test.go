package verify

import (
	"encoding/json"
	"sync"
	"testing"

	"vsd/internal/bv"
	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/symbex"
)

const certFront = `
	src :: InfiniteSource;
	cls :: Classifier(12/0800, -);
	strip :: Strip(14);
	chk :: CheckIPHeader(NOCHECKSUM);
	src -> cls; cls[0] -> strip -> chk; cls[1] -> Discard; chk[1] -> Discard;
`

// certCorpus is the differential corpus of the certificate tests: the
// paper's router, two light pipelines, a stateful NAT, and two buggy
// twins whose verdicts carry witnesses. noSAT marks the pipelines whose
// warm Batch must not reach the SAT core at all: every obligation there
// is a stitch (stateful pipelines keep their induction queries, buggy
// ones their witness solves).
var certCorpus = []struct {
	name, src string
	noSAT     bool
}{
	{"router", ipRouterConfig, true},
	{"filter", filterConfig, true},
	{"strip-check-ttl", storeTestPipeline, true},
	{"nat", certFront + `nat :: IPRewriter(SNAT 100.64.0.1); chk[0] -> nat -> Discard;`, false},
	{"buggy-reader", certFront + `rd :: UnsafeReader(40); chk[0] -> rd -> Discard;`, false},
	{"buggy-counter", `src :: InfiniteSource; cnt :: Counter; src -> cnt -> Discard;`, false},
}

// TestCertificateColdWarmDifferential is the certificate's headline
// property (DESIGN.md §7.5): a warm Batch that replays its walks from
// the store's certificates returns the cold Batch's verdict byte for
// byte — witnesses included — after exploring exactly the same composed
// paths, and on the stitch-only pipelines it never reaches the SAT core
// (the count gate: the router's warm crash walk made 19 SAT calls
// before certificates).
func TestCertificateColdWarmDifferential(t *testing.T) {
	for _, tc := range certCorpus {
		t.Run(tc.name, func(t *testing.T) {
			store, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			p := parsePipeline(t, tc.src)
			run := func(par int) (string, Stats) {
				v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: par, Store: store})
				blob, err := json.Marshal(v.Batch([]BatchItem{{Name: tc.name, Pipeline: p}}))
				if err != nil {
					t.Fatal(err)
				}
				return string(blob), v.Stats()
			}
			cold, coldSt := run(0)
			warm, warmSt := run(0)
			if warm != cold {
				t.Errorf("warm verdict differs from cold:\ncold: %s\nwarm: %s", cold, warm)
			}
			if warmSt.ComposedPaths != coldSt.ComposedPaths || warmSt.ComposedInfeasible != coldSt.ComposedInfeasible {
				t.Errorf("warm walk explored %d paths (%d infeasible), cold %d (%d)",
					warmSt.ComposedPaths, warmSt.ComposedInfeasible, coldSt.ComposedPaths, coldSt.ComposedInfeasible)
			}
			if warmSt.ElementsSummarized != 0 {
				t.Errorf("warm run performed %d engine runs", warmSt.ElementsSummarized)
			}
			if !tc.noSAT {
				return
			}
			if warmSt.StitchesReplayed == 0 {
				t.Error("warm run replayed no stitch")
			}
			// One worker, as the count was taken: the certificate does not
			// depend on the schedule that recorded it.
			seq, seqSt := run(1)
			if seq != cold {
				t.Errorf("sequential warm verdict differs from cold:\ncold: %s\nwarm: %s", cold, seq)
			}
			if n := seqSt.Solver.SatCalls; n != 0 {
				t.Errorf("warm Batch made %d SAT calls, want 0", n)
			}
			// Replay builds nothing: no stitch substituted a formula.
			if n := seqSt.StitchesBuilt; n != 0 {
				t.Errorf("warm Batch built %d states, want 0 (cold built %d)", n, coldSt.StitchesBuilt)
			}
		})
	}
}

// TestCertificateKeyBindsLengthBounds mirrors TestStoreKeyBindsLengthBounds
// for certificates: decisions recorded under [64,128] must not answer a
// walk at [14,48], and equal bounds do share them.
func TestCertificateKeyBindsLengthBounds(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := parsePipeline(t, storeTestPipeline)
	crash := func(minLen, maxLen uint64) Stats {
		v := New(Options{MinLen: minLen, MaxLen: maxLen, Store: store})
		if _, err := v.CrashFreedom(p); err != nil {
			t.Fatal(err)
		}
		return v.Stats()
	}
	crash(64, 128)
	if store.Stats().CertSaves == 0 {
		t.Fatal("setup: the [64,128] walk saved no certificate")
	}
	before := store.Stats()
	if st := crash(14, 48); st.StitchesReplayed != 0 {
		t.Errorf("[14,48] walk replayed %d decisions recorded at [64,128]", st.StitchesReplayed)
	}
	if after := store.Stats(); after.CertHits != before.CertHits || after.CertMisses == before.CertMisses {
		t.Errorf("[14,48] certificate lookup: %+v, want a miss (before %+v)", after, before)
	}
	if st := crash(64, 128); st.StitchesReplayed == 0 {
		t.Error("equal bounds did not replay the stored certificate")
	}
}

// TestCertificateKeyBindsSummaries: one element's summary changed in a
// single segment yields another certificate key, so the walk solves.
func TestCertificateKeyBindsSummaries(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store}
	p := parsePipeline(t, storeTestPipeline)
	if _, err := New(opts).CrashFreedom(p); err != nil {
		t.Fatal(err)
	}
	var ttl *click.Instance
	for _, e := range p.Elements {
		if e.Name() == "ttl" {
			ttl = e
		}
	}
	key := StoreKey(ttl.Program(), opts)
	sum, ok := store.Load(key)
	if !ok {
		t.Fatal("ttl summary not persisted")
	}
	edited := *sum.Segments[0]
	edited.Steps++
	sum.Segments = append([]*symbex.Segment{&edited}, sum.Segments[1:]...)
	store.Save(key, sum)

	before := store.Stats()
	v := New(opts)
	if _, err := v.CrashFreedom(p); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.ElementsSummarized != 0 || st.StitchesReplayed != 0 {
		t.Errorf("edited summary: %d engine runs, %d replayed decisions; want 0 and 0", st.ElementsSummarized, st.StitchesReplayed)
	}
	if after := store.Stats(); after.CertHits != before.CertHits || after.CertMisses == before.CertMisses {
		t.Errorf("certificate lookup after a summary edit: %+v, want a miss", after)
	}
}

// twinBranchPipeline feeds an element whose two segments share their
// element-level path name and step count — they differ only in which
// side of a packet-byte test they take — so BoundedInstructions has a
// tie that only the (element, segment) order can break.
func twinBranchPipeline(t *testing.T) *click.Pipeline {
	t.Helper()
	b := ir.NewBuilder("TwinBranch", 1, 1)
	v := b.LoadPktC(20, 1)
	acc := b.Mov(b.ConstU(8, 0))
	b.If(b.BinC(ir.Ult, v, 128), func() {
		b.SetReg(acc, b.BinC(ir.Add, acc, 1))
	}, func() {
		b.SetReg(acc, b.BinC(ir.Add, acc, 2))
	})
	b.MetaStore("twin", acc)
	b.Emit(0)
	srcProg, err := elements.InfiniteSource("")
	if err != nil {
		t.Fatal(err)
	}
	sinkProg, err := elements.Discard("")
	if err != nil {
		t.Fatal(err)
	}
	p, err := click.Build([]*click.Instance{
		click.NewInstance("src", "InfiniteSource", "", srcProg),
		click.NewInstance("twin", "TwinBranch", "", b.MustBuild()),
		click.NewInstance("sink", "Discard", "", sinkProg),
	}, []click.Connection{{From: 0, FromPort: 0, To: 1}, {From: 1, FromPort: 0, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBoundTieBreaksOnSegmentPath (ROADMAP item 0, cause 1): of two
// composed paths with one name and one step count, the bound witness
// always comes from the one first in (element, segment) order, on one
// worker or two, whatever the arrival order.
func TestBoundTieBreaksOnSegmentPath(t *testing.T) {
	p := twinBranchPipeline(t)
	var want string
	for run := 0; run < 6; run++ {
		v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 1 + run%2})
		rep, err := v.BoundedInstructions(p)
		if err != nil {
			t.Fatal(err)
		}
		w := rep.Witness
		if run == 0 {
			// The tie must be real: two non-crashing twin segments of equal
			// steps, and the witness takes the lower-indexed one.
			segs, err := v.Summarize(p.Elements[1])
			if err != nil {
				t.Fatal(err)
			}
			first := -1
			for i, s := range segs {
				if s.Disposition == ir.Emitted && s.Steps == segs[len(segs)-1].Steps {
					if first < 0 {
						first = i
					}
				}
			}
			if first < 0 || first == len(segs)-1 || segs[len(segs)-1].Disposition != ir.Emitted {
				t.Fatalf("setup: no equal-step twin segments in %d segments", len(segs))
			}
			asn := expr.NewAssignment()
			asn.Arrays[symbex.PktArrayName] = w.Packet
			asn.Vars[symbex.PktLenVar] = bv.New(32, uint64(len(w.Packet)))
			for _, c := range segs[first].Cond {
				if !expr.Eval(c, asn).IsTrue() {
					t.Fatalf("witness %x (path %s) is not on segment %d, the first of the tie", w.Packet, w.Path, first)
				}
			}
			want = w.Path + "|" + string(w.Packet)
			continue
		}
		if got := w.Path + "|" + string(w.Packet); got != want {
			t.Fatalf("run %d (parallelism %d) chose another witness: %q vs %q", run, 1+run%2, got, want)
		}
	}
}

// TestCertificateConcurrentRecording records into one table from
// parallel walkers of concurrent verifications (make race runs it at
// -cpu 1,2): every report agrees with a lone verifier's, and the table
// ends up holding each decision once.
func TestCertificateConcurrentRecording(t *testing.T) {
	p := parsePipeline(t, filterConfig)
	want := reportsJSON(t, New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 1}), p)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 2, Store: NewMemStore()})
	var wg sync.WaitGroup
	got := make([]string, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = reportsJSON(t, v, p)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent verification %d differs:\nwant: %s\ngot:  %s", i, want, g)
		}
	}
	if len(v.certs) != 1 {
		t.Fatalf("%d certificate tables for one pipeline, want 1", len(v.certs))
	}
	for _, tbl := range v.certs {
		if len(tbl.entries) == 0 {
			t.Error("concurrent walks recorded nothing")
		}
	}
}

// TestCertificateCodec pins the artifact's decoding contract: the
// encoding depends only on the content, and every malformation —
// truncation, a path outside the recorded shape, a bad decision byte —
// is an error, never a panic; through the DiskStore it is a counted
// corrupt miss.
func TestCertificateCodec(t *testing.T) {
	step := func(e, s uint32) []byte { return certPath(nil, &composed{elems: []int{int(e)}, segs: []int{int(s)}}) }
	path := func(steps ...[]byte) string {
		var b []byte
		for _, s := range steps {
			b = append(b, s...)
		}
		return string(b)
	}
	a := &Certificate{shape: []int{1, 3}, entries: map[string]bool{}}
	b := &Certificate{shape: []int{1, 3}, entries: map[string]bool{}}
	paths := []string{path(step(0, 0)), path(step(0, 0), step(1, 2)), path(step(0, 0), step(1, 0))}
	for i, p := range paths {
		a.entries[p] = i%2 == 0
		b.entries[paths[len(paths)-1-i]] = (len(paths)-1-i)%2 == 0
	}
	enc := a.encode()
	if string(enc) != string(b.encode()) {
		t.Fatal("equal certificates encode differently")
	}
	dec, err := decodeCertificate(enc)
	if err != nil || len(dec.entries) != 3 || dec.entries[paths[1]] != false || dec.entries[paths[2]] != true {
		t.Fatalf("round trip: %v, %+v", err, dec)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeCertificate(enc[:n]); err == nil {
			t.Errorf("truncation to %d of %d bytes decoded", n, len(enc))
		}
	}
	bad := map[string]*Certificate{
		"segment out of range": {shape: []int{1, 3}, entries: map[string]bool{path(step(0, 0), step(1, 3)): true}},
		"element out of range": {shape: []int{1, 3}, entries: map[string]bool{path(step(2, 0)): true}},
	}
	for name, c := range bad {
		if _, err := decodeCertificate(c.encode()); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	flipped := append([]byte{}, enc...)
	flipped[len(flipped)-1] = 7
	if _, err := decodeCertificate(flipped); err == nil {
		t.Error("decision byte 7 decoded")
	}

	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var key ir.Fingerprint
	key[0] = 1
	if !store.write(store.CertificatePath(key), key, bad["segment out of range"].encode()) {
		t.Fatal("write failed")
	}
	if c, ok := store.LoadCertificate(key); ok || c != nil {
		t.Fatal("out-of-range certificate loaded")
	}
	if st := store.Stats(); st.CertCorrupt != 1 || st.Corrupt != 0 {
		t.Fatalf("out-of-range certificate not counted corrupt (and apart from summaries): %+v", st)
	}
	store.SaveCertificate(key, a)
	if c, ok := store.LoadCertificate(key); !ok || len(c.entries) != len(a.entries) {
		t.Fatal("saved certificate did not load")
	}
	if n, _ := store.Len(); n != 0 {
		t.Errorf("Len counts %d summaries in a certificate-only store", n)
	}
}
