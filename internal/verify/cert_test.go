package verify

import (
	"encoding/binary"
	"encoding/json"
	"maps"
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
// is a stitch or an extension of the crash-freedom induction (buggy
// pipelines keep their witness solves).
var certCorpus = []struct {
	name, src string
	noSAT     bool
}{
	{"router", ipRouterConfig, true},
	{"filter", filterConfig, true},
	{"strip-check-ttl", storeTestPipeline, true},
	{"nat", certFront + `nat :: IPRewriter(SNAT 100.64.0.1); chk[0] -> nat -> Discard;`, true},
	{"buggy-reader", certFront + `rd :: UnsafeReader(40); chk[0] -> rd -> Discard;`, false},
	{"buggy-counter", `src :: InfiniteSource; cnt :: Counter; src -> cnt -> Discard;`, false},
}

// TestCertificateColdWarmDifferential is the certificate's headline
// property (DESIGN.md §7.5): a warm Batch that replays its walks and its
// crash-freedom induction from the store's certificates returns the
// cold Batch's verdict byte for byte — witnesses included — after
// exploring exactly the same composed paths and sequences, and on the
// noSAT pipelines it never reaches the SAT core (the count gate: the
// router's warm crash walk made 19 SAT calls before certificates, the
// NAT's warm induction 8 before its extensions were recorded).
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
			if warmSt.SeqSequences != coldSt.SeqSequences || warmSt.SeqInfeasible != coldSt.SeqInfeasible {
				t.Errorf("warm induction explored %d sequences (%d infeasible extensions), cold %d (%d)",
					warmSt.SeqSequences, warmSt.SeqInfeasible, coldSt.SeqSequences, coldSt.SeqInfeasible)
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

// TestCertificateSavedOncePerSubmission: a Batch item writes its
// certificate once, after its last stage, so a cold stateful submission
// pays one write for its walks' and its induction's decisions together,
// and a warm one, which solves nothing, writes none.
func TestCertificateSavedOncePerSubmission(t *testing.T) {
	for _, tc := range certCorpus {
		p := parsePipeline(t, tc.src)
		if !pipelineHasState(p) {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			store, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for run, want := range []int64{1, 0} {
				before := store.Stats().CertSaves
				v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
				v.Batch([]BatchItem{{Name: tc.name, Pipeline: p}})
				if n := store.Stats().CertSaves - before; n != want {
					t.Errorf("run %d saved %d certificates, want %d", run, n, want)
				}
			}
		})
	}
}

// TestCertificateCorruptSequenceEntriesFallBack: the NAT's stored
// certificate, rewritten with one malformed sequence entry of each kind
// (a bad mode byte, a path outside the shape, entries out of order,
// trailing bytes), is counted corrupt and ignored; the walk and the
// induction solve again and reach the same verdict and the same counts.
func TestCertificateCorruptSequenceEntriesFallBack(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := parsePipeline(t, certCorpus[3].src)
	run := func() (string, Stats) {
		v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 1, Store: store})
		blob, err := json.Marshal(v.Batch([]BatchItem{{Name: "nat", Pipeline: p}}))
		if err != nil {
			t.Fatal(err)
		}
		return string(blob), v.Stats()
	}
	cold, coldSt := run()
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
	if _, err := v.CrashFreedom(p); err != nil {
		t.Fatal(err)
	}
	var key ir.Fingerprint
	for k := range v.certs {
		key = k
	}
	good, ok := store.LoadCertificate(key)
	if !ok || len(good.entries[seqEntry]) < 2 {
		t.Fatalf("setup: the cold run recorded no sequence entries (%v)", ok)
	}
	keys := sortedKeys(good.entries[seqEntry])
	outside := []byte(keys[0])
	binary.BigEndian.PutUint32(outside[len(outside)-4:], uint32(good.shape[binary.BigEndian.Uint32(outside[len(outside)-8:])]))
	badMode := "\x02" + keys[0][1:]
	malformed := map[string][]byte{
		"bad mode byte":        testCertShape(good, map[string]bool{badMode: true}).encode(),
		"path outside shape":   testCertShape(good, map[string]bool{string(outside): true}).encode(),
		"entries out of order": spliceSeqs(good, keys[1], keys[0]),
		"trailing bytes":       append(good.encode(), 0),
	}
	for name, data := range malformed {
		if !store.write(store.CertificatePath(key), key, data) {
			t.Fatal("write failed")
		}
		before := store.Stats().CertCorrupt
		got, st := run()
		if got != cold {
			t.Errorf("%s: verdict differs:\ncold: %s\ngot:  %s", name, cold, got)
		}
		if store.Stats().CertCorrupt != before+1 {
			t.Errorf("%s: certificate not counted corrupt", name)
		}
		if st.StitchesReplayed != coldSt.StitchesReplayed || st.SolverQueries != coldSt.SolverQueries {
			t.Errorf("%s: %d decisions replayed, %d queries solved; want the cold run's %d and %d",
				name, st.StitchesReplayed, st.SolverQueries, coldSt.StitchesReplayed, coldSt.SolverQueries)
		}
		if st.SeqSequences != coldSt.SeqSequences || st.SeqInfeasible != coldSt.SeqInfeasible {
			t.Errorf("%s: %d sequences (%d infeasible), cold %d (%d)", name,
				st.SeqSequences, st.SeqInfeasible, coldSt.SeqSequences, coldSt.SeqInfeasible)
		}
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
		if len(tbl.entries[stitchEntry]) == 0 {
			t.Error("concurrent walks recorded nothing")
		}
	}
}

// certState and certSeq build certificate keys for the codec tests: a
// composed path from (element, segment) steps, whose certPath is a
// stitch key, and a sequence key from a mode and its packets' paths.
func certState(steps ...[2]int) *composed {
	c := &composed{}
	for _, s := range steps {
		c.elems = append(c.elems, s[0])
		c.segs = append(c.segs, s[1])
	}
	return c
}

func certSeq(mode symbex.InitMode, ends ...*composed) string {
	key := []byte{byte(mode)}
	for _, e := range ends {
		key = seqKey(key, e)
	}
	return string(key)
}

// testCert is a certificate of shape [1 3] holding the given entries.
func testCert(stitches, seqs map[string]bool) *Certificate {
	c := newCertificate([]int{1, 3})
	maps.Copy(c.entries[stitchEntry], stitches)
	maps.Copy(c.entries[seqEntry], seqs)
	return c
}

// spliceSeqs encodes c with its sequence entries replaced by the given
// keys, written in the given order whatever it is, and no leaf entries:
// each key's bytes are cut from an encoding of c holding only that
// entry.
func spliceSeqs(c *Certificate, keys ...string) []byte {
	only := func(seqs map[string]bool) []byte {
		return testCertShape(c, seqs).encode()
	}
	base := only(nil)
	prefix := base[:len(base)-2] // drop the sequence and leaf counts 0
	out := append([]byte{}, prefix...)
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		one := only(map[string]bool{k: true})
		out = append(out, one[len(prefix)+1:len(one)-1]...)
	}
	return append(out, 0)
}

func testCertShape(c *Certificate, seqs map[string]bool) *Certificate {
	d := newCertificate(c.shape)
	maps.Copy(d.entries[stitchEntry], c.entries[stitchEntry])
	maps.Copy(d.entries[seqEntry], seqs)
	return d
}

// TestCertificateCodec pins the artifact's decoding contract: the
// encoding depends only on the content, and every malformation —
// truncation, a stitch, sequence or leaf path outside the recorded
// shape, a bad initial-state mode byte or leaf tag, sequence entries
// out of order or repeated, a bad decision byte, trailing bytes — is an
// error, never a panic; through the DiskStore it is a counted corrupt
// miss.
func TestCertificateCodec(t *testing.T) {
	s00, s10, s12 := certState([2]int{0, 0}), certState([2]int{0, 0}, [2]int{1, 0}), certState([2]int{0, 0}, [2]int{1, 2})
	stitches := map[string]bool{string(certPath(nil, s00)): true, string(certPath(nil, s12)): false, string(certPath(nil, s10)): true}
	seqs := map[string]bool{
		certSeq(symbex.InitDefault, s12):            true,
		certSeq(symbex.InitDefault, s12, s10):       false,
		certSeq(symbex.InitSymbolic, s10):           true,
		certSeq(symbex.InitSymbolic, s10, s00, s12): true,
	}
	a := testCert(stitches, seqs)
	pipe := twinBranchPipeline(t)
	leaves := map[string]bool{string(leafKey(nil, s12)): false, string(leafKey(pipe, s12)): true, string(leafKey(nil, s10)): true}
	maps.Copy(a.entries[leafEntry], leaves)
	enc := a.encode()
	// Decoding then re-encoding reproduces the bytes whatever order the
	// maps iterate in.
	dec, err := decodeCertificate(enc)
	if err != nil || !maps.Equal(dec.entries[stitchEntry], stitches) || !maps.Equal(dec.entries[seqEntry], seqs) ||
		!maps.Equal(dec.entries[leafEntry], leaves) {
		t.Fatalf("round trip: %v, %+v", err, dec)
	}
	if string(dec.encode()) != string(enc) {
		t.Fatal("equal certificates encode differently")
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeCertificate(enc[:n]); err == nil {
			t.Errorf("truncation to %d of %d bytes decoded", n, len(enc))
		}
	}
	early, late := certSeq(symbex.InitDefault, s12), certSeq(symbex.InitSymbolic, s10)
	if _, err := decodeCertificate(spliceSeqs(a, early, late)); err != nil {
		t.Fatalf("in-order splice: %v", err)
	}
	flipped := append([]byte{}, enc...)
	flipped[len(flipped)-1] = 7
	bad := map[string][]byte{
		"segment out of range": testCert(map[string]bool{string(certPath(nil, certState([2]int{0, 0}, [2]int{1, 3}))): true}, nil).encode(),
		"element out of range": testCert(map[string]bool{string(certPath(nil, certState([2]int{2, 0}))): true}, nil).encode(),
		"sequence path outside the shape": testCert(nil, map[string]bool{
			certSeq(symbex.InitDefault, s10, certState([2]int{0, 0}, [2]int{1, 3})): true}).encode(),
		"bad mode byte": testCert(nil, map[string]bool{certSeq(symbex.InitSymbolic+1, s10): true}).encode(),
		"leaf path outside the shape": func() []byte {
			c := testCert(nil, nil)
			c.entries[leafEntry][string(leafKey(pipe, certState([2]int{0, 0}, [2]int{1, 3})))] = true
			return c.encode()
		}(),
		"leaf tag 2": func() []byte {
			c := testCert(nil, nil)
			c.entries[leafEntry][string(certPath([]byte{2}, s10))] = true
			return c.encode()
		}(),
		"empty sequence":       testCert(nil, map[string]bool{certSeq(symbex.InitDefault): true}).encode(),
		"entries out of order": spliceSeqs(a, late, early),
		"repeated entry":       spliceSeqs(a, early, early),
		"decision byte 7":      flipped,
		"trailing bytes":       append(append([]byte{}, enc...), 0),
	}
	for name, data := range bad {
		if _, err := decodeCertificate(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}

	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := int64(0)
	for name, data := range bad {
		var key ir.Fingerprint
		key[0] = byte(corrupt + 1)
		if !store.write(store.CertificatePath(key), key, data) {
			t.Fatal("write failed")
		}
		if c, ok := store.LoadCertificate(key); ok || c != nil {
			t.Fatalf("%s: certificate loaded", name)
		}
		corrupt++
	}
	if st := store.Stats(); st.CertCorrupt != corrupt || st.Corrupt != 0 {
		t.Fatalf("malformed certificates not counted corrupt (and apart from summaries): %+v", st)
	}
	var key ir.Fingerprint
	store.SaveCertificate(key, a)
	if c, ok := store.LoadCertificate(key); !ok || !maps.Equal(c.entries[seqEntry], seqs) {
		t.Fatal("saved certificate did not load")
	}
	if n, _ := store.Len(); n != 0 {
		t.Errorf("Len counts %d summaries in a certificate-only store", n)
	}
}
