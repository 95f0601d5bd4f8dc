package verify

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/symbex"
)

const storeTestPipeline = `
	src :: InfiniteSource;
	cls :: Classifier(12/0800, -);
	strip :: Strip(14);
	chk :: CheckIPHeader(NOCHECKSUM);
	ttl :: DecIPTTL;
	src -> cls; cls[0] -> strip -> chk; cls[1] -> Discard;
	chk[0] -> ttl; chk[1] -> Discard; ttl[1] -> Discard;
`

// storeVerdict runs CrashFreedom + BoundedInstructions with the given
// store and returns the serialized reports plus the stats.
func storeVerdict(t *testing.T, store SummaryStore, src string) (string, Stats) {
	t.Helper()
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
	return reportsJSON(t, v, parsePipeline(t, src)), v.Stats()
}

// reportsJSON serializes v's CrashFreedom and BoundedInstructions
// reports on p.
func reportsJSON(t *testing.T, v *Verifier, p *click.Pipeline) string {
	t.Helper()
	crash, err := v.CrashFreedom(p)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := v.BoundedInstructions(p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(struct {
		Crash *CrashReport
		Bound *BoundReport
	}{crash, bound})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestDiskStoreWarmRun is the headline property: a second verifier over
// a populated store performs ZERO Step-1 engine runs and reproduces the
// cold run's reports byte for byte.
func TestDiskStoreWarmRun(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, coldStats := storeVerdict(t, store, storeTestPipeline)
	if coldStats.ElementsSummarized == 0 {
		t.Fatal("cold run should hit the engine")
	}
	if coldStats.StoreHits != 0 {
		t.Errorf("cold run reported %d store hits", coldStats.StoreHits)
	}
	warm, warmStats := storeVerdict(t, store, storeTestPipeline)
	if warmStats.ElementsSummarized != 0 {
		t.Errorf("warm run performed %d engine runs, want 0", warmStats.ElementsSummarized)
	}
	if warmStats.StoreHits != coldStats.ElementsSummarized {
		t.Errorf("warm run had %d store hits, want %d", warmStats.StoreHits, coldStats.ElementsSummarized)
	}
	if warm != cold {
		t.Errorf("warm reports differ from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	// Stats describing the summaries in use must match too (suspects,
	// segment counts — composition depends on them).
	if warmStats.SegmentsTotal != coldStats.SegmentsTotal || warmStats.Suspects != coldStats.Suspects {
		t.Errorf("summary stats differ: warm %+v vs cold %+v", warmStats, coldStats)
	}
}

// TestCacheCapsReloadFromStore: a long-lived verifier with a store
// holds at most maxCachedSummaries summaries and maxCachedCerts
// certificate tables. A resubmission whose entries the caps dropped
// reloads them from the store and returns the byte-identical verdict
// with no engine run and no SAT call: its walks replay the reloaded
// certificate.
func TestCacheCapsReloadFromStore(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
	p := parsePipeline(t, storeTestPipeline)
	submit := func() string {
		blob, err := json.Marshal(v.Batch([]BatchItem{{Name: "p", Pipeline: p}}))
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	want := submit()
	// Two new programs per filler submission: enough to overflow both caps.
	for i := 0; i < maxCachedSummaries/2+2; i++ {
		src := fmt.Sprintf("src :: InfiniteSource; src -> Paint(%d) -> Strip(%d) -> Discard;", i, 100+i)
		if vd := v.Batch([]BatchItem{{Name: "filler", Pipeline: parsePipeline(t, src)}}); vd[0].Error != "" {
			t.Fatal(vd[0].Error)
		}
		if len(v.cache) > maxCachedSummaries || len(v.certs) > maxCachedCerts {
			t.Fatalf("after %d fillers: %d summaries, %d certificate tables cached", i+1, len(v.cache), len(v.certs))
		}
	}
	evicted := 0
	for _, e := range p.Elements {
		if _, ok := v.cache[e.SummaryKey()]; !ok {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("setup: the caps dropped none of the pipeline's summaries")
	}
	before := v.Stats()
	if got := submit(); got != want {
		t.Errorf("verdict after eviction differs:\nwant: %s\ngot:  %s", want, got)
	}
	after := v.Stats()
	if after.ElementsSummarized != before.ElementsSummarized {
		t.Errorf("resubmission ran the engine %d times", after.ElementsSummarized-before.ElementsSummarized)
	}
	if after.StoreHits-before.StoreHits < evicted {
		t.Errorf("resubmission loaded %d summaries from the store, want >= %d", after.StoreHits-before.StoreHits, evicted)
	}
	if n := after.Solver.SatCalls - before.Solver.SatCalls; n != 0 {
		t.Errorf("resubmission made %d SAT calls, want 0", n)
	}
	if after.StitchesReplayed == before.StitchesReplayed {
		t.Error("resubmission replayed no stitch")
	}
}

// TestDiskStoreCorruptionFallsBack: a truncated or bit-flipped entry is
// treated as a miss — the verifier silently re-summarizes and the
// verdict is unchanged.
func TestDiskStoreCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := storeVerdict(t, store, storeTestPipeline)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("cold run persisted nothing")
	}
	// Truncate one entry, bit-flip another, delete a third (if present).
	for i, e := range ents {
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			os.WriteFile(path, data[:len(data)/2], 0o644)
		case 1:
			data[len(data)/2] ^= 0xff
			os.WriteFile(path, data, 0o644)
		default:
			os.Remove(path)
		}
	}
	warm, warmStats := storeVerdict(t, store, storeTestPipeline)
	if warm != cold {
		t.Errorf("corrupted store changed the verdict:\ncold: %s\nwarm: %s", cold, warm)
	}
	if warmStats.ElementsSummarized == 0 {
		t.Error("corrupted entries should force re-summarization")
	}
	if st := store.Stats(); st.Corrupt == 0 {
		t.Errorf("store did not report corrupt entries: %+v", st)
	}
}

// TestDiskStoreRejectsFingerprintMismatch: renaming an artifact to
// another program's key must not let it load (content addressing).
func TestDiskStoreRejectsFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := parsePipeline(t, storeTestPipeline)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
	if _, err := v.CrashFreedom(p); err != nil {
		t.Fatal(err)
	}
	// The summaries only: the directory also holds the walk's
	// certificate, and where its name sorts depends on key bytes.
	ents, err := filepath.Glob(filepath.Join(dir, "*"+summaryExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 2 {
		t.Fatalf("want at least 2 summary artifacts, got %d", len(ents))
	}
	// Swap one artifact's name for another's key.
	data, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ents[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	keyB, err := ir.ParseFingerprint(filepath.Base(ents[1])[:64])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(keyB); ok {
		t.Error("store loaded an artifact whose embedded fingerprint differs from its key")
	}
	if st := store.Stats(); st.Corrupt == 0 {
		t.Error("mismatch not counted as corrupt")
	}
}

// TestStoreKeyBindsLengthBounds is the cross-configuration soundness
// regression: the engine assumes the [MinLen,MaxLen] bounds during
// pruning without recording them in segment conditions, so a summary
// computed under one range must NEVER serve a verifier using another.
// UnsafeReader(60) is the discriminating workload: under [64,128] its
// unguarded read is always in bounds (pipeline verifies), under
// [14,48] it always crashes.
func TestStoreKeyBindsLengthBounds(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := `s :: InfiniteSource; s -> UnsafeReader(60) -> Discard;`
	long := New(Options{MinLen: 64, MaxLen: 128, Store: store})
	repLong, err := long.CrashFreedom(parsePipeline(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if !repLong.Verified {
		t.Fatal("setup: [64,128] should verify (read always in bounds)")
	}
	short := New(Options{MinLen: 14, MaxLen: 48, Store: store})
	repShort, err := short.CrashFreedom(parsePipeline(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if repShort.Verified {
		t.Fatal("summary computed under [64,128] was reused at [14,48] — unsound store key")
	}
	if short.Stats().StoreHits != 0 {
		t.Error("differently-bounded verifier hit the other configuration's artifacts")
	}
	// Same bounds DO share: a third verifier at [64,128] is all hits.
	warm := New(Options{MinLen: 64, MaxLen: 128, Store: store})
	if _, err := warm.CrashFreedom(parsePipeline(t, src)); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.ElementsSummarized != 0 || st.StoreHits == 0 {
		t.Errorf("equal configuration did not reuse artifacts: %+v", st)
	}
}

// TestMemStoreSharesAcrossVerifiers: the in-memory implementation gives
// cross-Verifier reuse within a process.
func TestMemStoreSharesAcrossVerifiers(t *testing.T) {
	store := NewMemStore()
	_, coldStats := storeVerdict(t, store, storeTestPipeline)
	_, warmStats := storeVerdict(t, store, storeTestPipeline)
	if warmStats.ElementsSummarized != 0 {
		t.Errorf("warm run over MemStore ran the engine %d times", warmStats.ElementsSummarized)
	}
	if warmStats.StoreHits != coldStats.ElementsSummarized {
		t.Errorf("store hits %d, want %d", warmStats.StoreHits, coldStats.ElementsSummarized)
	}
	if st := store.Stats(); st.Saves == 0 || st.Hits == 0 {
		t.Errorf("unexpected MemStore stats: %+v", st)
	}
}

// TestStoreRoundTripSegmentsUsable loads segments through the disk
// store directly and checks they are the interned equivalents of the
// originals.
func TestStoreRoundTripSegmentsUsable(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := parsePipeline(t, `src :: InfiniteSource; src -> c :: Counter; c -> Discard;`)
	opts := Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store}
	v := New(opts)
	var orig [][]*symbex.Segment
	for _, e := range p.Elements {
		segs, err := v.Summarize(e)
		if err != nil {
			t.Fatal(err)
		}
		orig = append(orig, segs)
	}
	for i, e := range p.Elements {
		sum, ok := store.Load(StoreKey(e.Program(), opts))
		if !ok {
			t.Fatalf("element %d not persisted", i)
		}
		if len(sum.Segments) != len(orig[i]) {
			t.Fatalf("element %d: %d segments, want %d", i, len(sum.Segments), len(orig[i]))
		}
		for j, sg := range sum.Segments {
			want := orig[i][j]
			if sg.Pkt != want.Pkt {
				t.Errorf("element %d seg %d packet array not interned to original", i, j)
			}
			if len(sg.Cond) != len(want.Cond) {
				t.Fatalf("element %d seg %d cond count", i, j)
			}
			for k := range sg.Cond {
				if sg.Cond[k] != want.Cond[k] {
					t.Errorf("element %d seg %d cond %d not interned to original", i, j, k)
				}
			}
		}
	}
}

// twoReadPipeline builds a pipeline whose single crash path depends on
// TWO state reads returning values nothing ever writes: the bad-value
// refinement discharges it — but only if the cap lets it enumerate both
// reads.
func twoReadPipeline(t *testing.T) *click.Pipeline {
	t.Helper()
	b := ir.NewBuilder("TwoReads", 1, 1)
	b.DeclareState(ir.StateDecl{Name: "st", KeyW: 32, ValW: 32, Default: 0})
	a := b.StateRead("st", b.ConstU(32, 0))
	c := b.StateRead("st", b.ConstU(32, 1))
	both := b.Bin(ir.And, b.BinC(ir.Eq, a, 1), b.BinC(ir.Eq, c, 1))
	b.Assert(b.Not(both), "both reads returned the unwritable value")
	b.Emit(0)
	prog := b.MustBuild()
	srcProg, err := elements.InfiniteSource("")
	if err != nil {
		t.Fatal(err)
	}
	p, err := click.Build([]*click.Instance{
		click.NewInstance("src", "InfiniteSource", "", srcProg),
		click.NewInstance("probe", "TwoReads", "", prog),
	}, []click.Connection{{From: 0, FromPort: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMaxRefinedReadsOption: with the default cap the two-read crash is
// discharged; with MaxRefinedReads=1 the combination search is skipped,
// the path stays suspect (sound over-approximation), and the truncation
// is reported in the new Stats counter.
func TestMaxRefinedReadsOption(t *testing.T) {
	base := New(Options{MinLen: packet.MinFrame, MaxLen: 48})
	repBase, err := base.CrashFreedom(twoReadPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	if !repBase.Verified || repBase.Discharged == 0 {
		t.Fatalf("default cap: verified=%v discharged=%d, want discharged proof", repBase.Verified, repBase.Discharged)
	}
	if got := base.Stats().RefinementTruncated; got != 0 {
		t.Errorf("default cap truncated %d paths, want 0", got)
	}

	capped := New(Options{MinLen: packet.MinFrame, MaxLen: 48, MaxRefinedReads: 1})
	repCapped, err := capped.CrashFreedom(twoReadPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	if repCapped.Verified {
		t.Error("cap=1 must leave the two-read path suspect (sound over-approximation)")
	}
	if got := capped.Stats().RefinementTruncated; got == 0 {
		t.Error("cap=1 did not report the truncated path")
	}

	// Raising the cap explicitly restores the proof.
	wide := New(Options{MinLen: packet.MinFrame, MaxLen: 48, MaxRefinedReads: 8})
	repWide, err := wide.CrashFreedom(twoReadPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	if !repWide.Verified {
		t.Error("cap=8 should discharge the two-read path")
	}
}

// TestDiskStoreTornWriteDegradesToMiss covers every torn-write shape a
// crashed writer (or the fault injector) can leave at an entry's path:
// empty file, partial magic, magic-only, header-without-payload, and a
// valid entry cut mid-checksum. Each must degrade to a miss — never a
// panic, never a summary that was not stored under the key.
func TestDiskStoreTornWriteDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := parsePipeline(t, storeTestPipeline)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
	if _, err := v.CrashFreedom(p); err != nil {
		t.Fatal(err)
	}
	key := StoreKey(p.Elements[0].Program(), Options{MinLen: packet.MinFrame, MaxLen: 48})
	path := store.Path(key)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("expected an artifact at Path(%s): %v", key, err)
	}
	torn := [][]byte{
		{},
		[]byte(diskMagic[:4]),
		[]byte(diskMagic),
		whole[:len(diskMagic)+len(key)],
		whole[:len(whole)-7],
	}
	for i, frag := range torn {
		if err := os.WriteFile(path, frag, 0o644); err != nil {
			t.Fatal(err)
		}
		if sum, ok := store.Load(key); ok || sum != nil {
			t.Fatalf("torn shape %d (%d bytes) loaded as a hit", i, len(frag))
		}
	}
	// All five shapes are rejections, not absences.
	if st := store.Stats(); st.Corrupt < int64(len(torn)) {
		t.Fatalf("torn writes not counted as corrupt: %+v", st)
	}
	// Restoring the original bytes restores the hit.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); !ok {
		t.Fatal("restored entry no longer loads")
	}
}
