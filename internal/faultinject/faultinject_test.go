package faultinject

import (
	"encoding/json"
	"testing"
	"time"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/packet"
	"vsd/internal/verify"
)

func parsePipeline(t *testing.T, src string) *click.Pipeline {
	t.Helper()
	p, err := click.Parse(elements.Default(), src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const safePipeline = `
	src :: InfiniteSource;
	cls :: Classifier(12/0800, -);
	strip :: Strip(14);
	chk :: CheckIPHeader(NOCHECKSUM);
	ttl :: DecIPTTL;
	src -> cls; cls[0] -> strip -> chk; cls[1] -> Discard;
	chk[0] -> ttl; chk[1] -> Discard; ttl[1] -> Discard;
`

const crashyPipeline = `
	src :: InfiniteSource; e2 :: ToyE2; sink :: Discard;
	src -> e2 -> sink;
`

func TestSeedDeterminism(t *testing.T) {
	a := New(42, Rates{})
	b := New(42, Rates{})
	for i := 0; i < 4096; i++ {
		if a.next() != b.next() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
	c := New(43, Rates{})
	same := 0
	for i := 0; i < 64; i++ {
		if a.next() == c.next() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestSolverBudgetQuiesces pins the convergence lever: a budgeted
// injector stops firing solver faults once the budget is spent, so a
// retrying service is guaranteed a clean attempt eventually.
func TestSolverBudgetQuiesces(t *testing.T) {
	in := New(5, Rates{SolverUnknown: 1})
	in.SolverBudget = 3
	hook := in.SolverHook()
	fired := 0
	for i := 0; i < 100; i++ {
		if hook() != 0 { // smt.NoFault
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("budgeted injector fired %d solver faults, want exactly 3", fired)
	}
	if st := in.Stats(); st.SolverUnknowns != 3 {
		t.Fatalf("stats counted %d, want 3", st.SolverUnknowns)
	}
}

// runBatch runs a one-item-per-pipeline admission batch over the given
// store with the injector's solver hook attached, single-threaded.
func runBatch(t *testing.T, store verify.SummaryStore, in *Injector, srcs ...string) (*verify.Verifier, []verify.BatchVerdict) {
	t.Helper()
	opts := verify.Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 1, Store: store}
	if in != nil {
		opts.SolverFaultHook = in.SolverHook()
	}
	v := verify.New(opts)
	items := make([]verify.BatchItem, len(srcs))
	for i, src := range srcs {
		items[i] = verify.BatchItem{Name: string(rune('a' + i)), Pipeline: parsePipeline(t, src)}
	}
	return v, v.Batch(items)
}

func TestWriteFailDropsArtifacts(t *testing.T) {
	disk, err := verify.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := New(1, Rates{WriteFail: 1})
	_, verdicts := runBatch(t, WrapStore(in, disk), nil, safePipeline)
	if !verdicts[0].Certified {
		t.Fatalf("ENOSPC on saves must not affect the verdict: %+v", verdicts[0])
	}
	n, err := disk.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("WriteFail=1 persisted %d artifacts, want 0", n)
	}
	if st := in.Stats(); st.WriteFailures == 0 {
		t.Fatalf("write failures not counted: %+v", st)
	}
}

// TestCorruptionFaultsDegradeToMiss drives each disk-corruption mode at
// rate 1 through a cold-then-warm run: the warm run must re-summarize
// (misses, not wrong hits), reproduce the clean verdict byte for byte,
// and the store's corrupt counter must match the injected fault count.
func TestCorruptionFaultsDegradeToMiss(t *testing.T) {
	for _, tc := range []struct {
		name string
		cold Rates // faults applied while populating the store
		warm Rates // faults applied while reading it back
	}{
		{"torn-write", Rates{TornWrite: 1}, Rates{}},
		{"bit-flip", Rates{BitFlip: 1}, Rates{}},
		{"stale-artifact", Rates{}, Rates{Stale: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cleanDisk, err := verify.NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			_, clean := runBatch(t, cleanDisk, nil, safePipeline)

			disk, err := verify.NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			coldIn := New(7, tc.cold)
			_, cold := runBatch(t, WrapStore(coldIn, disk), nil, safePipeline)
			warmIn := New(7, tc.warm)
			warmV, warm := runBatch(t, WrapStore(warmIn, disk), nil, safePipeline)

			for i, got := range [][]verify.BatchVerdict{cold, warm} {
				a, _ := json.Marshal(clean[0])
				b, _ := json.Marshal(got[0])
				if string(a) != string(b) {
					t.Fatalf("run %d verdict drifted under %s:\nclean: %s\nfaulty: %s", i, tc.name, a, b)
				}
			}
			// The warm run may not consume poisoned artifacts as hits: every
			// injected corruption must be a rejection plus a re-summarize.
			st := warmV.Stats()
			if st.ElementsSummarized == 0 {
				t.Fatalf("%s: warm run did not re-summarize: %+v", tc.name, st)
			}
			injected := coldIn.Stats().Total() + warmIn.Stats().Total()
			if injected == 0 {
				t.Fatalf("%s: no faults injected", tc.name)
			}
			if disk.Stats().Corrupt == 0 {
				t.Fatalf("%s: store accepted corrupted artifacts: %+v", tc.name, disk.Stats())
			}
		})
	}
}

// TestStaleCountersMatchInjected pins the exact counter relationship on
// the stale path: a fully populated store read back under Stale=1 must
// reject exactly one artifact — summary or certificate — per injected
// stale fault, and the certificate must be among them.
func TestStaleCountersMatchInjected(t *testing.T) {
	disk, err := verify.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, verdicts := runBatch(t, disk, nil, safePipeline); !verdicts[0].Certified {
		t.Fatal("population run must certify")
	}
	before := disk.Stats()
	in := New(99, Rates{Stale: 1})
	runBatch(t, WrapStore(in, disk), nil, safePipeline)
	injected := in.Stats().StaleArtifacts
	if injected == 0 {
		t.Fatal("no stale faults injected")
	}
	after := disk.Stats()
	got := after.Corrupt - before.Corrupt + after.CertCorrupt - before.CertCorrupt
	if got != injected {
		t.Fatalf("store rejected %d artifacts for %d injected stale faults", got, injected)
	}
	if after.CertCorrupt == before.CertCorrupt {
		t.Fatalf("no certificate was re-keyed and rejected: %+v", after)
	}
}

// TestCertificateFaultLadder drives every store fault kind through a
// cold-then-warm pair of runs and checks what each does to the Step-2
// certificate (DESIGN.md §9): a corrupted certificate is rejected and
// counted, a dropped one is a plain miss, and either way the warm run
// re-solves its walk (saving a fresh certificate) and returns the clean
// verdict byte for byte. A slow read only delays a replay.
func TestCertificateFaultLadder(t *testing.T) {
	cleanDisk, err := verify.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, clean := runBatch(t, cleanDisk, nil, safePipeline)
	want, _ := json.Marshal(clean[0])
	for _, tc := range []struct {
		name       string
		cold, warm Rates
		rejected   bool // the warm run must reject corrupted artifacts
		resolved   bool // the warm run must re-solve its walk
	}{
		{"torn-write", Rates{TornWrite: 1}, Rates{}, true, true},
		{"bit-flip", Rates{BitFlip: 1}, Rates{}, true, true},
		{"stale-artifact", Rates{}, Rates{Stale: 1}, true, true},
		{"enospc", Rates{WriteFail: 1}, Rates{}, false, true},
		{"slow-read", Rates{}, Rates{SlowRead: 1}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk, err := verify.NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			coldIn, warmIn := New(7, tc.cold), New(7, tc.warm)
			warmIn.SlowReadDelay = time.Millisecond
			_, cold := runBatch(t, WrapStore(coldIn, disk), nil, safePipeline)
			before := disk.Stats()
			warmV, warm := runBatch(t, WrapStore(warmIn, disk), nil, safePipeline)
			after := disk.Stats()
			for i, got := range [][]verify.BatchVerdict{cold, warm} {
				if b, _ := json.Marshal(got[0]); string(b) != string(want) {
					t.Fatalf("run %d verdict drifted:\nclean:  %s\nfaulty: %s", i, want, b)
				}
			}
			injected := coldIn.Stats().Total() + warmIn.Stats().Total()
			if injected == 0 {
				t.Fatal("no faults injected")
			}
			rejected := after.Corrupt - before.Corrupt + after.CertCorrupt - before.CertCorrupt
			if tc.rejected {
				if after.CertCorrupt == before.CertCorrupt {
					t.Errorf("corrupted certificate not rejected: %+v", after)
				}
				if rejected != injected {
					t.Errorf("warm run rejected %d artifacts for %d injected faults", rejected, injected)
				}
			} else if rejected != 0 {
				t.Errorf("warm run rejected %d artifacts with no corruption injected", rejected)
			}
			resaved := after.CertSaves > before.CertSaves
			if resaved != tc.resolved {
				t.Errorf("warm run saved a certificate: %v, want %v (a re-solved walk saves one)", resaved, tc.resolved)
			}
			if !tc.resolved && warmV.Stats().StitchesReplayed == 0 {
				t.Errorf("warm run replayed nothing from an intact certificate")
			}
		})
	}
}

// TestDegradationLadderEndToEnd is the headline chaos property: a
// mixed-fault run over a mixed corpus crashes nothing, reports every
// injected solver panic as a contained panic, never certifies a
// submission with unresolved obligations, and every submission it DOES
// certify carries a verdict byte-identical to the clean run's.
func TestDegradationLadderEndToEnd(t *testing.T) {
	cleanDisk, err := verify.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, clean := runBatch(t, cleanDisk, nil, safePipeline, crashyPipeline)
	cleanByName := map[string]string{}
	for _, verdict := range clean {
		blob, _ := json.Marshal(verdict)
		cleanByName[verdict.Name] = string(blob)
	}

	disk, err := verify.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := New(0xc0ffee, Rates{
		SolverPanic:   0.05,
		SolverUnknown: 0.05,
		TornWrite:     0.5,
		Stale:         0.25,
	})
	v, faulty := runBatch(t, WrapStore(in, disk), in, safePipeline, crashyPipeline)

	ist := in.Stats()
	if ist.Total() == 0 {
		t.Fatal("chaos run injected nothing; raise the rates or change the seed")
	}
	vst := v.Stats()
	if vst.PanicsRecovered != int(ist.SolverPanics) {
		t.Fatalf("recovered %d panics for %d injected", vst.PanicsRecovered, ist.SolverPanics)
	}
	for _, verdict := range faulty {
		if verdict.Unresolved > 0 && verdict.Certified {
			t.Fatalf("%s: certified with %d unresolved obligations", verdict.Name, verdict.Unresolved)
		}
		if verdict.Certified {
			blob, _ := json.Marshal(verdict)
			if string(blob) != cleanByName[verdict.Name] {
				t.Fatalf("%s: certified verdict drifted under faults:\nclean: %s\nfaulty: %s",
					verdict.Name, cleanByName[verdict.Name], blob)
			}
		}
		// Degradation may withhold certification, never invent it: a
		// submission the clean run rejected stays rejected.
		var cleanVerdict verify.BatchVerdict
		json.Unmarshal([]byte(cleanByName[verdict.Name]), &cleanVerdict)
		if verdict.Certified && !cleanVerdict.Certified {
			t.Fatalf("%s: faults manufactured a certification", verdict.Name)
		}
	}
}
