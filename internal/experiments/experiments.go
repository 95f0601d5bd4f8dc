// Package experiments regenerates every result of the paper's
// evaluation ("Preliminary Results", the two figures, and the §3
// path-count analysis) as structured rows. The root bench_test.go and
// cmd/vsdbench both drive these functions; EXPERIMENTS.md records the
// measured outcomes against the paper's.
package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"vsd/internal/click"
	"vsd/internal/dataplane"
	"vsd/internal/elements"
	"vsd/internal/faultinject"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/smt"
	"vsd/internal/specs"
	"vsd/internal/symbex"
	"vsd/internal/telemetry"
	"vsd/internal/verify"
	"vsd/internal/workload"
)

// Package-level telemetry, threaded into every verifier the experiment
// drivers construct. The experiments build their verify.Options
// internally (each cell wants a fresh verifier), so callers that want
// traces or metrics install them once here instead of plumbing them
// through every experiment signature.
var (
	telTrace   *telemetry.Tracer
	telMetrics *telemetry.Registry
)

// SetTelemetry installs a tracer and/or metrics registry (either may be
// nil) applied to every verifier subsequently constructed by the
// experiment drivers. Not safe to call concurrently with a running
// experiment.
func SetTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	telTrace, telMetrics = tr, reg
}

// telOpts applies the installed telemetry to one options value.
func telOpts(o verify.Options) verify.Options {
	o.Trace, o.Metrics = telTrace, telMetrics
	return o
}

// IPRouterConfig is the evaluation pipeline: the default Click IP-router
// element set of the paper, in our Click dialect. The checksum option is
// a knob because header checksumming is the single most expensive
// constraint for the solver.
func IPRouterConfig(checksum bool) string {
	chk := "CheckIPHeader(NOCHECKSUM)"
	if checksum {
		chk = "CheckIPHeader"
	}
	return fmt.Sprintf(`
		src :: InfiniteSource;
		cls :: Classifier(12/0800, -);
		strip :: Strip(14);
		chk :: %s;
		opt :: IPOptions;
		rt :: LookupIPRoute(10.0.0.0/8 0, 192.168.0.0/16 1, 0.0.0.0/0 2);
		ttl :: DecIPTTL;
		encap :: EtherEncap(0800, 02:00:00:00:00:01, 02:00:00:00:00:02);
		bad :: Discard;

		src -> cls;
		cls [0] -> strip -> chk;
		cls [1] -> Discard;
		chk [0] -> opt;
		chk [1] -> bad;
		opt [0] -> rt;
		opt [1] -> bad;
		rt [0] -> ttl;
		rt [1] -> ttl;
		rt [2] -> ttl;
		ttl [0] -> encap;
		ttl [1] -> Discard;
	`, chk)
}

// MustParse parses a configuration with the default registry.
func MustParse(src string) *click.Pipeline {
	p, err := click.Parse(elements.Default(), src)
	if err != nil {
		panic(err)
	}
	return p
}

// E1Row is one pipeline's crash-freedom verification result.
type E1Row struct {
	Pipeline  string
	Verified  bool
	Suspects  int
	Composed  int
	Infeasib  int
	Duration  time.Duration
	MaxLength uint64
	// Solver carries the solver-side counters for the row, including the
	// incremental-session metrics (assumption solves, reused clauses).
	Solver smt.Stats
	// SolveTimes summarizes the per-query solve-time distribution
	// (count, min/max, p50/p95/p99 in nanoseconds) — the BENCH tail-
	// regression signal a single wall-time number hides.
	SolveTimes telemetry.HistSummary
}

// E1CrashFreedom verifies crash freedom for pipelines assembled from the
// IP-router element set, reproducing "any pipeline that consists of
// these elements will not crash for any input". Prefixes of the full
// pipeline stand in for "pipelines that combine elements". keep, when
// non-nil, selects which pipeline cells run (by cell name, e.g.
// "full-router") — the vsdbench -bench filter, so one cell can be
// re-measured without paying for the whole table.
func E1CrashFreedom(maxLen uint64, parallelism int, keep func(cell string) bool) ([]E1Row, error) {
	configs := []struct{ name, src string }{
		{"classifier-only", `
			src :: InfiniteSource;
			cls :: Classifier(12/0800, -);
			src -> cls; cls[1] -> Discard;`},
		{"strip+check", `
			src :: InfiniteSource;
			src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
			chk[1] -> Discard;`},
		{"check+ttl", `
			src :: InfiniteSource;
			src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
			chk[0] -> ttl :: DecIPTTL; chk[1] -> Discard;
			ttl[1] -> Discard;`},
		{"check+options", `
			src :: InfiniteSource;
			src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
			chk[0] -> opt :: IPOptions; chk[1] -> Discard;
			opt[1] -> Discard;`},
		{"check+route+encap", `
			src :: InfiniteSource;
			src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
			chk[0] -> rt :: LookupIPRoute(10.0.0.0/8 0, 0.0.0.0/0 1); chk[1] -> Discard;
			rt[0] -> e :: EtherEncap(0800, 02:00:00:00:00:01, 02:00:00:00:00:02);
			rt[1] -> e;`},
		{"full-router", IPRouterConfig(false)},
	}
	var rows []E1Row
	for _, c := range configs {
		if keep != nil && !keep(c.name) {
			continue
		}
		p := MustParse(c.src)
		v := verify.New(telOpts(verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: parallelism}))
		start := time.Now()
		rep, err := v.CrashFreedom(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		st := v.Stats()
		rows = append(rows, E1Row{
			Pipeline:   c.name,
			Verified:   rep.Verified,
			Suspects:   st.Suspects,
			Composed:   st.ComposedPaths,
			Infeasib:   st.ComposedInfeasible,
			Duration:   time.Since(start),
			MaxLength:  maxLen,
			Solver:     st.Solver,
			SolveTimes: st.SolveTimes,
		})
	}
	return rows, nil
}

// F1Row is one functional-spec verification outcome (DESIGN.md §6).
type F1Row struct {
	Spec        string
	Pipeline    string
	Verified    bool
	Expected    bool // the verdict the scenario is designed to produce
	Obligations int  // postconditions that reached the solver
	Proved      int  // obligations discharged as valid
	Trivial     int  // postconditions that folded to true syntactically
	Witnesses   int
	Duration    time.Duration
	Solver      smt.Stats
	SolveTimes  telemetry.HistSummary
}

// funcRouterConfig is the IP-router pipeline without IPOptions (the
// options loop dominates solver time and is exercised by E1/A2; the
// functional specs constrain the TTL/checksum/routing elements).
func funcRouterConfig(ttlClass string) string {
	return fmt.Sprintf(`
		src :: InfiniteSource;
		cls :: Classifier(12/0800, -);
		strip :: Strip(14);
		chk :: CheckIPHeader(NOCHECKSUM);
		rt :: LookupIPRoute(10.0.0.0/8 0, 192.168.0.0/16 1, 0.0.0.0/0 2);
		ttl :: %s;
		encap :: EtherEncap(0800, 02:00:00:00:00:01, 02:00:00:00:00:02);

		src -> cls;
		cls [0] -> strip -> chk;
		cls [1] -> Discard;
		chk [0] -> rt;
		chk [1] -> Discard;
		rt [0] -> ttl;
		rt [1] -> ttl;
		rt [2] -> ttl;
		ttl [0] -> encap;
		ttl [1] -> Discard;
	`, ttlClass)
}

// filterRules is the rule set shared by the filter pipeline and its spec.
const filterRules = `allow proto udp dport 53, deny dst 10.0.0.0/8, allow proto tcp`

// F1FunctionalSpecs verifies the functional-property library over the
// example pipelines: one row per spec family, plus the
// deliberately-broken BuggyDecIPTTL scenario whose TTL spec must FAIL
// with a concrete input/output witness. Expected records each
// scenario's designed verdict; a mismatch is returned as an error so
// regressions fail the bench harness loudly, not just a footnote.
func F1FunctionalSpecs(maxLen uint64, parallelism int) ([]F1Row, error) {
	filterPipeline := `
		src :: InfiniteSource;
		cls :: Classifier(12/0800, -);
		strip :: Strip(14);
		chk :: CheckIPHeader(NOCHECKSUM);
		flt :: IPFilter(` + filterRules + `);

		src -> cls;
		cls [0] -> strip -> chk;
		cls [1] -> Discard;
		chk [0] -> flt;
		chk [1] -> Discard;
	`
	natPipeline := `
		src :: InfiniteSource;
		cls :: Classifier(12/0800, -);
		strip :: Strip(14);
		chk :: CheckIPHeader(NOCHECKSUM);
		nat :: IPRewriter(SNAT 100.64.0.1);
		encap :: EtherEncap(0800, 02:00:00:00:00:01, 02:00:00:00:00:02);

		src -> cls;
		cls [0] -> strip -> chk;
		cls [1] -> Discard;
		chk [0] -> nat -> encap;
		chk [1] -> Discard;
	`
	dropIff, err := specs.DropIffFilter(filterRules, 14, "flt")
	if err != nil {
		return nil, err
	}
	natSpec, err := specs.NATRewrite("SNAT 100.64.0.1", 14, "nat")
	if err != nil {
		return nil, err
	}
	cases := []struct {
		pipeline string
		src      string
		spec     verify.FuncSpec
		expected bool
	}{
		{"router", funcRouterConfig("DecIPTTL"), specs.TTLDecrement(14, "encap"), true},
		{"router", funcRouterConfig("DecIPTTL"), specs.ChecksumPatched(14, "encap"), true},
		{"router", funcRouterConfig("DecIPTTL"), specs.StripRoundTrip(26, maxLen, "encap"), true},
		{"filter", filterPipeline, dropIff, true},
		{"nat", natPipeline, natSpec, true},
		{"buggy-router", funcRouterConfig("BuggyDecIPTTL"), specs.TTLDecrement(14, "encap"), false},
		{"buggy-router", funcRouterConfig("BuggyDecIPTTL"), specs.ChecksumPatched(14, "encap"), true},
	}
	var rows []F1Row
	for _, c := range cases {
		p := MustParse(c.src)
		v := verify.New(telOpts(verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: parallelism}))
		start := time.Now()
		rep, err := v.VerifyFunc(p, c.spec)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c.spec.Name, c.pipeline, err)
		}
		if rep.Verified != c.expected {
			return nil, fmt.Errorf("%s/%s: verified=%v, designed verdict %v",
				c.spec.Name, c.pipeline, rep.Verified, c.expected)
		}
		rows = append(rows, F1Row{
			Spec:        rep.Spec,
			Pipeline:    c.pipeline,
			Verified:    rep.Verified,
			Expected:    c.expected,
			Obligations: rep.Obligations,
			Proved:      rep.Proved,
			Trivial:     rep.Trivial,
			Witnesses:   len(rep.Witnesses),
			Duration:    time.Since(start),
			Solver:      v.Stats().Solver,
			SolveTimes:  v.Stats().SolveTimes,
		})
	}
	return rows, nil
}

// E2Result is the instruction-bound experiment outcome.
type E2Result struct {
	MaxSteps     int64
	StaticBound  int64
	WitnessLen   int
	WitnessSteps int64 // concrete statements executed by the witness
	Exact        bool
	Duration     time.Duration
}

// E2InstructionBound reproduces "the longest pipeline executes up to
// about 3600 instructions per packet, and we also identified the packet
// that yields this maximum result".
func E2InstructionBound(maxLen uint64, parallelism int) (*E2Result, error) {
	p := MustParse(IPRouterConfig(false))
	v := verify.New(telOpts(verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: parallelism}))
	start := time.Now()
	rep, err := v.BoundedInstructions(p)
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	inlined, err := click.Inline(p)
	if err != nil {
		return nil, err
	}
	res := &E2Result{
		MaxSteps:    rep.MaxSteps,
		StaticBound: inlined.MaxStmts(),
		WitnessLen:  len(rep.Witness.Packet),
		Exact:       !v.Stats().SymbexStats.Merged,
		Duration:    dur,
	}
	// Replay the witness concretely — on both execution tiers, which
	// must agree on the exact statement count (the bound is quoted per
	// packet regardless of how the operator runs the pipeline).
	if rep.Witness.Packet != nil {
		runner := dataplane.NewRunner(p)
		out := runner.Process(packet.NewBuffer(append([]byte{}, rep.Witness.Packet...)))
		res.WitnessSteps = out.Steps
		comp, err := dataplane.NewCompiled(p)
		if err != nil {
			return nil, err
		}
		cout := comp.Process(packet.NewBuffer(append([]byte{}, rep.Witness.Packet...)))
		if cout.Steps != out.Steps || cout.Disposition != out.Disposition {
			return nil, fmt.Errorf("e2: witness replay diverged across tiers: interpreter (%s, %d steps), compiled (%s, %d steps)",
				out.Disposition, out.Steps, cout.Disposition, cout.Steps)
		}
	}
	return res, nil
}

// E3Row compares compositional verification against the monolithic
// baseline for one pipeline length.
type E3Row struct {
	Elements     int
	ComposedTime time.Duration
	ComposedOK   bool
	MonoTime     time.Duration
	MonoPaths    int
	MonoDone     bool
	Speedup      float64
	// Solver carries the compositional side's solver counters.
	Solver smt.Stats
}

// E3ComposedVsMonolithic sweeps chains of synthetic n-branch elements,
// reproducing the shape of "our verification time was about 18 minutes;
// [the monolithic baseline] did not complete within 12 hours": the
// compositional time grows roughly linearly in pipeline length while
// the baseline grows exponentially and hits its budget.
func E3ComposedVsMonolithic(branches, maxElems int, monoBudget int, parallelism int) ([]E3Row, error) {
	var rows []E3Row
	for k := 1; k <= maxElems; k++ {
		pipe, err := syntheticChain(k, branches)
		if err != nil {
			return nil, err
		}
		v := verify.New(telOpts(verify.Options{MinLen: 14, MaxLen: 64, Parallelism: parallelism}))
		start := time.Now()
		rep, err := v.CrashFreedom(pipe)
		if err != nil {
			return nil, err
		}
		composedTime := time.Since(start)

		start = time.Now()
		mono, err := verify.Monolithic(pipe, verify.Options{MinLen: 14, MaxLen: 64}, monoBudget)
		if err != nil {
			return nil, err
		}
		monoTime := time.Since(start)
		row := E3Row{
			Elements:     k,
			ComposedTime: composedTime,
			ComposedOK:   rep.Verified,
			MonoTime:     monoTime,
			MonoPaths:    mono.Paths,
			MonoDone:     mono.Completed,
			Solver:       v.Stats().Solver,
		}
		if composedTime > 0 {
			row.Speedup = float64(monoTime) / float64(composedTime)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// syntheticChain builds a chain of k elements, each with `branches`
// data-dependent branches on its own packet byte — the k·2^n vs 2^(k·n)
// setup of the paper's §3 analysis.
func syntheticChain(k, branches int) (*click.Pipeline, error) {
	var insts []*click.Instance
	var conns []click.Connection
	srcProg, err := elements.InfiniteSource("")
	if err != nil {
		return nil, err
	}
	insts = append(insts, click.NewInstance("src", "InfiniteSource", "", srcProg))
	for i := 0; i < k; i++ {
		prog := branchyElement(fmt.Sprintf("B%d", i), i, branches)
		insts = append(insts, click.NewInstance(fmt.Sprintf("b%d", i), "Branchy", fmt.Sprintf("%d/%d", i, branches), prog))
		conns = append(conns, click.Connection{From: i, FromPort: 0, To: i + 1})
	}
	return click.Build(insts, conns)
}

// branchyElement reads packet byte `pos` and accumulates `branches`
// independent comparisons, yielding 2^branches feasible paths in
// isolation.
func branchyElement(name string, pos, branches int) *ir.Program {
	b := ir.NewBuilder(name, 1, 1)
	v := b.LoadPktC(uint64(pos), 1)
	acc := b.Mov(b.ConstU(8, 0))
	for j := 0; j < branches; j++ {
		cmp := b.BinC(ir.Ult, v, uint64((j+1)*(256/(branches+1))))
		b.If(cmp, func() {
			b.SetReg(acc, b.BinC(ir.Add, acc, 1))
		}, nil)
	}
	b.MetaStore("acc"+name, acc)
	b.Emit(0)
	return b.MustBuild()
}

// CorpusEntry is one submission of the built-in admission corpus.
type CorpusEntry struct {
	Name string
	Src  string
}

// Corpus returns the example admission corpus: the same four pipelines
// as examples/corpus/*.click (kept in sync by TestCorpusMatchesFiles in
// the root package). It is the workload of the B1 experiment and the
// CI warm-store check.
func Corpus() []CorpusEntry {
	return []CorpusEntry{
		{"router.click", IPRouterConfig(false)},
		{"filter.click", `
			src :: InfiniteSource;
			cls :: Classifier(12/0800, -);
			strip :: Strip(14);
			chk :: CheckIPHeader(NOCHECKSUM);
			flt :: IPFilter(` + filterRules + `);

			src -> cls;
			cls [0] -> strip -> chk;
			cls [1] -> Discard;
			chk [0] -> flt;
			chk [1] -> Discard;
		`},
		{"nat.click", `
			src :: InfiniteSource;
			cls :: Classifier(12/0800, -);
			strip :: Strip(14);
			chk :: CheckIPHeader(NOCHECKSUM);
			nat :: IPRewriter(SNAT 100.64.0.1);
			encap :: EtherEncap(0800, 02:00:00:00:00:01, 02:00:00:00:00:02);

			src -> cls;
			cls [0] -> strip -> chk;
			cls [1] -> Discard;
			chk [0] -> nat -> encap;
			chk [1] -> Discard;
		`},
		{"probe.click", `
			src :: InfiniteSource;
			cls :: Classifier(12/0800, -);
			strip :: Strip(14);
			chk :: CheckIPHeader(NOCHECKSUM);
			probe :: FixedReader(60);
			rt :: LookupIPRoute(10.0.0.0/8 0, 0.0.0.0/0 1);

			src -> cls;
			cls [0] -> strip -> chk;
			cls [1] -> Discard;
			chk [0] -> probe -> rt;
			chk [1] -> Discard;
			rt [1] -> Discard;
		`},
	}
}

// certDelta is the certificate traffic between two store snapshots.
func certDelta(before, after verify.StoreStats) verify.StoreStats {
	return verify.StoreStats{
		CertHits:    after.CertHits - before.CertHits,
		CertMisses:  after.CertMisses - before.CertMisses,
		CertCorrupt: after.CertCorrupt - before.CertCorrupt,
		CertSaves:   after.CertSaves - before.CertSaves,
	}
}

// B1Row is one batch-admission pass over the example corpus.
type B1Row struct {
	Run         string // "cold" (empty store) or "warm" (store populated by cold)
	Pipelines   int
	Certified   int
	EngineRuns  int   // Step-1 symbolic-engine runs
	Step1Checks int64 // their solver checks
	StoreHits   int
	StoreMisses int
	CacheHits   int // in-memory summary cache hits
	StoreFiles  int // artifacts on disk after the pass
	// StitchesReplayed counts Step-2 stitch decisions replayed from
	// certificates, StitchesBuilt the composed states whose formulas
	// were substituted, TableRefinements the path ends the concrete
	// static tables ruled out; Certs is the pass's certificate traffic.
	StitchesReplayed int64
	StitchesBuilt    int64
	TableRefinements int64
	Certs            verify.StoreStats
	Duration         time.Duration
	Solver           smt.Stats
}

// B1BatchStore measures the summary store end to end (DESIGN.md §7):
// the example corpus is batch-verified twice against one on-disk store
// directory — first cold (every summary computed by the symbolic
// engine and persisted), then warm in a fresh Verifier (every summary
// loaded). The warm pass must perform zero engine runs and produce
// byte-identical verdicts, enforced here so the bench harness fails
// loudly on a store regression; the CI job store-roundtrip asserts the
// same property through the vsdverify -batch CLI.
func B1BatchStore(maxLen uint64, parallelism int, storeDir string) ([]B1Row, error) {
	if storeDir == "" {
		dir, err := os.MkdirTemp("", "vsd-store-b1-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		storeDir = dir
	}
	store, err := verify.NewDiskStore(storeDir)
	if err != nil {
		return nil, err
	}
	var items []verify.BatchItem
	for _, c := range Corpus() {
		items = append(items, verify.BatchItem{Name: c.Name, Pipeline: MustParse(c.Src)})
	}
	var rows []B1Row
	var coldVerdicts []verify.BatchVerdict
	for _, run := range []string{"cold", "warm"} {
		before := store.Stats()
		verdicts, st, dur := verify.Batch(items, telOpts(verify.Options{
			MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: parallelism, Store: store,
		}))
		certified := 0
		for _, vd := range verdicts {
			if vd.Error != "" {
				return nil, fmt.Errorf("b1 %s: %s: %s", run, vd.Name, vd.Error)
			}
			if vd.Certified {
				certified++
			}
		}
		files, err := store.Len()
		if err != nil {
			return nil, err
		}
		rows = append(rows, B1Row{
			Run:         run,
			Pipelines:   len(items),
			Certified:   certified,
			EngineRuns:  st.ElementsSummarized,
			Step1Checks: st.SymbexStats.SolverChecks,
			StoreHits:   st.StoreHits,
			StoreMisses: st.StoreMisses,
			CacheHits:   st.SummaryCacheHits,
			StoreFiles:  files,
			Duration:    dur,
			Solver:      st.Solver,

			StitchesReplayed: st.StitchesReplayed,
			StitchesBuilt:    st.StitchesBuilt,
			TableRefinements: st.TableRefinements,
			Certs:            certDelta(before, store.Stats()),
		})
		if run == "cold" {
			coldVerdicts = verdicts
		} else {
			if st.ElementsSummarized != 0 {
				return nil, fmt.Errorf("b1: warm run performed %d Step-1 engine runs, want 0", st.ElementsSummarized)
			}
			cold, _ := json.Marshal(coldVerdicts)
			warm, _ := json.Marshal(verdicts)
			if string(cold) != string(warm) {
				return nil, fmt.Errorf("b1: warm verdicts differ from cold:\ncold: %s\nwarm: %s", cold, warm)
			}
		}
	}
	return rows, nil
}

// A1Row reports explored work for the path-scaling analysis.
type A1Row struct {
	Elements      int
	Branches      int
	ComposedSegs  int   // total Step-1 segments (≈ k · 2^n)
	ComposedPaths int   // Step-2 stitched paths
	MonoPaths     int   // monolithic feasible paths (≈ 2^(k·n))
	MonoSteps     int64 // monolithic symbolically executed statements
}

// A1PathScaling measures the §3 claim directly: composed work ≈ k·2^n,
// monolithic work ≈ 2^(k·n).
func A1PathScaling(branches, maxElems int, parallelism int) ([]A1Row, error) {
	var rows []A1Row
	for k := 1; k <= maxElems; k++ {
		pipe, err := syntheticChain(k, branches)
		if err != nil {
			return nil, err
		}
		v := verify.New(telOpts(verify.Options{MinLen: 14, MaxLen: 64, Parallelism: parallelism}))
		if _, err := v.CrashFreedom(pipe); err != nil {
			return nil, err
		}
		// Crash freedom alone may skip Step 2 (no suspects), so force a
		// full walk via the bound property.
		if _, err := v.BoundedInstructions(pipe); err != nil {
			return nil, err
		}
		st := v.Stats()
		mono, err := verify.Monolithic(pipe, verify.Options{MinLen: 14, MaxLen: 64}, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, A1Row{
			Elements:      k,
			Branches:      branches,
			ComposedSegs:  st.SegmentsTotal,
			ComposedPaths: st.ComposedPaths,
			MonoPaths:     mono.Paths,
			MonoSteps:     mono.SymbexStats.StepsSymbex,
		})
	}
	return rows, nil
}

// A2Row compares loop strategies on the IP options element.
type A2Row struct {
	Mode     string
	MaxLen   uint64
	Segments int
	Steps    int64
	Checks   int64
	Duration time.Duration
	Aborted  bool
}

// A2LoopDecomposition reproduces the loop story: unrolling explodes
// ("millions of segments ... months"), mini-element summarization with
// merging stays flat. keep, when non-nil, selects which cells run (by
// cell name, e.g. "unroll/maxlen=48").
func A2LoopDecomposition(maxLens []uint64, unrollBudget int, keep func(cell string) bool) ([]A2Row, error) {
	prog, err := elements.IPOptions("")
	if err != nil {
		return nil, err
	}
	var rows []A2Row
	for _, ml := range maxLens {
		for _, mode := range []struct {
			name string
			m    symbex.LoopMode
		}{{"merge", symbex.LoopMerge}, {"unroll", symbex.LoopUnroll}} {
			if keep != nil && !keep(fmt.Sprintf("%s/maxlen=%d", mode.name, ml)) {
				continue
			}
			eng := symbex.New(smt.New(smt.Options{}), symbex.Options{
				LoopMode:    mode.m,
				MaxSegments: unrollBudget,
			})
			start := time.Now()
			segs, err := eng.Run(prog, symbex.DefaultInput(14, ml))
			row := A2Row{
				Mode:     mode.name,
				MaxLen:   ml,
				Segments: len(segs),
				Steps:    eng.Stats().StepsSymbex,
				Checks:   eng.Stats().SolverChecks,
				Duration: time.Since(start),
				Aborted:  err != nil,
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// A3Row is a stateful-element verification outcome.
type A3Row struct {
	Pipeline   string
	Verified   bool
	Discharged int
	Duration   time.Duration
}

// A3StatefulElements verifies the stateful pipelines: the flow table and
// NAT map via the data-structure model, the overflow counter as the
// reachable-bad-value counterexample, and its saturating fix.
func A3StatefulElements(maxLen uint64, parallelism int) ([]A3Row, error) {
	configs := []struct{ name, src string }{
		{"netflow", `
			src :: InfiniteSource;
			src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
			chk[0] -> NetFlow(1024) -> Discard; chk[1] -> Discard;`},
		{"nat", `
			src :: InfiniteSource;
			src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
			chk[0] -> IPRewriter(SNAT 100.64.0.1) -> Discard; chk[1] -> Discard;`},
		{"counter-overflow", `
			src :: InfiniteSource;
			src -> Counter -> Discard;`},
		{"counter-saturating", `
			src :: InfiniteSource;
			src -> Counter(SATURATE) -> Discard;`},
	}
	var rows []A3Row
	for _, c := range configs {
		p := MustParse(c.src)
		v := verify.New(telOpts(verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: parallelism}))
		start := time.Now()
		rep, err := v.CrashFreedom(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		rows = append(rows, A3Row{
			Pipeline:   c.name,
			Verified:   rep.Verified,
			Discharged: rep.Discharged,
			Duration:   time.Since(start),
		})
	}
	return rows, nil
}

// S1Row is one sequence-verification measurement: bounded unrolling at
// a given depth, or k-induction (depth-independent).
type S1Row struct {
	Mode     string // "unroll" or "induction"
	Pipeline string
	Depth    int // unroll depth; for induction, the k that decided
	// Sequences counts explored sequence prefixes (the unrolling work
	// factor); Proved/Refuted/CTI is the verdict; WitnessPackets the
	// refutation length.
	Sequences      int
	Proved         bool
	Refuted        bool
	CTI            bool
	WitnessPackets int
	SolverQueries  int64
	Duration       time.Duration
	Solver         smt.Stats
}

// s1Config is the counter pipeline of the S1 experiment: a classifier
// fork in front of the counter gives each packet two feasible paths, so
// bounded unrolling explores 2^depth sequences while induction stays
// flat.
func s1Config(counterClass string) string {
	return `
		src :: InfiniteSource;
		cls :: Classifier(12/0800, -);
		cnt :: ` + counterClass + `;
		src -> cls;
		cls [0] -> cnt;
		cls [1] -> Discard;
		cnt -> Discard;
	`
}

// S1Induction measures multi-packet state verification (DESIGN.md §8):
// bounded sequence unrolling over the saturating counter grows
// exponentially in the sequence length, while the k-induction proof is
// flat — and, unlike any bounded depth, covers sequences of unbounded
// length. The plain counter shows the refutation side: unrolling finds
// nothing at any affordable depth (the overflow needs 2^32 packets),
// induction returns a 2-packet counterexample-to-induction whose
// dataplane replay is verified here — the harness errors loudly if a
// designed verdict or the replay regresses.
func S1Induction(maxLen uint64, parallelism int) ([]S1Row, error) {
	var rows []S1Row
	satP := MustParse(s1Config("Counter(SATURATE)"))
	for _, depth := range []int{2, 4, 6, 8} {
		v := verify.New(telOpts(verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: parallelism}))
		start := time.Now()
		rep, err := v.SeqCrashBounded(satP, depth, verify.SeqOptions{MaxSequences: 1 << 16})
		if err != nil {
			return nil, fmt.Errorf("s1 unroll depth %d: %w", depth, err)
		}
		if rep.Refuted {
			return nil, fmt.Errorf("s1: saturating counter crashed within %d packets", depth)
		}
		st := v.Stats()
		rows = append(rows, S1Row{
			Mode: "unroll", Pipeline: "counter-saturating", Depth: depth,
			Sequences: rep.Sequences, Proved: false,
			SolverQueries: st.SolverQueries, Duration: time.Since(start), Solver: st.Solver,
		})
	}
	{
		v := verify.New(telOpts(verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: parallelism}))
		start := time.Now()
		rep, err := v.SeqCrashFreedom(satP, verify.SeqOptions{})
		if err != nil {
			return nil, fmt.Errorf("s1 induction: %w", err)
		}
		if !rep.Proved {
			return nil, fmt.Errorf("s1: saturating counter not proved by induction: %+v", rep)
		}
		st := v.Stats()
		rows = append(rows, S1Row{
			Mode: "induction", Pipeline: "counter-saturating", Depth: rep.K,
			Sequences: rep.Sequences, Proved: true,
			SolverQueries: st.SolverQueries, Duration: time.Since(start), Solver: st.Solver,
		})
	}
	// The refutation side: plain Counter.
	ovfP := MustParse(s1Config("Counter"))
	{
		v := verify.New(telOpts(verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: parallelism}))
		start := time.Now()
		rep, err := v.SeqCrashBounded(ovfP, 8, verify.SeqOptions{MaxSequences: 1 << 16})
		if err != nil {
			return nil, fmt.Errorf("s1 unroll overflow: %w", err)
		}
		if rep.Refuted {
			return nil, fmt.Errorf("s1: plain counter crashed from boot state within 8 packets")
		}
		st := v.Stats()
		rows = append(rows, S1Row{
			Mode: "unroll", Pipeline: "counter-overflow", Depth: 8,
			Sequences:     rep.Sequences,
			SolverQueries: st.SolverQueries, Duration: time.Since(start), Solver: st.Solver,
		})
	}
	{
		v := verify.New(telOpts(verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: parallelism}))
		start := time.Now()
		rep, err := v.SeqCrashFreedom(ovfP, verify.SeqOptions{})
		if err != nil {
			return nil, fmt.Errorf("s1 induction overflow: %w", err)
		}
		if rep.Proved || rep.Refuted || !rep.CTI || rep.Witness == nil {
			return nil, fmt.Errorf("s1: plain counter induction verdict unexpected: %+v", rep)
		}
		if len(rep.Witness.Packets) < 2 {
			return nil, fmt.Errorf("s1: CTI has %d packets, want >= 2", len(rep.Witness.Packets))
		}
		if err := verify.ReplaySeq(ovfP, rep.Witness); err != nil {
			return nil, fmt.Errorf("s1: CTI replay diverged: %w", err)
		}
		st := v.Stats()
		rows = append(rows, S1Row{
			Mode: "induction", Pipeline: "counter-overflow", Depth: rep.K,
			Sequences: rep.Sequences, CTI: true, WitnessPackets: len(rep.Witness.Packets),
			SolverQueries: st.SolverQueries, Duration: time.Since(start), Solver: st.Solver,
		})
	}
	return rows, nil
}

// R1Row is one degradation-ladder pass: the corpus verified clean,
// then again under injected disk and solver faults.
type R1Row struct {
	Run             string // "clean" or "faulted"
	Pipelines       int
	Certified       int
	Unresolved      int // unresolved obligations summed over verdicts
	FaultsInjected  int64
	SolverPanics    int64 // injected panics...
	PanicsRecovered int   // ...and the containments that must match them
	StoreCorrupt    int64 // corrupted artifacts the store rejected (misses)
	Duration        time.Duration
	Solver          smt.Stats
}

// R1Degradation exercises the robustness layer (DESIGN.md §9) as a
// benchmark: the example corpus is admitted once clean and once under
// a seeded fault script — torn/stale store artifacts plus a budgeted
// burst of solver faults. The ladder's contract is enforced, not just
// measured: every injected panic must be contained, and a faulted
// verdict is either byte-identical to the clean one or degraded to
// uncertified-with-unresolved — never a flipped certification.
func R1Degradation(maxLen uint64, seed uint64) ([]R1Row, error) {
	var items []verify.BatchItem
	for _, c := range Corpus() {
		items = append(items, verify.BatchItem{Name: c.Name, Pipeline: MustParse(c.Src)})
	}
	// Serial verification keeps the injector's decision stream — and so
	// the whole row — a pure function of (corpus, seed).
	base := telOpts(verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: 1})
	cleanVerdicts, st, dur := verify.Batch(items, base)
	rows := []R1Row{{
		Run: "clean", Pipelines: len(items), Certified: countCertified(cleanVerdicts),
		Duration: dur, Solver: st.Solver,
	}}

	dir, err := os.MkdirTemp("", "vsd-r1-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := verify.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	in := faultinject.New(seed, faultinject.Rates{
		SolverPanic:   0.05,
		SolverUnknown: 0.05,
		TornWrite:     0.5,
		Stale:         0.25,
	})
	in.SolverBudget = 8
	faulted := base
	faulted.Store = faultinject.WrapStore(in, disk)
	faulted.SolverFaultHook = in.SolverHook()
	verdicts, fst, fdur := verify.Batch(items, faulted)

	ist := in.Stats()
	if ist.Total() == 0 {
		return nil, fmt.Errorf("r1: fault script injected nothing (seed %#x)", seed)
	}
	if fst.PanicsRecovered != int(ist.SolverPanics) {
		return nil, fmt.Errorf("r1: recovered %d panics for %d injected", fst.PanicsRecovered, ist.SolverPanics)
	}
	unresolved := 0
	for i, vd := range verdicts {
		unresolved += vd.Unresolved
		if vd.Certified && vd.Unresolved > 0 {
			return nil, fmt.Errorf("r1: %s certified with %d unresolved obligations", vd.Name, vd.Unresolved)
		}
		if vd.Certified {
			clean, _ := json.Marshal(cleanVerdicts[i])
			got, _ := json.Marshal(vd)
			if string(clean) != string(got) {
				return nil, fmt.Errorf("r1: %s verdict drifted under faults:\nclean: %s\nfaulty: %s", vd.Name, clean, got)
			}
		}
	}
	rows = append(rows, R1Row{
		Run: "faulted", Pipelines: len(items), Certified: countCertified(verdicts),
		Unresolved: unresolved, FaultsInjected: ist.Total(), SolverPanics: ist.SolverPanics,
		PanicsRecovered: fst.PanicsRecovered, StoreCorrupt: disk.Stats().Corrupt,
		Duration: fdur, Solver: fst.Solver,
	})
	return rows, nil
}

func countCertified(verdicts []verify.BatchVerdict) int {
	n := 0
	for _, vd := range verdicts {
		if vd.Certified {
			n++
		}
	}
	return n
}

// TputRow is one execution tier's forwarding throughput on the
// evaluation IP router.
type TputRow struct {
	Tier         string // interpreted | compiled | compiled-batch
	Packets      int64
	Duration     time.Duration
	Mpps         float64
	NsPerPkt     float64
	Speedup      float64 // vs the interpreted tier
	StepsPerPkt  float64
	AllocsPerPkt float64 // heap allocations per packet, measured
}

// TputResult is the throughput experiment: three tiers racing the same
// workload, plus the differential fuzz cell that makes the fast tiers
// trustworthy.
type TputResult struct {
	Rows []TputRow
	// Fuzz cell: packets driven through dataplane.Compare across the
	// corpus pipelines, all demanded divergence-free.
	FuzzPackets   int64
	FuzzPipelines int
	FuzzDuration  time.Duration
}

// tputWorkingSet is the number of distinct packets in the throughput
// working set; tiers cycle over it until they reach the packet budget.
const tputWorkingSet = 4096

// Tput measures forwarding throughput of the paper's IP router on the
// three execution tiers — tree-walking interpreter, compiled bytecode
// VM per packet, and compiled VM with batched dispatch — then runs the
// differential fuzzer over the example corpus (fuzzPackets packets,
// split across pipelines) and fails on any divergence. The throughput
// numbers are only quotable because the fuzz cell passed.
func Tput(packets, fuzzPackets int, seed int64) (*TputResult, error) {
	// The checksum-validating router — E1's full-router pipeline, and
	// the shape the paper's Mpps numbers are about. The RFC 1071 loop
	// is the hottest code in the fast path, so measuring NOCHECKSUM
	// would flatter the interpreter and skip the loop fusion entirely.
	pipe := MustParse(IPRouterConfig(true))
	// Valid IPv4 traffic: the Mpps yardstick is the router forwarding
	// real packets end to end (checksum loop, TTL, route lookup) — the
	// adversarial/random mixes belong to the fuzz gate below, where
	// early-exit packets are a feature, not a distortion.
	g := workload.New(workload.Spec{Seed: seed})
	workload := make([]*packet.Buffer, tputWorkingSet)
	for i := range workload {
		workload[i] = g.IPv4()
	}

	res := &TputResult{}

	interp := dataplane.NewRunner(pipe)
	row, err := tputMeasure("interpreted", packets, workload, interp.RunTrace)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	interpNs := row.NsPerPkt

	comp, err := dataplane.NewCompiled(pipe)
	if err != nil {
		return nil, err
	}
	// Per-packet compiled tier: one pooled scratch buffer, Process per
	// packet — the shape a per-packet forwarding loop would use.
	scratch := packet.NewBuffer(nil)
	row, err = tputMeasure("compiled", packets, workload, func(tr []*packet.Buffer) dataplane.Summary {
		var s dataplane.Summary
		for _, buf := range tr {
			scratch.CopyFrom(buf)
			r := comp.Process(scratch)
			s.Packets++
			s.Steps += r.Steps
		}
		return s
	})
	if err != nil {
		return nil, err
	}
	row.Speedup = interpNs / row.NsPerPkt
	res.Rows = append(res.Rows, row)

	batch, err := dataplane.NewCompiled(pipe)
	if err != nil {
		return nil, err
	}
	row, err = tputMeasure("compiled-batch", packets, workload, batch.RunTrace)
	if err != nil {
		return nil, err
	}
	row.Speedup = interpNs / row.NsPerPkt
	res.Rows = append(res.Rows, row)

	fuzzStart := time.Now()
	pipelines, total, err := TputFuzz(fuzzPackets, seed)
	if err != nil {
		return nil, err
	}
	res.FuzzPipelines = pipelines
	res.FuzzPackets = total
	res.FuzzDuration = time.Since(fuzzStart)
	return res, nil
}

// tputMeasure times one tier over at least `packets` packets, cycling
// the working set. One warmup pass fills every pool first, so the
// steady state is what gets timed — and its allocation count measured.
func tputMeasure(tier string, packets int, workload []*packet.Buffer,
	run func([]*packet.Buffer) dataplane.Summary) (TputRow, error) {
	run(workload) // warmup: pools, maps, and frame storage all sized
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var done, steps int64
	start := time.Now()
	for done < int64(packets) {
		s := run(workload)
		done += s.Packets
		steps += s.Steps
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	if dur <= 0 {
		return TputRow{}, fmt.Errorf("tput: %s tier finished in zero time", tier)
	}
	return TputRow{
		Tier:         tier,
		Packets:      done,
		Duration:     dur,
		Mpps:         float64(done) / dur.Seconds() / 1e6,
		NsPerPkt:     float64(dur.Nanoseconds()) / float64(done),
		Speedup:      1,
		StepsPerPkt:  float64(steps) / float64(done),
		AllocsPerPkt: float64(m1.Mallocs-m0.Mallocs) / float64(done),
	}, nil
}

// tputFuzzChunk is the differential fuzzer's chunk size: private state
// persists across a chunk (long enough to fill NAT tables and hit
// capacity eviction), and chunking keeps the cloned traces bounded.
const tputFuzzChunk = 1 << 16

// TputFuzz drives the differential oracle over every corpus pipeline:
// total random/adversarial packets split evenly, each chunk demanding
// the interpreted, compiled, and batched tiers agree on every
// observable. Returns the pipeline and packet counts; any divergence
// is an error.
func TputFuzz(total int, seed int64) (pipelines int, packets int64, err error) {
	corpus := Corpus()
	per := total / len(corpus)
	if per < 1 {
		per = 1
	}
	for ci, c := range corpus {
		pipe, perr := click.Parse(elements.Default(), c.Src)
		if perr != nil {
			return 0, 0, fmt.Errorf("tput fuzz: %s: %w", c.Name, perr)
		}
		g := workload.New(workload.Spec{Seed: seed + int64(ci)})
		remaining := per
		for remaining > 0 {
			n := remaining
			if n > tputFuzzChunk {
				n = tputFuzzChunk
			}
			rep, cerr := dataplane.Compare(pipe, g.Mix(n))
			if cerr != nil {
				return 0, 0, fmt.Errorf("tput fuzz: %s: %w", c.Name, cerr)
			}
			packets += rep.Packets
			remaining -= n
		}
		pipelines++
	}
	return pipelines, packets, nil
}
