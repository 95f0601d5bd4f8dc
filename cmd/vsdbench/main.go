// Command vsdbench regenerates the paper's evaluation as printed tables
// (see EXPERIMENTS.md for the mapping to the paper's claims).
//
// Usage:
//
//	vsdbench -experiment all|list|NAME [-maxlen N] [-parallel N] [-json]
//	         [-store DIR] [-trace FILE]
//
// -trace writes a Chrome trace-event JSON of the whole experiment run
// (verification phases, per-path walks, per-obligation SAT solves);
// open it in https://ui.perfetto.dev. Records gain solve-time
// distribution fields (solve-ns-min/p50/p99/max) where the verifier
// runs, so BENCH diffs catch tail regressions, not just mean shifts.
//
// The experiment catalogue lives in ONE place — the experiments table
// below — so `vsdbench -experiment list` always prints the current
// set with a one-line description of each; the flag help and the name
// validation derive from the same table.
//
// With -json the results are emitted as a JSON array of records — one
// per benchmark row — in the BENCH_*.json shape: benchmark name, wall
// time, and a flat map of custom metrics. Every record also carries the
// measuring host's GOMAXPROCS, GOARCH, and Go version, so BENCH files
// from different hosts compare honestly (the tput cells especially are
// meaningless without them).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"

	"vsd/internal/experiments"
	"vsd/internal/smt"
	"vsd/internal/telemetry"
)

// benchRecord is one BENCH_*.json-compatible result row. The three
// environment fields are stamped centrally on every record (see
// main's record closure): cross-host numbers only compare when the
// host that produced them is part of the record.
type benchRecord struct {
	Name       string             `json:"name"`
	WallTimeNS int64              `json:"wall_time_ns"`
	GoVersion  string             `json:"go_version"`
	GoArch     string             `json:"goarch"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Metrics    map[string]float64 `json:"metrics"`
}

// benchCtx carries the flag values and output sinks one experiment run
// needs: printf is silenced under -json, record collects BENCH rows,
// keep is the -bench cell filter over full cell names ("e1/full-router").
type benchCtx struct {
	maxLen   uint64
	parallel int
	storeDir string
	printf   func(format string, args ...any)
	record   func(benchRecord)
	keep     func(cell string) bool
}

// keepCell curries the -bench filter for one experiment's cells: the
// experiments package sees bare cell names, the regexp sees the full
// "<experiment>/<cell>" benchmark name. Returns nil (run everything)
// when no filter is set, so experiments skip the indirection.
func (ctx *benchCtx) keepCell(exp string) func(string) bool {
	if ctx.keep == nil {
		return nil
	}
	return func(cell string) bool { return ctx.keep(exp + "/" + cell) }
}

// experiment is one registry row: adding an experiment here is the
// whole registration — usage text, -experiment validation, `list`
// output, and the `all` run order all read this table.
type experiment struct {
	name  string
	title string
	run   func(*benchCtx) error
}

var experimentTable = []experiment{
	{"e1", "crash freedom of IP-router pipelines", runE1},
	{"e2", "per-packet instruction bound of the full router", runE2},
	{"e3", "compositional vs monolithic verification", runE3},
	{"a1", "path scaling (paper §3: k·2^n composed vs 2^(k·n) monolithic)", runA1},
	{"a2", "loop decomposition on the IP options element", runA2},
	{"a3", "stateful elements through the data-structure model", runA3},
	{"f1", "functional property specs (DESIGN.md §6)", runF1},
	{"b1", "batch admission against the persistent summary store (DESIGN.md §7)", runB1},
	{"s1", "multi-packet state verification: k-induction vs bounded unrolling (DESIGN.md §8)", runS1},
	{"r1", "degradation ladder under injected disk and solver faults (DESIGN.md §9)", runR1},
	{"tput", "forwarding throughput: interpreter vs compiled VM vs batched, plus the differential fuzz gate (DESIGN.md §10)", runTput},
}

func experimentNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

func solverMetrics(m map[string]float64, st smt.Stats) {
	m["sat-calls"] = float64(st.SatCalls)
	m["sat-conflicts"] = float64(st.SatConflicts)
	m["cache-hits"] = float64(st.CacheHits)
	m["interval-decided"] = float64(st.IntervalDecided)
	m["order-decided"] = float64(st.OrderDecided)
	m["sessions-opened"] = float64(st.SessionsOpened)
	m["assumption-solves"] = float64(st.AssumptionSolves)
	m["reused-clauses"] = float64(st.ClausesReused)
	m["array-lemmas"] = float64(st.ArrayLemmas)
	// CNF size: emitted formula size and the structural gate cache
	// (per-query averages are size/sat-calls).
	m["cnf-vars"] = float64(st.CNFVars)
	m["cnf-clauses"] = float64(st.CNFClauses)
	m["gate-cache-hits"] = float64(st.GateCacheHits)
	// SAT-core heuristics: learnt-clause minimization, glue distribution,
	// binary-clause propagation, Luby restarts.
	m["minimized-lits"] = float64(st.MinimizedLits)
	m["learnt-clauses"] = float64(st.LearntClauses)
	m["learnt-lits"] = float64(st.LearntLits)
	m["glue-sum"] = float64(st.GlueSum)
	m["low-glue"] = float64(st.LowGlue)
	m["binary-props"] = float64(st.BinaryProps)
	m["propagations"] = float64(st.Propagations)
	m["assum-levels"] = float64(st.AssumLevels)
	m["decisions"] = float64(st.Decisions)
	m["restarts"] = float64(st.Restarts)
	m["unknowns"] = float64(st.Unknowns)
}

// solveTimeMetrics folds a per-query solve-time distribution into the
// record: min/p50/p99/max expose tail regressions that a single
// wall-time number averages away (BENCH_10+ diffs watch these).
func solveTimeMetrics(m map[string]float64, h telemetry.HistSummary) {
	if h.Count == 0 {
		return
	}
	m["solve-count"] = float64(h.Count)
	m["solve-ns-min"] = float64(h.Min)
	m["solve-ns-p50"] = float64(h.P50)
	m["solve-ns-p99"] = float64(h.P99)
	m["solve-ns-max"] = float64(h.Max)
}

func main() {
	expHelp := fmt.Sprintf("which experiment to run: %s, all, or list", strings.Join(experimentNames(), ", "))
	experimentFlag := flag.String("experiment", "all", expHelp)
	maxLen := flag.Uint64("maxlen", 48, "maximum packet length for the symbolic packet")
	parallel := flag.Int("parallel", 0, "verification worker pool size (0 = GOMAXPROCS)")
	storeDir := flag.String("store", "", "summary store directory for b1 (empty = fresh temp dir)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array of benchmark records")
	benchFlag := flag.String("bench", "", "regexp over benchmark cell names (e.g. e1/full-router); only matching cells run")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the experiment run to this file (open in Perfetto)")
	flag.Parse()

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.New(telemetry.Opts{})
		experiments.SetTelemetry(tracer, nil)
	}

	var benchRE *regexp.Regexp
	if *benchFlag != "" {
		re, err := regexp.Compile(*benchFlag)
		if err != nil {
			fatal(fmt.Errorf("bad -bench regexp: %w", err))
		}
		benchRE = re
	}

	if *experimentFlag == "list" {
		for _, e := range experimentTable {
			fmt.Printf("%-4s %s\n", e.name, e.title)
		}
		return
	}
	var selected []experiment
	for _, e := range experimentTable {
		if *experimentFlag == "all" || *experimentFlag == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown experiment %q (want %s, all, or list)",
			*experimentFlag, strings.Join(experimentNames(), ", ")))
	}

	records := []benchRecord{}
	quiet := *jsonOut
	ctx := &benchCtx{
		maxLen:   *maxLen,
		parallel: *parallel,
		storeDir: *storeDir,
		printf: func(format string, args ...any) {
			if !quiet {
				fmt.Printf(format, args...)
			}
		},
		record: func(r benchRecord) {
			// Defense in depth for experiments without cell plumbing: a
			// filtered-out cell that ran anyway still stays out of the JSON.
			if benchRE == nil || benchRE.MatchString(r.Name) {
				r.GoVersion = runtime.Version()
				r.GoArch = runtime.GOARCH
				r.GoMaxProcs = runtime.GOMAXPROCS(0)
				records = append(records, r)
			}
		},
	}
	if benchRE != nil {
		ctx.keep = benchRE.MatchString
	}
	for _, e := range selected {
		ctx.printf("== %s: %s ==\n", strings.ToUpper(e.name), e.title)
		if err := e.run(ctx); err != nil {
			fatal(err)
		}
		ctx.printf("\n")
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fatal(err)
		}
	}
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
}

func runE1(ctx *benchCtx) error {
	ctx.printf("paper: \"any pipeline that consists of these elements will not crash for any input\"\n")
	rows, err := experiments.E1CrashFreedom(ctx.maxLen, ctx.parallel, ctx.keepCell("e1"))
	if err != nil {
		return err
	}
	ctx.printf("%-22s %-9s %9s %9s %11s %13s %13s %12s\n",
		"pipeline", "verdict", "suspects", "composed", "infeasible", "assume-solve", "reused-cls", "time")
	for _, r := range rows {
		verdict := "VERIFIED"
		if !r.Verified {
			verdict = "FAILED"
		}
		ctx.printf("%-22s %-9s %9d %9d %11d %13d %13d %12v\n",
			r.Pipeline, verdict, r.Suspects, r.Composed, r.Infeasib,
			r.Solver.AssumptionSolves, r.Solver.ClausesReused, r.Duration.Round(1e6))
		m := map[string]float64{
			"suspects":   float64(r.Suspects),
			"composed":   float64(r.Composed),
			"infeasible": float64(r.Infeasib),
			"verified":   b2f(r.Verified),
		}
		solverMetrics(m, r.Solver)
		solveTimeMetrics(m, r.SolveTimes)
		ctx.record(benchRecord{
			Name: "e1/" + r.Pipeline, WallTimeNS: int64(r.Duration), Metrics: m,
		})
	}
	return nil
}

func runE2(ctx *benchCtx) error {
	ctx.printf("paper: \"executes up to about 3600 instructions per packet, and we also identified the packet\"\n")
	res, err := experiments.E2InstructionBound(ctx.maxLen, ctx.parallel)
	if err != nil {
		return err
	}
	kind := "upper bound (loop merging active)"
	if res.Exact {
		kind = "exact maximum"
	}
	ctx.printf("bound: %d IR statements per packet (%s)\n", res.MaxSteps, kind)
	ctx.printf("static worst case of the inlined pipeline: %d\n", res.StaticBound)
	ctx.printf("witness packet: %d bytes, concretely executes %d statements\n", res.WitnessLen, res.WitnessSteps)
	ctx.printf("computed in %v\n", res.Duration.Round(1e6))
	ctx.record(benchRecord{
		Name: "e2/instruction-bound", WallTimeNS: int64(res.Duration),
		Metrics: map[string]float64{
			"bound-stmts":   float64(res.MaxSteps),
			"static-max":    float64(res.StaticBound),
			"witness-stmts": float64(res.WitnessSteps),
			"exact":         b2f(res.Exact),
		},
	})
	return nil
}

func runE3(ctx *benchCtx) error {
	ctx.printf("paper: \"verification time was about 18 minutes; [monolithic] did not complete within 12 hours\"\n")
	rows, err := experiments.E3ComposedVsMonolithic(4, 6, 1<<14, ctx.parallel)
	if err != nil {
		return err
	}
	ctx.printf("%3s %14s %14s %12s %10s\n", "k", "composed", "monolithic", "mono-paths", "speedup")
	for _, r := range rows {
		done := ""
		if !r.MonoDone {
			done = " (budget!)"
		}
		ctx.printf("%3d %14v %14v %12d %9.1fx%s\n",
			r.Elements, r.ComposedTime.Round(1e5), r.MonoTime.Round(1e5), r.MonoPaths, r.Speedup, done)
		m := map[string]float64{
			"elements":   float64(r.Elements),
			"mono-ns":    float64(r.MonoTime),
			"mono-paths": float64(r.MonoPaths),
			"speedup":    r.Speedup,
		}
		solverMetrics(m, r.Solver)
		ctx.record(benchRecord{
			Name: fmt.Sprintf("e3/k=%d", r.Elements), WallTimeNS: int64(r.ComposedTime), Metrics: m,
		})
	}
	return nil
}

func runA1(ctx *benchCtx) error {
	start := time.Now()
	rows, err := experiments.A1PathScaling(3, 5, ctx.parallel)
	if err != nil {
		return err
	}
	dur := time.Since(start)
	ctx.printf("%3s %6s %15s %15s %12s\n", "k", "n", "composed-segs", "composed-paths", "mono-paths")
	for _, r := range rows {
		ctx.printf("%3d %6d %15d %15d %12d\n",
			r.Elements, r.Branches, r.ComposedSegs, r.ComposedPaths, r.MonoPaths)
	}
	last := rows[len(rows)-1]
	ctx.record(benchRecord{
		Name: "a1/path-scaling", WallTimeNS: int64(dur),
		Metrics: map[string]float64{
			"composed-segs":  float64(last.ComposedSegs),
			"composed-paths": float64(last.ComposedPaths),
			"mono-paths":     float64(last.MonoPaths),
		},
	})
	return nil
}

func runA2(ctx *benchCtx) error {
	ctx.printf("paper: unrolled \"millions of segments ... months\"; decomposed: minutes\n")
	rows, err := experiments.A2LoopDecomposition([]uint64{40, ctx.maxLen}, 1<<9, ctx.keepCell("a2"))
	if err != nil {
		return err
	}
	ctx.printf("%-8s %8s %10s %12s %10s %12s %s\n",
		"mode", "maxlen", "segments", "sym-stmts", "checks", "time", "")
	for _, r := range rows {
		note := ""
		if r.Aborted {
			note = "ABORTED (budget)"
		}
		ctx.printf("%-8s %8d %10d %12d %10d %12v %s\n",
			r.Mode, r.MaxLen, r.Segments, r.Steps, r.Checks, r.Duration.Round(1e6), note)
		ctx.record(benchRecord{
			Name: fmt.Sprintf("a2/%s/maxlen=%d", r.Mode, r.MaxLen), WallTimeNS: int64(r.Duration),
			Metrics: map[string]float64{
				"segments":  float64(r.Segments),
				"sym-stmts": float64(r.Steps),
				"checks":    float64(r.Checks),
				"aborted":   b2f(r.Aborted),
			},
		})
	}
	return nil
}

func runA3(ctx *benchCtx) error {
	rows, err := experiments.A3StatefulElements(ctx.maxLen, ctx.parallel)
	if err != nil {
		return err
	}
	ctx.printf("%-20s %-9s %11s %12s\n", "pipeline", "verdict", "discharged", "time")
	for _, r := range rows {
		verdict := "VERIFIED"
		if !r.Verified {
			verdict = "REJECTED"
		}
		ctx.printf("%-20s %-9s %11d %12v\n", r.Pipeline, verdict, r.Discharged, r.Duration.Round(1e6))
		ctx.record(benchRecord{
			Name: "a3/" + r.Pipeline, WallTimeNS: int64(r.Duration),
			Metrics: map[string]float64{
				"verified":   b2f(r.Verified),
				"discharged": float64(r.Discharged),
			},
		})
	}
	return nil
}

func runF1(ctx *benchCtx) error {
	ctx.printf("paper: \"bounded execution or filtering correctness\" — input/output contracts per spec family\n")
	rows, err := experiments.F1FunctionalSpecs(ctx.maxLen, ctx.parallel)
	if err != nil {
		return err
	}
	ctx.printf("%-22s %-14s %-9s %12s %8s %8s %10s %12s\n",
		"spec", "pipeline", "verdict", "obligations", "proved", "trivial", "witnesses", "time")
	for _, r := range rows {
		verdict := "VERIFIED"
		if !r.Verified {
			verdict = "FAILED"
		}
		// Rows always match their designed verdict — F1FunctionalSpecs
		// errors out otherwise — so a FAILED row is a demonstration.
		note := ""
		if !r.Verified {
			note = " (as designed)"
		}
		ctx.printf("%-22s %-14s %-9s %12d %8d %8d %10d %12v%s\n",
			r.Spec, r.Pipeline, verdict, r.Obligations, r.Proved, r.Trivial,
			r.Witnesses, r.Duration.Round(1e6), note)
		m := map[string]float64{
			"verified":    b2f(r.Verified),
			"expected":    b2f(r.Expected),
			"obligations": float64(r.Obligations),
			"proved":      float64(r.Proved),
			"trivial":     float64(r.Trivial),
			"witnesses":   float64(r.Witnesses),
		}
		solverMetrics(m, r.Solver)
		solveTimeMetrics(m, r.SolveTimes)
		ctx.record(benchRecord{
			Name: fmt.Sprintf("f1/%s/%s", r.Spec, r.Pipeline), WallTimeNS: int64(r.Duration), Metrics: m,
		})
	}
	return nil
}

func runB1(ctx *benchCtx) error {
	ctx.printf("the example corpus verified twice against one store: warm must do zero Step-1 engine runs\n")
	rows, err := experiments.B1BatchStore(ctx.maxLen, ctx.parallel, ctx.storeDir)
	if err != nil {
		return err
	}
	ctx.printf("%-6s %10s %10s %12s %13s %12s %11s %11s %9s %7s %8s %9s %12s\n",
		"run", "pipelines", "certified", "engine-runs", "step1-checks", "store-hits", "cache-hits", "artifacts", "replayed", "built", "refined", "sat-calls", "time")
	var coldNS int64
	for _, r := range rows {
		ctx.printf("%-6s %10d %10d %12d %13d %12d %11d %11d %9d %7d %8d %9d %12v\n",
			r.Run, r.Pipelines, r.Certified, r.EngineRuns, r.Step1Checks, r.StoreHits,
			r.CacheHits, r.StoreFiles, r.StitchesReplayed, r.StitchesBuilt, r.TableRefinements, r.Solver.SatCalls, r.Duration.Round(1e6))
		m := map[string]float64{
			"pipelines":    float64(r.Pipelines),
			"certified":    float64(r.Certified),
			"engine-runs":  float64(r.EngineRuns),
			"step1-checks": float64(r.Step1Checks),
			"store-hits":   float64(r.StoreHits),
			"store-misses": float64(r.StoreMisses),
			"cache-hits":   float64(r.CacheHits),
			"artifacts":    float64(r.StoreFiles),

			"stitches-replayed": float64(r.StitchesReplayed),
			"stitches-built":    float64(r.StitchesBuilt),
			"table-refinements": float64(r.TableRefinements),
			"cert-hits":         float64(r.Certs.CertHits),
			"cert-misses":       float64(r.Certs.CertMisses),
			"cert-corrupt":      float64(r.Certs.CertCorrupt),
			"cert-saves":        float64(r.Certs.CertSaves),
		}
		if total := r.StoreHits + r.StoreMisses; total > 0 {
			m["store-hit-rate"] = float64(r.StoreHits) / float64(total)
		}
		if r.Run == "cold" {
			coldNS = int64(r.Duration)
		} else if r.Duration > 0 {
			m["warm-speedup"] = float64(coldNS) / float64(r.Duration)
		}
		solverMetrics(m, r.Solver)
		ctx.record(benchRecord{
			Name: "b1/" + r.Run, WallTimeNS: int64(r.Duration), Metrics: m,
		})
	}
	if len(rows) == 2 && rows[1].Duration > 0 {
		ctx.printf("warm speedup: %.1fx (store hit rate %d/%d)\n",
			float64(rows[0].Duration)/float64(rows[1].Duration),
			rows[1].StoreHits, rows[1].StoreHits+rows[1].StoreMisses)
	}
	return nil
}

func runS1(ctx *benchCtx) error {
	ctx.printf("bounded sequence unrolling grows with depth; the k-induction proof is flat AND unbounded\n")
	rows, err := experiments.S1Induction(ctx.maxLen, ctx.parallel)
	if err != nil {
		return err
	}
	ctx.printf("%-10s %-20s %6s %10s %8s %-9s %12s\n",
		"mode", "pipeline", "depth", "sequences", "queries", "verdict", "time")
	for _, r := range rows {
		verdict := "no-crash"
		switch {
		case r.Proved:
			verdict = "PROVED"
		case r.Refuted:
			verdict = "REFUTED"
		case r.CTI:
			verdict = fmt.Sprintf("CTI(%dpkt)", r.WitnessPackets)
		}
		ctx.printf("%-10s %-20s %6d %10d %8d %-9s %12v\n",
			r.Mode, r.Pipeline, r.Depth, r.Sequences, r.SolverQueries, verdict, r.Duration.Round(1e6))
		m := map[string]float64{
			"depth":           float64(r.Depth),
			"sequences":       float64(r.Sequences),
			"solver-queries":  float64(r.SolverQueries),
			"proved":          b2f(r.Proved),
			"refuted":         b2f(r.Refuted),
			"cti":             b2f(r.CTI),
			"witness-packets": float64(r.WitnessPackets),
		}
		solverMetrics(m, r.Solver)
		name := fmt.Sprintf("s1/%s/%s", r.Mode, r.Pipeline)
		if r.Mode == "unroll" {
			name = fmt.Sprintf("%s/depth=%d", name, r.Depth)
		}
		ctx.record(benchRecord{Name: name, WallTimeNS: int64(r.Duration), Metrics: m})
	}
	return nil
}

// tputPackets/tputFuzzPackets size the tput cells: enough packets that
// per-call overhead vanishes, and ≥1M fuzzed packets so the quoted
// speedup rides on a meaningful equivalence sample.
const (
	tputPackets     = 2_000_000
	tputFuzzPackets = 1_000_000
	tputSeed        = 0x7d9
)

func runTput(ctx *benchCtx) error {
	ctx.printf("paper: a dataplane that is verified AND fast — three tiers, one semantics, machine-checked equal\n")
	res, err := experiments.Tput(tputPackets, tputFuzzPackets, tputSeed)
	if err != nil {
		return err
	}
	ctx.printf("%-16s %12s %10s %10s %9s %11s %12s\n",
		"tier", "packets", "Mpps", "ns/pkt", "speedup", "steps/pkt", "allocs/pkt")
	for _, r := range res.Rows {
		ctx.printf("%-16s %12d %10.3f %10.1f %8.2fx %11.1f %12.4f\n",
			r.Tier, r.Packets, r.Mpps, r.NsPerPkt, r.Speedup, r.StepsPerPkt, r.AllocsPerPkt)
		ctx.record(benchRecord{
			Name: "tput/" + r.Tier, WallTimeNS: int64(r.Duration),
			Metrics: map[string]float64{
				"packets":        float64(r.Packets),
				"mpps":           r.Mpps,
				"ns-per-pkt":     r.NsPerPkt,
				"speedup":        r.Speedup,
				"steps-per-pkt":  r.StepsPerPkt,
				"allocs-per-pkt": r.AllocsPerPkt,
			},
		})
	}
	ctx.printf("fuzz gate: %d packets over %d corpus pipelines, zero divergences (%v)\n",
		res.FuzzPackets, res.FuzzPipelines, res.FuzzDuration.Round(1e6))
	ctx.record(benchRecord{
		Name: "tput/fuzz-gate", WallTimeNS: int64(res.FuzzDuration),
		Metrics: map[string]float64{
			"packets":     float64(res.FuzzPackets),
			"pipelines":   float64(res.FuzzPipelines),
			"divergences": 0, // Tput errors out on any divergence
		},
	})
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vsdbench:", err)
	os.Exit(1)
}

// r1Seed fixes the fault script; the row is deterministic given the
// corpus, so CI can diff the JSON like any other benchmark cell.
const r1Seed = 0xc0ffee

func runR1(ctx *benchCtx) error {
	ctx.printf("the corpus admitted clean, then under injected faults: certifications must not flip\n")
	rows, err := experiments.R1Degradation(ctx.maxLen, r1Seed)
	if err != nil {
		return err
	}
	ctx.printf("%-8s %10s %10s %11s %9s %9s %9s %12s\n",
		"run", "pipelines", "certified", "unresolved", "faults", "panics", "corrupt", "time")
	for _, r := range rows {
		ctx.printf("%-8s %10d %10d %11d %9d %9d %9d %12v\n",
			r.Run, r.Pipelines, r.Certified, r.Unresolved, r.FaultsInjected,
			r.PanicsRecovered, r.StoreCorrupt, r.Duration.Round(1e6))
		m := map[string]float64{
			"pipelines":        float64(r.Pipelines),
			"certified":        float64(r.Certified),
			"unresolved":       float64(r.Unresolved),
			"faults-injected":  float64(r.FaultsInjected),
			"solver-panics":    float64(r.SolverPanics),
			"panics-recovered": float64(r.PanicsRecovered),
			"store-corrupt":    float64(r.StoreCorrupt),
		}
		solverMetrics(m, r.Solver)
		ctx.record(benchRecord{Name: "r1/" + r.Run, WallTimeNS: int64(r.Duration), Metrics: m})
	}
	ctx.printf("every injected panic contained; certified verdicts byte-identical to the clean pass\n")
	return nil
}
