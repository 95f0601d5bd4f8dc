package main

// certify-cold and certify-warm: time to a verdict, in process.
//
// cold: every submission gets a fresh verify.New and a fresh, empty
// verify.DiskStore — a developer's first certification of new element
// code. symbex Step 1 (and the smt checks it issues) does almost all
// the work; store is used for fsynced writes.
//
// warm: the store is populated once in set-up; every submission gets a
// fresh verify.New (a new CLI process, a restarted daemon) against it.
// symbex is bypassed — an engine run fails the operation — and verify
// Step 2, smt feasibility solves, expr decode and store reads do the
// work.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vsd/internal/click"
	"vsd/internal/ir"
	"vsd/internal/symbex"
	"vsd/internal/verify"
)

// certOp is one timed certification.
type certOp struct {
	pipe    int
	ms      float64
	verdict verify.BatchVerdict
	engine  int // Step-1 engine runs it performed
}

// lightReps is how many times a measured round certifies each pipeline
// outside the loop class.
const lightReps = 4

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// openStore opens the store one certification runs against: a fresh,
// empty one (removed by done) when cold, a new handle on the populated
// one when warm.
func openStore(c *runCtx, cold bool, warmDir string) (store *verify.DiskStore, done func(), err error) {
	if !cold {
		store, err = verify.NewDiskStore(warmDir)
		return store, func() {}, err
	}
	dir, err := os.MkdirTemp(c.dir, "cold-store-")
	if err != nil {
		return nil, nil, err
	}
	store, err = verify.NewDiskStore(dir)
	return store, func() { os.RemoveAll(dir) }, err
}

func runCertify(c *runCtx, cold bool) error {
	var classes []string
	if c.cfg.Short {
		classes = lightClasses
	}
	warmDir := filepath.Join(c.dir, "warm-store")

	// Set-up: generate and parse the corpus; for warm, populate the
	// store with one cold pass (whose verdicts are the reference the
	// warm ones must equal). The cold set-up is half a millisecond, so it
	// is repeated and the median reported; the warm one is seconds of
	// Step 1 and is steady as it is.
	var specs []pipelineSpec
	var pipes []*click.Pipeline
	var reference []verify.BatchVerdict
	setup := func() error {
		specs = corpus12(c.cfg.Seed, classes)
		pipes, reference = nil, nil
		for _, s := range specs {
			p, err := parse(s.Src)
			if err != nil {
				return fmt.Errorf("generated config %s does not parse: %w", s.Name, err)
			}
			pipes = append(pipes, p)
		}
		if cold {
			return nil
		}
		if err := os.RemoveAll(warmDir); err != nil {
			return err
		}
		store, err := verify.NewDiskStore(warmDir)
		if err != nil {
			return err
		}
		for i, p := range pipes {
			v := verify.New(verifyOptions(store))
			reference = append(reference, v.Batch([]verify.BatchItem{{Name: specs[i].Name, Pipeline: p}})[0])
		}
		return nil
	}
	reps := 1
	if cold {
		reps = 21
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c.set("setup_s", median(setups))

	batchOnce := func(i int) (certOp, error) {
		store, done, err := openStore(c, cold, warmDir)
		if err != nil {
			return certOp{}, err
		}
		defer done()
		v := verify.New(verifyOptions(store))
		// A submission models a new process: it starts from a collected
		// heap, not from the garbage of the certification before it.
		runtime.GC()
		t0 := time.Now()
		vd := v.Batch([]verify.BatchItem{{Name: specs[i].Name, Pipeline: pipes[i]}})[0]
		d := time.Since(t0)
		return certOp{pipe: i, ms: ms(d), verdict: vd, engine: v.Stats().ElementsSummarized}, nil
	}

	// Timed window: whole rounds. A measured round certifies each loop
	// pipeline once and every other pipeline lightReps times: the ten
	// other pipelines together cost a cold round 0.6 s beside 10 s of
	// loop, and their times — a handful of fsynced store writes in 10–50
	// ms — need the samples (README, "Noise"). The window holds at least
	// two rounds, and a further one only if, going by the last, all of it
	// fits; so the same host does the same number of rounds. The traced
	// run instead makes a fixed number of plain rounds (1 cold, 3 warm).
	rounds := func(n, reps int, seconds float64, once func(i int) (certOp, error)) ([]certOp, time.Duration, error) {
		var order []int
		for i, s := range specs {
			if s.Class == classLoop {
				order = append(order, i)
			}
		}
		for k := 0; k < reps; k++ {
			for i, s := range specs {
				if s.Class != classLoop {
					order = append(order, i)
				}
			}
		}
		var ops []certOp
		start := time.Now()
		var last time.Duration
		for r := 0; ; r++ {
			left := time.Duration(seconds*float64(time.Second)) - time.Since(start)
			if (n > 0 && r >= n) || (n == 0 && r >= 2 && left < last) {
				break
			}
			t0 := time.Now()
			for _, i := range order {
				op, err := once(i)
				if err != nil {
					return nil, 0, err
				}
				ops = append(ops, op)
			}
			last = time.Since(t0)
		}
		return ops, time.Since(start), nil
	}
	fixed, reps := 0, lightReps
	switch {
	case c.cfg.Short:
		fixed, reps = 1, 1
	case c.cfg.Traced && cold:
		fixed, reps = 1, 1
	case c.cfg.Traced:
		fixed, reps = 3, 1
	}
	// On a traced run every untraced Batch call is followed by the staged
	// certification of the same pipeline, so that both see the host in
	// the same state.
	once := batchOnce
	var staged []certOp
	var tr *certTrace
	if c.cfg.Traced {
		tr = &certTrace{c: c, cold: cold, warmDir: warmDir, ln: c.rec.lane("certify")}
		once = func(i int) (certOp, error) {
			op, err := batchOnce(i)
			if err != nil {
				return op, err
			}
			sop, err := tr.staged(i, specs[i])
			staged = append(staged, sop)
			return op, err
		}
	}
	ops, window, err := rounds(fixed, reps, c.cfg.Seconds, once)
	if err != nil {
		return err
	}
	if c.cfg.Traced {
		tr.report(fixed, len(specs))
	}

	// Oracle, outside the timed window.
	first := map[int]verify.BatchVerdict{}
	for _, op := range ops {
		c.attempted++
		spec := specs[op.pipe]
		if why := checkVerdict(spec.Certified, op.verdict); why != "" {
			c.fail(1, "%s: %s", spec.Name, why)
			continue
		}
		if !cold && op.engine > 0 {
			c.fail(1, "%s: %d Step-1 engine run(s) against a warm store", spec.Name, op.engine)
			continue
		}
		ref, ok := first[op.pipe]
		if !ok {
			ref = op.verdict
			if !cold {
				ref = reference[op.pipe]
			}
			first[op.pipe] = ref
		}
		if got, want := stableVerdict(op.verdict), stableVerdict(ref); got != want {
			c.fail(1, "%s: verdict %q differs from the reference %q", spec.Name, got, want)
		}
	}
	// The staged certifications must reach the same decision and bound.
	for _, op := range staged {
		c.attempted++
		spec, ref := specs[op.pipe], first[op.pipe]
		if why := checkVerdict(spec.Certified, op.verdict); why != "" {
			c.fail(1, "%s (staged): %s", spec.Name, why)
		} else if op.verdict.BoundSteps != ref.BoundSteps {
			c.fail(1, "%s (staged): bound %d, Batch found %d", spec.Name, op.verdict.BoundSteps, ref.BoundSteps)
		} else if !cold && op.engine > 0 {
			c.fail(1, "%s (staged): %d Step-1 engine run(s) against a warm store", spec.Name, op.engine)
		}
	}
	perPipe := make([][]float64, len(specs))
	for _, op := range ops {
		perPipe[op.pipe] = append(perPipe[op.pipe], op.ms)
	}
	for i, p := range pipes {
		if err := replay(p, first[i], c.cfg.Seed+int64(i), oraclePackets); err != nil {
			c.fail(len(perPipe[i]), "%s: %v", specs[i].Name, err)
		}
	}

	// Metrics: each pipeline's median time to verdict; a class's value
	// is the geometric mean over its pipelines, and the geometric mean
	// over all twelve is sensitive to every class, not just the router.
	var medians []float64
	byClass := map[string][]float64{}
	fmt.Printf("# %-16s %-6s %4s %12s %12s\n", "pipeline", "class", "n", "median_ms", "fastest_ms")
	for i, s := range specs {
		m := median(perPipe[i])
		medians = append(medians, m)
		byClass[s.Class] = append(byClass[s.Class], m)
		fmt.Printf("# %-16s %-6s %4d %12.3f %12.3f\n", s.Name, s.Class, len(perPipe[i]), m, quantile(perPipe[i], 0))
	}
	slow := 0.0
	for i, class := range corpusClasses {
		m := geomean(byClass[class])
		c.set(partMetrics[i], m)
		slow = max(slow, m)
	}
	c.set("op_typical_ms", geomean(medians))
	c.set("op_slow_ms", slow)
	c.set("ops_per_s", ratio(float64(len(ops)), window.Seconds()))
	c.set("peak_rss_mb", procStatusMB(0, "VmHWM"))

	if c.cfg.Traced {
		// Tracing overhead on the headline metric, and how much of the
		// untraced Batch time the staged spans account for.
		stagedPer := make([][]float64, len(specs))
		for _, op := range staged {
			stagedPer[op.pipe] = append(stagedPer[op.pipe], op.ms)
		}
		var stagedMed []float64
		var sumStaged, sumBatch float64
		for i := range specs {
			m := median(stagedPer[i])
			stagedMed = append(stagedMed, m)
			sumStaged += m
			sumBatch += medians[i]
		}
		c.set("trace.overhead_share", ratio(geomean(stagedMed), geomean(medians))-1)
		c.set("verify.stage_coverage_share", ratio(sumStaged, sumBatch))
	}
	return nil
}

// certTrace runs certifications as their public stages on one Verifier,
// a span around each, and folds the layers' Stats() snapshots taken at
// the end of each certification.
type certTrace struct {
	c       *runCtx
	cold    bool
	warmDir string
	ln      *lane
	workers []*lane // one per Step-1 worker goroutine
	nextOp  int
	mu      sync.Mutex // guards the codec samples, which workers append to

	irStmts    int
	unresolved int
	stats      []verify.Stats      // one snapshot per certification, taken at its end
	stores     []verify.StoreStats // likewise, of its DiskStore
	encodeUS   []float64
	decodeUS   []float64
	sumBytes   []float64
}

// tracedStore wraps the DiskStore behind the SummaryStore interface the
// verifier calls, recording a span per Load and Save on the lane of the
// worker summarizing that element (bound by key before it calls
// Summarize). The codec cost inside them is measured beside the span,
// on the same summary, with the public
// symbex.EncodeSummary/DecodeSummary.
type tracedStore struct {
	inner *verify.DiskStore
	t     *certTrace
	op    int

	mu    sync.Mutex
	lanes map[ir.Fingerprint]*lane
}

func (s *tracedStore) bind(key ir.Fingerprint, ln *lane) {
	s.mu.Lock()
	s.lanes[key] = ln
	s.mu.Unlock()
}

func (s *tracedStore) lane(key ir.Fingerprint) *lane {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lanes[key]
}

func (s *tracedStore) Load(fp ir.Fingerprint) (*symbex.Summary, bool) {
	ln := s.lane(fp)
	ln.begin("store.load", s.op)
	sum, ok := s.inner.Load(fp)
	ln.end()
	if ok {
		s.t.codec(sum)
	}
	return sum, ok
}

func (s *tracedStore) Save(fp ir.Fingerprint, sum *symbex.Summary) {
	ln := s.lane(fp)
	ln.begin("store.save", s.op)
	s.inner.Save(fp, sum)
	ln.end()
	s.t.codec(sum)
}

func (t *certTrace) codec(sum *symbex.Summary) {
	t0 := time.Now()
	data := symbex.EncodeSummary(sum)
	enc := time.Since(t0)
	t0 = time.Now()
	_, err := symbex.DecodeSummary(data)
	dec := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.encodeUS = append(t.encodeUS, float64(enc.Nanoseconds())/1e3)
	t.decodeUS = append(t.decodeUS, float64(dec.Nanoseconds())/1e3)
	if err != nil {
		t.c.fail(1, "summary does not round-trip the codec: %v", err)
	}
	t.sumBytes = append(t.sumBytes, float64(len(data)))
}

func countStmts(body []ir.Stmt) int {
	n := 0
	for _, s := range body {
		n++
		switch st := s.(type) {
		case ir.IfStmt:
			n += countStmts(st.Then) + countStmts(st.Else)
		case ir.LoopStmt:
			n += countStmts(st.Body)
		}
	}
	return n
}

func hasState(p *click.Pipeline) bool {
	for _, e := range p.Elements {
		if len(e.Program().States) > 0 {
			return true
		}
	}
	return false
}

// staged certifies one submission stage by stage: click.Parse →
// Summarize per element (Step 1) → CrashFreedom → BoundedInstructions
// → SeqCrashFreedom (stateful pipelines), as Verifier.Batch does
// internally.
func (t *certTrace) staged(i int, spec pipelineSpec) (out certOp, err error) {
	op := t.nextOp
	t.nextOp++
	disk, done, err := openStore(t.c, t.cold, t.warmDir)
	if err != nil {
		return certOp{}, err
	}
	defer done()
	ln := t.ln
	out = certOp{pipe: i, verdict: verify.BatchVerdict{Name: spec.Name}}
	runtime.GC() // as before a Batch call
	ln.begin("certify", op)
	defer func() { out.ms = ms(ln.end()) }()
	// A stage error is the operation's verdict, not the run's failure.
	failed := func(err error) (certOp, error) {
		out.verdict.Error = err.Error()
		return out, nil
	}

	ln.begin("click.parse", op)
	p, err := parse(spec.Src)
	ln.end()
	if err != nil {
		return out, err
	}
	for _, e := range p.Elements {
		t.irStmts += countStmts(e.Program().Body)
	}
	ln.begin("ir.fingerprint", op)
	out.verdict.Fingerprint = p.Fingerprint().String()
	ln.end()

	// Step 1 as Batch runs it: distinct element programs fanned out in
	// pipeline order over GOMAXPROCS workers, each on its own lane. (One
	// goroutine summarizing in order would hand the engine that just
	// summarized IPOptions to the elements after it, whose summaries
	// then take seconds instead of milliseconds: README, "Findings".)
	ts := &tracedStore{inner: disk, t: t, op: op, lanes: map[ir.Fingerprint]*lane{}}
	opts := verifyOptions(ts)
	v := verify.New(opts)
	var distinct []*click.Instance
	seen := map[ir.Fingerprint]bool{}
	for _, e := range p.Elements {
		if !seen[e.SummaryKey()] {
			seen[e.SummaryKey()] = true
			distinct = append(distinct, e)
		}
	}
	for len(t.workers) < runtime.GOMAXPROCS(0) {
		t.workers = append(t.workers, t.c.rec.lane(fmt.Sprintf("certify-step1-%d", len(t.workers))))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(t.workers))
	ln.begin("verify.step1", op)
	for w, wl := range t.workers {
		wg.Add(1)
		go func(w int, wl *lane) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(distinct) || errs[w] != nil {
					return
				}
				e := distinct[i]
				name := "symbex.step1"
				if e.Class() == "IPOptions" {
					name = "symbex.step1.loop"
				}
				ts.bind(verify.StoreKey(e.Program(), opts), wl)
				wl.begin(name, op)
				_, errs[w] = v.Summarize(e)
				wl.end()
			}
		}(w, wl)
	}
	wg.Wait()
	ln.end()
	for _, err := range errs {
		if err != nil {
			return failed(err)
		}
	}
	ln.begin("verify.crash", op)
	crash, err := v.CrashFreedom(p)
	ln.end()
	if err != nil {
		return failed(err)
	}
	out.verdict.CrashFree, out.verdict.Certified = crash.Verified, crash.Verified
	out.verdict.Unresolved = crash.Unresolved
	for _, w := range crash.Witnesses {
		out.verdict.Witnesses = append(out.verdict.Witnesses, verify.BatchWitness{Path: w.Path, Detail: w.Detail, Packet: fmt.Sprintf("%x", w.Packet)})
	}
	ln.begin("verify.bound", op)
	bound, err := v.BoundedInstructions(p)
	ln.end()
	if err != nil {
		return failed(err)
	}
	out.verdict.BoundSteps = bound.MaxSteps
	if hasState(p) {
		ln.begin("verify.induction", op)
		rep, err := v.SeqCrashFreedom(p, verify.SeqOptions{})
		ln.end()
		if err != nil {
			return failed(err)
		}
		if rep.Refuted {
			out.verdict.Certified, out.verdict.CrashFree = false, false
		}
	}

	st := v.Stats()
	out.engine = st.ElementsSummarized
	t.stats = append(t.stats, st)
	t.stores = append(t.stores, disk.Stats())
	t.unresolved += crash.Unresolved
	return out, nil
}

// report turns the spans and snapshots into per-layer metrics. Times and
// counts that scale with the corpus are per round (one pass over all
// pipelines); per-call times are means.
func (t *certTrace) report(rounds, pipes int) {
	c, rec := t.c, t.c.rec
	r := float64(rounds)
	certs := float64(rounds * pipes)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	// sum adds one field over the certifications' snapshots, per round.
	sum := func(field func(verify.Stats) float64) float64 {
		var n float64
		for _, st := range t.stats {
			n += field(st)
		}
		return n / r
	}
	c.set("click.parse_us", us(rec.stat("click.parse").self)/certs)
	c.set("click.ir_stmts", float64(t.irStmts)/r)
	c.set("ir.fingerprint_us", us(rec.stat("ir.fingerprint").self)/certs)

	loop := rec.stat("symbex.step1.loop").self
	c.set("symbex.step1_s", (rec.stat("symbex.step1").self+loop).Seconds()/r)
	c.set("symbex.loop_step1_s", loop.Seconds()/r)
	c.set("symbex.engine_runs", sum(func(s verify.Stats) float64 { return float64(s.ElementsSummarized) }))
	c.set("symbex.segments", sum(func(s verify.Stats) float64 { return float64(s.SymbexStats.Segments) }))
	c.set("symbex.steps", sum(func(s verify.Stats) float64 { return float64(s.SymbexStats.StepsSymbex) }))
	c.set("symbex.solver_checks", sum(func(s verify.Stats) float64 { return float64(s.SymbexStats.SolverChecks) }))
	c.set("symbex.forks_cut", sum(func(s verify.Stats) float64 { return float64(s.SymbexStats.ForksCut) }))

	c.set("expr.encode_us", median(t.encodeUS))
	c.set("expr.decode_us", median(t.decodeUS))
	c.set("expr.summary_bytes", median(t.sumBytes))

	var hits, misses, corrupt, bytes float64
	for _, ds := range t.stores {
		hits, misses, corrupt = hits+float64(ds.Hits), misses+float64(ds.Misses), corrupt+float64(ds.Corrupt)
	}
	for _, b := range t.sumBytes {
		bytes += b
	}
	load, save := rec.stat("store.load"), rec.stat("store.save")
	c.set("store.load_us", ratio(us(load.total), float64(load.count)))
	c.set("store.save_us", ratio(us(save.total), float64(save.count)))
	c.set("store.hits", hits/r)
	c.set("store.misses", misses/r)
	c.set("store.corrupt", corrupt/r)
	c.set("store.bytes", bytes/r)

	// Solve-time percentiles exist per verifier only: the p50 is their
	// count-weighted mean, the p99 the largest.
	var p50w, solves, p99 float64
	for _, st := range t.stats {
		p50w += float64(st.SolveTimes.P50) * float64(st.SolveTimes.Count)
		solves += float64(st.SolveTimes.Count)
		p99 = max(p99, float64(st.SolveTimes.P99))
	}
	queries := sum(func(s verify.Stats) float64 { return float64(s.Solver.Queries) })
	c.set("smt.solve_busy_s", sum(func(s verify.Stats) float64 { return float64(s.SolveTimes.Sum) / 1e9 }))
	c.set("smt.solve_p50_us", ratio(p50w, solves)/1e3)
	c.set("smt.solve_p99_us", p99/1e3)
	c.set("smt.queries", queries)
	c.set("smt.sat_calls", sum(func(s verify.Stats) float64 { return float64(s.Solver.SatCalls) }))
	c.set("smt.cache_hit_share", ratio(sum(func(s verify.Stats) float64 { return float64(s.Solver.CacheHits) }), queries))
	c.set("smt.conflicts", sum(func(s verify.Stats) float64 { return float64(s.Solver.SatConflicts) }))
	c.set("smt.propagations", sum(func(s verify.Stats) float64 { return float64(s.Solver.Propagations) }))
	c.set("smt.cnf_vars", sum(func(s verify.Stats) float64 { return float64(s.Solver.CNFVars) }))
	c.set("smt.cnf_clauses", sum(func(s verify.Stats) float64 { return float64(s.Solver.CNFClauses) }))
	c.set("smt.unknowns", sum(func(s verify.Stats) float64 { return float64(s.Solver.Unknowns) }))

	paths := sum(func(s verify.Stats) float64 { return float64(s.ComposedPaths) })
	wasted := sum(func(s verify.Stats) float64 { return float64(s.ComposedInfeasible) })
	c.set("verify.crash_s", rec.stat("verify.crash").total.Seconds()/r)
	c.set("verify.bound_s", rec.stat("verify.bound").total.Seconds()/r)
	c.set("verify.induction_s", rec.stat("verify.induction").total.Seconds()/r)
	c.set("verify.composed_paths", paths)
	c.set("verify.infeasible_share", ratio(wasted, wasted+paths))
	c.set("verify.solver_queries", sum(func(s verify.Stats) float64 { return float64(s.SolverQueries) }))
	c.set("verify.summary_cache_hits", sum(func(s verify.Stats) float64 { return float64(s.SummaryCacheHits) }))
	c.set("verify.unresolved", float64(t.unresolved)/r)
}
