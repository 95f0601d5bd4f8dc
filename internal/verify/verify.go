package verify

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsd/internal/bv"
	"vsd/internal/click"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/smt"
	"vsd/internal/symbex"
	"vsd/internal/telemetry"
)

// Options configures a Verifier.
type Options struct {
	// MinLen and MaxLen bound the symbolic packet length (defaults:
	// packet.MinFrame and packet.MaxFrame are typical; zero values become
	// 14 and 1514). MinLen > MaxLen is an empty range, which every
	// property rejects with an error.
	MinLen, MaxLen uint64
	// Parallelism bounds the worker pool for Step-1 summarization and
	// the Step-2 composed-path walk. 0 uses GOMAXPROCS; 1 disables
	// concurrency. Verdicts, the instruction bound and the Stats fields
	// ComposedPaths, ComposedInfeasible and SegmentsTotal are
	// schedule-independent; witness ordering is canonicalized by path
	// (name, then (element, segment) steps). The solver's search
	// counters (Stats.Solver: decisions, conflicts, propagations, learnt
	// clauses) are not: pooled walk sessions carry learnt clauses across
	// whichever subtrees the schedule hands them.
	Parallelism int
	// Store persists Step-1 summaries across Verifier instances (and,
	// with a DiskStore, across processes), keyed by program fingerprint.
	// nil keeps summaries purely in the per-Verifier cache. Loaded
	// entries bypass the symbolic engine entirely; corrupt or missing
	// entries fall back to re-summarizing.
	Store SummaryStore
	// MaxRefinedReads caps the bad-value combination search of the
	// stateful refinement (stateful.go): crash paths whose constraint
	// mentions more state reads than this stay suspect (sound, but
	// reported via Stats.RefinementTruncated). 0 means the default of 2.
	MaxRefinedReads int
	// SolverMaxConflicts bounds each SAT search (0 = the solver default,
	// negative = unbounded) and SolverTimeout bounds its wall time (0 =
	// none). An exhausted budget surfaces as an unresolved obligation in
	// the property report — never as a false verdict — so callers like
	// vsdserve can bound worst-case latency.
	SolverMaxConflicts int64
	SolverTimeout      time.Duration
	// SolverFaultHook forwards to smt.Options.FaultHook: the
	// fault-injection harness's solver-level hook (internal/faultinject)
	// forcing Unknown verdicts, timeouts, or panics into individual SAT
	// searches. Production configurations leave it nil.
	SolverFaultHook func() smt.SolveFault
	// Trace records phase/obligation spans (Step-1 summarizations,
	// Step-2 walks, per-obligation SAT solves, store operations) into
	// the given tracer for Chrome trace-event export. nil disables
	// tracing at zero cost (the disabled path is allocation-free).
	Trace *telemetry.Tracer
	// Metrics threads verifier latency histograms and store counters
	// through the given registry (surfaced by vsdserve's /metrics).
	// nil keeps the always-on solve/summarize histograms private to
	// Stats.
	Metrics *telemetry.Registry
	// Profile aggregates per-obligation solver cost (wall time,
	// conflicts, CNF growth) for ObligationProfile — the machinery
	// behind `vsdverify -profile`. Off by default: it prices a string
	// label per stitched obligation.
	Profile bool
}

// normalize applies New's defaults to the packet-length bounds and
// rejects an empty range: no packet has a length in MinLen..MaxLen when
// MinLen > MaxLen, so every property would hold vacuously. Every
// property (through Verifier.summary) and Monolithic pass through here.
func (o Options) normalize() (Options, error) {
	if o.MinLen == 0 {
		o.MinLen = 14
	}
	if o.MaxLen == 0 {
		o.MaxLen = 1514
	}
	if o.MinLen > o.MaxLen {
		return o, fmt.Errorf("verify: empty packet-length range %d..%d: MinLen exceeds MaxLen", o.MinLen, o.MaxLen)
	}
	return o, nil
}

// Validate reports the error every property returns under this
// configuration, if any, so a command can refuse it before it starts.
func (o Options) Validate() error {
	_, err := o.normalize()
	return err
}

// solverOptions translates the verifier-level solver budgets into
// smt.Options (shared by the compositional verifier and the monolithic
// baseline so the two compare like with like).
func (o Options) solverOptions() smt.Options {
	return smt.Options{
		MaxConflicts: o.SolverMaxConflicts,
		QueryTimeout: o.SolverTimeout,
		FaultHook:    o.SolverFaultHook,
	}
}

// DefaultMaxRefinedReads is the refinement cap used when
// Options.MaxRefinedReads is zero.
const DefaultMaxRefinedReads = 2

// DefaultMaxComposedPaths bounds Step-2 path enumeration: a walk that
// would explore more composed paths fails with an error.
const DefaultMaxComposedPaths = 1 << 18

// Stats describes the work a verification performed.
type Stats struct {
	ElementsSummarized int   // Step-1 symbolic-engine runs (all caches missed)
	SummaryCacheHits   int   // Step-1 in-memory cache hits
	StoreHits          int   // Step-1 summaries loaded from Options.Store
	StoreMisses        int   // Options.Store lookups that fell through to the engine
	SegmentsTotal      int   // segments across all summaries used
	Suspects           int   // crash-tagged segments before composition
	ComposedPaths      int   // stitched paths explored in Step 2
	ComposedInfeasible int   // stitched paths discharged as infeasible
	SolverQueries      int64 // feasibility queries in Step 2
	// StitchesReplayed counts stitch obligations, and sequence
	// extensions of the crash-freedom induction, decided from a Step-2
	// certificate instead of the solver (DESIGN.md §7.5).
	StitchesReplayed int64
	// StitchesBuilt counts composed states whose formulas were built by
	// substituting their segment: at the stitch when its decision needed
	// them, later when a visitor or a descendant's solve read them. A
	// walk replayed in full builds none.
	StitchesBuilt int64
	// TableRefinements counts path ends the concrete static tables ruled
	// out (DESIGN.md §3.2): violations and sequence witnesses whose
	// lookup keys cannot take the values the path forked on, and bound
	// candidates passed over for the same reason.
	TableRefinements int64
	// RefinementTruncated counts crash paths left suspect because they
	// read more state values than Options.MaxRefinedReads allows the
	// bad-value search to enumerate.
	RefinementTruncated int
	// Robustness counters (DESIGN.md §9). PanicsRecovered counts engine
	// panics contained by the workers (each surfaced as an unresolved
	// obligation, never a verdict); WatchdogFired counts wall-budget
	// cancellations delivered through Interrupt.
	PanicsRecovered int
	WatchdogFired   int
	// Sequence-verification counters (induction.go, DESIGN.md §8).
	SeqSequences     int // feasible multi-packet sequences explored
	SeqInfeasible    int // sequence extensions discharged as infeasible
	InductionDepth   int // deepest k-induction step attempted
	InductionProved  int // obligations proved for unbounded sequences
	InductionRefuted int // induction obligations refuted by a reachable sequence
	SeqSpecRefuted   int // bounded sequence specs/explorations refuted
	SymbexStats      symbex.Stats
	// SolveTimes is the wall-clock spread of individual solver queries
	// (nanoseconds) and SummarizeTimes of Step-1 engine runs — the
	// percentile view that end-of-run totals hide (a neutral mean can
	// mask a regressed tail; BENCH records carry these since PR 10).
	SolveTimes     telemetry.HistSummary
	SummarizeTimes telemetry.HistSummary
	// Solver carries the shared solver's counters, including the
	// incremental-session ones (assumption solves, reused clauses).
	Solver smt.Stats
}

// Verifier runs compositional verification over pipelines. All methods
// are safe for concurrent use; a single verification also fans its own
// work out across Options.Parallelism goroutines.
type Verifier struct {
	solver *smt.Solver
	opts   Options
	// optsErr is opts' normalize error: an invalid configuration every
	// property reports instead of a verdict.
	optsErr error

	// mu guards the summary cache, the statistics, and the idle pools.
	// The per-query counters below are atomics instead: every walker
	// bumps them on the hot path, and a shared mutex there serializes
	// the pool.
	mu       sync.Mutex
	cache    map[ir.Fingerprint]*summaryEntry
	certs    map[ir.Fingerprint]*certTable
	stats    Stats
	sessions []*smt.IncrementalSession

	composedPaths      atomic.Int64
	composedInfeasible atomic.Int64
	solverQueries      atomic.Int64
	stitchesReplayed   atomic.Int64
	stitchesBuilt      atomic.Int64
	tableRefinements   atomic.Int64
	panicsRecovered    atomic.Int64
	watchdogFired      atomic.Int64

	// interrupt is the watchdog's cancellation flag, shared with the
	// solver (smt.Options.Interrupt): setting it makes every in-flight
	// and future SAT search return Unknown and stops walkers at the next
	// subtree boundary, so all affected obligations degrade to
	// unresolved — never to a verdict.
	interrupt atomic.Bool

	// visitMu serializes walk visit callbacks; rootSession backs the
	// solver queries made from inside them (witnesses, the stateful
	// refinement) and from post-walk report construction.
	visitMu     sync.Mutex
	rootSession *smt.IncrementalSession

	// tel is the telemetry spine (always non-nil; see vtel).
	tel *vtel

	// eagerBuild builds every composed state at its stitch: the eager
	// walk that TestLazyEagerDifferential holds the lazy one to.
	eagerBuild bool
}

// summaryEntry is a once-filled summary cache slot: concurrent walkers
// requesting the same program block on the first computation instead of
// duplicating it. merged records whether the summary's step counts are
// upper bounds (loop-state merging), whether it was computed here or
// loaded from the store. Its digest keys Step-2 certificates (cert.go).
type summaryEntry struct {
	once   sync.Once
	segs   []*symbex.Segment
	merged bool
	err    error

	// sum is the summary's digest: set on fill when the store read or
	// wrote its encoding, computed on first use otherwise (digest).
	digestOnce sync.Once
	sum        ir.Fingerprint
}

// New returns a Verifier with a fresh solver and empty caches.
func New(opts Options) *Verifier {
	opts, optsErr := opts.normalize()
	v := &Verifier{
		opts:    opts,
		optsErr: optsErr,
		cache:   map[ir.Fingerprint]*summaryEntry{},
		certs:   map[ir.Fingerprint]*certTable{},
		tel:     newVtel(opts),
	}
	so := opts.solverOptions()
	so.Interrupt = &v.interrupt
	v.solver = smt.New(so)
	v.rootSession = v.solver.NewSession()
	// Witness extraction and refinement queries run on the root
	// session from under visitMu (one goroutine at a time), so one
	// permanent lane keeps their spans properly nested.
	v.tel.bindSession(v.rootSession, v.tel.tracer.Lane("verify-root"))
	return v
}

// Interrupt cancels all in-flight and future solver work on this
// Verifier: SAT searches return Unknown, walkers stop at the next
// subtree boundary, and every affected obligation degrades to
// unresolved (DESIGN.md §9). It never fabricates a verdict. Interrupt
// is verifier-wide: under a shared Verifier, concurrent verifications
// all degrade — acceptable collateral for a watchdog whose alternative
// is a wedged daemon. Resume restores service.
func (v *Verifier) Interrupt() { v.interrupt.Store(true) }

// Resume clears an Interrupt, restoring normal solving for subsequent
// queries.
func (v *Verifier) Resume() { v.interrupt.Store(false) }

// WithWatchdog runs fn under a wall budget: if fn has not returned
// within budget, the verifier is interrupted — cancelling solver work
// even when the solver ignores its own deadline (a propagation storm
// between deadline checks, an injected stall) — and fn's obligations
// degrade to unresolved. The interrupt is cleared before returning.
// fired reports whether the watchdog had to step in. budget <= 0 runs
// fn unguarded.
func (v *Verifier) WithWatchdog(budget time.Duration, fn func() error) (fired bool, err error) {
	if budget <= 0 {
		return false, fn()
	}
	interrupted := make(chan struct{})
	t := time.AfterFunc(budget, func() {
		defer close(interrupted)
		v.watchdogFired.Add(1)
		v.Interrupt()
	})
	err = fn()
	// Stop returning false means the callback has fired (or is mid-run):
	// wait for its Interrupt to land before clearing it, so a late timer
	// can never leave the verifier permanently interrupted.
	if !t.Stop() {
		<-interrupted
		v.Resume()
		return true, err
	}
	return false, err
}

// parallelism resolves Options.Parallelism.
func (v *Verifier) parallelism() int {
	if v.opts.Parallelism > 0 {
		return v.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Stats returns a snapshot of the accumulated statistics. It is safe to
// call concurrently with a running verification; engine counters are
// folded in as each Step-1 run finishes.
func (v *Verifier) Stats() Stats {
	v.mu.Lock()
	s := v.stats
	v.mu.Unlock()
	s.ComposedPaths = int(v.composedPaths.Load())
	s.ComposedInfeasible = int(v.composedInfeasible.Load())
	s.SolverQueries = v.solverQueries.Load()
	s.StitchesReplayed = v.stitchesReplayed.Load()
	s.StitchesBuilt = v.stitchesBuilt.Load()
	s.TableRefinements = v.tableRefinements.Load()
	s.PanicsRecovered = int(v.panicsRecovered.Load())
	s.WatchdogFired = int(v.watchdogFired.Load())
	s.Solver = v.solver.Stats()
	s.SolveTimes = v.tel.solveHist.Summary()
	s.SummarizeTimes = v.tel.summarizeHist.Summary()
	return s
}

// getSession checks an idle incremental solver session out of the
// pool. Step-2 sessions stay pooled for the verifier's lifetime, unlike
// Step-1 engines: every walk of every pipeline stitches the same cached
// segments, so a session that has seen them carries their blasted form
// and learnt clauses into the next walk, and a query's cost follows its
// own cone however much else the session holds. The checkout also
// binds the session to a trace lane (when tracing): the caller's
// goroutine drives the session sequentially until putSession, which is
// exactly the nesting discipline a lane needs.
func (v *Verifier) getSession() *smt.IncrementalSession {
	v.mu.Lock()
	if n := len(v.sessions); n > 0 {
		s := v.sessions[n-1]
		v.sessions = v.sessions[:n-1]
		v.mu.Unlock()
		v.tel.bindSession(s, v.tel.getLane())
		return s
	}
	v.mu.Unlock()
	s := v.solver.NewSession()
	v.tel.bindSession(s, v.tel.getLane())
	return s
}

func (v *Verifier) putSession(s *smt.IncrementalSession) {
	if lane := v.tel.laneFor(s); lane != nil {
		v.tel.bindSession(s, nil)
		v.tel.putLane(lane)
	}
	v.mu.Lock()
	v.sessions = append(v.sessions, s)
	v.mu.Unlock()
}

// input returns the Step-1 symbolic input specification.
func (v *Verifier) input() symbex.Input {
	return symbex.DefaultInput(v.opts.MinLen, v.opts.MaxLen)
}

// Pre returns the global assumptions (packet length bounds) under which
// all verdicts hold.
func (v *Verifier) Pre() []*expr.Expr { return v.input().Pre }

// Summarize runs Step 1 for one element, with caching by the program's
// content fingerprint. Concurrent calls for the same program share one
// computation. With Options.Store set, the persistent store is
// consulted before the symbolic engine and updated after a fresh run.
func (v *Verifier) Summarize(e *click.Instance) ([]*symbex.Segment, error) {
	ent, err := v.summary(e)
	return ent.segs, err
}

// maxCachedSummaries and maxCachedCerts cap the summary cache and the
// certificate tables of a Verifier with a store behind them: a
// long-lived service would otherwise keep every summary and
// certificate it ever loaded. Like the solver's verdict cache, a full
// map is dropped wholesale; what a later walk needs again is reloaded
// from the store. Without a store the maps are the only copy, and stay.
const (
	maxCachedSummaries = 256
	maxCachedCerts     = 64
)

// summary is Summarize returning the filled cache slot, whose merged
// flag and digest belong to exactly these segments even if the cap has
// since dropped the slot from the cache. Every property asks for its
// summaries here first, so an invalid configuration (normalize) fails
// them all before any work.
func (v *Verifier) summary(e *click.Instance) (*summaryEntry, error) {
	if v.optsErr != nil {
		return &summaryEntry{err: v.optsErr}, v.optsErr
	}
	key := e.SummaryKey()
	v.mu.Lock()
	ent, ok := v.cache[key]
	if ok {
		v.stats.SummaryCacheHits++
	} else {
		if v.opts.Store != nil && len(v.cache) >= maxCachedSummaries {
			v.cache = map[ir.Fingerprint]*summaryEntry{}
		}
		ent = &summaryEntry{}
		v.cache[key] = ent
	}
	v.mu.Unlock()
	ent.once.Do(func() { ent.segs, ent.merged, ent.sum, ent.err = v.loadOrSummarize(e) })
	if ent.err != nil && errors.Is(ent.err, errUnresolved) {
		// A transient failure — contained engine panic, watchdog
		// interrupt — must not poison the cache: drop the entry so a
		// later admission (or a queued retry) re-runs the engine
		// instead of inheriting this fault forever.
		v.mu.Lock()
		if v.cache[key] == ent {
			delete(v.cache, key)
		}
		v.mu.Unlock()
	}
	return ent, ent.err
}

// loadOrSummarize fills one summary-cache slot: from the persistent
// store when possible, from the engine otherwise (updating the store).
// Store traffic is keyed by StoreKey — the program fingerprint bound to
// the verifier's Step-1 context — never by the bare program key, so a
// store shared between differently-configured verifiers stays sound.
// The digest is the store's (symbex.Summary.Digest), zero without one.
func (v *Verifier) loadOrSummarize(e *click.Instance) ([]*symbex.Segment, bool, ir.Fingerprint, error) {
	if v.opts.Store == nil {
		segs, merged, err := v.summarize(e)
		return segs, merged, ir.Fingerprint{}, err
	}
	key := StoreKey(e.Program(), v.opts)
	lane := v.tel.getLane()
	sp := lane.Begin("store", "store-load:"+e.Name())
	sum, ok := v.opts.Store.Load(key)
	sp.End()
	v.tel.putLane(lane)
	if ok {
		v.tel.storeLoads.Inc()
		v.countSummary(sum.Segments, sum.Merged, true)
		return sum.Segments, sum.Merged, sum.Digest, nil
	}
	v.mu.Lock()
	v.stats.StoreMisses++
	v.mu.Unlock()
	segs, merged, err := v.summarize(e)
	if err != nil {
		return nil, false, ir.Fingerprint{}, err
	}
	lane = v.tel.getLane()
	sp = lane.Begin("store", "store-save:"+e.Name())
	sum = &symbex.Summary{Segments: segs, Merged: merged}
	v.opts.Store.Save(key, sum)
	sp.End()
	v.tel.putLane(lane)
	v.tel.storeSaves.Inc()
	return segs, merged, sum.Digest, nil
}

// summariesMerged reports whether any of a walk's summaries carries the
// merged (steps-are-upper-bounds) flag.
func (v *Verifier) summariesMerged(sums []*summaryEntry) bool {
	for _, ent := range sums {
		if ent.merged {
			return true
		}
	}
	return false
}

// countSummary folds one summary's segment counters into the stats.
// fromStore marks summaries served by the persistent store (no engine
// run); their Merged flag still taints step-count exactness.
func (v *Verifier) countSummary(segs []*symbex.Segment, merged, fromStore bool) {
	v.mu.Lock()
	if fromStore {
		v.stats.StoreHits++
		v.stats.SymbexStats.Merged = v.stats.SymbexStats.Merged || merged
	} else {
		v.stats.ElementsSummarized++
	}
	v.stats.SegmentsTotal += len(segs)
	for _, s := range segs {
		if s.IsSuspect() {
			v.stats.Suspects++
		}
	}
	v.mu.Unlock()
}

// summarize is the uncached Step-1 engine run. The second result
// reports whether loop-state merging occurred during this run (making
// the summary's step counts upper bounds; the flag is persisted with
// the artifact). Every run gets its own engine — summaries are cached by
// fingerprint, so no engine would see the same program twice. An engine
// panic is contained here (DESIGN.md §9): the element's summary becomes
// an unresolved obligation, never a partial summary.
func (v *Verifier) summarize(e *click.Instance) (segs []*symbex.Segment, merged bool, err error) {
	defer v.capturePanic(fmt.Sprintf("step-1 summarization of %s", e.Name()), nil, &err)
	lane := v.tel.getLane()
	sp := lane.Begin("step1", "summarize:"+e.Name())
	start := time.Now()
	eng := symbex.New(v.solver, symbex.Options{})
	segs, err = eng.Run(e.Program(), v.input())
	est := eng.Stats()
	merged = est.Merged
	v.mu.Lock()
	v.stats.SymbexStats.Add(est)
	v.mu.Unlock()
	v.tel.summarizeHist.Record(int64(time.Since(start)))
	sp.SetInt("segments", int64(len(segs)))
	sp.End()
	v.tel.putLane(lane)
	if err != nil {
		return nil, false, fmt.Errorf("verify: summarizing %s: %w", e.Name(), err)
	}
	v.countSummary(segs, merged, false)
	return segs, merged, nil
}

// summarizeAll runs Step 1 for every pipeline element, fanning distinct
// element classes out across the worker pool.
func (v *Verifier) summarizeAll(elems []*click.Instance) ([]*summaryEntry, error) {
	out := make([]*summaryEntry, len(elems))
	par := v.parallelism()
	if par > len(elems) {
		par = len(elems)
	}
	if par <= 1 {
		for i, e := range elems {
			ent, err := v.summary(e)
			if err != nil {
				return nil, err
			}
			out[i] = ent
		}
		return out, nil
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		errMu sync.Mutex
		first error
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(elems) {
					return
				}
				ent, err := v.summary(elems[i])
				if err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
				out[i] = ent
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}

// composed is the symbolic state of a stitched path prefix: the
// pipeline-level analogue of a segment. Its path part (elems, segs,
// ports, steps, nAcc) and its cached witness are set by the stitch that
// made it; its formulas are built only when something reads them
// (DESIGN.md §7.5). A stitch decided without them — replayed from a
// certificate, or a segment with no condition — leaves parent, seg and
// w naming the substitution, and the first call of formulas performs
// it, once, for every walker sharing the state.
type composed struct {
	// elems and ports record the element-level path so far; segs holds
	// the segment index stitched at each element, so (elems, segs) names
	// the composed path exactly (several can share one element path).
	elems []int
	segs  []int
	ports []int
	steps int64
	// nAcc renumbers each stitched segment's state-access order into the
	// composed path.
	nAcc int
	// nLookups counts the path's table lookups on symbolic keys (the
	// formulas hold them), so a leaf with none skips the leaf rule
	// without building anything.
	nLookups int
	model    *expr.Assignment // cached witness, nil if unknown

	// parent, seg and w are set while the formulas are unbuilt; they are
	// read and cleared only under once.
	parent *composed
	seg    *symbex.Segment
	w      *walker
	once   sync.Once
	f      formulas
}

// formulas is the substituted part of a composed state.
type formulas struct {
	conds []*expr.Expr
	pkt   *expr.Array
	meta  map[string]*expr.Expr
	// reads and writes accumulate state accesses with globally unique
	// variable names and instance-qualified store names.
	reads  []symbex.StateAccess
	writes []symbex.StateUpdate
	// lookups accumulates the table lookups, bound to their concrete
	// tables (tables.go).
	lookups []pathLookup
}

// formulas returns the state's formulas, substituting its stitch on
// first use: a certificate miss that solves, a crash end the stateful
// refinement or a witness inspects, and every visitor reading the
// path's packet, metadata or constraint. Safe for concurrent use.
func (c *composed) formulas() *formulas {
	c.once.Do(func() {
		if c.parent == nil {
			return // built by its stitch, or the entry state
		}
		c.f = c.w.extend(c.parent, c.seg, c.elems[len(c.elems)-1])
		c.parent, c.seg, c.w = nil, nil, nil
	})
	return &c.f
}

// entryState builds the composed state at pipeline ingress: a fresh
// packet array and zeroed metadata annotations, matching the runtime.
func entryState(p *click.Pipeline) *composed {
	meta := map[string]*expr.Expr{}
	for _, e := range p.Elements {
		for slot, w := range e.Program().MetaSlots {
			if _, ok := meta[slot]; !ok {
				meta[slot] = expr.Const(w, 0)
			}
		}
	}
	return &composed{f: formulas{
		pkt:  expr.BaseArray(symbex.PktArrayName),
		meta: meta,
	}}
}

// stitch applies segment seg (index si in its summary) of element pos to
// the composed prefix, returning the extended state, or nil when the
// stitched constraint is infeasible. This is the paper's Step-2
// substitution: Cp(in) = C_prefix(in) ∧ C_seg(S_prefix(in)). It is
// performed here only when the decision needs it; a replayed decision
// and a segment with no condition defer it to formulas. sess is the
// calling walker's incremental solver session.
func (w *walker) stitch(sess *smt.IncrementalSession, st *composed, seg *symbex.Segment, pos, si int, lbl string) *composed {
	v := w.v
	out := &composed{
		elems:    append(append(make([]int, 0, len(st.elems)+1), st.elems...), pos),
		segs:     append(append(make([]int, 0, len(st.segs)+1), st.segs...), si),
		ports:    append(make([]int, 0, len(st.ports)+1), st.ports...),
		steps:    st.steps + seg.Steps,
		nAcc:     st.nAcc + symbex.AccessSpan(seg.Reads, seg.Writes),
		nLookups: st.nLookups + len(seg.Lookups),
		model:    st.model,
	}
	if len(seg.Cond) == 0 {
		// Feasible whenever the prefix is, with the prefix's witness.
		return w.deferBuild(out, st, seg)
	}
	var path []byte
	if w.cert != nil {
		path = certPath(make([]byte, 0, certStep*len(out.elems)), out)
		if feasible, ok := w.cert.lookup(stitchEntry, path); ok {
			v.countReplayed()
			if !feasible {
				v.countInfeasible()
				return nil
			}
			// A replayed state carries no model.
			out.model = nil
			return w.deferBuild(out, st, seg)
		}
	}
	pf := st.formulas()
	sub := stitchSubst(pf, seg, pos)
	newConds, ok := substConds(sub, seg)
	if !ok {
		v.countInfeasible()
		return nil
	}
	if len(newConds) > 0 {
		feasible, m, unknown, sat := v.feasible(sess, st, newConds, w.extraPre, "stitch", lbl)
		if w.cert != nil && !unknown {
			w.cert.record(stitchEntry, path, feasible, sat)
		}
		if !feasible {
			v.countInfeasible()
			return nil
		}
		out.model = m
	}
	out.f = stitchFormulas(pf, sub, seg, newConds, w.p.Elements[pos], st.nAcc)
	v.countBuilt()
	return out
}

// deferBuild leaves the formulas of out, the prefix st extended by seg,
// to its first formulas call (the eager walk of the tests builds them
// here).
func (w *walker) deferBuild(out, st *composed, seg *symbex.Segment) *composed {
	if w.v.eagerBuild {
		out.f = w.extend(st, seg, out.elems[len(out.elems)-1])
		return out
	}
	out.parent, out.seg, out.w = st, seg, w
	return out
}

// extend builds the formulas of the prefix st extended by seg at element
// pos, a stitch already decided feasible. No condition folds to false
// then, unless a certificate lied; the false condition stays in the
// constraint, where any later solve refutes it.
func (w *walker) extend(st *composed, seg *symbex.Segment, pos int) formulas {
	pf := st.formulas()
	sub := stitchSubst(pf, seg, pos)
	newConds, _ := substConds(sub, seg)
	w.v.countBuilt()
	return stitchFormulas(pf, sub, seg, newConds, w.p.Elements[pos], st.nAcc)
}

// stitchSubst binds segment seg's inputs, as stitched at element pos,
// to the prefix formulas pf. State reads get globally unique names.
func stitchSubst(pf *formulas, seg *symbex.Segment, pos int) *expr.Subst {
	sub := expr.NewSubst()
	sub.BindArr(symbex.PktArrayName, pf.pkt)
	for slot, val := range pf.meta {
		sub.BindVar(symbex.MetaVarPrefix+slot, val)
	}
	for _, rd := range seg.Reads {
		sub.BindVar(rd.Var.Name, expr.Var(fmt.Sprintf("p%d.%s", pos, rd.Var.Name), rd.Var.Width()))
	}
	return sub
}

// substConds substitutes seg's conditions, dropping those that fold to
// true. ok is false when one folds to false; newConds then ends with it.
func substConds(sub *expr.Subst, seg *symbex.Segment) (newConds []*expr.Expr, ok bool) {
	for _, c := range seg.Cond {
		ic := sub.Apply(c)
		if ic.IsTrue() {
			continue
		}
		newConds = append(newConds, ic)
		if ic.IsFalse() {
			return newConds, false
		}
	}
	return newConds, true
}

// stitchFormulas builds the formulas of the prefix pf (nAcc accesses
// long) extended by seg under sub, whose substituted conditions are
// newConds. Stores are qualified by the instance name of e so the
// bad-value analysis can find the owning writes, and lookups are bound
// to e's concrete tables.
func stitchFormulas(pf *formulas, sub *expr.Subst, seg *symbex.Segment, newConds []*expr.Expr, e *click.Instance, nAcc int) formulas {
	inst := e.Name()
	f := formulas{
		conds:   append(pf.conds[:len(pf.conds):len(pf.conds)], newConds...),
		pkt:     sub.ApplyArray(seg.Pkt),
		meta:    make(map[string]*expr.Expr, len(pf.meta)),
		reads:   pf.reads[:len(pf.reads):len(pf.reads)],
		writes:  pf.writes[:len(pf.writes):len(pf.writes)],
		lookups: pf.lookups[:len(pf.lookups):len(pf.lookups)],
	}
	for k, val := range pf.meta {
		f.meta[k] = val
	}
	for slot, val := range seg.Meta {
		f.meta[slot] = sub.Apply(val)
	}
	for _, rd := range seg.Reads {
		f.reads = append(f.reads, symbex.StateAccess{
			Store: inst + "." + rd.Store,
			Key:   sub.Apply(rd.Key),
			Var:   sub.Apply(rd.Var),
			Seq:   nAcc + rd.Seq,
		})
	}
	for _, wr := range seg.Writes {
		f.writes = append(f.writes, symbex.StateUpdate{
			Store: inst + "." + wr.Store,
			Key:   sub.Apply(wr.Key),
			Val:   sub.Apply(wr.Val),
			Seq:   nAcc + wr.Seq,
		})
	}
	for _, lk := range seg.Lookups {
		f.lookups = append(f.lookups, bindLookup(e.Program(), sub, lk))
	}
	return f
}

func (v *Verifier) countInfeasible() { v.composedInfeasible.Add(1) }

// countReplayed counts one decision replayed from a certificate: a
// stitch, or a sequence extension of the crash-freedom induction.
func (v *Verifier) countReplayed() {
	v.stitchesReplayed.Add(1)
	v.tel.replays.Inc()
}

func (v *Verifier) countBuilt() {
	v.stitchesBuilt.Add(1)
	v.tel.builds.Inc()
}

// feasible decides whether the prefix extended by newConds is
// satisfiable on the given session, using the cached witness first. An
// Unknown verdict (conflict budget, deadline, or cancellation) reports
// feasible=true — the sound direction for every property, since paths
// are only ever discharged on Unsat — with unknown=true so callers can
// surface the obligation as unresolved instead of fabricating a verdict.
// kind and lbl attribute the query for tracing and the obligation
// profiler; lbl is empty when neither consumer is active. solved
// reports a decision that took the SAT core or the order pass, on this
// query or on the earlier one whose verdict the solver's cache
// returned: on a run without that history it would take them again.
func (v *Verifier) feasible(sess *smt.IncrementalSession, st *composed, newConds, extraPre []*expr.Expr, kind, lbl string) (feasible bool, m *expr.Assignment, unknown, solved bool) {
	if st.model != nil {
		ok := true
		for _, c := range newConds {
			if !expr.Eval(c, st.model).IsTrue() {
				ok = false
				break
			}
		}
		if ok {
			return true, st.model, false, false
		}
	}
	pre := v.Pre()
	conds := st.formulas().conds
	cons := make([]*expr.Expr, 0, len(pre)+len(extraPre)+len(conds)+len(newConds))
	cons = append(cons, pre...)
	cons = append(cons, extraPre...)
	cons = append(cons, conds...)
	cons = append(cons, newConds...)
	v.solverQueries.Add(1)
	sp, started := v.tel.beginSolve(sess, kind, lbl)
	r, m := sess.Check(cons)
	info := sess.LastSolve()
	v.tel.recordSolve(info, kind, lbl, started, sp)
	solved = info.SATCore || info.OrderDecided || info.Cached
	switch r {
	case smt.Unsat:
		return false, nil, false, solved
	case smt.Unknown:
		return true, nil, true, false
	}
	return true, m, false, solved
}

// feasibleRoot is feasible on the root session: only for use under
// visitMu (visit callbacks, the stateful refinement) or after walk
// returns (report construction).
func (v *Verifier) feasibleRoot(st *composed, newConds, extraPre []*expr.Expr, kind, lbl string) (feasible bool, m *expr.Assignment, unknown bool) {
	feasible, m, unknown, _ = v.feasible(v.rootSession, st, newConds, extraPre, kind, lbl)
	return feasible, m, unknown
}

// pathEnd describes how a composed path terminated.
type pathEnd struct {
	state  *composed
	disp   ir.Disposition
	crash  *symbex.CrashRecord
	egress int // valid when disp == Emitted (pipeline egress id)
}

// walker drives one composed-path exploration: a bounded pool of
// workers, each with its own incremental solver session, cooperating
// through a task queue. Subtrees are offloaded to the queue when a
// worker slot may be idle and explored inline otherwise, so the walk
// degrades to a plain DFS at Parallelism=1.
type walker struct {
	v         *Verifier
	p         *click.Pipeline
	extraPre  []*expr.Expr
	cert      *certTable // nil unless extraPre is empty
	summaries []*summaryEntry
	visit     func(pathEnd) error

	tasks    chan walkTask
	pending  sync.WaitGroup
	explored atomic.Int64
	stopped  atomic.Bool

	errMu sync.Mutex
	err   error
}

type walkTask struct {
	elem int
	st   *composed
}

func (w *walker) recordErr(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.stopped.Store(true)
}

// trySpawn offloads a subtree to the pool without blocking; the caller
// explores it inline when the queue is full (or the walk is sequential).
func (w *walker) trySpawn(elem int, st *composed) bool {
	if w.tasks == nil {
		return false
	}
	w.pending.Add(1)
	select {
	case w.tasks <- walkTask{elem, st}:
		return true
	default:
		w.pending.Done()
		return false
	}
}

// doVisit serializes terminal-path callbacks (they mutate report state
// and may query the verifier's root session).
func (w *walker) doVisit(end pathEnd) error {
	w.v.visitMu.Lock()
	defer w.v.visitMu.Unlock()
	return w.visit(end)
}

// safeDFS runs one walk task under panic containment: a panic anywhere
// in the subtree — stitching, feasibility solving, a visit callback —
// is converted into an unresolved-obligation error, and the worker's
// session is reset so poisoned SAT state cannot serve later queries.
func (w *walker) safeDFS(sess *smt.IncrementalSession, elem int, st *composed) (err error) {
	defer func() {
		var pe *panicError
		if err == nil || !errors.As(err, &pe) {
			return
		}
		// The panic may have unwound through a visit callback mid-query
		// on the shared root session; don't trust that instance either.
		w.v.visitMu.Lock()
		w.v.rootSession.Reset()
		w.v.visitMu.Unlock()
	}()
	defer w.v.capturePanic("step-2 composed-path walk", sess, &err)
	return w.dfs(sess, elem, st)
}

// dfs explores the subtree rooted at (elem, st) on the worker's session.
func (w *walker) dfs(sess *smt.IncrementalSession, elem int, st *composed) error {
	if w.stopped.Load() {
		return nil
	}
	// A watchdog interrupt stops exploration outright: with the solver
	// cancelled every feasibility query would come back Unknown (treated
	// feasible), so continuing would enumerate the full unpruned tree to
	// no benefit. The whole walk degrades to one unresolved obligation.
	if w.v.interrupt.Load() {
		return errInterrupted
	}
	inst := w.p.Elements[elem].Name()
	// The obligation label names the stitched-path extension this
	// element contributes. Built only when the tracer or the profiler
	// will consume it — it costs a string per (prefix, element) pair.
	lbl := ""
	if w.v.tel.active() {
		if len(st.elems) == 0 {
			lbl = inst
		} else {
			lbl = pathName(w.p, st) + " -> " + inst
		}
	}
	for si, seg := range w.summaries[elem].segs {
		next := w.stitch(sess, st, seg, elem, si, lbl)
		if next == nil {
			continue
		}
		terminal := false
		end := pathEnd{state: next, egress: -1}
		switch seg.Disposition {
		case ir.Crashed, ir.Dropped:
			terminal = true
			end.disp = seg.Disposition
			end.crash = seg.Crash
		case ir.Emitted:
			next.ports = append(next.ports, seg.Port)
			edge := w.p.Edges[elem][seg.Port]
			if edge.To < 0 {
				terminal = true
				end.disp = ir.Emitted
				end.egress = w.p.EgressID(elem, seg.Port)
			} else if !w.trySpawn(edge.To, next) {
				if err := w.dfs(sess, edge.To, next); err != nil {
					return err
				}
			}
		}
		if terminal {
			n := w.explored.Add(1)
			w.v.composedPaths.Add(1)
			if lane := w.v.tel.laneFor(sess); lane != nil {
				lane.Instant("step2", "path:"+end.disp.String())
			}
			if err := w.doVisit(end); err != nil {
				return err
			}
			if n > DefaultMaxComposedPaths {
				return fmt.Errorf("verify: more than %d composed paths", DefaultMaxComposedPaths)
			}
		}
		if w.stopped.Load() {
			return nil
		}
	}
	return nil
}

// walk explores every feasible composed path of the pipeline, invoking
// visit for each terminating path (crash, drop, or egress). extraPre
// adds property-specific input assumptions (e.g. reachability
// preconditions). Visit callbacks are serialized; path order is
// unspecified when Parallelism > 1. A walk with no extraPre decides its
// stitch obligations through the pipeline's Step-2 certificate, which
// it returns, and hands the table to saves after exploring. merged
// reports whether the walk's step counts are upper bounds
// (summariesMerged).
func (v *Verifier) walk(p *click.Pipeline, extraPre []*expr.Expr, saves *certSaves, visit func(pathEnd) error) (merged bool, cert *certTable, err error) {
	sp := v.tel.main.Begin("phase", "step1:summarize-all")
	summaries, err := v.summarizeAll(p.Elements)
	sp.End()
	if err != nil {
		return false, nil, err
	}
	merged = v.summariesMerged(summaries)
	sp = v.tel.main.Begin("phase", "step2:walk")
	defer sp.End()
	w := &walker{
		v:         v,
		p:         p,
		extraPre:  extraPre,
		summaries: summaries,
		visit:     visit,
	}
	if len(extraPre) == 0 {
		w.cert = v.certTableFor(p, summaries)
		defer saves.done(v, w.cert)
	}
	root := entryState(p)
	par := v.parallelism()
	if par <= 1 {
		sess := v.getSession()
		err := w.safeDFS(sess, p.Entry, root)
		v.putSession(sess)
		if err != nil {
			return merged, w.cert, err
		}
		return merged, w.cert, w.err
	}
	w.tasks = make(chan walkTask, 4*par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := v.getSession()
			defer v.putSession(sess)
			for t := range w.tasks {
				if err := w.safeDFS(sess, t.elem, t.st); err != nil {
					w.recordErr(err)
				}
				w.pending.Done()
			}
		}()
	}
	w.pending.Add(1)
	w.tasks <- walkTask{p.Entry, root}
	go func() {
		w.pending.Wait()
		close(w.tasks)
	}()
	wg.Wait()
	return merged, w.cert, w.err
}

// pathName renders a composed path for reports.
func pathName(p *click.Pipeline, st *composed) string {
	out := ""
	for i, e := range st.elems {
		if i > 0 {
			out += " -> "
		}
		out += p.Elements[e].Name()
		if i < len(st.ports) {
			out += fmt.Sprintf("[%d]", st.ports[i])
		}
	}
	return out
}

// pathLess is the total order on composed paths: their (element,
// segment) steps compared lexicographically, a prefix first — the order
// of their certPath keys.
func pathLess(a, b *composed) bool {
	for i := 0; i < len(a.elems) && i < len(b.elems); i++ {
		if a.elems[i] != b.elems[i] {
			return a.elems[i] < b.elems[i]
		}
		if a.segs[i] != b.segs[i] {
			return a.segs[i] < b.segs[i]
		}
	}
	return len(a.elems) < len(b.elems)
}

// sortWitnesses canonicalizes report order: parallel walks discover
// paths in schedule order, and reports must not depend on the schedule.
// Paths sharing an element-level name fall back to the total order.
func sortWitnesses(ws []Witness) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Path != ws[j].Path {
			return ws[i].Path < ws[j].Path
		}
		if ws[i].order != ws[j].order {
			return ws[i].order < ws[j].order
		}
		return ws[i].Detail < ws[j].Detail
	})
}

// sortedMetaSlots returns the pipeline's metadata slots in stable order,
// for deterministic reports.
func sortedMetaSlots(p *click.Pipeline) []string {
	set := map[string]bv.Width{}
	for _, e := range p.Elements {
		for s, w := range e.Program().MetaSlots {
			set[s] = w
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
