package smt

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsd/internal/expr"
)

// Result is the verdict of a satisfiability query.
type Result int8

// Query verdicts.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Options configures a Solver. There is one solver configuration; what
// is left to set is the ablation switch of the word-level pre-passes and
// the budgets of the degradation ladder (DESIGN.md §4.3, §9).
type Options struct {
	// DisableIntervals turns off the word-level pre-passes (the interval
	// analysis and the order pass), so every query the verdict cache
	// does not answer goes through bit-blasting.
	DisableIntervals bool
	// MaxConflicts bounds each SAT search; 0 means the default budget.
	MaxConflicts int64
	// QueryTimeout bounds each SAT search's wall time; 0 means none. An
	// exhausted deadline yields Unknown, never a false verdict.
	QueryTimeout time.Duration
	// Interrupt, when non-nil, is an external cancellation flag checked
	// during every SAT search: setting it makes in-flight and future
	// solves return Unknown. It is the watchdog's lever — a job that
	// exceeds its wall budget is cancelled here even when QueryTimeout is
	// unset or the search is stuck in a propagation storm between
	// deadline checks.
	Interrupt *atomic.Bool
	// FaultHook, when non-nil, is consulted before each SAT search by the
	// fault-injection harness (internal/faultinject): it may force the
	// search to return Unknown, to behave as if its deadline expired, or
	// to panic — exercising the degradation ladder without real faults.
	// Production configurations leave it nil.
	FaultHook func() SolveFault
}

// SolveFault is a fault-injection directive for one SAT search.
type SolveFault int8

// Solver-level injectable faults.
const (
	// NoFault runs the search normally.
	NoFault SolveFault = iota
	// ForceUnknown makes the search return Unknown immediately, as if
	// its conflict budget were exhausted.
	ForceUnknown
	// ForceTimeout makes the search return Unknown as if its wall
	// deadline had expired.
	ForceTimeout
	// ForcePanic makes the search panic, exercising the engine-panic
	// containment (recover in verify workers, never a downed daemon).
	ForcePanic
)

// DefaultMaxConflicts bounds a single SAT search unless overridden.
const DefaultMaxConflicts = 2_000_000

// maxConflicts resolves the per-search conflict budget: 0 selects the
// default, negative values mean unbounded. satSolve applies it to every
// SAT search.
func (o Options) maxConflicts() int64 {
	if o.MaxConflicts != 0 {
		return o.MaxConflicts
	}
	return DefaultMaxConflicts
}

// Stats counts solver work, for the evaluation harness.
type Stats struct {
	Queries         int64 // total Check calls
	FoldedDecided   int64 // decided by constant folding alone
	IntervalDecided int64 // decided by the interval pre-pass
	OrderDecided    int64 // refuted by the order pass
	SatCalls        int64 // queries that reached the SAT core
	SatConflicts    int64 // conflicts accumulated across SAT calls
	CacheHits       int64 // queries answered from the verdict cache
	// Incremental-session counters.
	SessionsOpened   int64 // IncrementalSession instances created (incl. recycles)
	AssumptionSolves int64 // SAT calls made under assumptions by sessions
	ClausesReused    int64 // learnt clauses carried into assumption solves
	ArrayLemmas      int64 // array-consistency axioms asserted because a session model broke them
	// CNF-size counters: the blaster's structural gate cache and the
	// emitted formula size.
	GateCacheHits int64 // Tseitin gates served from the structural cache
	CNFVars       int64 // SAT variables allocated, summed over blasted queries
	CNFClauses    int64 // problem clauses emitted, summed over blasted queries
	// SAT-core heuristics counters.
	MinimizedLits int64 // literals removed by recursive learnt-clause minimization
	LearntLits    int64 // literals in recorded learnt clauses (after minimization)
	LearntClauses int64 // learnt clauses recorded
	GlueSum       int64 // sum of learnt-clause LBDs; avg glue = GlueSum/LearntClauses
	LowGlue       int64 // learnt clauses with LBD <= 2 ("glue" clauses)
	BinaryProps   int64 // unit propagations served by the binary watch lists
	Propagations  int64 // trail literals propagated by the SAT core
	AssumLevels   int64 // assumption levels SAT solves applied, summed; levels kept on the trail from the previous solve are not counted
	Decisions     int64 // decisions made by the SAT core
	Restarts      int64 // Luby restarts performed
	// Robustness counters (DESIGN.md §9).
	Unknowns       int64 // SAT searches ending Unknown (budget/deadline/cancel)
	InjectedFaults int64 // searches redirected by Options.FaultHook
	Interrupted    int64 // searches cancelled through Options.Interrupt
}

// Solver decides satisfiability of conjunctions of 1-bit bitvector
// expressions, producing models (including packet-array contents) for
// satisfiable queries. A Solver is safe for concurrent use; each query
// builds an independent SAT instance.
//
// Verdicts are cached by the (order-insensitive) atom set: symbolic
// execution and composition re-issue structurally identical queries —
// the same loop prefix reached through different downstream branches —
// and expression interning makes the atom-set key exact.
type Solver struct {
	Opts  Options
	stats struct {
		queries, folded, interval, satCalls, satConflicts, cacheHits atomic.Int64
		order                                                        atomic.Int64
		sessions, assumptionSolves, clausesReused, arrayLemmas       atomic.Int64
		gateHits, cnfVars, cnfClauses                                atomic.Int64
		minimizedLits, learntLits, learnts, glueSum, lowGlue         atomic.Int64
		binaryProps, propagations, decisions, restarts, assumLevels  atomic.Int64
		unknowns, injected, interrupted                              atomic.Int64
	}
	mu    sync.Mutex
	cache map[uint64][]cacheEntry
}

type cacheEntry struct {
	atoms []*expr.Expr // in content order, for exact matching
	res   Result
	model *expr.Assignment
}

// New returns a solver with the given options.
func New(opts Options) *Solver {
	return &Solver{Opts: opts, cache: map[uint64][]cacheEntry{}}
}

// cacheKey hashes the atom set from the per-node structural hashes
// memoized at construction (no DAG re-walking); atoms must be in content
// order (sortAtomsByContent) so the key is order-insensitive. It reads no
// intern ID, so a formula keys alike in every process.
func cacheKey(atoms []*expr.Expr) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, a := range atoms {
		h ^= a.Hash() * 0x100000001b3
		h *= 0xff51afd7ed558ccd
	}
	return h
}

// sortAtomsByContent orders atoms by structural hash, then rendering:
// unlike an intern-ID order, it is the same in every process whatever
// was interned first, so a solve that blasts atoms in this order is a
// function of the formula (and, on a reused session, of the queries
// before it) — not of which other work ran earlier in the process.
func sortAtomsByContent(atoms []*expr.Expr) {
	sort.SliceStable(atoms, func(i, j int) bool {
		a, b := atoms[i], atoms[j]
		if a.Hash() != b.Hash() {
			return a.Hash() < b.Hash()
		}
		return a != b && a.String() < b.String()
	})
}

func sameAtoms(a, b []*expr.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *Solver) cacheGet(key uint64, atoms []*expr.Expr) (Result, *expr.Assignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.cache[key] {
		if sameAtoms(e.atoms, atoms) {
			return e.res, e.model, true
		}
	}
	return Unknown, nil, false
}

// cacheMaxEntries bounds memory; the cache resets wholesale when full
// (simple and effective at verification scale).
const cacheMaxEntries = 1 << 16

func (s *Solver) cachePut(key uint64, atoms []*expr.Expr, res Result, m *expr.Assignment) {
	// Copy here, on the insert path only: callers reuse their atom slices
	// and the hit path must not pay for a defensive copy.
	stored := append([]*expr.Expr{}, atoms...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cache) >= cacheMaxEntries {
		s.cache = map[uint64][]cacheEntry{}
	}
	s.cache[key] = append(s.cache[key], cacheEntry{atoms: stored, res: res, model: m})
}

// Stats returns a snapshot of the work counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Queries:          s.stats.queries.Load(),
		FoldedDecided:    s.stats.folded.Load(),
		IntervalDecided:  s.stats.interval.Load(),
		OrderDecided:     s.stats.order.Load(),
		SatCalls:         s.stats.satCalls.Load(),
		SatConflicts:     s.stats.satConflicts.Load(),
		CacheHits:        s.stats.cacheHits.Load(),
		SessionsOpened:   s.stats.sessions.Load(),
		AssumptionSolves: s.stats.assumptionSolves.Load(),
		ClausesReused:    s.stats.clausesReused.Load(),
		ArrayLemmas:      s.stats.arrayLemmas.Load(),
		GateCacheHits:    s.stats.gateHits.Load(),
		CNFVars:          s.stats.cnfVars.Load(),
		CNFClauses:       s.stats.cnfClauses.Load(),
		MinimizedLits:    s.stats.minimizedLits.Load(),
		LearntLits:       s.stats.learntLits.Load(),
		LearntClauses:    s.stats.learnts.Load(),
		GlueSum:          s.stats.glueSum.Load(),
		LowGlue:          s.stats.lowGlue.Load(),
		BinaryProps:      s.stats.binaryProps.Load(),
		Propagations:     s.stats.propagations.Load(),
		AssumLevels:      s.stats.assumLevels.Load(),
		Decisions:        s.stats.decisions.Load(),
		Restarts:         s.stats.restarts.Load(),
		Unknowns:         s.stats.unknowns.Load(),
		InjectedFaults:   s.stats.injected.Load(),
		Interrupted:      s.stats.interrupted.Load(),
	}
}

// blasterCounters snapshots a blaster's CNF and SAT-core counters so
// interleaved solves on a shared instance (incremental sessions) can
// attribute deltas to individual queries.
type blasterCounters struct {
	sat      SatCounters
	gateHits int64
	vars     int64
}

// foldBlasterCounters adds the blaster's counter growth since prev to
// the solver statistics and returns the new snapshot. Safe for
// concurrent use (the statistics are atomics).
func (s *Solver) foldBlasterCounters(b *blaster, prev blasterCounters) blasterCounters {
	cur := blasterCounters{
		sat:      b.sat.Counters(),
		gateHits: b.gateHits,
		vars:     int64(b.sat.NumVars()),
	}
	s.stats.satConflicts.Add(cur.sat.Conflicts - prev.sat.Conflicts)
	s.stats.minimizedLits.Add(cur.sat.MinimizedLits - prev.sat.MinimizedLits)
	s.stats.learntLits.Add(cur.sat.LearntLits - prev.sat.LearntLits)
	s.stats.learnts.Add(cur.sat.Learnts - prev.sat.Learnts)
	s.stats.glueSum.Add(cur.sat.GlueSum - prev.sat.GlueSum)
	s.stats.lowGlue.Add(cur.sat.LowGlue - prev.sat.LowGlue)
	s.stats.binaryProps.Add(cur.sat.BinaryProps - prev.sat.BinaryProps)
	s.stats.propagations.Add(cur.sat.Propagations - prev.sat.Propagations)
	s.stats.assumLevels.Add(cur.sat.AssumLevels - prev.sat.AssumLevels)
	s.stats.decisions.Add(cur.sat.Decisions - prev.sat.Decisions)
	s.stats.restarts.Add(cur.sat.Restarts - prev.sat.Restarts)
	s.stats.cnfVars.Add(cur.vars - prev.vars)
	s.stats.cnfClauses.Add(cur.sat.ClausesAdded - prev.sat.ClausesAdded)
	s.stats.gateHits.Add(cur.gateHits - prev.gateHits)
	return cur
}

// satSolve runs one SAT search over cone (SatSolver.SolveCone) under the
// configured budgets: the conflict cap, the wall deadline and the
// interrupt flag from Options. The verdict is exact (Sat/Unsat) or
// Unknown; budget exhaustion never fabricates a verdict.
//
// refine, when non-nil, vets each Sat model: it returns true after
// adding clauses the model violates, and the search runs again on the
// same cone. The rounds are one search to the budgets — one fault
// consult, one deadline, one conflict cap summed across rounds.
func (s *Solver) satSolve(sat *SatSolver, cone []int32, refine func() bool, assumptions ...Lit) SatResult {
	// Fault injection first: a forced verdict must not consume budget, so
	// an injected fault reproduces identically regardless of solver state.
	if s.Opts.FaultHook != nil {
		switch s.Opts.FaultHook() {
		case ForceUnknown, ForceTimeout:
			s.stats.injected.Add(1)
			s.stats.unknowns.Add(1)
			return SatUnknown
		case ForcePanic:
			s.stats.injected.Add(1)
			panic("smt: injected solver panic (faultinject)")
		}
	}
	if s.Opts.Interrupt != nil && s.Opts.Interrupt.Load() {
		s.stats.interrupted.Add(1)
		s.stats.unknowns.Add(1)
		return SatUnknown
	}
	sat.Interrupt = s.Opts.Interrupt
	sat.Deadline = time.Time{}
	if s.Opts.QueryTimeout > 0 {
		sat.Deadline = time.Now().Add(s.Opts.QueryTimeout)
	}
	budget, start := s.Opts.maxConflicts(), sat.cnt.Conflicts
	sat.MaxConflicts = budget
	var verdict SatResult
	for {
		verdict = sat.SolveCone(cone, assumptions...)
		if verdict != SatSat || refine == nil || !refine() {
			break
		}
		// The next round gets what the earlier ones left of the budget;
		// an exhausted budget or a passed deadline leaves it undecided.
		if budget > 0 {
			if sat.MaxConflicts = budget - (sat.cnt.Conflicts - start); sat.MaxConflicts <= 0 {
				verdict = SatUnknown
				break
			}
		}
		if !sat.Deadline.IsZero() && time.Now().After(sat.Deadline) {
			verdict = SatUnknown
			break
		}
	}
	if verdict == SatUnknown {
		s.stats.unknowns.Add(1)
		if s.Opts.Interrupt != nil && s.Opts.Interrupt.Load() {
			s.stats.interrupted.Add(1)
		}
	}
	return verdict
}

// layer names the pre-solve pass that decided a query.
type layer int8

const (
	layerNone     layer = iota // undecided: the SAT core decides
	layerFold                  // flattening and constant folding
	layerCache                 // the verdict cache
	layerInterval              // the interval pre-analysis
	layerOrder                 // the order pass (order.go)
)

// orderAudit, when non-nil, sees the atoms of every query the order pass
// refutes. Tests set it to cross-check the pass against the SAT core.
var orderAudit func(atoms []*expr.Expr)

// preSolve runs the cheap per-query passes in front of every solve:
// flattening and constant folding, canonical ordering and
// deduplication, the verdict cache, the interval pre-analysis and the
// order pass. by names the pass that decided the query, with res/m
// its verdict; when by is layerNone, atoms is the canonical atom set to
// solve and key its cache key (the caller cachePuts its verdict under
// them). atoms may alias the caller's scratch space — it is only valid
// until the next preSolve call on the same goroutine.
//
// The atoms are ordered by content, so the search does not depend on
// interning order. With cached false (CheckFresh) the verdict cache is
// neither read nor filled.
func (s *Solver) preSolve(constraints []*expr.Expr, cached bool) (atoms []*expr.Expr, key uint64, res Result, m *expr.Assignment, by layer) {
	s.stats.queries.Add(1)
	atoms, early := flattenAtoms(constraints)
	if early != Unknown {
		s.stats.folded.Add(1)
		if early == Sat {
			return nil, 0, Sat, expr.NewAssignment(), layerFold
		}
		return nil, 0, Unsat, nil, layerFold
	}
	sortAtomsByContent(atoms)
	atoms = dedupAtoms(atoms)
	if cached {
		key = cacheKey(atoms)
		if r, cm, ok := s.cacheGet(key, atoms); ok {
			s.stats.cacheHits.Add(1)
			return nil, 0, r, cm, layerCache
		}
	}
	if s.Opts.DisableIntervals {
		return atoms, key, Unknown, nil, layerNone
	}
	res, m, by = s.prePasses(atoms)
	if by == layerNone {
		return atoms, key, Unknown, nil, layerNone
	}
	if cached {
		s.cachePut(key, atoms, res, m)
	}
	return nil, 0, res, m, by
}

// prePasses runs the word-level passes over a canonical atom set: the
// interval pre-analysis, then the order pass on what it leaves open. The
// order pass reads its node bounds from the intervals' refinements.
func (s *Solver) prePasses(atoms []*expr.Expr) (Result, *expr.Assignment, layer) {
	ia := newIntervalAnalysis()
	defer iaPool.Put(ia)
	switch verdict, model := preAnalyze(ia, atoms); verdict {
	case intervalUnsat:
		s.stats.interval.Add(1)
		return Unsat, nil, layerInterval
	case intervalSat:
		s.stats.interval.Add(1)
		return Sat, model, layerInterval
	}
	if orderRefutes(ia, atoms) {
		s.stats.order.Add(1)
		if orderAudit != nil {
			orderAudit(atoms)
		}
		return Unsat, nil, layerOrder
	}
	return Unknown, nil, layerNone
}

// selectInfo pairs a KSelect node with its select-free rewritten index.
type selectInfo struct {
	sel *expr.Expr
	idx *expr.Expr
}
