package smt

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements portfolio solving: obligations whose first solve
// exhausts a conflict budget are re-attacked by K diversified clones of
// the stuck solver racing on goroutines, first decisive verdict wins,
// losers are cancelled through a shared stop flag. Diversification is
// deterministic — restart cadence, branching polarity, VSIDS decay, and
// a splitmix64-scrambled initial activity ordering per seat — never
// runtime randomness, so a race's clone population is reproducible.

// DefaultPortfolioAfter is the first-solve conflict budget that flags an
// obligation as hard enough to race.
const DefaultPortfolioAfter = 4096

// portfolioSeat describes one clone's search-heuristic variation.
type portfolioSeat struct {
	restartBase  int64
	varDecay     float64
	flipPolarity bool
	shuffleSeed  uint64 // 0 = keep the base activity ordering
}

// portfolioSeats is the fixed seat table; seat i of a race takes entry
// i mod len. Seat 0 is a near-baseline continuation (fresh restart
// schedule only); the others progressively diverge.
var portfolioSeats = []portfolioSeat{
	{restartBase: lubyRestartBase, varDecay: 0.95},
	{restartBase: 32, varDecay: 0.90, shuffleSeed: 0x9e3779b97f4a7c15},
	{restartBase: 256, varDecay: 0.99, flipPolarity: true},
	{restartBase: 64, varDecay: 0.95, flipPolarity: true, shuffleSeed: 0xbf58476d1ce4e5b9},
	{restartBase: 16, varDecay: 0.85, shuffleSeed: 0x94d049bb133111eb},
}

// seatStartHook is a test seam: when non-nil it runs at the start of
// every seat goroutine, inside the recover scope, so tests can make a
// seat panic and pin the containment behavior. Always nil in production.
var seatStartHook func(seat int)

// splitmix64 is the standard deterministic 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cloneAt0 deep-copies the solver at decision level 0 (the caller must
// have rewound; a Solve that returned SatUnknown already has). The clone
// shares nothing mutable with the base except the immutable elimRecord
// contents, so base and clones may solve concurrently.
func (s *SatSolver) cloneAt0(seat portfolioSeat) *SatSolver {
	c := NewSatSolver()
	c.cdb = append(c.cdb, s.cdb...)
	c.larena = append(c.larena, s.larena...)
	c.clauses = append(c.clauses, s.clauses...)
	c.learnts = append(c.learnts, s.learnts...)
	c.watches = make([][]watcher, len(s.watches))
	for i, w := range s.watches {
		c.watches[i] = append([]watcher(nil), w...)
	}
	c.binWatches = make([][]binWatch, len(s.binWatches))
	for i, w := range s.binWatches {
		c.binWatches[i] = append([]binWatch(nil), w...)
	}
	c.assign = append(c.assign, s.assign...)
	c.level = append(c.level, s.level...)
	c.reason = append(c.reason, s.reason...)
	c.trail = append(c.trail, s.trail...)
	c.qhead = s.qhead
	c.activity = append(c.activity, s.activity...)
	c.varInc = s.varInc
	c.claInc = s.claInc
	c.polarity = append(c.polarity, s.polarity...)
	c.seen = make([]bool, len(s.seen))
	c.inCone = make([]uint32, len(s.inCone))
	c.elim = append(c.elim, s.elim...)
	c.elimStack = append(c.elimStack, s.elimStack...) // records are immutable
	c.ok = s.ok
	c.deadLits = s.deadLits
	c.reduceMin = s.reduceMin
	c.compactMin = s.compactMin
	c.preClauses = s.preClauses
	c.fp = s.fp

	c.restartBase = seat.restartBase
	c.varDecay = seat.varDecay
	if seat.flipPolarity {
		for v := range c.polarity {
			c.polarity[v] = !c.polarity[v]
		}
	}
	if seat.shuffleSeed != 0 {
		// Scramble the initial decision ordering: blend each activity with
		// a deterministic per-variable perturbation scaled to the current
		// activity range, so the clone explores from a different corner
		// without forgetting everything VSIDS learnt.
		maxAct := 1.0
		for _, a := range c.activity {
			if a > maxAct {
				maxAct = a
			}
		}
		for v := range c.activity {
			jitter := float64(splitmix64(seat.shuffleSeed^uint64(v))>>11) / (1 << 53)
			c.activity[v] = c.activity[v]*0.5 + maxAct*jitter*0.5
		}
	}
	return c
}

// racePortfolio races n clones of base under the given cone and
// assumptions, each with conflict budget (<=0 unbounded) and deadline
// (zero = none). The seats inherit the cone of the solve they re-attack:
// deciding every variable would be sound, but it would complete the whole
// session's model on exactly the hard obligations. The first decisive
// clone cancels the rest. It returns the verdict, the winning clone (nil
// when every seat came back unknown), and the number of seats whose
// search panicked. When ex is non-nil the clones share learnt clauses
// through it mid-race, under the base solver's fingerprint.
//
// A seat goroutine panicking must never take the process down: seats
// run engine code under injectable faults (and, in principle, engine
// bugs), and the race's contract is that a dead seat simply counts as
// Unknown — a lost opportunity, never a lost daemon or a verdict.
func racePortfolio(base *SatSolver, cone []int32, assumptions []Lit, n int, budget int64, deadline time.Time, ex *ClauseExchange) (SatResult, *SatSolver, int64) {
	if n > len(portfolioSeats) {
		n = len(portfolioSeats)
	}
	var stop atomic.Bool
	var panics atomic.Int64
	type seatResult struct {
		verdict SatResult
		clone   *SatSolver
	}
	results := make([]seatResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		clone := base.cloneAt0(portfolioSeats[i])
		clone.MaxConflicts = budget
		clone.Deadline = deadline
		clone.Stop = &stop
		clone.Interrupt = base.Interrupt
		var detach func()
		if ex != nil {
			detach = ex.attach(clone, map[uint64]int{})
		}
		results[i].clone = clone
		wg.Add(1)
		go func(i int, clone *SatSolver) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// Containment: the seat's verdict stays SatUnknown and
					// its (possibly inconsistent) clone must never win, so
					// the race result is exactly as if the seat had hit its
					// budget.
					panics.Add(1)
				}
				if detach != nil {
					detach()
				}
			}()
			if seatStartHook != nil {
				seatStartHook(i)
			}
			v := clone.SolveCone(cone, assumptions...)
			results[i].verdict = v
			if v != SatUnknown {
				stop.Store(true)
			}
		}(i, clone)
	}
	wg.Wait()
	// Lowest decisive seat wins, which keeps the outcome as reproducible
	// as a race can be (verdicts can never disagree, only model choice).
	for i := range results {
		if results[i].verdict != SatUnknown {
			return results[i].verdict, results[i].clone, panics.Load()
		}
	}
	return SatUnknown, nil, panics.Load()
}

// raceImportGlue is the per-race cap on learnt clauses merged back from
// the winning clone into the stuck base solver.
const raceImportGlue = 2048

// adoptRaceResult merges a winning clone back into the base solver: the
// model (for Sat), top-level inconsistency (the clone refuted the CNF
// itself), and the winner's low-glue learnt clauses, so the base — which
// keeps serving the session afterwards — profits from the race's work.
func (s *SatSolver) adoptRaceResult(winner *SatSolver, verdict SatResult) {
	if verdict == SatSat {
		// The winner's model is as sparse as its cone solve left it.
		s.clearModel()
		for _, v := range winner.modelSet {
			s.setModel(v, winner.model[v])
		}
	}
	if !winner.ok {
		s.ok = false
	}
	imported := 0
	for _, c := range winner.learnts {
		h := &winner.cdb[c]
		if h.deleted || h.lbd > DefaultExchangeGlue {
			continue
		}
		if !s.ImportLearnt(winner.larena[h.off : h.off+h.n]) {
			return
		}
		if imported++; imported >= raceImportGlue {
			return
		}
	}
}
