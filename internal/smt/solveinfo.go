package smt

import "time"

// SolveInfo attributes one incremental query: its verdict, wall time,
// and — when the SAT core actually ran — the search-effort and
// CNF-growth deltas of exactly that query, computed from the session's
// blaster-counter snapshots. The cheap pre-solve passes (constant
// folding, verdict cache, intervals) decide most queries without
// touching the core; those report SATCore false
// with zeroed effort counters, which is itself the interesting signal
// for the obligation profiler: an expensive obligation is one where
// the core engaged.
type SolveInfo struct {
	Result       Result
	Duration     time.Duration
	SATCore      bool // true when the SAT core ran (not decided pre-solve)
	Cached       bool // true when the verdict cache answered
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnts      int64
	CNFVars      int64 // CNF variables allocated by this query
	CNFClauses   int64 // CNF clauses added by this query
}

// LastSolve returns the attribution of the most recent Check on this
// session. Valid until the next Check; the session owner (one worker
// goroutine) reads it immediately after Check returns.
func (sess *IncrementalSession) LastSolve() SolveInfo { return sess.lastSolve }
