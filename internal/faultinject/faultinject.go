// Package faultinject is the deterministic fault-injection harness
// behind the robustness layer (DESIGN.md §9). It wraps the two places
// the certification service touches the outside world — the store's
// disk I/O (summaries and Step-2 certificates alike) and the SAT
// solver's search — and injects the failure modes the degradation
// ladder promises to absorb:
//
//   - store faults: torn writes, bit flips, write failures (ENOSPC),
//     stale artifacts under the wrong key, slow reads;
//   - solver faults: forced Unknown verdicts, forced timeouts, forced
//     panics inside the search.
//
// Every decision is drawn from one seeded splitmix64 stream, so a
// chaos run is a pure function of (corpus, seed): re-running with the
// same seed injects the same faults at the same points, which is what
// lets CI assert "same certified set as the clean run" instead of
// "probably fine". Determinism requires that the injector's decision
// points are visited in a deterministic order — chaos harnesses run
// the verifier with Parallelism 1 and a single queue worker.
package faultinject

import (
	"os"
	"sync"
	"time"
)

// Rates configures per-decision injection probabilities in [0,1].
// A zero Rates injects nothing.
type Rates struct {
	// Store-side faults, rolled per Save (the first three) or per Load
	// (the last two).
	TornWrite float64 // truncate the artifact after a successful save
	BitFlip   float64 // flip one payload byte after a successful save
	WriteFail float64 // drop the save entirely (ENOSPC)
	Stale     float64 // re-key the artifact before a load (wrong fingerprint)
	SlowRead  float64 // delay the load by SlowReadDelay

	// Solver-side faults, rolled per SAT search.
	SolverUnknown float64 // force the search to return Unknown
	SolverTimeout float64 // force the search to report a timeout
	SolverPanic   float64 // panic inside the search
}

// Stats counts injected faults by kind.
type Stats struct {
	TornWrites     int64
	BitFlips       int64
	WriteFailures  int64
	StaleArtifacts int64
	SlowReads      int64
	SolverUnknowns int64
	SolverTimeouts int64
	SolverPanics   int64
}

// Total sums all injected faults.
func (s Stats) Total() int64 {
	return s.TornWrites + s.BitFlips + s.WriteFailures + s.StaleArtifacts +
		s.SlowReads + s.SolverUnknowns + s.SolverTimeouts + s.SolverPanics
}

// Injector draws fault decisions from a seeded deterministic stream.
// Safe for concurrent use, but determinism across runs additionally
// requires a deterministic visit order (single-threaded verification).
type Injector struct {
	Rates Rates
	// SlowReadDelay is how long an injected slow read stalls
	// (default 10ms).
	SlowReadDelay time.Duration
	// SolverBudget caps total injected solver faults (0 = unlimited):
	// the burst subsides once the budget is spent, modelling a
	// transient crash storm. Solver faults are the only kind that can
	// degrade a verdict, so a finite budget is what lets a retrying
	// service provably converge back to the clean verdict set.
	SolverBudget int64

	mu    sync.Mutex
	state uint64
	stats Stats
}

// New returns an injector seeded with seed.
func New(seed uint64, rates Rates) *Injector {
	return &Injector{Rates: rates, state: seed}
}

// next is splitmix64: a full-period 64-bit stream good enough for
// fault scheduling and cheap enough to sit on the solver's hot path.
func (in *Injector) next() uint64 {
	in.state += 0x9e3779b97f4a7c15
	z := in.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll consumes one decision and reports whether a fault with the
// given rate fires. Called under mu.
func (in *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(in.next()>>11)/(1<<53) < rate
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// corruptFile applies f to the file's bytes in place and reports
// whether it did (best-effort: a vanished file injects nothing).
func corruptFile(path string, f func([]byte) []byte) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	return os.WriteFile(path, f(data), 0o644) == nil
}
