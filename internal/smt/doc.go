// Package smt implements the QF_BV satisfiability solver behind every
// verification verdict: a decision procedure for conjunctions of
// bitvector constraints over internal/expr terms, built as a layered
// pipeline of cheap passes in front of a CDCL SAT core.
//
// A query runs through (Solver.preSolve, then the query's session):
//
//  1. conjunction flattening and constant folding — most symbolic-
//     execution queries die here;
//  2. canonical ordering + dedup and an order-insensitive verdict cache
//     keyed by the terms' memoized structural hashes;
//  3. an interval pre-analysis that decides many comparisons without
//     blasting (intervals.go);
//  4. an order pass that refutes by unsigned order: terms are opaque
//     nodes, comparisons and the wrap rules of sums are difference
//     constraints, disjunctions are probed, and a negative cycle is
//     Unsat; it never answers Sat (order.go, DESIGN.md §4.4);
//  5. Ackermann-style elimination of packet-array reads — each read
//     becomes a fresh byte variable; a session asserts the consistency
//     axiom of two reads only when a model puts them at one index with
//     different bytes, and solves again (DESIGN.md §2) — then
//     structurally-hashed bit-blasting to CNF with AIG-style gate
//     sharing (cnf.go, DESIGN.md §4.1);
//  6. a MiniSat/glucose-flavored CDCL core: arena clause storage,
//     binary watch lists, recursive learnt-clause minimization,
//     LBD-based clause-DB reduction, Luby restarts, decisions
//     restricted to the query's cone (sat.go, DESIGN.md §4.2), under a
//     conflict/deadline/interrupt budget whose exhaustion is Unknown,
//     never a verdict (DESIGN.md §4.3).
//
// That is the one configuration; there are no technique switches
// besides Options.DisableIntervals, which turns off both word-level
// passes (3 and 4) so that tests reach the core. The tests keep a
// one-shot solver that Ackermannizes eagerly as their reference
// (oneshot_test.go).
//
// IncrementalSession (DESIGN.md §2) keeps one persistent SAT instance
// per caller: each distinct atom is blasted once behind an activation
// guard, queries assert their atom set as assumptions, and learnt
// clauses carry over between queries. A solve branches only on the cone
// of its query — the fan-in of the assumed atoms in the gate graph the
// blaster records — so its cost follows the query, not what the session
// has accumulated. The verifier's Step-2 workers each own a session for
// the verifier's lifetime, a symbolic-execution run owns one for that
// run; the Solver itself is safe for concurrent use by many sessions.
//
// Sat verdicts come with a model (expr.Assignment) that the verifier
// turns into concrete witness packets; Stats counters flow up into
// verify.Stats and the vsdbench -json records (EXPERIMENTS.md).
package smt
