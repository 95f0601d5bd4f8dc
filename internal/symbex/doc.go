// Package symbex implements symbolic execution of element IR.
//
// This is the reproduction's stand-in for the S2E engine the paper used:
// it executes an ir.Program with a fully symbolic packet (a symbolic bit
// vector, as in the paper), forking at every data-dependent branch, and
// produces one Segment per feasible complete path through the element —
// exactly the per-element artifacts of the paper's Step 1:
//
//   - the path constraint C (over the symbolic input packet, packet
//     length, metadata annotations, and unconstrained state reads);
//   - the symbolic state S: the output packet as a store chain over the
//     input array (Segment.Pkt), final metadata (Segment.Meta), and the
//     output port or drop. The composition layer threads this output
//     state through stitched paths, which is what lets functional specs
//     (DESIGN.md §6) relate a pipeline's input packet to its output
//     packet;
//   - the dynamic instruction count (for the bounded-execution property);
//   - a crash tag when the path faults (assert, division by zero,
//     out-of-bounds packet access) — the "suspect" marker.
//
// Loops are handled two ways, selected by Options.LoopMode:
//
//   - LoopMerge (the default) applies the paper's decomposition: the
//     body is symbexed once as a "mini-element" with fresh symbolic
//     loop-carried state, and iterations are composed by substitution,
//     the same mechanism used to compose pipeline elements. The
//     per-iteration continuations are merged into one state with
//     ite-selected values, keeping loop exploration linear in the bound
//     (loop.go), and feasibility is decided once per merge group rather
//     than per instance: the deepest members are checked until one is
//     feasible, and it and every shallower member are merged unchecked
//     (DESIGN.md §3.1). Step counts are exact unless Stats.Merged
//     reports a merge, and upper bounds otherwise;
//   - LoopUnroll inlines the body up to its static bound, the naive
//     strategy the paper estimates at "millions of segments" for the IP
//     options element. It is the baseline of verify.Monolithic and of
//     the A2 experiment.
//
// Static tables (StaticLookup) are read through their value set: a
// constant key looks up exactly, and a symbolic key forks one path per
// value the table can return, with the key unconstrained and the lookup
// logged on the segment (TableLookup), so no range of the table enters
// a summary. The verifier ties a reported path's keys back to the
// concrete table (DESIGN.md §3.2).
//
// Mutable data structures (StateRead/StateWrite) follow the paper's
// modeling: a read returns a fresh unconstrained symbolic value and is
// logged, a write is logged; the verifier later checks whether any "bad"
// read value could actually have been written.
//
// Feasibility checks run on an incremental solver session that lives
// for one Run (DESIGN.md §2), with per-path witness caching so most
// forks never reach the solver.
//
// Packet accesses are bounds-checked, and a check the path already
// proves never reaches the solver either (bounds.go, DESIGN.md §3.3):
// each path keeps the byte windows its solver-decided checks assumed,
// per offset base, and an access inside a window — or, under the run's
// length bound, between a window start and a window end or length guard
// close enough that no offset can wrap — adds no condition and no crash
// path.
//
// A Summary (summary.go) packages one element's segment set as an
// engine-independent artifact with a stable binary codec
// (EncodeSummary/DecodeSummary, DESIGN.md §7): decoding re-interns
// every term through the expr constructors, so a summary loaded from
// the verifier's persistent store composes exactly like one the engine
// just produced.
//
// Sequence execution (seq.go, DESIGN.md §8) lifts the single-packet
// model to packet sequences: SeqState holds an ordered symbolic write
// log per store, ThreadState replays a path's state accesses in their
// recorded interleaving (the Seq field on StateAccess/StateUpdate)
// against it, and ScopeSubst renames every per-packet input into a
// per-step namespace — so k packets through an element are k
// substitutions over the segment set, never k re-executions. Initial
// state is either the declared defaults (InitDefault, bounded checks
// and induction base cases) or an arbitrary Ackermann-encoded store
// (InitSymbolic, the induction hypothesis of verify's k-induction).
package symbex
