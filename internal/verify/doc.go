// Package verify implements the paper's two-step compositional
// dataplane verification — the primary contribution of "Toward a
// Verifiable Software Dataplane" (Dobrescu & Argyraki, HotNets 2013).
//
// # Step 1 — element verification
//
// Every element of a pipeline is symbolically executed once, in
// isolation, with an unconstrained symbolic packet. The result is a set
// of segment summaries — path constraint C, symbolic state transformer
// S, instruction count, crash tag. Summaries are cached by element
// class and configuration, so an element appearing at several pipeline
// positions (or in several pipelines) is processed once. Segments that
// can violate the target property in isolation are tagged "suspect".
//
// # Step 2 — composition
//
// Element-level paths through the pipeline DAG are stitched by
// substitution — the upstream segment's output packet array and
// metadata replace the downstream segment's input variables, exactly
// the C1(in) ∧ C2(S1(in)) construction of the paper — and each stitched
// path's feasibility is decided by the solver without re-executing any
// code. Suspect segments whose stitched constraint is unsatisfiable are
// discharged (the paper's e3/p1/p4 example); feasible ones yield
// concrete witness packets.
//
// # Properties
//
// Four property families run over the same walk:
//
//   - CrashFreedom — no input can crash the pipeline (with the
//     "bad value" data-structure refinement for stateful elements,
//     stateful.go);
//   - BoundedInstructions — the worst-case instruction count and the
//     packet attaining it;
//   - Reachability — configuration-specific egress properties under
//     input assumptions;
//   - VerifyFunc — declarative functional specs (FuncSpec, funcspec.go):
//     postconditions relating the symbolic input packet to the symbolic
//     output packet, egress, and final metadata of every composed path,
//     discharged per path by the solver. The
//     reusable spec library lives in internal/specs. See DESIGN.md §6.
//
// # Concurrency
//
// Both steps exploit the problem's embarrassing parallelism (DESIGN.md
// §3): distinct element classes are summarized concurrently, and the
// composed-path walk fans subtrees out to a bounded worker pool, each
// query a path's witness does not decide solved on a session of its
// own, steered to that witness (smt.Solver.CheckFrom, DESIGN.md §7.5).
// Options.Parallelism bounds the pool. Every verdict and instruction
// bound is independent of the schedule, and so are the walk's stitch
// decisions and the Stats fields ComposedPaths, ComposedInfeasible,
// SegmentsTotal and SolverQueries. The solver's search counters in
// Stats.Solver are not guaranteed to be: the crash-freedom induction's
// pooled sessions carry learnt clauses across whichever pipelines the
// schedule hands them.
//
// # Persistence and batch admission
//
// Step-1 summaries are durable artifacts (DESIGN.md §7): keyed by
// StoreKey (the ir.Program content fingerprint bound to the
// packet-length bounds and engine modes the summary depends on),
// cached in-memory per Verifier, and — with Options.Store set —
// persisted through a SummaryStore. MemStore
// shares summaries across Verifiers in one process; DiskStore is the
// content-addressed on-disk form (one fingerprint-named file per
// program, checksummed; corrupt or mismatched entries fall back to
// re-summarizing). A warm store makes verification of known element
// programs skip symbolic execution entirely — Stats.StoreHits counts
// it.
//
// Step 2 is durable too (cert.go, DESIGN.md §7.5): the walks with no
// extra input assumptions record every stitch decision — feasible or
// infeasible, never a model — in a certificate keyed by the pipeline
// fingerprint, the packet-length bounds and the digests of the
// elements' encoded summaries; the crash-freedom induction records its
// sequence extensions in the same certificate. A later walk over the
// same key, in this Verifier or (through a store implementing
// CertificateStore) in another process, replays the decisions instead
// of solving them — Stats.StitchesReplayed counts it. Because a
// replayed path carries no model, every reported witness, sequence
// witnesses and CTIs included, is solved afresh from its formula alone
// (smt.Solver.CheckFresh), so witnesses do not depend on cache
// temperature or the walk schedule.
//
// Replay builds nothing: a composed state records its path, step count
// and parent, and substitutes its formulas (path constraint, output
// packet, metadata, state accesses) only on first use — a certificate
// miss that solves, a crash end or a witness to inspect, a visitor
// reading formulas. Concurrent walkers share one build per state.
// Stats.StitchesBuilt counts builds; a warm Batch whose verdict needs
// no witness makes none. A sequence prefix replayed from a certificate
// likewise threads its state only when a deeper extension misses or a
// witness reads it. With a store behind them, the summary cache and
// the certificate tables are capped, and refilled from the store.
//
// Batch (batch.go) is the admission-service entry point on top: a
// corpus of pipelines verified over one Verifier (shared cache, store,
// and solver sessions), duplicates deduplicated by pipeline
// fingerprint, one deterministic serializable verdict per submission.
// cmd/vsdverify -batch and the cmd/vsdserve daemon are its CLIs.
//
// # Multi-packet state verification
//
// Everything above asks single-packet questions; induction.go asks
// sequence questions (DESIGN.md §8). The terminal composed paths
// become a per-packet transition relation: symbex.SeqState threads
// packet i's state writes into packet i+1's reads, so properties can
// relate DIFFERENT packets of one traffic stream. Three entry points:
//
//   - SeqCrashFreedom / ProveInvariant — crash freedom or a declared
//     StateInvariant proved for packet sequences of UNBOUNDED length by
//     k-induction: a base case from the declared boot state, an
//     inductive step from an arbitrary (Ackermann-encoded) state. A
//     base-case failure is a real violation; a step-only failure is a
//     counterexample to induction (CTI), concrete enough to replay.
//   - SeqCrashBounded — the unrolling baseline (exhaustive sequences up
//     to a depth), which the S1 experiment contrasts with induction.
//   - VerifySeq — declarative SeqSpec sequence contracts (the
//     multi-packet analogue of FuncSpec): postconditions over a whole
//     explored sequence's inputs, outputs, and state. The library lives
//     in internal/specs (seqspecs.go).
//
// Refutations are MultiWitness values — ordered concrete packets plus,
// for CTIs, the seeded state — and ReplaySeq reproduces them on the
// concrete dataplane byte for byte. Batch admission runs the
// crash-freedom induction automatically for stateful submissions and
// records per-invariant InductionResults in the verdict.
//
// The package also provides the monolithic baseline (symbolic execution
// of the whole inlined pipeline, the paper's >12-hour comparison point,
// monolithic.go).
package verify
