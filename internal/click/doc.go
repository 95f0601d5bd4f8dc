// Package click implements the pipeline framework: a Click-style
// directed graph of packet-processing elements, a parser for a subset of
// the Click configuration language (parse.go), and the program
// transformations the verifier needs — path enumeration for
// compositional verification and whole-pipeline inlining for the
// monolithic baseline (inline.go).
//
// The paper's pipeline structure rules are enforced here: elements
// exchange only packet state (the packet buffer and its metadata
// annotations, handed off port-to-port), private state never leaves an
// element (state stores are namespaced per instance), and static state
// is read-only by construction (ir.StaticTable). Build additionally
// validates that ports are in range, each output port is connected at
// most once, the entry element is unique, and the graph is acyclic.
//
// Instance.SummaryKey is the contract with the verifier's Step-1 cache
// and the persistent summary store (DESIGN.md §3, §7): it is the
// compiled program's summary fingerprint, its content hash with static
// tables reduced to their value sets, so instances with identical
// element code share summaries — the paper's "we process each element
// once, even if it may be called from different points in the
// pipeline" — and so do route tables that differ only in their ranges,
// while same-named classes from different registries can never alias
// each other's. Pipeline.Fingerprint lifts the concrete identity to
// whole configurations for batch-admission deduplication;
// Pipeline.SummaryFingerprint lifts the summary one for Step-2
// certificate keys.
package click
