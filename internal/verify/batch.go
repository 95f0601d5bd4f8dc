package verify

// Batch admission (DESIGN.md §7): the service-shaped entry point the
// paper's element-marketplace use case needs. An operator certifies a
// *stream* of submitted pipelines, not one pipeline per process: Batch
// verifies a corpus over a single Verifier, so every submission shares
// the summary cache, the persistent store, and the incremental solver
// sessions, and byte-identical pipelines are deduplicated outright by
// their content fingerprint.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"

	"vsd/internal/click"
	"vsd/internal/ir"
)

// degradeOrFail folds a property-gate error into the verdict. An
// unresolved degradation — contained engine panic, solver budget,
// watchdog interrupt — becomes a counted unresolved obligation with a
// one-line cause (stacks stay in Error strings and logs upstream);
// anything else stays a hard admission error. Either way the
// submission is not certified: degradation withholds certification,
// never fabricates it.
func degradeOrFail(verdict *BatchVerdict, err error) {
	verdict.Certified = false
	if errors.Is(err, errUnresolved) {
		verdict.Unresolved++
		verdict.UnresolvedCauses = append(verdict.UnresolvedCauses, unresolvedCause(err))
		return
	}
	verdict.Error = err.Error()
}

// BatchItem is one pipeline submitted for admission.
type BatchItem struct {
	// Name labels the submission in verdicts (e.g. the source filename).
	Name string
	// Pipeline is the parsed configuration to verify.
	Pipeline *click.Pipeline
	// Specs lists functional contracts the submission must additionally
	// satisfy. Submissions carrying specs are never deduplicated: spec
	// values are closures with no comparable identity, so equal-looking
	// lists could state different contracts.
	Specs []FuncSpec
	// SeqSpecs lists sequence contracts (multi-packet relations,
	// DESIGN.md §8) checked by bounded exploration from boot state.
	// Like Specs, they block deduplication.
	SeqSpecs []SeqSpec
	// Invariants lists state invariants to prove by k-induction. Like
	// Specs, they block deduplication.
	Invariants []StateInvariant
}

// InductionResult is the serializable per-invariant outcome of the
// unbounded-sequence obligations attached to a verdict (DESIGN.md §8).
type InductionResult struct {
	// Invariant names the obligation ("crash-freedom" for the automatic
	// unbounded crash-freedom proof over stateful pipelines).
	Invariant string `json:"invariant"`
	// Proved means the obligation holds for packet sequences of ANY
	// length (k-induction closed at depth K).
	Proved bool `json:"proved"`
	K      int  `json:"k,omitempty"`
	// Refuted means a concrete violating sequence from boot state
	// exists; WitnessPackets is its length.
	Refuted bool `json:"refuted,omitempty"`
	// CTI means only the inductive step failed: no unbounded guarantee,
	// but no reachable violation either (the bounded gates still stand).
	CTI            bool   `json:"cti,omitempty"`
	WitnessPackets int    `json:"witness_packets,omitempty"`
	Error          string `json:"error,omitempty"`
}

// BatchWitness is a serializable property-violation witness.
type BatchWitness struct {
	Path   string `json:"path"`
	Detail string `json:"detail"`
	// Packet is the concrete input packet, hex-encoded.
	Packet string `json:"packet"`
	// Output is the concrete output packet for functional-spec
	// violations, hex-encoded ("" otherwise).
	Output string `json:"output,omitempty"`
}

// BatchVerdict is the admission record for one submission: the
// marketplace's certificate (or rejection evidence) in serializable
// form. Field order and contents are deterministic — two runs over the
// same corpus produce byte-identical verdict JSON, which is what lets
// the warm-store CI check diff them.
type BatchVerdict struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// DuplicateOf names the earlier submission this one is identical to
	// (same pipeline fingerprint and spec list); its verdict was reused
	// without re-verification.
	DuplicateOf string `json:"duplicate_of,omitempty"`
	// Certified is the overall admission decision: crash-free and every
	// attached spec verified.
	Certified bool `json:"certified"`
	CrashFree bool `json:"crash_free"`
	// Discharged counts crash paths ruled out by the bad-value analysis.
	Discharged int `json:"discharged,omitempty"`
	// BoundSteps is the worst-case IR statement count per packet — the
	// latency assessment the paper describes for operators. Exact unless
	// BoundIsUpper (loop-state merging makes it an upper bound).
	BoundSteps   int64 `json:"bound_steps"`
	BoundIsUpper bool  `json:"bound_is_upper,omitempty"`
	// SpecsPassed/SpecsFailed name the verified and refuted contracts
	// (functional specs and sequence specs alike).
	SpecsPassed []string       `json:"specs_passed,omitempty"`
	SpecsFailed []string       `json:"specs_failed,omitempty"`
	Witnesses   []BatchWitness `json:"witnesses,omitempty"`
	// Induction carries the per-invariant unbounded-sequence results:
	// the automatic crash-freedom induction for stateful pipelines plus
	// any attached StateInvariants.
	Induction []InductionResult `json:"induction,omitempty"`
	// Unresolved counts obligations left undecided across the admission's
	// property gates — solver-budget exhaustion, contained engine panics,
	// watchdog interrupts. Nonzero blocks Certified: the service degrades
	// to "not certified, here is why", never to a fabricated verdict.
	// omitempty keeps clean-run verdicts byte-identical to earlier runs.
	Unresolved int `json:"unresolved,omitempty"`
	// UnresolvedCauses attributes each unresolved obligation, one sorted
	// line per count (stacks of contained panics stay in logs).
	UnresolvedCauses []string `json:"unresolved_causes,omitempty"`
	// Error reports a verification failure (budget exhaustion and the
	// like); the other fields are meaningless when set.
	Error string `json:"error,omitempty"`
}

// batchWitnesses converts report witnesses to their serializable form.
func batchWitnesses(ws []Witness) []BatchWitness {
	out := make([]BatchWitness, 0, len(ws))
	for _, w := range ws {
		out = append(out, BatchWitness{
			Path:   w.Path,
			Detail: w.Detail,
			Packet: hex.EncodeToString(w.Packet),
			Output: hex.EncodeToString(w.Output),
		})
	}
	return out
}

// Batch verifies every submission on this Verifier, sharing Step-1
// summaries, the persistent store, and solver sessions across the
// corpus, and returns one verdict per item (in input order). A
// spec-free submission whose pipeline fingerprint matches an earlier
// spec-free item reuses its verdict with DuplicateOf set; submissions
// carrying specs are always verified — FuncSpec values are opaque
// closures (the library parameterizes them under fixed names), so no
// key can safely equate two spec lists. Per-item verification failures
// are recorded in the verdict's Error field; the batch always runs to
// completion.
func (v *Verifier) Batch(items []BatchItem) []BatchVerdict {
	out := make([]BatchVerdict, len(items))
	seen := map[ir.Fingerprint]int{}
	for i, it := range items {
		if len(it.Specs) == 0 && len(it.SeqSpecs) == 0 && len(it.Invariants) == 0 {
			key := it.Pipeline.Fingerprint()
			if j, ok := seen[key]; ok {
				out[i] = out[j]
				out[i].Name = it.Name
				out[i].DuplicateOf = items[j].Name
				continue
			}
			seen[key] = i
		}
		out[i] = v.admit(it)
	}
	return out
}

// admit runs the full admission pipeline for one submission.
func (v *Verifier) admit(it BatchItem) (verdict BatchVerdict) {
	verdict = BatchVerdict{
		Name:        it.Name,
		Fingerprint: it.Pipeline.Fingerprint().String(),
	}
	defer func() {
		// Last-resort backstop: the property drivers contain their own
		// panics (panics.go), so anything arriving here escaped every
		// session-aware recover. Degrade the one submission to an error
		// verdict — never the whole batch, never the daemon.
		if r := recover(); r != nil {
			v.panicsRecovered.Add(1)
			verdict.Certified = false
			verdict.Error = fmt.Sprintf("verify: panic during admission: %v (contained)", r)
		}
		sort.Strings(verdict.UnresolvedCauses)
	}()
	// Every stage hands its certificate table to saves, which writes it
	// once, after the last stage.
	saves := &certSaves{}
	defer saves.flush(v)
	crash, err := v.crashFreedom(it.Pipeline, saves)
	if err != nil {
		degradeOrFail(&verdict, err)
		return verdict
	}
	verdict.CrashFree = crash.Verified
	verdict.Discharged = crash.Discharged
	verdict.Unresolved += crash.Unresolved
	verdict.UnresolvedCauses = append(verdict.UnresolvedCauses, crash.UnresolvedCauses...)
	verdict.Witnesses = append(verdict.Witnesses, batchWitnesses(crash.Witnesses)...)
	bound, err := v.boundedInstructions(it.Pipeline, false, saves)
	if err != nil {
		degradeOrFail(&verdict, err)
		return verdict
	}
	verdict.BoundSteps = bound.MaxSteps
	verdict.BoundIsUpper = bound.upper
	verdict.Certified = crash.Verified
	for _, spec := range it.Specs {
		rep, err := v.verifyFunc(it.Pipeline, spec, saves)
		if err != nil {
			degradeOrFail(&verdict, err)
			return verdict
		}
		verdict.Unresolved += rep.Unresolved
		verdict.UnresolvedCauses = append(verdict.UnresolvedCauses, rep.UnresolvedCauses...)
		if rep.Verified {
			verdict.SpecsPassed = append(verdict.SpecsPassed, spec.Name)
		} else {
			verdict.Certified = false
			verdict.SpecsFailed = append(verdict.SpecsFailed, spec.Name)
			// Crash witnesses already surfaced by the crash gate; keep
			// only genuinely functional violations to avoid duplicates.
			for _, w := range rep.Witnesses {
				if w.Output != nil {
					verdict.Witnesses = append(verdict.Witnesses, batchWitnesses([]Witness{w})...)
				}
			}
		}
	}
	// The terminal composed paths are shared across every sequence
	// obligation of this submission — one walk, not one per spec or
	// invariant.
	var prepared *seqPaths
	var seqErr error
	seqPrepared := false
	prep := func() (*seqPaths, error) {
		if !seqPrepared {
			seqPrepared = true
			prepared, seqErr = v.prepareSeq(it.Pipeline, saves)
		}
		return prepared, seqErr
	}
	for _, spec := range it.SeqSpecs {
		paths, err := prep()
		if err != nil {
			degradeOrFail(&verdict, err)
			return verdict
		}
		rep, err := v.verifySeq(it.Pipeline, paths.ends, spec)
		if err != nil {
			degradeOrFail(&verdict, err)
			return verdict
		}
		verdict.Unresolved += rep.Unresolved
		verdict.UnresolvedCauses = append(verdict.UnresolvedCauses, rep.UnresolvedCauses...)
		if rep.Verified {
			verdict.SpecsPassed = append(verdict.SpecsPassed, spec.Name)
		} else {
			verdict.Certified = false
			verdict.SpecsFailed = append(verdict.SpecsFailed, spec.Name)
		}
	}
	// Unbounded-sequence obligations (DESIGN.md §8): stateful pipelines
	// automatically get the crash-freedom induction; attached invariants
	// follow. A base-case refutation is a real reachable violation and
	// blocks certification; a CTI alone does not (the bounded gates
	// above still hold), but the verdict records that no unbounded
	// guarantee exists. Induction errors (budget, merged state logs) are
	// recorded per obligation rather than failing the admission.
	if pipelineHasState(it.Pipeline) {
		res := inductionResult(it.Pipeline, "crash-freedom", prep, func(paths *seqPaths) (*InductionReport, error) {
			return v.seqCrashFreedom(it.Pipeline, paths, SeqOptions{}, saves)
		})
		verdict.Induction = append(verdict.Induction, res)
		if res.Refuted {
			verdict.Certified = false
			verdict.CrashFree = false
		}
	}
	for _, inv := range it.Invariants {
		res := inductionResult(it.Pipeline, inv.Name, prep, func(paths *seqPaths) (*InductionReport, error) {
			return v.proveInvariant(it.Pipeline, paths.ends, inv, SeqOptions{})
		})
		verdict.Induction = append(verdict.Induction, res)
		if res.Refuted {
			verdict.Certified = false
		}
	}
	return verdict
}

// inductionResult folds one induction run into its serializable form.
// prep supplies the submission's shared (memoized) terminal-path set.
func inductionResult(p *click.Pipeline, name string, prep func() (*seqPaths, error), run func(*seqPaths) (*InductionReport, error)) InductionResult {
	res := InductionResult{Invariant: name}
	paths, err := prep()
	if err != nil {
		res.Error = unresolvedCause(err)
		return res
	}
	rep, err := run(paths)
	if err != nil {
		res.Error = unresolvedCause(err)
		return res
	}
	// A refutation or CTI only counts if the concrete dataplane
	// reproduces it: the landed-boolean over-approximation on
	// capacity-bounded stores (symbex.SeqState) can in principle admit
	// sequences no real run performs, and an unreplayable witness must
	// surface as an error, never block (or excuse) certification.
	if (rep.Refuted || rep.CTI) && rep.Witness != nil {
		if err := ReplaySeq(p, rep.Witness); err != nil {
			res.Error = fmt.Sprintf("witness did not replay on the dataplane: %v", err)
			return res
		}
	}
	res.Proved = rep.Proved
	res.K = rep.K
	res.Refuted = rep.Refuted
	res.CTI = rep.CTI
	if rep.Witness != nil {
		res.WitnessPackets = len(rep.Witness.Packets)
	}
	return res
}

// Batch is the package-level convenience: a fresh Verifier configured
// by opts verifies the whole corpus, returning the verdicts, the
// verifier's accumulated statistics, and the wall time.
func Batch(items []BatchItem, opts Options) ([]BatchVerdict, Stats, time.Duration) {
	v := New(opts)
	start := time.Now()
	verdicts := v.Batch(items)
	return verdicts, v.Stats(), time.Since(start)
}
