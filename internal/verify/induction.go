package verify

// Multi-packet state verification (DESIGN.md §8). The single-packet
// pipeline properties treat every private-state read as unconstrained
// and refine crash suspects with the bad-value search (stateful.go) —
// which answers "can SOME state make this packet crash", never "can any
// SEQUENCE of packets drive the state there". This file closes that
// gap: terminal composed paths become the per-packet transition
// relation, symbex.SeqState threads the write log of packet i into the
// reads of packet i+1, and properties over unbounded packet counts are
// proved by k-induction:
//
//   - base case: from the declared initial state (store defaults — part
//     of the program fingerprint, hence of the induction key), no
//     sequence of up to k packets violates the property;
//   - inductive step: from an ARBITRARY state (Ackermann-encoded
//     initial reads), k non-violating packets followed by a violating
//     one is unsatisfiable.
//
// Refutations come back as multi-packet witnesses: an ordered list of
// concrete packets, plus — for counterexamples to induction — the
// concrete seeded state the sequence starts from. ReplaySeq reproduces
// either kind on the concrete dataplane, byte for byte.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"vsd/internal/click"
	"vsd/internal/dataplane"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/smt"
	"vsd/internal/symbex"
)

// SeqOptions bounds one sequence-verification call.
type SeqOptions struct {
	// MaxK is the deepest induction step attempted (0 = default 2).
	MaxK int
	// MaxSequences bounds the number of feasible sequence prefixes
	// explored across the call (0 = default).
	MaxSequences int
}

// Sequence-exploration defaults.
const (
	DefaultSeqMaxK         = 2
	DefaultSeqMaxSequences = 1 << 13
)

func (o SeqOptions) maxK() int {
	if o.MaxK > 0 {
		return o.MaxK
	}
	return DefaultSeqMaxK
}

func (o SeqOptions) maxSequences() int {
	if o.MaxSequences > 0 {
		return o.MaxSequences
	}
	return DefaultSeqMaxSequences
}

// MultiWitness is a concrete multi-packet counterexample: the packets
// in arrival order, the composed path and disposition of each, the
// output packet of each emitted step, and — when the sequence starts
// from the arbitrary-state induction hypothesis rather than boot state
// — the private state to seed ("inst" -> store -> key -> value).
type MultiWitness struct {
	Packets      [][]byte
	Outputs      [][]byte
	Paths        []string
	Dispositions []ir.Disposition
	InitState    map[string]map[string]map[uint64]uint64
	Detail       string
}

// InductionReport is the outcome of an unbounded-sequence proof.
type InductionReport struct {
	// Property names what was proved or refuted.
	Property string
	// Proved is true when the property holds for packet sequences of ANY
	// length: the base case held to depth K and the inductive step
	// closed at K.
	Proved bool
	// K is the induction depth that closed the proof, or the deepest
	// attempted when it did not.
	K int
	// Refuted is true when the base case failed: Witness is a real
	// violation reachable from boot state.
	Refuted bool
	// CTI is true when only the inductive step failed: Witness is a
	// counterexample to induction — a violating sequence from a seeded
	// (arbitrary but concrete) state. The property may still hold from
	// boot state; it is not established for unbounded sequences.
	CTI bool
	// Witness is the refutation or CTI evidence (nil when Proved).
	Witness *MultiWitness
	// Sequences counts feasible sequence prefixes explored.
	Sequences int
}

// BoundedSeqReport is the outcome of SeqCrashBounded: exhaustive
// exploration of all packet sequences up to a fixed length from boot
// state — the unrolling baseline k-induction replaces.
type BoundedSeqReport struct {
	Depth     int
	Sequences int // feasible complete sequences
	Refuted   bool
	Witness   *MultiWitness
}

// ---- sequence stitching over terminal composed paths ----

// seqEnd is one collected terminal composed path, with a deterministic
// sort key so sequence exploration order (and thus witness choice) is
// independent of the parallel walk schedule.
type seqEnd struct {
	end pathEnd
	key string
}

// seqPaths is a pipeline's terminal composed paths in exploration
// order, with the Step-2 certificate table of the walk that collected
// them (nil without one), in which the crash-freedom induction records
// its sequence extensions.
type seqPaths struct {
	ends []seqEnd
	cert *certTable
}

// terminalPaths collects every feasible terminal composed path of the
// pipeline, ordered by name, disposition, egress and step count, ties
// broken by pathLess. The walk shares the verifier's summary cache, so
// this reuses Step-1 work from earlier properties, and it reads no
// formula: a replayed walk hands over unbuilt paths.
func (v *Verifier) terminalPaths(p *click.Pipeline, saves *certSaves) (*seqPaths, error) {
	var ends []seqEnd
	_, cert, err := v.walk(p, nil, saves, func(end pathEnd) error {
		key := fmt.Sprintf("%s|%d|%d|%d|", pathName(p, end.state), end.disp, end.egress, end.state.steps)
		ends = append(ends, seqEnd{end: end, key: key})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(ends, func(i, j int) bool {
		if ends[i].key != ends[j].key {
			return ends[i].key < ends[j].key
		}
		return pathLess(ends[i].end.state, ends[j].end.state)
	})
	return &seqPaths{ends: ends, cert: cert}, nil
}

// seqStepRec is one committed step of a sequence prefix. Its output
// packet and mark are set when the prefix that ends with it is built.
type seqStepRec struct {
	end  *pathEnd
	pkt  *expr.Array // step-scoped output packet
	mark symbex.Mark // state-log position after this step
	// lookups are the step's table lookups, step-scoped: a witness
	// conjoins their concrete relation (tables.go).
	lookups []pathLookup
}

// seqPrefix is a sequence of committed steps: their scoped conditions
// and the threaded state. key is its certificate key (seqKey). A prefix
// made by an extension replayed from a certificate is unbuilt: parent
// is set, and conds, store and its last step's pkt and mark are filled
// in by seqCtx.build when a deeper extension misses or a witness reads
// them. Only a search with a certificate makes unbuilt prefixes.
type seqPrefix struct {
	steps  []*seqStepRec
	key    []byte
	conds  []*expr.Expr
	store  *symbex.SeqState
	parent *seqPrefix
}

// seqCtx carries one sequence-verification call's shared pieces. cert
// is the certificate table its extensions are decided through, nil for
// a search that always solves.
type seqCtx struct {
	v        *Verifier
	p        *click.Pipeline
	sess     *smt.IncrementalSession
	cert     *certTable
	budget   int
	explored int
}

func (c *seqCtx) spend() error {
	c.explored++
	if c.explored > c.budget {
		return fmt.Errorf("verify: more than %d sequence prefixes (budget)", c.budget)
	}
	return nil
}

// newSeqRoot builds the empty prefix with every pipeline store declared
// under its instance-qualified name.
func newSeqRoot(p *click.Pipeline, mode symbex.InitMode) *seqPrefix {
	st := symbex.NewSeqState(mode)
	for _, e := range p.Elements {
		for _, d := range e.Program().States {
			st.Declare(e.Name()+"."+d.Name, d)
		}
	}
	return &seqPrefix{key: []byte{byte(mode)}, store: st}
}

// step threads end onto the built prefix pre as its next packet,
// returning the forked state, the step's scoping substitution and its
// scoped conditions, length bounds first. ok is false when a condition
// folds to false; newConds then ends with it.
func (c *seqCtx) step(pre *seqPrefix, end *pathEnd) (store *symbex.SeqState, sub *expr.Subst, newConds []*expr.Expr, ok bool) {
	scope := symbex.SeqScope(len(pre.steps))
	store = pre.store.Fork()
	f := end.state.formulas()
	keep := make(map[string]bool, len(f.reads))
	for _, rd := range f.reads {
		keep[rd.Var.Name] = true
	}
	var lks []symbex.TableLookup
	for _, lk := range f.lookups {
		lks = append(lks, lk.TableLookup)
	}
	sub = symbex.ScopeSubst(scope, f.conds, f.pkt, f.reads, f.writes, lks, keep)
	symbex.ThreadState(store, sub, f.reads, f.writes, nil)
	newConds = make([]*expr.Expr, 0, len(f.conds)+2)
	for _, pe := range c.v.Pre() {
		newConds = append(newConds, sub.Apply(pe))
	}
	for _, cond := range f.conds {
		ic := sub.Apply(cond)
		if ic.IsTrue() {
			continue
		}
		newConds = append(newConds, ic)
		if ic.IsFalse() {
			return store, sub, newConds, false
		}
	}
	return store, sub, newConds, true
}

// commit sets next, the prefix pre extended by one step, to the step's
// threaded state, conditions, output packet and lookups.
func commit(next, pre *seqPrefix, store *symbex.SeqState, sub *expr.Subst, newConds []*expr.Expr) {
	next.conds = append(pre.conds[:len(pre.conds):len(pre.conds)], newConds...)
	next.store = store
	last := next.steps[len(next.steps)-1]
	f := last.end.state.formulas()
	last.pkt, last.mark = sub.ApplyArray(f.pkt), store.Mark()
	last.lookups = nil
	for _, lk := range f.lookups {
		lk.Key = sub.Apply(lk.Key)
		if lk.Guard != nil {
			lk.Guard = sub.Apply(lk.Guard)
		}
		last.lookups = append(last.lookups, lk)
	}
}

// build builds an unbuilt prefix, its unbuilt ancestors first. Its
// extension was decided feasible, so no condition folds to false unless
// a certificate lied; the false condition then stays in the constraint,
// where a later solve refutes it.
func (c *seqCtx) build(pre *seqPrefix) {
	parent := pre.parent
	if parent == nil {
		return
	}
	c.build(parent)
	store, sub, newConds, _ := c.step(parent, pre.steps[len(pre.steps)-1].end)
	commit(pre, parent, store, sub, newConds)
	pre.parent = nil
}

// extend stitches end as the next step of pre, returning nil when the
// extended sequence constraint is infeasible. With a certificate the
// decision is replayed when recorded; a replayed feasible extension is
// left unbuilt (the eager walk of the tests builds it here). Otherwise
// the extension is built and solved, and an exact decision recorded.
func (c *seqCtx) extend(pre *seqPrefix, se *seqEnd) (*seqPrefix, error) {
	if err := c.spend(); err != nil {
		return nil, err
	}
	next := &seqPrefix{steps: append(pre.steps[:len(pre.steps):len(pre.steps)], &seqStepRec{end: &se.end})}
	if c.cert != nil {
		next.key = seqKey(pre.key, se.end.state)
		if feasible, ok := c.cert.lookup(seqEntry, next.key); ok {
			c.v.countReplayed()
			if !feasible {
				c.v.countSeq(false)
				return nil, nil
			}
			next.parent = pre
			if c.v.eagerBuild {
				c.build(next)
			}
			c.v.countSeq(true)
			return next, nil
		}
	}
	c.build(pre)
	store, sub, newConds, feasible := c.step(pre, &se.end)
	unknown, sat := false, false
	if feasible {
		cons := make([]*expr.Expr, 0, len(pre.conds)+len(newConds)+len(store.Conds()))
		cons = append(cons, pre.conds...)
		cons = append(cons, newConds...)
		cons = append(cons, store.Conds()...)
		c.v.solverQueries.Add(1)
		sp, started := c.v.tel.beginSolve(c.sess, "seq-extend", "")
		r, _ := c.sess.Check(cons)
		info := c.sess.LastSolve()
		c.v.tel.recordSolve(info, "seq-extend", "seq-extend", started, sp)
		feasible, unknown = r != smt.Unsat, r == smt.Unknown
		sat = info.SATCore || info.OrderDecided || info.Cached
	}
	if c.cert != nil && !unknown {
		c.cert.record(seqEntry, next.key, feasible, sat)
	}
	if !feasible {
		c.v.countSeq(false)
		return nil, nil
	}
	commit(next, pre, store, sub, newConds)
	c.v.countSeq(true)
	return next, nil
}

// countSeq counts one sequence extension: a feasible sequence explored,
// or an infeasible extension discharged.
func (v *Verifier) countSeq(feasible bool) {
	v.mu.Lock()
	if feasible {
		v.stats.SeqSequences++
	} else {
		v.stats.SeqInfeasible++
	}
	v.mu.Unlock()
}

// seqSupported rejects pipelines whose summaries cannot be threaded
// exactly: loop-state merging unions sibling access logs, losing the
// read/write interleaving that sequence semantics depend on. (Stateless
// merged loops — the IP options walk — are fine; only merged summaries
// that touch state are unsound to thread.)
func (v *Verifier) seqSupported(p *click.Pipeline) error {
	for _, e := range p.Elements {
		if len(e.Program().States) == 0 {
			continue
		}
		ent, err := v.summary(e)
		if err != nil {
			return err
		}
		if ent.merged {
			return fmt.Errorf("verify: %s: loop-state merging unioned the state-access logs; sequence verification needs exact interleavings", e.Name())
		}
	}
	return nil
}

// prepareSeq validates that the pipeline's summaries can be threaded
// exactly and collects its terminal composed paths — the per-pipeline
// setup every sequence entry point needs. Batch admission prepares once
// and shares the path set across all of a submission's obligations.
func (v *Verifier) prepareSeq(p *click.Pipeline, saves *certSaves) (*seqPaths, error) {
	if err := v.seqSupported(p); err != nil {
		return nil, err
	}
	return v.terminalPaths(p, saves)
}

// pipelineHasState reports whether any element declares a private
// store; stateless pipelines have nothing to induct over.
func pipelineHasState(p *click.Pipeline) bool {
	for _, e := range p.Elements {
		if len(e.Program().States) > 0 {
			return true
		}
	}
	return false
}

// ---- crash freedom by k-induction ----

// SeqCrashFreedom proves (or refutes) crash freedom for packet
// sequences of UNBOUNDED length by k-induction over the private state:
// the base case explores up to MaxK packets from boot state; the
// inductive step shows that after k non-crashing packets from an
// arbitrary state, packet k+1 cannot crash. Contrast with CrashFreedom,
// whose bad-value refinement answers the one-packet question only.
//
// A base-case failure is a real violation (Refuted, with a multi-packet
// witness from boot state). A step-only failure yields a counterexample
// to induction (CTI): a seeded state plus packets that drive it to a
// crash — evidence the proof cannot close, and concrete enough for
// ReplaySeq to reproduce. One caveat on witnesses touching
// capacity-bounded stores: the free "landed" boolean (symbex.SeqState)
// over-approximates the full-table drop, so a refutation can in
// principle assume a drop no concrete run performs — callers that act
// on a Refuted verdict should ReplaySeq it first (batch admission and
// the CLI both do).
func (v *Verifier) SeqCrashFreedom(p *click.Pipeline, opts SeqOptions) (*InductionReport, error) {
	saves := &certSaves{}
	defer saves.flush(v)
	paths, err := v.prepareSeq(p, saves)
	if err != nil {
		return nil, err
	}
	return v.seqCrashFreedom(p, paths, opts, saves)
}

// seqCrashFreedom is SeqCrashFreedom over prepared terminal paths. It
// decides every extension through the paths' certificate table (DESIGN
// §7.5): the extension's constraint is fixed by the table's key, the
// initial-state mode and the sequence of paths, which is the entry's
// key. It hands the table to saves when done.
func (v *Verifier) seqCrashFreedom(p *click.Pipeline, paths *seqPaths, opts SeqOptions, saves *certSaves) (rep *InductionReport, err error) {
	rep = &InductionReport{Property: "crash-freedom"}
	ends := paths.ends
	ctx := &seqCtx{v: v, p: p, sess: v.getSession(), cert: paths.cert, budget: opts.maxSequences()}
	defer func() {
		rep.Sequences = ctx.explored
		v.putSession(ctx.sess)
		saves.done(v, ctx.cert)
	}()
	// Registered after the session-return defer, so containment resets the
	// (possibly poisoned) session before it re-enters the pool.
	defer v.capturePanic("crash-freedom induction", ctx.sess, &err)
	maxK := opts.maxK()
	var cti *MultiWitness
	for k := 1; k <= maxK; k++ {
		v.noteInductionDepth(k)
		// Base: no crash within k packets of boot state. Positions < k
		// were discharged by the earlier iterations, so only k = 1 must
		// look at every position; deeper rounds check exactly position k.
		bad, err := ctx.findCrashSeq(ends, newSeqRoot(p, symbex.InitDefault), k, k == 1)
		if err != nil {
			return nil, err
		}
		if bad != nil {
			w, err := ctx.witness(bad)
			if err != nil {
				return nil, err
			}
			w.Detail = fmt.Sprintf("crash freedom refuted by a %d-packet sequence from boot state", len(w.Packets))
			rep.K, rep.Refuted, rep.Witness = k, true, w
			v.countInduction(false)
			return rep, nil
		}
		// Step: k non-crashing packets from an arbitrary state, then a
		// crash at EXACTLY packet k+1 — the non-crashing prefix is the
		// induction hypothesis, so the crash may not come earlier (that
		// would re-find the weaker k-1 counterexample and the deeper
		// hypothesis would never help). Unsatisfiable closes the proof.
		bad, err = ctx.findCrashSeq(ends, newSeqRoot(p, symbex.InitSymbolic), k+1, false)
		if err != nil {
			return nil, err
		}
		if bad == nil {
			rep.Proved, rep.K = true, k
			v.countInduction(true)
			return rep, nil
		}
		// Only the first CTI is reported, so only it is solved for.
		if cti == nil {
			if cti, err = ctx.witness(bad); err != nil {
				return nil, err
			}
			cti.Detail = fmt.Sprintf("counterexample to %d-induction: %d packets from the seeded state end in a crash",
				k, len(cti.Packets))
		}
	}
	rep.K, rep.CTI, rep.Witness = maxK, true, cti
	return rep, nil
}

// findCrashSeq searches for a feasible sequence of at most depth steps
// built from non-crashing prefixes plus one crashing step, returning
// it or nil. With crashAnywhere the crash may occur at any
// position (the base case: any crash from boot state refutes); without
// it the crash must land exactly at position depth (the inductive step:
// the depth-1 non-crashing prefix is the induction hypothesis).
func (c *seqCtx) findCrashSeq(ends []seqEnd, pre *seqPrefix, depth int, crashAnywhere bool) (*seqPrefix, error) {
	t := len(pre.steps)
	final := t == depth-1
	for i := range ends {
		se := &ends[i]
		if se.end.disp == ir.Crashed {
			if !crashAnywhere && !final {
				continue
			}
			got, err := c.extend(pre, se)
			if err != nil {
				return nil, err
			}
			if got == nil {
				continue
			}
			if spurious, err := c.spurious(got); err != nil || !spurious {
				return got, err
			}
			c.v.countRefinement()
			continue
		}
		if final {
			continue
		}
		got, err := c.extend(pre, se)
		if err != nil {
			return nil, err
		}
		if got == nil {
			continue
		}
		bad, err := c.findCrashSeq(ends, got, depth, crashAnywhere)
		if err != nil || bad != nil {
			return bad, err
		}
	}
	return nil, nil
}

// spurious reports whether the concrete tables rule out the sequence
// pre: a sequence with no table lookup never is, and is not solved for.
func (c *seqCtx) spurious(pre *seqPrefix) (bool, error) {
	for _, se := range pre.steps {
		if se.end.state.nLookups > 0 {
			_, err := c.witness(pre)
			if errors.Is(err, errSpurious) {
				return true, nil
			}
			return false, err
		}
	}
	return false, nil
}

// SeqCrashBounded is the unrolling baseline: it explores EVERY feasible
// packet sequence of up to depth packets from boot state, reporting a
// crash if one is reachable. Its cost grows with the sequence space
// (the S1 experiment measures exactly that); SeqCrashFreedom's
// induction replaces it with a depth-independent proof.
func (v *Verifier) SeqCrashBounded(p *click.Pipeline, depth int, opts SeqOptions) (*BoundedSeqReport, error) {
	paths, err := v.prepareSeq(p, nil)
	if err != nil {
		return nil, err
	}
	ends := paths.ends
	ctx := &seqCtx{v: v, p: p, sess: v.getSession(), budget: opts.maxSequences()}
	defer v.putSession(ctx.sess)
	rep := &BoundedSeqReport{Depth: depth}
	var walk func(pre *seqPrefix) error
	walk = func(pre *seqPrefix) error {
		t := len(pre.steps)
		if t == depth {
			rep.Sequences++
			return nil
		}
		for i := range ends {
			se := &ends[i]
			got, err := ctx.extend(pre, se)
			if err != nil {
				return err
			}
			if got == nil {
				continue
			}
			if se.end.disp == ir.Crashed {
				rep.Sequences++
				if !rep.Refuted {
					w, err := ctx.witness(got)
					if errors.Is(err, errSpurious) {
						v.countRefinement()
						continue
					}
					if err != nil {
						return err
					}
					w.Detail = fmt.Sprintf("crash reached by a %d-packet sequence from boot state", len(w.Packets))
					rep.Refuted, rep.Witness = true, w
				}
				continue
			}
			if err := walk(got); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(newSeqRoot(p, symbex.InitDefault)); err != nil {
		return nil, err
	}
	if rep.Refuted {
		v.countSeqRefuted()
	}
	return rep, nil
}

// ---- state invariants by k-induction ----

// StateView exposes the threaded symbolic state to an invariant
// predicate: Read returns the value the instance-qualified store
// ("inst.store") holds for key at the step boundary the view is
// anchored to.
type StateView struct {
	store *symbex.SeqState
	at    symbex.Mark
}

// Read returns store[key] at the view's step boundary.
func (sv *StateView) Read(store string, key *expr.Expr) *expr.Expr {
	return sv.store.ReadAt(sv.at, store, key)
}

// StateInvariant is a predicate over the private state of a pipeline,
// to be proved preserved by every packet: "the token count never
// exceeds the bucket capacity", "the flow table only holds saturating
// counts". Pred builds the 1-bit obligation from a view of the state.
type StateInvariant struct {
	Name string
	Pred func(sv *StateView) *expr.Expr
}

// ProveInvariant proves inv holds after every packet of every sequence,
// of any length, by k-induction: the base case checks it after each of
// the first MaxK packets from boot state; the inductive step assumes it
// at k consecutive step boundaries of an arbitrary state and shows
// packet k+1 preserves it. Crashing paths terminate a sequence and are
// not extended (crash reachability is SeqCrashFreedom's property).
func (v *Verifier) ProveInvariant(p *click.Pipeline, inv StateInvariant, opts SeqOptions) (*InductionReport, error) {
	paths, err := v.prepareSeq(p, nil)
	if err != nil {
		return nil, err
	}
	return v.proveInvariant(p, paths.ends, inv, opts)
}

// proveInvariant is ProveInvariant over prepared terminal paths. Its
// invariant checks add predicates no certificate key can name, so its
// search solves without one.
func (v *Verifier) proveInvariant(p *click.Pipeline, ends []seqEnd, inv StateInvariant, opts SeqOptions) (rep *InductionReport, err error) {
	rep = &InductionReport{Property: inv.Name}
	ctx := &seqCtx{v: v, p: p, sess: v.getSession(), budget: opts.maxSequences()}
	defer func() {
		rep.Sequences = ctx.explored
		v.putSession(ctx.sess)
	}()
	defer v.capturePanic(fmt.Sprintf("induction for invariant %s", inv.Name), ctx.sess, &err)
	maxK := opts.maxK()
	var cti *MultiWitness
	for k := 1; k <= maxK; k++ {
		v.noteInductionDepth(k)
		// Base: boundaries < k were discharged by earlier iterations, so
		// only k = 1 checks every boundary (including boot state itself).
		w, err := ctx.findInvariantBreak(ends, inv, newSeqRoot(p, symbex.InitDefault), k, false, k == 1)
		if err != nil {
			return nil, err
		}
		if w != nil {
			w.Detail = fmt.Sprintf("invariant %s refuted after a %d-packet sequence from boot state",
				inv.Name, len(w.Packets))
			rep.K, rep.Refuted, rep.Witness = k, true, w
			v.countInduction(false)
			return rep, nil
		}
		w, err = ctx.findInvariantBreak(ends, inv, newSeqRoot(p, symbex.InitSymbolic), k, true, false)
		if err != nil {
			return nil, err
		}
		if w == nil {
			rep.Proved, rep.K = true, k
			v.countInduction(true)
			return rep, nil
		}
		if cti == nil {
			w.Detail = fmt.Sprintf("counterexample to %d-induction for invariant %s", k, inv.Name)
			cti = w
		}
	}
	rep.K, rep.CTI, rep.Witness = maxK, true, cti
	return rep, nil
}

// findInvariantBreak searches for a sequence of at most depth
// non-crashing steps after which ¬inv is satisfiable. With hypothesis
// set (the inductive step), inv is assumed at every earlier step
// boundary including the initial state. With checkEvery the invariant
// is checked at every boundary from the initial state on; without it
// only full-depth sequences are checked (the deeper base-case rounds,
// whose earlier boundaries previous rounds discharged).
func (c *seqCtx) findInvariantBreak(ends []seqEnd, inv StateInvariant, pre *seqPrefix, depth int, hypothesis, checkEvery bool) (*MultiWitness, error) {
	t := len(pre.steps)
	if checkEvery || t == depth {
		// Check the invariant at this boundary (in the base case that
		// includes t = 0, the boot state itself).
		bad := expr.Not(inv.Pred(&StateView{store: pre.store, at: pre.store.Mark()}))
		var assume []*expr.Expr
		if hypothesis {
			assume = append(assume, inv.Pred(&StateView{store: pre.store, at: symbex.Mark{}}))
			for _, st := range pre.steps[:t-1] {
				assume = append(assume, inv.Pred(&StateView{store: pre.store, at: st.mark}))
			}
		}
		cons := make([]*expr.Expr, 0, len(pre.conds)+len(pre.store.Conds())+len(assume)+1)
		cons = append(cons, pre.conds...)
		cons = append(cons, pre.store.Conds()...)
		cons = append(cons, assume...)
		cons = append(cons, bad)
		c.v.solverQueries.Add(1)
		sp, started := c.v.tel.beginSolve(c.sess, "induction", "")
		r, _ := c.sess.Check(cons)
		c.v.tel.recordSolve(c.sess.LastSolve(), "induction", "invariant-check", started, sp)
		if r != smt.Unsat {
			w, err := c.witness(pre, append(assume, bad)...)
			if !errors.Is(err, errSpurious) {
				return w, err
			}
			c.v.countRefinement()
		}
	}
	if t == depth {
		return nil, nil
	}
	for i := range ends {
		se := &ends[i]
		if se.end.disp == ir.Crashed {
			continue
		}
		got, err := c.extend(pre, se)
		if err != nil {
			return nil, err
		}
		if got == nil {
			continue
		}
		w, err := c.findInvariantBreak(ends, inv, got, depth, hypothesis, checkEvery)
		if err != nil || w != nil {
			return w, err
		}
	}
	return nil, nil
}

func (v *Verifier) noteInductionDepth(k int) {
	v.mu.Lock()
	if k > v.stats.InductionDepth {
		v.stats.InductionDepth = k
	}
	v.mu.Unlock()
}

// countSeqRefuted counts bounded-exploration refutations (SeqSpec
// violations, bounded crash searches) — deliberately NOT the induction
// counters, so /stats induction_refuted reconciles with the verdicts'
// induction[] lists.
func (v *Verifier) countSeqRefuted() {
	v.mu.Lock()
	v.stats.SeqSpecRefuted++
	v.mu.Unlock()
}

func (v *Verifier) countInduction(proved bool) {
	v.mu.Lock()
	if proved {
		v.stats.InductionProved++
	} else {
		v.stats.InductionRefuted++
	}
	v.mu.Unlock()
}

// ---- sequence contracts ----

// SeqSpec is a declarative contract over a packet SEQUENCE, the
// multi-packet analogue of FuncSpec: Post is consulted once per
// feasible sequence of Steps packets (from boot state) and returns the
// proof obligation relating the steps' inputs, outputs, and state — or
// nil when the sequence shape carries no obligation. NAT mapping
// stability ("the same flow keeps its translation") is the canonical
// example: it is a relation between packets i and j, inexpressible as
// any single-packet property.
type SeqSpec struct {
	Name string
	// Steps is the sequence length to explore.
	Steps int
	// Post builds the obligation for one terminal sequence (nil = none).
	Post func(si *SeqInfo) *expr.Expr
	// AllowCrash tolerates sequences that crash the pipeline; by default
	// a realizable crashing sequence violates the contract.
	AllowCrash bool
}

// SeqInfo exposes one explored sequence to a SeqSpec postcondition.
type SeqInfo struct {
	p   *click.Pipeline
	pre *seqPrefix
}

// Steps returns the number of packets in the sequence.
func (si *SeqInfo) Steps() int { return len(si.pre.steps) }

// Disposition returns how step t's packet left the pipeline.
func (si *SeqInfo) Disposition(t int) ir.Disposition { return si.pre.steps[t].end.disp }

// Emitted reports whether step t's packet left at an egress.
func (si *SeqInfo) Emitted(t int) bool { return si.pre.steps[t].end.disp == ir.Emitted }

// EgressElem returns the instance name step t's packet exited from
// ("" unless emitted).
func (si *SeqInfo) EgressElem(t int) string {
	end := si.pre.steps[t].end
	if end.disp != ir.Emitted || len(end.state.elems) == 0 {
		return ""
	}
	return si.p.Elements[end.state.elems[len(end.state.elems)-1]].Name()
}

// EgressPort returns the output port step t's packet left through (-1
// unless emitted).
func (si *SeqInfo) EgressPort(t int) int {
	end := si.pre.steps[t].end
	if end.disp != ir.Emitted || len(end.state.ports) == 0 {
		return -1
	}
	return end.state.ports[len(end.state.ports)-1]
}

// Visited reports whether step t's packet traversed the named element.
func (si *SeqInfo) Visited(t int, inst string) bool {
	for _, e := range si.pre.steps[t].end.state.elems {
		if si.p.Elements[e].Name() == inst {
			return true
		}
	}
	return false
}

// Len returns step t's symbolic packet length.
func (si *SeqInfo) Len(t int) *expr.Expr {
	return expr.Var(symbex.SeqScope(t)+symbex.PktLenVar, 32)
}

// In reads n bytes of step t's INPUT packet at concrete offset off,
// big-endian.
func (si *SeqInfo) In(t int, off uint64, n int) *expr.Expr {
	return expr.SelectWide(expr.BaseArray(symbex.SeqScope(t)+symbex.PktArrayName),
		expr.Const(32, off), n)
}

// Out reads n bytes of step t's OUTPUT packet — as the pipeline left it
// — at concrete offset off, big-endian.
func (si *SeqInfo) Out(t int, off uint64, n int) *expr.Expr {
	return expr.SelectWide(si.pre.steps[t].pkt, expr.Const(32, off), n)
}

// StateAfter returns the value the instance-qualified store holds for
// key after step t completed.
func (si *SeqInfo) StateAfter(t int, store string, key *expr.Expr) *expr.Expr {
	return si.pre.store.ReadAt(si.pre.steps[t].mark, store, key)
}

// SeqReport is the outcome of checking one SeqSpec.
type SeqReport struct {
	Spec     string
	Steps    int
	Verified bool
	// Sequences counts feasible terminal sequences; Obligations those
	// whose postcondition reached the solver; Proved those discharged;
	// Trivial those that folded to true syntactically (from boot state
	// the threaded state is often concrete, so folding IS the proof).
	Sequences   int
	Obligations int
	Proved      int
	Trivial     int
	// Unresolved counts obligations left undecided (solver budget,
	// contained panics, watchdog interrupts); they block Verified.
	Unresolved int
	// UnresolvedCauses carries one line per unresolved obligation, sorted.
	UnresolvedCauses []string
	Witnesses        []*MultiWitness
}

// VerifySeq checks a sequence contract over every feasible sequence of
// spec.Steps packets from boot state. State threading is exact here
// (unlike the single-packet walk), so a reported witness is a real
// multi-packet trace — ReplaySeq reproduces it on the dataplane.
func (v *Verifier) VerifySeq(p *click.Pipeline, spec SeqSpec) (*SeqReport, error) {
	paths, err := v.prepareSeq(p, nil)
	if err != nil {
		return nil, err
	}
	return v.verifySeq(p, paths.ends, spec)
}

// verifySeq is VerifySeq over prepared terminal paths. Its obligations
// add postconditions no certificate key can name, so its search solves
// without one.
func (v *Verifier) verifySeq(p *click.Pipeline, ends []seqEnd, spec SeqSpec) (*SeqReport, error) {
	if spec.Steps <= 0 {
		return nil, fmt.Errorf("verify: sequence spec %s: Steps must be positive", spec.Name)
	}
	rep := &SeqReport{Spec: spec.Name, Steps: spec.Steps, Verified: true}
	ctx := &seqCtx{v: v, p: p, sess: v.getSession(), budget: DefaultSeqMaxSequences}
	defer v.putSession(ctx.sess)
	var walk func(pre *seqPrefix) error
	check := func(pre *seqPrefix, crashed bool) error {
		rep.Sequences++
		si := &SeqInfo{p: p, pre: pre}
		if crashed && !spec.AllowCrash {
			w, err := ctx.witness(pre)
			if errors.Is(err, errSpurious) {
				v.countRefinement()
				return nil
			}
			if err != nil {
				return err
			}
			w.Detail = fmt.Sprintf("spec %s: sequence crashes at packet %d", spec.Name, len(pre.steps))
			rep.Verified = false
			rep.Witnesses = append(rep.Witnesses, w)
			return nil
		}
		if spec.Post == nil {
			return nil
		}
		post := spec.Post(si)
		if post == nil {
			return nil
		}
		if post.IsTrue() {
			rep.Trivial++
			return nil
		}
		rep.Obligations++
		cons := make([]*expr.Expr, 0, len(pre.conds)+len(pre.store.Conds())+1)
		cons = append(cons, pre.conds...)
		cons = append(cons, pre.store.Conds()...)
		cons = append(cons, expr.Not(post))
		v.solverQueries.Add(1)
		sp, started := v.tel.beginSolve(ctx.sess, "seq-spec", "")
		r, _ := ctx.sess.Check(cons)
		v.tel.recordSolve(ctx.sess.LastSolve(), "seq-spec", "seq-spec:"+spec.Name, started, sp)
		if r == smt.Unsat {
			rep.Proved++
			return nil
		}
		if r == smt.Unknown {
			// Undecided is neither proved nor violated: report it, never
			// guess (the solver-budget contract, DESIGN.md §9).
			rep.Unresolved++
			rep.Verified = false
			rep.UnresolvedCauses = append(rep.UnresolvedCauses,
				fmt.Sprintf("spec %s: obligation on a %d-packet sequence unresolved within solver budget", spec.Name, len(pre.steps)))
			return nil
		}
		w, err := ctx.witness(pre, expr.Not(post))
		if errors.Is(err, errSpurious) {
			v.countRefinement()
			rep.Proved++
			return nil
		}
		if err != nil {
			return err
		}
		w.Detail = fmt.Sprintf("spec %s: postcondition violated by a %d-packet sequence", spec.Name, len(pre.steps))
		rep.Verified = false
		rep.Witnesses = append(rep.Witnesses, w)
		return nil
	}
	walk = func(pre *seqPrefix) error {
		if len(pre.steps) == spec.Steps {
			return check(pre, false)
		}
		for i := range ends {
			se := &ends[i]
			got, err := ctx.extend(pre, se)
			if err != nil {
				return err
			}
			if got == nil {
				continue
			}
			if se.end.disp == ir.Crashed {
				if err := check(got, true); err != nil {
					return err
				}
				continue
			}
			if err := walk(got); err != nil {
				return err
			}
		}
		return nil
	}
	err := func() (err error) {
		defer v.capturePanic(fmt.Sprintf("sequence walk for spec %s", spec.Name), ctx.sess, &err)
		return walk(newSeqRoot(p, symbex.InitDefault))
	}()
	if errors.Is(err, errUnresolved) {
		rep.Unresolved++
		rep.Verified = false
		rep.UnresolvedCauses = append(rep.UnresolvedCauses, unresolvedCause(err))
		err = nil
	}
	if err != nil {
		return nil, err
	}
	sort.Strings(rep.UnresolvedCauses)
	if !rep.Verified {
		v.countSeqRefuted()
	}
	return rep, nil
}

// ---- witnesses ----

// witness materializes a multi-packet witness from a feasible sequence
// prefix, under the extra constraints of the violation it shows (none
// for a crash). The model comes from a fresh solve of exactly that
// formula (smt.Solver.CheckFresh), never from the search's session or
// the verdict cache, so the witness is the same whether the prefix was
// solved, replayed from a certificate or built eagerly, on any core
// count (DESIGN.md §7.5). It is validated under evaluation semantics; a
// mismatch is an internal error, never a property verdict. The steps'
// table lookups are held to the concrete tables (tables.go); a sequence
// they rule out is errSpurious.
func (c *seqCtx) witness(pre *seqPrefix, extra ...*expr.Expr) (*MultiWitness, error) {
	v, p := c.v, c.p
	c.build(pre)
	all := make([]*expr.Expr, 0, len(pre.conds)+len(pre.store.Conds())+len(extra))
	all = append(all, pre.conds...)
	all = append(all, pre.store.Conds()...)
	all = append(all, extra...)
	lookedUp := false
	for _, st := range pre.steps {
		if len(st.lookups) > 0 {
			all = append(all, tableConstraint(st.lookups))
			lookedUp = true
		}
	}
	v.solverQueries.Add(1)
	sp, started := v.tel.beginSolve(c.sess, "witness", "")
	r, m, info := v.solver.CheckFresh(all)
	v.tel.recordSolve(info, "witness", "seq-witness", started, sp)
	if r == smt.Unknown {
		return nil, fmt.Errorf("%w: sequence witness query", errUnresolved)
	}
	if r == smt.Unsat && lookedUp {
		return nil, errSpurious
	}
	if r == smt.Unsat || m == nil {
		return nil, fmt.Errorf("verify: cannot produce witness for feasible sequence")
	}
	for _, c := range all {
		if !expr.Eval(c, m).IsTrue() {
			return nil, fmt.Errorf("verify: internal error: sequence witness violates constraint %s", c)
		}
	}
	w := &MultiWitness{}
	for t, st := range pre.steps {
		scope := symbex.SeqScope(t)
		n := uint64(0)
		if lv, ok := m.Vars[scope+symbex.PktLenVar]; ok {
			n = lv.Int()
		}
		if n < v.opts.MinLen {
			n = v.opts.MinLen
		}
		if n > v.opts.MaxLen {
			n = v.opts.MaxLen
		}
		pkt := make([]byte, n)
		copy(pkt, m.Arrays[scope+symbex.PktArrayName])
		w.Packets = append(w.Packets, pkt)
		w.Paths = append(w.Paths, pathName(p, st.end.state))
		w.Dispositions = append(w.Dispositions, st.end.disp)
		var out []byte
		if st.end.disp == ir.Emitted {
			out = make([]byte, n)
			for i := range out {
				out[i] = byte(expr.Eval(expr.Select(st.pkt, expr.Const(32, uint64(i))), m).Int())
			}
		}
		w.Outputs = append(w.Outputs, out)
	}
	for _, init := range pre.store.InitReads() {
		dot := strings.Index(init.Store, ".")
		inst, store := init.Store[:dot], init.Store[dot+1:]
		key := expr.Eval(init.Key, m).Int()
		val := expr.Eval(init.Var, m).Int()
		if w.InitState == nil {
			w.InitState = map[string]map[string]map[uint64]uint64{}
		}
		if w.InitState[inst] == nil {
			w.InitState[inst] = map[string]map[uint64]uint64{}
		}
		if w.InitState[inst][store] == nil {
			w.InitState[inst][store] = map[uint64]uint64{}
		}
		w.InitState[inst][store][key] = val
	}
	return w, nil
}

// FormatMultiWitness renders a multi-packet witness for CLI reports:
// the seeded state (if any), then each packet via the single-packet
// FormatWitness dump.
func FormatMultiWitness(w *MultiWitness) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  sequence: %d packet(s) — %s\n", len(w.Packets), w.Detail)
	if len(w.InitState) > 0 {
		b.WriteString("  seeded state (counterexample to induction starts here):\n")
		var insts []string
		for inst := range w.InitState {
			insts = append(insts, inst)
		}
		sort.Strings(insts)
		for _, inst := range insts {
			var stores []string
			for s := range w.InitState[inst] {
				stores = append(stores, s)
			}
			sort.Strings(stores)
			for _, s := range stores {
				kv := w.InitState[inst][s]
				keys := make([]uint64, 0, len(kv))
				for k := range kv {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				for _, k := range keys {
					fmt.Fprintf(&b, "    %s.%s[%#x] = %#x\n", inst, s, k, kv[k])
				}
			}
		}
	}
	for i, pkt := range w.Packets {
		b.WriteString(FormatWitness(Witness{
			Packet: pkt,
			Output: w.Outputs[i],
			Path:   w.Paths[i],
			Detail: fmt.Sprintf("packet %d/%d: %s", i+1, len(w.Packets), w.Dispositions[i]),
		}))
	}
	return b.String()
}

// ReplaySeq replays a multi-packet witness on fresh concrete dataplane
// runners — the oracle check that the symbolic sequence is real: the
// seeded state is installed, every packet must reproduce its recorded
// disposition, and every emitted step's output must match byte for
// byte. The replay runs on BOTH execution tiers — the tree-walking
// interpreter and the compiled bytecode VM — and additionally demands
// the tiers agree with each other on output bytes and exact step
// counts, so a witness certifies the same behavior no matter which
// tier the operator deploys.
func ReplaySeq(p *click.Pipeline, w *MultiWitness) error {
	interp := dataplane.NewRunner(p)
	comp, err := dataplane.NewCompiled(p)
	if err != nil {
		return fmt.Errorf("verify: replay: compile tier: %w", err)
	}
	for inst, stores := range w.InitState {
		for store, kv := range stores {
			for k, val := range kv {
				if err := interp.SeedState(inst, store, k, val); err != nil {
					return err
				}
				if err := comp.SeedState(inst, store, k, val); err != nil {
					return err
				}
			}
		}
	}
	for i, pkt := range w.Packets {
		ibuf := packet.NewBuffer(append([]byte{}, pkt...))
		cbuf := packet.NewBuffer(append([]byte{}, pkt...))
		ires := interp.Process(ibuf)
		cres := comp.Process(cbuf)
		if ires.Disposition != w.Dispositions[i] {
			return fmt.Errorf("verify: replay diverged at packet %d: got %s, witness says %s",
				i+1, ires.Disposition, w.Dispositions[i])
		}
		if w.Outputs[i] != nil && !bytes.Equal(ibuf.Data, w.Outputs[i]) {
			return fmt.Errorf("verify: replay diverged at packet %d: output differs from witness", i+1)
		}
		if cres.Disposition != ires.Disposition {
			return fmt.Errorf("verify: tiers diverged at packet %d: interpreter %s, compiled %s",
				i+1, ires.Disposition, cres.Disposition)
		}
		if !bytes.Equal(ibuf.Data, cbuf.Data) {
			return fmt.Errorf("verify: tiers diverged at packet %d: output bytes differ", i+1)
		}
		if cres.Steps != ires.Steps {
			return fmt.Errorf("verify: tiers diverged at packet %d: interpreter %d steps, compiled %d",
				i+1, ires.Steps, cres.Steps)
		}
	}
	return nil
}
