package symbex

// Sequence execution (DESIGN.md §8): symbolic execution of k packets
// *in order* through the same element, threading the private state
// store across packets. Step 1 models every state read as an
// unconstrained fresh variable; here a read instead resolves against a
// symbolic write log — packet i's writes become the values packet i+1
// can observe — turning the per-packet over-approximation into the
// exact multi-packet transition relation. The machinery mirrors
// loop.go: the element is summarized once, and each step of the
// sequence is substitution (step-scoped input renaming plus state
// resolution) and a feasibility check, never re-execution.
//
// Two initial-state modes select what a read of a never-written key
// returns: InitDefault uses the declared default (the dataplane's boot
// state — bounded sequence checks and induction base cases), and
// InitSymbolic uses Ackermann-style fresh variables with pairwise
// consistency axioms (an arbitrary reachable state — the induction
// hypothesis of verify's k-induction).

import (
	"fmt"
	"sort"

	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/smt"
)

// InitMode selects the initial private state of a sequence.
type InitMode uint8

// Initial-state modes.
const (
	// InitDefault starts from the dataplane's boot state: every store
	// key holds its declared default.
	InitDefault InitMode = iota
	// InitSymbolic starts from an arbitrary state: reads of unwritten
	// keys return fresh variables constrained only to be functional
	// (equal keys read equal values).
	InitSymbolic
)

// InitPrefix prefixes the Ackermann variables standing for the unknown
// initial state of an InitSymbolic sequence ("s0.<store>.<n>") and the
// landed-guards of capacity-bounded writes ("s0.w.<n>").
const InitPrefix = "s0."

// SeqScope returns the variable-name prefix for step t of a sequence:
// step t's input packet is the base array "q<t>.pkt", its length the
// variable "q<t>.len", and so on for every other per-packet input.
func SeqScope(t int) string { return fmt.Sprintf("q%d.", t) }

// InitRead records one probe of the initial state: the store, the key
// expression the sequence read with, and the variable standing for the
// unknown initial value. Witness extraction evaluates Key and Var under
// a model to recover the concrete state a counterexample starts from.
type InitRead struct {
	Store string
	Key   *expr.Expr
	Var   *expr.Expr
}

// seqWrite is one logged write. landed is nil for unbounded stores;
// for capacity-bounded stores it is a free boolean covering both the
// write landing and being dropped by a full table (a sound
// over-approximation of the concrete occupancy check, which the
// symbolic store does not track).
type seqWrite struct {
	key, val *expr.Expr
	landed   *expr.Expr
}

// SeqState is the symbolic private state threaded through a packet
// sequence: per-store ordered write logs over an initial state chosen
// by the InitMode. It is shared mutable state of one sequence prefix;
// Fork it before exploring alternative continuations.
type SeqState struct {
	mode   InitMode
	decls  map[string]ir.StateDecl
	logs   map[string][]seqWrite
	inits  []InitRead
	conds  []*expr.Expr
	nFresh int
}

// NewSeqState returns an empty state in the given mode. Every store the
// sequence may touch must be Declared before its first access.
func NewSeqState(mode InitMode) *SeqState {
	return &SeqState{
		mode:  mode,
		decls: map[string]ir.StateDecl{},
		logs:  map[string][]seqWrite{},
	}
}

// Declare registers a store's declaration under the given name (the
// verifier qualifies names by element instance, "inst.store").
func (s *SeqState) Declare(name string, d ir.StateDecl) { s.decls[name] = d }

// Fork returns an independent copy sharing all interned expressions.
func (s *SeqState) Fork() *SeqState {
	c := &SeqState{
		mode:   s.mode,
		decls:  s.decls, // immutable after declaration
		logs:   make(map[string][]seqWrite, len(s.logs)),
		inits:  append([]InitRead{}, s.inits...),
		conds:  append([]*expr.Expr{}, s.conds...),
		nFresh: s.nFresh,
	}
	for k, v := range s.logs {
		c.logs[k] = v[:len(v):len(v)]
	}
	return c
}

// Conds returns the side constraints the state model has accumulated:
// the Ackermann consistency axioms of symbolic initial reads. They must
// be conjoined to every feasibility query over the sequence.
func (s *SeqState) Conds() []*expr.Expr { return s.conds }

// InitReads returns the initial-state probes performed so far.
func (s *SeqState) InitReads() []InitRead { return s.inits }

// Mark is a snapshot of the write-log lengths, taken between steps so
// sequence specs can read the state "as of step t" (ReadAt).
type Mark map[string]int

// Mark snapshots the current log position of every store.
func (s *SeqState) Mark() Mark {
	m := make(Mark, len(s.logs))
	for k, v := range s.logs {
		m[k] = len(v)
	}
	return m
}

// Read returns the value the named store currently holds for key: the
// latest logged write of an equal key, else the initial state.
func (s *SeqState) Read(store string, key *expr.Expr) *expr.Expr {
	return s.ReadAt(nil, store, key)
}

// ReadAt is Read against the state as of an earlier Mark (nil = now).
func (s *SeqState) ReadAt(at Mark, store string, key *expr.Expr) *expr.Expr {
	d, ok := s.decls[store]
	if !ok {
		panic(fmt.Sprintf("symbex: sequence read of undeclared store %q", store))
	}
	log := s.logs[store]
	if at != nil {
		log = log[:at[store]]
	}
	v := s.initial(store, key, d)
	for _, w := range log {
		hit := expr.Eq(key, w.key)
		if w.landed != nil {
			hit = expr.And(hit, w.landed)
		}
		v = expr.Ite(hit, w.val, v)
	}
	return v
}

// initial models the pre-sequence value of store[key].
func (s *SeqState) initial(store string, key *expr.Expr, d ir.StateDecl) *expr.Expr {
	if s.mode == InitDefault {
		return expr.Const(d.ValW, d.Default)
	}
	// Syntactically identical keys share one variable outright; distinct
	// keys get fresh variables tied together by consistency axioms
	// (key_i = key_j ⇒ v_i = v_j), the Ackermann encoding of an
	// uninterpreted initial-state function.
	for _, p := range s.inits {
		if p.Store == store && p.Key == key {
			return p.Var
		}
	}
	g := expr.Var(fmt.Sprintf("%s%s.%d", InitPrefix, store, s.nFresh), d.ValW)
	s.nFresh++
	for _, p := range s.inits {
		if p.Store != store {
			continue
		}
		s.conds = append(s.conds, expr.Implies(expr.Eq(key, p.Key), expr.Eq(g, p.Var)))
	}
	s.inits = append(s.inits, InitRead{Store: store, Key: key, Var: g})
	return g
}

// Write appends store[key] = val to the log. Writes to capacity-bounded
// stores are guarded by a free boolean: the concrete dataplane drops
// new keys once the store is full, and the symbolic model covers both
// outcomes rather than tracking occupancy.
func (s *SeqState) Write(store string, key, val *expr.Expr) {
	d, ok := s.decls[store]
	if !ok {
		panic(fmt.Sprintf("symbex: sequence write of undeclared store %q", store))
	}
	var landed *expr.Expr
	if d.Capacity > 0 {
		landed = expr.Var(fmt.Sprintf("%sw.%d", InitPrefix, s.nFresh), 1)
		s.nFresh++
	}
	s.logs[store] = append(s.logs[store], seqWrite{key: key, val: val, landed: landed})
}

// ThreadState replays one execution's state accesses — reads and
// writes, interleaved by their Seq order — against st. Each read
// variable is bound in sub to the value the store holds at that point;
// each write is appended to the log. Keys and values are rewritten
// through sub first, so the caller's input renaming and all earlier
// read resolutions apply. Store names pass through rename, so the
// verifier can qualify them by element instance.
func ThreadState(st *SeqState, sub *expr.Subst, reads []StateAccess, writes []StateUpdate, rename func(string) string) {
	if rename == nil {
		rename = func(s string) string { return s }
	}
	type event struct {
		seq int
		rd  *StateAccess
		wr  *StateUpdate
	}
	evs := make([]event, 0, len(reads)+len(writes))
	for i := range reads {
		evs = append(evs, event{seq: reads[i].Seq, rd: &reads[i]})
	}
	for i := range writes {
		evs = append(evs, event{seq: writes[i].Seq, wr: &writes[i]})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
	for _, ev := range evs {
		if ev.rd != nil {
			key := sub.Apply(ev.rd.Key)
			sub.BindVar(ev.rd.Var.Name, st.Read(rename(ev.rd.Store), key))
		} else {
			st.Write(rename(ev.wr.Store), sub.Apply(ev.wr.Key), sub.Apply(ev.wr.Val))
		}
	}
}

// SeqStep is one packet of a sequence path: the segment the packet
// took, with its conditions and output packet rewritten into the step's
// scope and its state reads resolved.
type SeqStep struct {
	Seg   *Segment
	Conds []*expr.Expr
	Pkt   *expr.Array
}

// SeqPath is one feasible symbolic execution of a packet sequence
// through an element. A path is shorter than the requested k when a
// step crashes (the element — and with it the dataplane — stops).
type SeqPath struct {
	Steps []SeqStep
	State *SeqState
}

// Conds returns the path's full constraint set: every step's scoped
// conditions plus the state model's consistency axioms.
func (p *SeqPath) Conds() []*expr.Expr {
	var out []*expr.Expr
	for _, st := range p.Steps {
		out = append(out, st.Conds...)
	}
	return append(out, p.State.Conds()...)
}

// SeqSummary is the result of RunSeq: every feasible sequence of (up
// to) K packets through the element.
type SeqSummary struct {
	K     int
	Paths []*SeqPath
}

// RunSeq symbolically executes sequences of k packets through p,
// threading private state across packets. The element is summarized
// once with Run; sequences are then built by per-step substitution over
// the segment set, so the cost is the number of feasible sequences, not
// k re-explorations. Each step's inputs live in SeqScope(t); in.Pre is
// instantiated per step.
//
// RunSeq is the ENGINE-LEVEL driver: one element, its own segments. It
// exists to specify (and unit-test) the sequence semantics of the
// primitives above in isolation; production sequence verification
// stitches terminal COMPOSED paths of a whole pipeline instead
// (verify/induction.go), reusing SeqState/ThreadState/ScopeSubst but
// not this driver. A semantic change to the extend step belongs in the
// primitives, where both layers inherit it.
func (e *Engine) RunSeq(p *ir.Program, in Input, k int, mode InitMode) (*SeqSummary, error) {
	segs, err := e.Run(p, in)
	if err != nil {
		return nil, err
	}
	sum := &SeqSummary{K: k}
	root := &SeqPath{State: NewSeqState(mode)}
	for _, d := range p.States {
		root.State.Declare(d.Name, d)
	}
	sess := e.Solver.NewSession()
	defer sess.Close()
	if err := e.seqDFS(sess, in, segs, root, k, sum); err != nil {
		return nil, err
	}
	return sum, nil
}

// seqDFS extends path one step at a time, emitting complete (or
// crash-terminated) paths into sum.
func (e *Engine) seqDFS(sess *smt.IncrementalSession, in Input, segs []*Segment, path *SeqPath, k int, sum *SeqSummary) error {
	t := len(path.Steps)
	if t == k {
		sum.Paths = append(sum.Paths, path)
		return nil
	}
	for _, seg := range segs {
		next, err := e.seqExtend(sess, in, path, seg, t)
		if err != nil {
			return err
		}
		if next == nil {
			continue
		}
		if seg.Disposition == ir.Crashed {
			// The element faulted: the sequence cannot continue.
			sum.Paths = append(sum.Paths, next)
			continue
		}
		if err := e.seqDFS(sess, in, segs, next, k, sum); err != nil {
			return err
		}
	}
	return nil
}

// seqExtend stitches seg as step t of path, returning nil when the
// extended sequence constraint is infeasible.
func (e *Engine) seqExtend(sess *smt.IncrementalSession, in Input, path *SeqPath, seg *Segment, t int) (*SeqPath, error) {
	scope := SeqScope(t)
	state := path.State.Fork()
	sub := ScopeSubst(scope, seg.Cond, seg.Pkt, seg.Reads, seg.Writes, seg.Lookups, readVarNames(seg.Reads))
	ThreadState(state, sub, seg.Reads, seg.Writes, nil)
	var conds []*expr.Expr
	for _, pre := range in.Pre {
		conds = append(conds, sub.Apply(pre))
	}
	feasible := true
	for _, c := range seg.Cond {
		ic := sub.Apply(c)
		if ic.IsTrue() {
			continue
		}
		if ic.IsFalse() {
			feasible = false
			break
		}
		conds = append(conds, ic)
	}
	if !feasible {
		return nil, nil
	}
	// The forked state's Conds already include the parent's axioms, so
	// the step conditions are collected from the steps alone.
	var all []*expr.Expr
	for _, st := range path.Steps {
		all = append(all, st.Conds...)
	}
	all = append(all, conds...)
	all = append(all, state.Conds()...)
	e.stats.SolverChecks++
	if r, _ := sess.Check(all); r == smt.Unsat {
		e.stats.ForksCut++
		return nil, nil
	}
	next := &SeqPath{
		Steps: append(path.Steps[:len(path.Steps):len(path.Steps)], SeqStep{
			Seg:   seg,
			Conds: conds,
			Pkt:   sub.ApplyArray(seg.Pkt),
		}),
		State: state,
	}
	return next, nil
}

// readVarNames collects the fresh-variable names of a path's state
// reads: the one variable class ScopeSubst must NOT rename, because
// ThreadState binds them to resolved state values instead.
func readVarNames(reads []StateAccess) map[string]bool {
	names := make(map[string]bool, len(reads))
	for _, rd := range reads {
		names[rd.Var.Name] = true
	}
	return names
}

// ScopeSubst builds the step-t input renaming for one execution: the
// entry packet array and length move into the scope, and every other
// free variable of the execution's conditions, effects, state access
// and table-lookup expressions — element-level metadata inputs, loop
// leftovers —
// is scoped likewise, except the state-read variables in keep, which
// ThreadState resolves. Renaming everything (rather than an allowlist)
// is what guarantees two steps of a sequence share no accidental
// variables.
func ScopeSubst(scope string, conds []*expr.Expr, pkt *expr.Array, reads []StateAccess, writes []StateUpdate, lookups []TableLookup, keep map[string]bool) *expr.Subst {
	sub := expr.NewSubst()
	sub.BindArr(PktArrayName, expr.BaseArray(scope+PktArrayName))
	sub.BindVar(PktLenVar, expr.Var(scope+PktLenVar, 32))
	seen := map[string]bool{PktLenVar: true}
	bind := func(vs []*expr.Expr) {
		for _, v := range vs {
			if seen[v.Name] || keep[v.Name] {
				continue
			}
			seen[v.Name] = true
			sub.BindVar(v.Name, expr.Var(scope+v.Name, v.Width()))
		}
	}
	for _, c := range conds {
		bind(expr.Vars(c, nil))
	}
	for a := pkt; a != nil && a.Prev != nil; a = a.Prev {
		bind(expr.Vars(a.Idx, nil))
		bind(expr.Vars(a.Val, nil))
	}
	for _, rd := range reads {
		bind(expr.Vars(rd.Key, nil))
	}
	for _, wr := range writes {
		bind(expr.Vars(wr.Key, nil))
		bind(expr.Vars(wr.Val, nil))
	}
	for _, lk := range lookups {
		bind(expr.Vars(lk.Key, nil))
		if lk.Guard != nil {
			bind(expr.Vars(lk.Guard, nil))
		}
	}
	return sub
}
