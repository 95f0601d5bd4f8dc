package symbex

import (
	"fmt"
	"sort"

	"vsd/internal/expr"
	"vsd/internal/ir"
)

// This file implements the paper's loop decomposition: "If a loop has t
// iterations, we view it as a sequence of t mini-elements, each one
// corresponding to one iteration of the loop. [...] we symbex one
// mini-element in isolation, then use the results to reason about the
// entire loop."
//
// The loop body is symbolically executed exactly once against fully
// generic inputs — fresh variables for every register, a fresh packet
// array, fresh metadata — yielding a set of bodySummary values: the
// body's segments, expressed over those generic inputs. Composing
// iteration k is then pure substitution (the parent path's current state
// replaces the generic inputs) plus a feasibility check, the same
// mechanism internal/verify uses to compose pipeline elements.

// Generic input names used by loop-body summaries. They never escape:
// instantiation substitutes all of them.
const (
	loopPktName   = "lpkt"
	loopLenName   = "llen"
	loopRegPrefix = "lr"
	loopMetaPref  = "lm."
)

// summaryKind is how a body path ended.
type summaryKind uint8

const (
	bodyFellThrough summaryKind = iota // continue to next iteration
	bodyBroke                          // break: exit the loop
	bodyTerminated                     // emit/drop/crash: the element ends inside the loop
)

// bodySummary is one path through the loop body, over generic inputs.
type bodySummary struct {
	how   summaryKind
	conds []*expr.Expr
	// Effects (always present).
	pkt    *expr.Array
	meta   map[string]*expr.Expr
	steps  int64
	reads  []StateAccess
	writes []StateUpdate
	// regs are the final register values, needed for fellThrough and
	// brokeLoop to continue the parent path.
	regs []*expr.Expr
	// Terminal information for bodyTerminated.
	disposition ir.Disposition
	port        int
	crash       *CrashRecord
}

// loopKey gives a LoopStmt a stable identity for memoization: statement
// values are copied when ranged over, but the body's backing array is
// built once by the Builder and shared by all copies.
func loopKey(stmt ir.LoopStmt) *ir.Stmt {
	if len(stmt.Body) == 0 {
		return nil
	}
	return &stmt.Body[0]
}

// summaries returns the memoized mini-element summaries for the loop.
func (x *exec) summaries(stmt ir.LoopStmt) ([]*bodySummary, error) {
	key := loopKey(stmt)
	if got, ok := x.loopMemo[key]; ok {
		return got, nil
	}
	// Build the generic input state.
	st := &pathState{
		prog: x.prog,
		regs: make([]*expr.Expr, len(x.prog.RegWidths)),
		pkt:  expr.BaseArray(loopPktName),
		plen: expr.Var(loopLenName, 32),
		meta: map[string]*expr.Expr{},
	}
	for i, w := range x.prog.RegWidths {
		st.regs[i] = expr.Var(fmt.Sprintf("%s%d", loopRegPrefix, i), w)
	}
	for slot, w := range x.prog.MetaSlots {
		st.meta[slot] = expr.Var(loopMetaPref+slot, w)
	}
	// Execute the body once in a sub-exec that captures terminated
	// segments separately instead of emitting them.
	sub := &exec{eng: x.eng, prog: x.prog, session: x.session, loopMemo: x.loopMemo}
	conts, err := sub.runBlock(stmt.Body, st)
	if err != nil {
		return nil, err
	}
	var sums []*bodySummary
	for _, seg := range sub.out {
		sums = append(sums, &bodySummary{
			how:         bodyTerminated,
			conds:       seg.Cond,
			pkt:         seg.Pkt,
			meta:        seg.Meta,
			steps:       seg.Steps,
			reads:       seg.Reads,
			writes:      seg.Writes,
			disposition: seg.Disposition,
			port:        seg.Port,
			crash:       seg.Crash,
		})
	}
	for _, c := range conts {
		how := bodyFellThrough
		if c.how == brokeLoop {
			how = bodyBroke
		}
		sums = append(sums, &bodySummary{
			how:    how,
			conds:  c.st.conds,
			pkt:    c.st.pkt,
			meta:   c.st.meta,
			steps:  c.st.steps,
			reads:  c.st.reads,
			writes: c.st.writes,
			regs:   c.st.regs,
		})
	}
	x.loopMemo[key] = sums
	return sums, nil
}

// instantiate applies a body summary to a concrete parent path state:
// pure substitution, returning the successor state with the summary's
// conditions appended and its effects applied, or nil when a condition
// folds to false. Whether the successor is feasible is settle's
// question; the merge-group rule asks it of as few instances as it can.
func (x *exec) instantiate(sum *bodySummary, parent *pathState) *pathState {
	sub := expr.NewSubst()
	sub.BindArr(loopPktName, parent.pkt)
	sub.BindVar(loopLenName, parent.plen)
	for i, r := range parent.regs {
		sub.BindVar(fmt.Sprintf("%s%d", loopRegPrefix, i), r)
	}
	for slot, w := range x.prog.MetaSlots {
		v, ok := parent.meta[slot]
		if !ok {
			v = MetaVar(slot, w)
		}
		sub.BindVar(loopMetaPref+slot, v)
	}
	// Rename the summary's state-read variables to fresh parent-scope
	// names: each dynamic iteration performs its own reads.
	cs := parent.fork()
	if cs.nRead == nil {
		cs.nRead = map[string]int{}
	}
	for _, rd := range sum.reads {
		n := cs.nRead[rd.Store]
		cs.nRead[rd.Store] = n + 1
		fresh := expr.Var(fmt.Sprintf("%s%s.%d", StateReadPrefix, rd.Store, n), rd.Var.Width())
		sub.BindVar(rd.Var.Name, fresh)
	}
	for _, c := range sum.conds {
		ic := sub.Apply(c)
		if ic.IsTrue() {
			continue
		}
		if ic.IsFalse() {
			return nil
		}
		cs.assume(ic)
	}
	cs.pkt = sub.ApplyArray(sum.pkt)
	for slot, v := range sum.meta {
		cs.meta[slot] = sub.Apply(v)
	}
	cs.steps = parent.steps + sum.steps
	// Access-order numbers shift by the parent's counter so the body's
	// read/write interleaving stays exact in the instantiated path.
	base := parent.nAcc
	for _, rd := range sum.reads {
		cs.reads = append(cs.reads, StateAccess{
			Store: rd.Store,
			Key:   sub.Apply(rd.Key),
			Var:   sub.Apply(rd.Var),
			Seq:   base + rd.Seq,
		})
	}
	for _, wr := range sum.writes {
		cs.writes = append(cs.writes, StateUpdate{
			Store: wr.Store,
			Key:   sub.Apply(wr.Key),
			Val:   sub.Apply(wr.Val),
			Seq:   base + wr.Seq,
		})
	}
	cs.nAcc = base + AccessSpan(sum.reads, sum.writes)
	if sum.regs != nil {
		for i, r := range sum.regs {
			cs.regs[i] = sub.Apply(r)
		}
	}
	return cs
}

// instance is one instantiated body summary awaiting its feasibility
// verdict. parent is the state it was instantiated from, nil once the
// instance is known to be feasible.
type instance struct {
	st     *pathState
	parent *pathState
}

// known wraps states that are already known to be feasible.
func known(states []*pathState) []*instance {
	out := make([]*instance, len(states))
	for i, s := range states {
		out[i] = &instance{st: s}
	}
	return out
}

// settle reports whether the instance is feasible, checking the
// conditions it added to its parent the way every Step-1 fork is
// checked (cached witness first, then the session; Unknown counts as
// feasible). A feasible instance carries the check's witness.
func (x *exec) settle(in *instance) bool {
	if in.parent == nil {
		return true
	}
	if delta := in.st.conds[len(in.parent.conds):]; len(delta) > 0 {
		ok, m := x.feasibleM(in.parent, expr.And(delta...))
		if !ok {
			return false
		}
		in.st.model = m
	}
	in.parent = nil
	return true
}

// loopSummarize drives a loop using mini-element summaries: a DFS over
// iterations where each step is substitution plus a feasibility check —
// no re-execution of the body. The continuation states of each
// iteration are merged per parent, keeping the frontier linear in the
// bound, and feasibility is decided per merge group rather than per
// instance (see mergeStates).
func (x *exec) loopSummarize(stmt ir.LoopStmt, st *pathState) ([]*pathState, []continuation, error) {
	if len(stmt.Body) == 0 {
		return []*pathState{st}, nil, nil
	}
	sums, err := x.summaries(stmt)
	if err != nil {
		return nil, nil, err
	}
	var through []*pathState
	// Paths that terminate inside the loop are collected and merged per
	// terminal kind against the loop-entry state before segments are
	// emitted: forty per-iteration "malformed option" exits become one
	// segment with a disjunctive constraint, and downstream composition
	// sees a handful of loop segments instead of hundreds. A kind's
	// instances are checked at their own iteration until one is
	// feasible; later ones are collected unchecked and settled by the
	// group rule at loop exit.
	type termKey struct {
		disp  ir.Disposition
		port  int
		kind  ir.CrashKind
		msg   string
		crash bool
	}
	terminated := map[termKey][]*instance{}
	var termOrder []termKey
	active := []*pathState{st}
	for iter := 0; iter < stmt.Bound && len(active) > 0; iter++ {
		if iter > 0 {
			for _, a := range active {
				a.steps++ // back-edge cost, matching the interpreter
			}
		}
		var next []*pathState
		for _, a := range active {
			var nextHere, brokeHere []*instance
			for _, sum := range sums {
				cs := x.instantiate(sum, a)
				if cs == nil {
					continue
				}
				// Continuing and break instances are settled per group
				// (mergeStates), terminated ones per kind.
				in := &instance{st: cs, parent: a}
				switch sum.how {
				case bodyFellThrough:
					nextHere = append(nextHere, in)
				case bodyBroke:
					brokeHere = append(brokeHere, in)
				default:
					k := termKey{disp: sum.disposition, port: sum.port}
					if sum.crash != nil {
						k.crash = true
						k.kind = sum.crash.Kind
						k.msg = sum.crash.Msg
					}
					if _, ok := terminated[k]; !ok {
						if !x.settle(in) {
							continue
						}
						termOrder = append(termOrder, k)
					}
					terminated[k] = append(terminated[k], in)
				}
			}
			// Break groups first: the summaries list breaks before
			// fall-throughs, so a loop whose groups have one member
			// each is checked in summary order, and its session sees
			// the query sequence a per-instance check would send.
			through = append(through, x.mergeStates(a, brokeHere)...)
			next = append(next, x.mergeStates(a, nextHere)...)
		}
		active = next
	}
	through = append(through, active...)
	for _, k := range termOrder {
		var crash *CrashRecord
		if k.crash {
			crash = &CrashRecord{Kind: k.kind, Msg: k.msg}
		}
		for _, m := range x.mergeStates(st, terminated[k]) {
			if err := x.emitSegment(m, k.disp, k.port, crash); err != nil {
				return nil, nil, err
			}
		}
	}
	return x.mergeStates(st, known(through)), nil, nil
}

// mergeStates merges sibling instances derived from the same parent
// into one state per packet-array value: conditions become a
// disjunction of the siblings' condition deltas, register and metadata
// values become ite-chains guarded by those deltas, and the step count
// becomes the maximum (an upper bound — Stats.Merged records the loss of
// exactness). Sibling deltas are mutually exclusive by construction
// (they partition the body's input space), so the ite guards are
// unambiguous.
//
// Feasibility is decided per group, not per member (prune): the merge
// needs only whether some member is feasible and the largest step count
// among the feasible ones. A member merged unchecked that is in fact
// infeasible adds a disjunct that is false under the path condition and
// an ite arm that is never taken, so the merged state is logically the
// one the feasible members alone would give.
func (x *exec) mergeStates(parent *pathState, insts []*instance) []*pathState {
	groups := map[*expr.Array][]*instance{}
	var order []*expr.Array
	for _, in := range insts {
		if _, ok := groups[in.st.pkt]; !ok {
			order = append(order, in.st.pkt)
		}
		groups[in.st.pkt] = append(groups[in.st.pkt], in)
	}
	var out []*pathState
	base := len(parent.conds)
	for _, pktKey := range order {
		g := x.prune(groups[pktKey])
		if len(g) <= 1 {
			out = append(out, g...)
			continue
		}
		x.eng.stats.Merged = true
		deltas := make([]*expr.Expr, len(g))
		for i, s := range g {
			deltas[i] = expr.And(s.conds[base:]...)
		}
		m := g[0].fork()
		m.conds = append(append([]*expr.Expr{}, parent.conds...), expr.Or(deltas...))
		// Values: fold right-to-left so g[0] ends outermost.
		for r := range m.regs {
			v := g[len(g)-1].regs[r]
			for i := len(g) - 2; i >= 0; i-- {
				if g[i].regs[r] != v {
					v = expr.Ite(deltas[i], g[i].regs[r], v)
				}
			}
			m.regs[r] = v
		}
		slots := map[string]bool{}
		for _, s := range g {
			for slot := range s.meta {
				slots[slot] = true
			}
		}
		for slot := range slots {
			valOf := func(s *pathState) *expr.Expr {
				if v, ok := s.meta[slot]; ok {
					return v
				}
				if v, ok := parent.meta[slot]; ok {
					return v
				}
				return MetaVar(slot, x.prog.MetaSlots[slot])
			}
			v := valOf(g[len(g)-1])
			for i := len(g) - 2; i >= 0; i-- {
				if vi := valOf(g[i]); vi != v {
					v = expr.Ite(deltas[i], vi, v)
				}
			}
			m.meta[slot] = v
		}
		// Steps: worst case across siblings.
		for _, s := range g[1:] {
			if s.steps > m.steps {
				m.steps = s.steps
			}
		}
		// Reads and writes: union (sound over-approximation for the
		// bad-value analysis); fresh-name counters take the maximum so
		// future reads cannot collide with any sibling's names.
		seenReads := map[*expr.Expr]bool{}
		for _, rd := range m.reads {
			seenReads[rd.Var] = true
		}
		for _, s := range g[1:] {
			for _, rd := range s.reads {
				if !seenReads[rd.Var] {
					seenReads[rd.Var] = true
					m.reads = append(m.reads, rd)
				}
			}
			m.writes = append(m.writes, s.writes[len(parent.writes):]...)
			if s.nAcc > m.nAcc {
				m.nAcc = s.nAcc
			}
			for store, n := range s.nRead {
				if m.nRead == nil {
					m.nRead = map[string]int{}
				}
				if n > m.nRead[store] {
					m.nRead[store] = n
				}
			}
		}
		// Any sibling's witness satisfies the disjunction.
		m.model = nil
		for _, s := range g {
			if s.model != nil {
				m.model = s.model
				break
			}
		}
		out = append(out, m)
	}
	return out
}

// prune settles one merge group and returns the members to merge, in
// their original order. Members are checked in descending step order
// (ties in summary order) until the first feasible one: those proven
// infeasible before it are dropped, and it and every member with fewer
// steps are kept unchecked, so the merged step count is the largest
// among the feasible members. While the run has merged nothing yet, a
// group with two or more kept members checks the next one first, so
// Stats.Merged still means that two feasible members were merged.
func (x *exec) prune(g []*instance) []*pathState {
	byDepth := append([]*instance{}, g...)
	sort.SliceStable(byDepth, func(i, j int) bool { return byDepth[i].st.steps > byDepth[j].st.steps })
	drop := map[*instance]bool{}
	i := 0
	for ; i < len(byDepth) && !x.settle(byDepth[i]); i++ {
		drop[byDepth[i]] = true
	}
	for j := i + 1; j < len(byDepth) && !x.eng.stats.Merged && len(g)-len(drop) > 1; j++ {
		if x.settle(byDepth[j]) {
			break
		}
		drop[byDepth[j]] = true
	}
	out := make([]*pathState, 0, len(g)-len(drop))
	for _, in := range g {
		if !drop[in] {
			out = append(out, in.st)
		}
	}
	return out
}
