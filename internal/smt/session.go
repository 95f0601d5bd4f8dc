package smt

import (
	"fmt"
	"time"

	"vsd/internal/expr"
)

// IncrementalSession is an incremental solving context: one persistent
// SAT instance into which constraint atoms are asserted once, guarded by
// activation literals, and queried under assumption sets. Conflict
// clauses learnt by one query accelerate the next — essential for
// symbolic execution and composition, which issue thousands of queries
// over monotonically growing constraint prefixes.
//
// Queries need NOT be supersets of each other: an atom asserted for one
// query is disabled in the next simply by omitting its activation
// literal from the assumption set, so no invalidation pass is required
// when the atom set shrinks or diverges. What does grow monotonically is
// the underlying CNF; sessions therefore recycle their SAT instance when
// the guarded-atom count exceeds sessionMaxGuards, which bounds memory
// at the cost of relearning.
//
// An IncrementalSession is not safe for concurrent use — each worker
// owns one (the owning Solver hands them out via NewSession, and the
// verifier pools them per walker goroutine). Cheap per-query passes
// (constant folding, the interval analysis, the owning Solver's verdict
// cache) still run first; the incremental core only sees queries those
// passes cannot decide.
type IncrementalSession struct {
	owner    *Solver
	bl       *blaster
	lastCnts blasterCounters
	// guards maps an asserted (select-free, rewritten) atom to its
	// activation literal.
	guards map[*expr.Expr]Lit
	// Session-global Ackermann state: every distinct select node seen so
	// far, its rewritten index, and its fresh variable name. The
	// functional-consistency axioms between them are asserted on demand,
	// by extractModel, only for pairs a model breaks.
	selRepl map[*expr.Expr]*expr.Expr // select node -> fresh var
	selInfo []selectInfo
	selVars []string
	rwMemo  map[*expr.Expr]*expr.Expr
	// varsMemo caches the free-variable list of each queried atom: model
	// extraction runs per Sat verdict over the whole (mostly unchanged)
	// atom set, and re-walking the DAGs dominated profiles.
	varsMemo map[*expr.Expr][]*expr.Expr
	// read is extractModel's scratch: the bytes a model's cone selects
	// read, by array and index.
	read map[arrayKey]byteRead
	// lastSolve attributes the most recent Check (see LastSolve).
	lastSolve SolveInfo
}

// sessionMaxGuards bounds a session's guarded-atom count before its SAT
// instance is recycled (fresh CNF, learnt clauses dropped). Exploration
// along one path rarely needs more than a few thousand distinct atoms;
// the bound exists so a long-lived session cannot grow without limit.
const sessionMaxGuards = 1 << 14

// NewSession returns an incremental context backed by this solver's
// options, statistics, and verdict cache.
func (s *Solver) NewSession() *IncrementalSession {
	sess := &IncrementalSession{owner: s, read: map[arrayKey]byteRead{}}
	sess.recycle()
	return sess
}

// recycle (re)initializes the SAT instance and every piece of state tied
// to it. Counted under SessionsOpened: a recycle opens a fresh
// underlying solver instance.
func (sess *IncrementalSession) recycle() {
	sess.owner.stats.sessions.Add(1)
	if sess.bl != nil {
		sess.bl.release()
	}
	sess.bl = newBlaster()
	sess.lastCnts = blasterCounters{}
	sess.guards = map[*expr.Expr]Lit{}
	sess.selRepl = map[*expr.Expr]*expr.Expr{}
	sess.selInfo = sess.selInfo[:0]
	sess.selVars = sess.selVars[:0]
	sess.rwMemo = map[*expr.Expr]*expr.Expr{}
	sess.varsMemo = map[*expr.Expr][]*expr.Expr{}
}

// Reset recycles the session's SAT instance and every piece of state
// tied to it. It exists for callers that contained a panic mid-query
// (DESIGN.md §9): a search that unwound partway through asserting atoms
// may have left the instance with a guard literal whose defining clause
// set is incomplete, and a later solve over that instance could return
// a wrong Unsat. After Reset the session is equivalent to a freshly
// opened one (learnt clauses are dropped — relearning is the price of
// not trusting poisoned state).
func (sess *IncrementalSession) Reset() { sess.recycle() }

// Close returns the session's SAT instance to the blaster pool. The
// session must not be used afterwards. Callers whose sessions live for
// one bounded piece of work (a Step-1 engine run) close them; without it
// the instance is merely garbage.
func (sess *IncrementalSession) Close() {
	sess.bl.release()
	sess.bl = nil
}

// rewriteSelects rewrites an expression replacing every select node by
// its session variable, registering new selects as they appear.
func (sess *IncrementalSession) rewriteSelects(e *expr.Expr) *expr.Expr {
	if r, ok := sess.rwMemo[e]; ok {
		return r
	}
	var r *expr.Expr
	if v, ok := sess.selRepl[e]; ok {
		r = v
	} else {
		switch e.Kind {
		case expr.KConst, expr.KVar:
			r = e
		case expr.KSelect:
			// New select: rewrite its index, then allocate its variable.
			// The order matters: rewriting the index registers the selects
			// inside it, and a name taken before them would be taken again
			// by the first of them, making two different reads one
			// variable.
			idx := sess.rewriteSelects(e.B)
			name := fmt.Sprintf("§s%d", len(sess.selVars))
			v := expr.Var(name, 8)
			sess.selRepl[e] = v
			// The consistency check reads the select's value together with
			// its index, so a cone holding one must hold the other (selects
			// inside idx were registered above and carry lower indices).
			bits := sess.bl.varLits(name, 8)
			sess.bl.tieInputs(bits, append(append([]Lit{}, bits...), sess.bl.blast(idx)...), int32(len(sess.selInfo)))
			sess.selInfo = append(sess.selInfo, selectInfo{sel: e, idx: idx})
			sess.selVars = append(sess.selVars, name)
			r = v
		case expr.KBin:
			r = expr.Bin(e.Op, sess.rewriteSelects(e.A), sess.rewriteSelects(e.B))
		case expr.KNot:
			r = expr.Not(sess.rewriteSelects(e.A))
		case expr.KNeg:
			r = expr.Neg(sess.rewriteSelects(e.A))
		case expr.KIte:
			r = expr.Ite(sess.rewriteSelects(e.Cond), sess.rewriteSelects(e.A), sess.rewriteSelects(e.B))
		case expr.KZExt:
			r = expr.ZExt(sess.rewriteSelects(e.A), e.Width())
		case expr.KSExt:
			r = expr.SExt(sess.rewriteSelects(e.A), e.Width())
		case expr.KTrunc:
			r = expr.Trunc(sess.rewriteSelects(e.A), e.Width())
		case expr.KExtract:
			r = expr.Extract(sess.rewriteSelects(e.A), e.Lo, e.Width())
		default:
			panic("smt: unexpected node in session rewriting")
		}
	}
	sess.rwMemo[e] = r
	return r
}

// guardFor asserts the atom (guarded) if new and returns its activation
// literal.
func (sess *IncrementalSession) guardFor(atom *expr.Expr) Lit {
	if g, ok := sess.guards[atom]; ok {
		return g
	}
	rw := sess.rewriteSelects(atom)
	g := sess.bl.fresh()
	lit := sess.bl.blast(rw)[0]
	sess.bl.fanin[g.Var()] = gateIn{lit, litNone}
	sess.bl.sat.AddClause(g.Flip(), lit)
	sess.guards[atom] = g
	return g
}

// varsOf returns the free variables of a queried atom, memoized for the
// session's lifetime.
func (sess *IncrementalSession) varsOf(a *expr.Expr) []*expr.Expr {
	if vs, ok := sess.varsMemo[a]; ok {
		return vs
	}
	vs := expr.Vars(a, nil)
	sess.varsMemo[a] = vs
	return vs
}

// Check decides whether the conjunction of the given 1-bit expressions
// is satisfiable, incrementally. On Sat it returns a model assigning
// every free variable of the constraints and the packet bytes their
// reads see.
func (sess *IncrementalSession) Check(constraints []*expr.Expr) (Result, *expr.Assignment) {
	return sess.check(constraints, true)
}

// CheckFresh decides the conjunction on a new session that has answered
// nothing before, with the atoms asserted in content order and the
// verdict cache neither read nor filled. Its model is therefore a
// function of the formula alone — not of earlier queries, of the
// process, or of the goroutine schedule — which is what a reported
// witness must be (DESIGN.md §7.5). The result contract matches Check;
// the SolveInfo attributes the solve.
func (s *Solver) CheckFresh(constraints []*expr.Expr) (Result, *expr.Assignment, SolveInfo) {
	sess := s.NewSession()
	defer sess.Close()
	r, m := sess.check(constraints, false)
	return r, m, sess.lastSolve
}

// check is Check, with cached false for CheckFresh (see preSolve).
func (sess *IncrementalSession) check(constraints []*expr.Expr, cached bool) (Result, *expr.Assignment) {
	s := sess.owner
	start := time.Now()
	atoms, key, res, m, by := s.preSolve(constraints, cached)
	if by != layerNone {
		sess.lastSolve = SolveInfo{Result: res, Duration: time.Since(start), Cached: by == layerCache, OrderDecided: by == layerOrder}
		return res, m
	}
	if len(sess.guards)+len(atoms) > sessionMaxGuards {
		sess.recycle()
	}
	s.stats.satCalls.Add(1)
	s.stats.assumptionSolves.Add(1)
	s.stats.clausesReused.Add(int64(sess.bl.sat.NumLearnts()))
	assumptions := make([]Lit, len(atoms))
	for i, a := range atoms {
		assumptions[i] = sess.guardFor(a)
	}
	// The solve branches only on what the assumed atoms depend on, not on
	// what earlier queries left in the instance. A model whose packet reads
	// disagree is refuted by the axioms it breaks, and the same cone is
	// solved again.
	cone, sels := sess.bl.cone(assumptions)
	var asn *expr.Assignment
	verdict := s.satSolve(sess.bl.sat, cone, func() bool {
		asn = sess.extractModel(atoms, sels)
		return asn == nil
	}, assumptions...)
	prev := sess.lastCnts
	sess.lastCnts = s.foldBlasterCounters(sess.bl, sess.lastCnts)
	cur := sess.lastCnts
	sess.lastSolve = SolveInfo{
		SATCore:      true,
		Duration:     time.Since(start),
		Conflicts:    cur.sat.Conflicts - prev.sat.Conflicts,
		Decisions:    cur.sat.Decisions - prev.sat.Decisions,
		Propagations: cur.sat.Propagations - prev.sat.Propagations,
		Learnts:      cur.sat.Learnts - prev.sat.Learnts,
		CNFVars:      cur.vars - prev.vars,
		CNFClauses:   cur.sat.ClausesAdded - prev.sat.ClausesAdded,
	}
	switch verdict {
	case SatUnsat:
		sess.lastSolve.Result = Unsat
		if cached {
			s.cachePut(key, atoms, Unsat, nil)
		}
		return Unsat, nil
	case SatUnknown:
		sess.lastSolve.Result = Unknown
		return Unknown, nil
	}
	sess.lastSolve.Result = Sat
	if cached {
		s.cachePut(key, atoms, Sat, asn)
	}
	return Sat, asn
}

// arrayKey names one byte of one base array in a model.
type arrayKey struct {
	name string
	idx  uint64
}

// byteRead is the first cone select a model check saw read a byte, and
// the value it read.
type byteRead struct {
	sel int32
	val byte
}

// extractModel reads back values for the variables of the queried atoms
// and array bytes for the selects of the query's cone (sels, session
// indices). Selects outside the cone must stay out: the solve never
// assigned their variables, and a default-valued byte placed at a
// default-valued index could overwrite one the query constrains.
//
// It is also the array-consistency check of the lazy Ackermann
// encoding: when two cone selects of one base array read different
// bytes at the same index, the model is no model of the query. For each
// such pair it asserts the pair's functional-consistency axiom,
// unguarded (the axiom holds for every array, so it stays for later
// queries), and returns nil so the caller solves again. Every cone
// select is checked, materialised or not.
func (sess *IncrementalSession) extractModel(atoms []*expr.Expr, sels []int32) *expr.Assignment {
	asn := expr.NewAssignment()
	const maxModelIndex = 1 << 20
	tmp := expr.NewAssignment()
	clear(sess.read)
	broken := false
	for _, i := range sels {
		info := sess.selInfo[i]
		name := info.sel.Arr.BaseName()
		// The index may mention select variables; resolve them through
		// the blaster's model too.
		for _, v := range sess.varsOf(info.idx) {
			tmp.Vars[v.Name] = sess.bl.modelVar(v.Name, v.Width())
		}
		idx := expr.Eval(info.idx, tmp).Int()
		val := byte(sess.bl.modelVar(sess.selVars[i], 8).Int())
		k := arrayKey{name, idx}
		if first, ok := sess.read[k]; !ok {
			sess.read[k] = byteRead{i, val}
		} else if first.val != val {
			sess.assertConsistent(first.sel, i)
			broken = true
		}
		if broken || idx >= maxModelIndex {
			continue
		}
		content := asn.Arrays[name]
		for uint64(len(content)) <= idx {
			content = append(content, 0)
		}
		content[idx] = val
		asn.Arrays[name] = content
	}
	if broken {
		return nil
	}
	for _, a := range atoms {
		for _, v := range sess.varsOf(a) {
			if _, ok := asn.Vars[v.Name]; !ok {
				asn.Vars[v.Name] = sess.bl.modelVar(v.Name, v.Width())
			}
		}
	}
	return asn
}

// assertConsistent asserts the functional-consistency axiom of selects
// i and j (session indices, one base array): equal indices read equal
// bytes.
func (sess *IncrementalSession) assertConsistent(i, j int32) {
	ax := expr.Implies(expr.Eq(sess.selInfo[i].idx, sess.selInfo[j].idx),
		expr.Eq(expr.Var(sess.selVars[i], 8), expr.Var(sess.selVars[j], 8)))
	sess.bl.assertTrue(ax)
	sess.owner.stats.arrayLemmas.Add(1)
}

// flattenAtoms splits conjunctions and folds constants. The second
// result is Sat when everything folded away, Unsat when some atom is
// false, and Unknown otherwise.
func flattenAtoms(constraints []*expr.Expr) ([]*expr.Expr, Result) {
	var atoms []*expr.Expr
	var flatten func(e *expr.Expr)
	flatten = func(e *expr.Expr) {
		if e.Kind == expr.KBin && e.Op == expr.OpAnd && e.Width() == 1 {
			flatten(e.A)
			flatten(e.B)
			return
		}
		atoms = append(atoms, e)
	}
	for _, c := range constraints {
		if c.Width() != 1 {
			panic(fmt.Sprintf("smt: non-boolean constraint %s", c))
		}
		flatten(c)
	}
	out := atoms[:0]
	for _, a := range atoms {
		if a.IsTrue() {
			continue
		}
		if a.IsFalse() {
			return nil, Unsat
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, Sat
	}
	return out, Unknown
}

func dedupAtoms(atoms []*expr.Expr) []*expr.Expr {
	out := atoms[:0]
	for i, a := range atoms {
		if i == 0 || atoms[i-1] != a {
			out = append(out, a)
		}
	}
	return out
}
