package smt

import (
	"slices"
	"sync"

	"vsd/internal/expr"
)

// The order pass refutes a query by unsigned order before it is
// bit-blasted (DESIGN.md §4.4). Terms of at most 32 bits are opaque
// nodes whose values are read as integers; unsigned comparisons between
// them, and the wrap rules of sums, are difference constraints
// x_v − x_u ≤ w; a set of them is unsatisfiable exactly when the
// constraint graph has a negative cycle. Top-level disjunctions (a
// merged crash segment, a negated conjunction) are handled by
// failed-literal probing and, within a step budget, by case splits.
//
// The pass only ever answers "refuted": every edge it adds holds in
// every model of the atom it came from, and an atom it cannot read adds
// none, so its graph over-approximates the query. It never yields Sat or
// a model and never changes what the SAT core sees.

// orderMaxWidth bounds the terms the pass reads: node values and path
// sums stay far inside int64.
const orderMaxWidth = 32

// orderStepsPerEdge sizes the search budget: a query may spend this many
// steps (an edge insertion, a node whose potential moved) per edge its
// atoms translate to. Probing every disjunct once costs about one step
// per edge, so the budget pays for a few probing rounds and shallow case
// splits, and a query the pass cannot refute costs a small multiple of
// reading it.
const orderStepsPerEdge = 4

// orderMaxRead bounds the conjunctions the pass reads per query, so a
// formula whose conjunctions share sub-conjunctions many ways cannot
// make the translation itself blow up. What is left unread is dropped,
// which only weakens the graph.
const orderMaxRead = 1 << 16

// orderEdge is the difference constraint x_to − x_from ≤ w.
type orderEdge struct {
	from, to int32
	w        int64
}

// orderLit keys the memoized translation of an order atom in one
// polarity.
type orderLit struct {
	e   *expr.Expr
	neg bool
}

// orderConj is a conjunction as the pass reads it: difference edges and
// nested disjunctions, each a list of conjunctions. size counts the
// edges of one probe of every disjunct below it.
type orderConj struct {
	edges   []orderEdge
	clauses [][]*orderConj
	size    int
}

// orderUndo is one trail entry: either an edge appended to out[node]
// (edge true) or node's potential before a change.
type orderUndo struct {
	node int32
	edge bool
	pot  int64
}

// orderPass is the per-query state: the node table, the memoized atom
// translations, and the constraint graph with its potential function.
// Node 0 is the constant zero.
type orderPass struct {
	ia    *intervalAnalysis
	nodes map[*expr.Expr]int32
	lits  map[orderLit][]orderEdge

	axioms []orderEdge               // per-node bounds and wrap rules
	root   orderConj                 // the query
	disj   map[orderLit][]*orderConj // memoized disjunctions; nil when one cannot be refuted

	// The graph: pot is a feasible potential (pot[to] ≤ pot[from] + w for
	// every edge), kept under insertions by Cotton and Maler's
	// incremental update and restored from trail on backtracking.
	pot    []int64
	out    [][]orderEdge
	trail  []orderUndo
	read   int // conjunctions read, against orderMaxRead
	steps  int
	budget int
	// Scratch of the potential update.
	gamma []int64
	seen  []int32 // epoch stamp of gamma
	fixed []int32 // epoch stamp of a node whose potential moved
	epoch int32
	heap  []orderHeapItem
}

var orderPool = sync.Pool{New: func() any {
	return &orderPass{nodes: map[*expr.Expr]int32{}, lits: map[orderLit][]orderEdge{}, disj: map[orderLit][]*orderConj{}}
}}

// orderRefutes reports whether the order pass proves the conjunction of
// atoms unsatisfiable. ia holds the interval analysis's refinements from
// the same atoms; it supplies the node bounds.
//
// A query with no top-level disjunction is left to the SAT core unread:
// on the corpus the pass refutes none, and reading them was half its
// cost on light pipelines.
func orderRefutes(ia *intervalAnalysis, atoms []*expr.Expr) bool {
	if !slices.ContainsFunc(atoms, isDisjunction) {
		return false
	}
	p := orderPool.Get().(*orderPass)
	defer p.release()
	p.ia = ia
	p.node(nil) // the zero node
	for _, a := range atoms {
		p.conjuncts(a, false, &p.root)
	}
	if len(p.root.edges) == 0 && len(p.root.clauses) == 0 {
		return false
	}
	n := len(p.pot)
	if cap(p.out) < n {
		p.out = make([][]orderEdge, n)
	}
	p.out = p.out[:n] // release emptied every list
	p.gamma = growSlice(p.gamma, n)
	p.seen = growSlice(p.seen, n)
	p.fixed = growSlice(p.fixed, n)
	for _, e := range p.axioms {
		if !p.add(e) {
			return true
		}
	}
	p.steps, p.budget = 0, orderStepsPerEdge*(p.root.size+len(p.axioms))
	return p.refute(p.root.edges, p.root.clauses, true)
}

// growSlice returns s resized to n zeroed elements, reusing its storage.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (p *orderPass) release() {
	p.ia = nil
	clear(p.nodes)
	clear(p.lits)
	clear(p.disj)
	p.axioms, p.read = p.axioms[:0], 0
	p.root = orderConj{edges: p.root.edges[:0], clauses: p.root.clauses[:0]}
	p.pot = p.pot[:0]
	for i := range p.out {
		p.out[i] = p.out[i][:0]
	}
	p.trail, p.heap = p.trail[:0], p.heap[:0]
	p.epoch = 0
	orderPool.Put(p)
}

// ---- translation ----

// shape classifies the boolean e read in polarity neg: a disjunction (an
// or, or a negated and), a conjunction (an and, or a negated or), or
// neither.
func shape(e *expr.Expr, neg bool) (disj, conj bool) {
	or := e.Kind == expr.KBin && e.Op == expr.OpOr && e.Width() == 1
	and := e.Kind == expr.KBin && e.Op == expr.OpAnd && e.Width() == 1
	return or && !neg || and && neg, and && !neg || or && neg
}

// isDisjunction reports whether the atom is an or, or a negated and.
func isDisjunction(e *expr.Expr) bool {
	neg := false
	for e.Kind == expr.KNot {
		e, neg = e.A, !neg
	}
	disj, _ := shape(e, neg)
	return disj
}

// conjuncts adds the conjunction e (polarity neg) to c: its order
// literals as edges, its disjunctions as clauses. Anything else adds
// nothing: dropping a conjunct only weakens the conjunction.
func (p *orderPass) conjuncts(e *expr.Expr, neg bool, c *orderConj) {
	if p.read++; p.read > orderMaxRead {
		return
	}
	for e.Kind == expr.KNot {
		e, neg = e.A, !neg
	}
	disj, conj := shape(e, neg)
	switch {
	case conj:
		p.conjuncts(e.A, neg, c)
		p.conjuncts(e.B, neg, c)
	case disj:
		if cl := p.clause(e, neg); cl != nil {
			c.clauses = append(c.clauses, cl)
			for _, d := range cl {
				c.size += d.size
			}
		}
	default:
		if es, ok := p.lit(e, neg); ok {
			c.edges = append(c.edges, es...)
			c.size += len(es)
		}
	}
}

// clause returns the disjuncts of the disjunction e (polarity neg),
// memoized per query, or nil when some disjunct yields nothing to refute
// (then neither can the disjunction be refuted).
func (p *orderPass) clause(e *expr.Expr, neg bool) []*orderConj {
	k := orderLit{e, neg}
	if cl, ok := p.disj[k]; ok {
		return cl
	}
	var cl []*orderConj
	if !p.disjuncts(e, neg, &cl) {
		cl = nil
	}
	p.disj[k] = cl
	return cl
}

func (p *orderPass) disjuncts(e *expr.Expr, neg bool, cl *[]*orderConj) bool {
	for e.Kind == expr.KNot {
		e, neg = e.A, !neg
	}
	if disj, _ := shape(e, neg); disj {
		return p.disjuncts(e.A, neg, cl) && p.disjuncts(e.B, neg, cl)
	}
	c := &orderConj{}
	p.conjuncts(e, neg, c)
	if len(c.edges) == 0 && len(c.clauses) == 0 {
		return false
	}
	*cl = append(*cl, c)
	return true
}

// lit returns the edges of an order literal (an unsigned comparison or
// an equality of terms of at most orderMaxWidth bits, negated when neg),
// memoized per query. ok is false for any other atom.
func (p *orderPass) lit(e *expr.Expr, neg bool) (es []orderEdge, ok bool) {
	if e.Kind != expr.KBin || e.A.Width() > orderMaxWidth {
		return nil, false
	}
	switch e.Op {
	case expr.OpUle, expr.OpUlt:
	case expr.OpEq:
		if neg || e.A.Width() == 1 {
			return nil, false
		}
	default:
		return nil, false
	}
	k := orderLit{e, neg}
	if es, ok := p.lits[k]; ok {
		return es, true
	}
	a, b := stripZExt(e.A), stripZExt(e.B)
	na, oa := p.term(a)
	nb, ob := p.term(b)
	switch {
	case e.Op == expr.OpEq:
		es = []orderEdge{{nb, na, ob - oa}, {na, nb, oa - ob}}
	case e.Op == expr.OpUle && !neg: // a ≤ b
		es = p.wrapLit([]orderEdge{{nb, na, ob - oa}}, a, b)
	case e.Op == expr.OpUlt && !neg: // a < b
		es = p.wrapLit([]orderEdge{{nb, na, ob - oa - 1}}, a, b)
	case e.Op == expr.OpUle: // ¬(a ≤ b): b < a
		es = p.wrapLit([]orderEdge{{na, nb, oa - ob - 1}}, b, a)
	default: // ¬(a < b): b ≤ a
		es = p.wrapLit([]orderEdge{{na, nb, oa - ob}}, b, a)
	}
	p.lits[k] = es
	return es, true
}

// wrapLit adds what a literal lo ≤ hi (or lo < hi) says about the wrap
// of a sum when one side is the other plus an offset y ≥ 1. For
// t = x + y on w bits, t < x exactly when the sum wrapped (as integers
// t = x + y − 2^w then, and t = x + y ≥ x + 1 otherwise), so
//   - x ≤ t gives t ≥ x + lo(y);
//   - t ≤ x gives t ≤ x + hi(y) − 2^w.
func (p *orderPass) wrapLit(es []orderEdge, lo, hi *expr.Expr) []orderEdge {
	if y, ok := offsetOf(hi, lo); ok {
		if r := p.ia.rangeOf(y); r.Lo > 0 {
			es = append(es, orderEdge{p.nodes[hi], p.nodes[lo], -int64(r.Lo)})
		}
	}
	if y, ok := offsetOf(lo, hi); ok {
		if r := p.ia.rangeOf(y); r.Lo > 0 {
			es = append(es, orderEdge{p.nodes[hi], p.nodes[lo], int64(r.Hi) - int64(1)<<lo.Width()})
		}
	}
	return es
}

// offsetOf returns y when t is the sum x + y (x − c reads as
// x + (2^w − c)), with x symbolic and zero extension stripped.
func offsetOf(t, x *expr.Expr) (*expr.Expr, bool) {
	if t.Kind != expr.KBin || x.Kind == expr.KConst {
		return nil, false
	}
	switch t.Op {
	case expr.OpAdd:
		if stripZExt(t.A) == x {
			return t.B, true
		}
		if stripZExt(t.B) == x {
			return t.A, true
		}
	case expr.OpSub:
		if c, ok := t.B.IsConst(); ok && stripZExt(t.A) == x {
			return expr.Const(t.Width(), t.Width().Mask()-c.U+1), true
		}
	}
	return nil, false
}

func stripZExt(e *expr.Expr) *expr.Expr {
	for e.Kind == expr.KZExt {
		e = e.A
	}
	return e
}

// term reads e (zero extension stripped) as node + offset: a constant
// is the zero node plus its value, anything else its own node.
func (p *orderPass) term(e *expr.Expr) (int32, int64) {
	if c, ok := e.IsConst(); ok {
		return 0, int64(c.U)
	}
	return p.node(e), 0
}

// node returns e's node, creating it with its axioms on first sight: its
// interval bounds and, when e is a sum, the wrap rules for each way of
// reading it as x + y.
func (p *orderPass) node(e *expr.Expr) int32 {
	if n, ok := p.nodes[e]; ok {
		return n
	}
	n := int32(len(p.pot))
	p.nodes[e] = n
	p.pot = append(p.pot, 0)
	if e == nil {
		return n
	}
	r := p.ia.rangeOf(e)
	p.axioms = append(p.axioms, orderEdge{0, n, int64(r.Hi)}, orderEdge{n, 0, -int64(r.Lo)})
	if e.Kind == expr.KBin && (e.Op == expr.OpAdd || e.Op == expr.OpSub) {
		for _, x := range [2]*expr.Expr{stripZExt(e.A), stripZExt(e.B)} {
			if y, ok := offsetOf(e, x); ok {
				p.sumAxioms(n, e, x, y)
			}
		}
	}
	return n
}

// sumAxioms adds the wrap rules of t = x + y (node n) on w bits. As
// integers t = x + y when the sum does not wrap and x + y − 2^w when it
// does, so always t ≤ x + hi(y) and x ≤ t + 2^w − lo(y); when the bounds
// rule the wrap out, t ≥ x + lo(y); when they force it,
// t ≤ x + hi(y) − 2^w.
func (p *orderPass) sumAxioms(n int32, t, x, y *expr.Expr) {
	m := int64(1) << t.Width()
	nx := p.node(x)
	rx, ry := p.ia.rangeOf(x), p.ia.rangeOf(y)
	lo, hi := int64(ry.Lo), int64(ry.Hi)
	p.axioms = append(p.axioms, orderEdge{nx, n, hi}, orderEdge{n, nx, m - lo})
	if int64(rx.Hi)+hi < m {
		p.axioms = append(p.axioms, orderEdge{n, nx, -lo})
	}
	if int64(rx.Lo)+lo >= m {
		p.axioms = append(p.axioms, orderEdge{nx, n, hi - m})
	}
}

// ---- the graph ----

func (p *orderPass) addAll(es []orderEdge) bool {
	for _, e := range es {
		if !p.add(e) {
			return false
		}
	}
	return true
}

// add inserts e and restores a feasible potential, or reports false when
// e closes a negative cycle. Only nodes whose potential must drop are
// visited, in order of how far (Cotton and Maler's update); a negative
// cycle through e is exactly a demand to lower e.from.
func (p *orderPass) add(e orderEdge) bool {
	p.steps++
	p.out[e.from] = append(p.out[e.from], e)
	p.trail = append(p.trail, orderUndo{node: e.from, edge: true})
	g := p.pot[e.from] + e.w - p.pot[e.to]
	if g >= 0 {
		return true
	}
	if e.from == e.to {
		return false
	}
	p.epoch++
	p.heap = p.heap[:0]
	p.push(e.to, g)
	for len(p.heap) > 0 {
		it := p.pop()
		s := it.node
		if p.fixed[s] == p.epoch || p.gamma[s] != it.g {
			continue
		}
		if s == e.from {
			return false
		}
		p.steps++
		p.fixed[s] = p.epoch
		p.trail = append(p.trail, orderUndo{node: s, pot: p.pot[s]})
		p.pot[s] += it.g
		for _, f := range p.out[s] {
			t := f.to
			if p.fixed[t] == p.epoch {
				continue
			}
			if g := p.pot[s] + f.w - p.pot[t]; g < 0 && (p.seen[t] != p.epoch || g < p.gamma[t]) {
				p.push(t, g)
			}
		}
	}
	return true
}

// undo backtracks the graph to a trail mark.
func (p *orderPass) undo(mark int) {
	for i := len(p.trail) - 1; i >= mark; i-- {
		u := p.trail[i]
		if u.edge {
			p.out[u.node] = p.out[u.node][:len(p.out[u.node])-1]
		} else {
			p.pot[u.node] = u.pot
		}
	}
	p.trail = p.trail[:mark]
}

type orderHeapItem struct {
	g    int64
	node int32
}

func (p *orderPass) push(n int32, g int64) {
	p.gamma[n], p.seen[n] = g, p.epoch
	h := append(p.heap, orderHeapItem{g, n})
	for i := len(h) - 1; i > 0; {
		j := (i - 1) / 2
		if h[j].g <= h[i].g {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	p.heap = h
}

func (p *orderPass) pop() orderHeapItem {
	h := p.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && h[l].g < h[m].g {
			m = l
		}
		if r < len(h) && h[r].g < h[m].g {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	p.heap = h
	return top
}

// ---- search ----

// refute asserts a conjunction — its edges, then its clauses to a
// probing fixpoint — and reports whether that closed a negative cycle.
// Probing asserts each disjunct of a clause in turn (its own clauses
// probed one level down) and drops the ones that fail; a clause with no
// survivor refutes, one with a single survivor has it asserted. With
// split, the clauses left open are then case-split, fewest survivors
// first. It gives up (false) once the step budget is spent. The caller
// undoes what it asserted.
func (p *orderPass) refute(edges []orderEdge, clauses [][]*orderConj, split bool) bool {
	if !p.addAll(edges) {
		return true
	}
	live := append([][]*orderConj(nil), clauses...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(live); i++ {
			var surv []*orderConj
			for _, d := range live[i] {
				if p.steps > p.budget {
					return false
				}
				m := len(p.trail)
				r := p.refute(d.edges, d.clauses, false)
				p.undo(m)
				if !r {
					surv = append(surv, d)
				}
			}
			switch len(surv) {
			case 0:
				return true
			case 1:
				if p.refute(surv[0].edges, surv[0].clauses, false) {
					return true
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				i--
				changed = true
			default:
				live[i] = surv
			}
		}
	}
	if !split || len(live) == 0 {
		return false
	}
	best := 0
	for i := range live {
		if len(live[i]) < len(live[best]) {
			best = i
		}
	}
	rest := append(append([][]*orderConj(nil), live[:best]...), live[best+1:]...)
	for _, d := range live[best] {
		if p.steps > p.budget {
			return false
		}
		m := len(p.trail)
		r := p.refute(d.edges, append(append([][]*orderConj(nil), d.clauses...), rest...), true)
		p.undo(m)
		if !r {
			return false
		}
	}
	return true
}
