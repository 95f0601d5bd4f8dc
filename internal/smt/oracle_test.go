package smt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vsd/internal/bv"
	"vsd/internal/expr"
)

// The enumeration oracle: random formulas over a world small enough to
// enumerate, in the shapes the verifier emits, answered by every layer
// that can answer a query and checked against expr.Eval over every
// assignment of the world. It shares no code with the solver: the
// ground truth is evaluation, and a model is checked by evaluating every
// atom under it.
//
// The world: a packet of oracleBytes bytes, each kept to {0..3} by
// conjuncts the solver also sees; a 32-bit x kept to {0, 1, 2³²−2,
// 2³²−1}, so sums with it wrap; an 8-bit y kept to {0..3}; and a 32-bit
// len kept to {0..oracleMaxLen}. Packet indices are masked to the
// packet, so no read leaves the world.

const (
	oracleBytes  = 4
	oracleMaxLen = 5
	oracleTrials = 400
	oracleReuse  = 40
)

type oracleGen struct {
	r   *rand.Rand
	pkt *expr.Array
	x   *expr.Expr
	y   *expr.Expr
	ln  *expr.Expr
}

func newOracleGen(seed int64) *oracleGen {
	return &oracleGen{
		r:   rand.New(rand.NewSource(seed)),
		pkt: expr.BaseArray("opkt"),
		x:   expr.Var("ox", 32),
		y:   expr.Var("oy", 8),
		ln:  expr.Var("olen", 32),
	}
}

func c32(u uint64) *expr.Expr { return expr.Const(32, u) }

// offset returns a small or a wrapping constant offset.
func (g *oracleGen) offset() uint64 {
	offs := []uint64{1, 2, 3, 4, 1<<32 - 1, 1<<32 - 2}
	return offs[g.r.Intn(len(offs))]
}

// read returns a packet byte at a constant, a symbolic or a nested
// index (pkt[pkt[i]+k]); every index is masked into the packet.
func (g *oracleGen) read(depth int) *expr.Expr {
	switch k := g.r.Intn(4); {
	case k == 0 || depth == 0:
		return expr.Select(g.pkt, c32(uint64(g.r.Intn(oracleBytes))))
	case k == 1:
		return expr.Select(g.pkt, expr.BvAnd(g.term(depth-1), c32(oracleBytes-1)))
	default:
		inner := expr.ZExt(g.read(depth-1), 32)
		return expr.Select(g.pkt, expr.BvAnd(expr.Add(inner, c32(uint64(g.r.Intn(oracleBytes)))), c32(oracleBytes-1)))
	}
}

// term returns a 32-bit term: a variable, a zero-extended byte, a
// constant, a wrap-around sum, or an ite chain of sums (a merged loop
// cursor).
func (g *oracleGen) term(depth int) *expr.Expr {
	n := 5
	if depth > 0 {
		n = 9
	}
	switch g.r.Intn(n) {
	case 0:
		return g.ln
	case 1:
		return g.x
	case 2:
		return expr.ZExt(g.read(depth), 32)
	case 3:
		return expr.ZExt(g.y, 32)
	case 4:
		return c32(uint64(g.r.Intn(7)))
	case 5:
		return expr.Add(g.term(depth-1), c32(g.offset()))
	case 6:
		return expr.Sub(g.term(depth-1), c32(uint64(1+g.r.Intn(3))))
	case 7:
		return expr.Add(g.term(depth-1), g.term(depth-1))
	default:
		base := g.term(depth - 1)
		return expr.Ite(g.cmp(depth-1), expr.Add(base, c32(g.offset())), expr.Add(base, expr.ZExt(g.read(depth-1), 32)))
	}
}

// cmp returns an order or equality literal between terms, often a term
// against itself plus an offset (the shape whose truth is the wrap).
func (g *oracleGen) cmp(depth int) *expr.Expr {
	var a, b *expr.Expr
	switch g.r.Intn(4) {
	case 0:
		a, b = g.read(depth), expr.Const(8, uint64(g.r.Intn(4)))
		if g.r.Intn(2) == 0 {
			b = g.read(depth)
		}
	case 1:
		a = g.term(depth)
		b = expr.Add(a, c32(g.offset()))
	default:
		a, b = g.term(depth), g.term(depth)
	}
	if g.r.Intn(2) == 0 {
		a, b = b, a
	}
	switch g.r.Intn(3) {
	case 0:
		return expr.Ule(a, b)
	case 1:
		return expr.Ult(a, b)
	}
	return expr.Eq(a, b)
}

// lit returns a literal, negated half of the time.
func (g *oracleGen) lit(depth int) *expr.Expr {
	c := g.cmp(depth)
	if g.r.Intn(2) == 0 {
		return expr.Not(c)
	}
	return c
}

func (g *oracleGen) conj(depth, n int) *expr.Expr {
	xs := make([]*expr.Expr, 1+g.r.Intn(n))
	for i := range xs {
		xs[i] = g.lit(depth)
	}
	return expr.And(xs...)
}

// atom returns a top-level conjunct: a literal, a disjunction of
// conjunctions (a merged crash segment), a negated conjunction, or a
// conjunction holding a negated conjunction (a bounds check).
func (g *oracleGen) atom() *expr.Expr {
	switch g.r.Intn(5) {
	case 0, 1:
		return g.lit(2)
	case 2:
		ds := make([]*expr.Expr, 2+g.r.Intn(3))
		for i := range ds {
			ds[i] = g.conj(1, 3)
		}
		return expr.Or(ds...)
	case 3:
		return expr.Not(g.conj(1, 3))
	}
	return expr.And(g.lit(1), expr.Not(g.conj(1, 2)))
}

// query returns the generated atoms followed by the domain conjuncts of
// the world they mention.
func (g *oracleGen) query() (atoms, domain []*expr.Expr) {
	for n := 1 + g.r.Intn(4); len(atoms) < n; {
		if a := g.atom(); !a.IsTrue() {
			atoms = append(atoms, a)
		}
	}
	for i := 0; i < oracleBytes; i++ {
		domain = append(domain, expr.Ule(expr.Select(g.pkt, c32(uint64(i))), expr.Const(8, 3)))
	}
	for _, v := range g.vars(atoms) {
		switch v {
		case g.x:
			domain = append(domain, expr.Or(expr.Ule(g.x, c32(1)), expr.Ule(c32(1<<32-2), g.x)))
		case g.y:
			domain = append(domain, expr.Ule(g.y, expr.Const(8, 3)))
		case g.ln:
			domain = append(domain, expr.Ule(g.ln, c32(oracleMaxLen)))
		}
	}
	return atoms, domain
}

func (g *oracleGen) vars(atoms []*expr.Expr) []*expr.Expr {
	var vs []*expr.Expr
	for _, a := range atoms {
		vs = expr.Vars(a, vs)
	}
	seen := map[*expr.Expr]bool{}
	out := vs[:0]
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// truth enumerates the world and reports whether some assignment makes
// every atom true (the domain holds by construction). The packet bytes
// are enumerated first, then the variables; an atom is evaluated as soon
// as everything it reads is assigned, which prunes the enumeration.
func (g *oracleGen) truth(atoms []*expr.Expr) bool {
	asn := expr.NewAssignment()
	pkt := make([]byte, oracleBytes)
	asn.Arrays[g.pkt.Name] = pkt
	vars := g.vars(atoms)
	// due[k] holds the atoms whose last variable is vars[k-1] (k = 0: no
	// variable, only packet bytes).
	due := make([][]*expr.Expr, len(vars)+1)
	for _, a := range atoms {
		last := 0
		for _, v := range expr.Vars(a, nil) {
			for k, w := range vars {
				if v == w && k+1 > last {
					last = k + 1
				}
			}
		}
		due[last] = append(due[last], a)
	}
	holds := func(k int) bool {
		for _, a := range due[k] {
			if !expr.Eval(a, asn).IsTrue() {
				return false
			}
		}
		return true
	}
	var try func(i int) bool
	try = func(i int) bool {
		if i < oracleBytes {
			for b := byte(0); b < 4; b++ {
				if pkt[i] = b; try(i + 1) {
					return true
				}
			}
			return false
		}
		k := i - oracleBytes
		if !holds(k) {
			return false
		}
		if k == len(vars) {
			return true
		}
		v := vars[k]
		var dom []uint64
		switch v {
		case g.x:
			dom = []uint64{0, 1, 1<<32 - 2, 1<<32 - 1}
		case g.y:
			dom = []uint64{0, 1, 2, 3}
		default:
			for u := uint64(0); u <= oracleMaxLen; u++ {
				dom = append(dom, u)
			}
		}
		for _, u := range dom {
			if asn.Vars[v.Name] = bv.New(v.Width(), u); try(i + 1) {
				return true
			}
		}
		return false
	}
	return try(0)
}

// oracleFailures runs trials formulas from seed through every answerer
// and returns a description of each disagreement with the enumeration,
// and how many formulas the interval and order passes decided.
func oracleFailures(seed int64, trials int) (fails []string, intervalDecided, orderRefuted int) {
	g := newOracleGen(seed)
	var reused, reusedCore *IncrementalSession
	for trial := 0; trial < trials; trial++ {
		if trial%oracleReuse == 0 {
			// A session's searches slow as it accumulates formulas; a
			// run of them is enough to exercise learnt clauses and the
			// verdict cache.
			reused = New(Options{}).NewSession()
			reusedCore = New(Options{DisableIntervals: true}).NewSession()
		}
		atoms, domain := g.query()
		cons := append(append([]*expr.Expr{}, atoms...), domain...)
		want := g.truth(atoms)
		fail := func(who string, format string, args ...any) {
			var b strings.Builder
			fmt.Fprintf(&b, "trial %d: %s: %s; truth sat=%v; atoms:", trial, who, fmt.Sprintf(format, args...), want)
			for _, a := range atoms {
				fmt.Fprintf(&b, "\n  %s", a)
			}
			fails = append(fails, b.String())
		}
		check := func(who string, r Result, m *expr.Assignment) {
			switch {
			case r == Unknown:
				fail(who, "unknown")
			case (r == Sat) != want:
				fail(who, "answered %s", r)
			case r == Sat:
				for _, a := range cons {
					if !expr.Eval(a, m).IsTrue() {
						fail(who, "model violates %s", a)
						return
					}
				}
			}
		}
		r, m := New(Options{}).NewSession().Check(cons)
		check("passes/fresh session", r, m)
		r, m = reused.Check(cons)
		check("passes/reused session", r, m)
		r, m, _ = New(Options{}).CheckFresh(cons)
		check("passes/CheckFresh", r, m)
		core := Options{DisableIntervals: true}
		r, m = New(core).NewSession().Check(cons)
		check("core/fresh session", r, m)
		r, m = reusedCore.Check(cons)
		check("core/reused session", r, m)
		r, m = New(core).Check(cons)
		check("core/one-shot", r, m)

		// The word-level passes alone, on the canonical atom set.
		flat, early := flattenAtoms(append([]*expr.Expr{}, cons...))
		if early != Unknown {
			check("folding", early, expr.NewAssignment())
			continue
		}
		ia := newIntervalAnalysis()
		verdict, model := preAnalyze(ia, flat)
		switch verdict {
		case intervalUnsat:
			intervalDecided++
			check("intervals", Unsat, nil)
		case intervalSat:
			intervalDecided++
			check("intervals", Sat, model)
		default:
			if orderRefutes(ia, flat) {
				orderRefuted++
				check("order pass", Unsat, nil)
			}
		}
		iaPool.Put(ia)
		// Without the interval refinements too: the pass must not lean on
		// them for soundness.
		bare := &intervalAnalysis{leaves: map[*expr.Expr]interval{}, memo: map[*expr.Expr]interval{}}
		if orderRefutes(bare, flat) {
			check("order pass (no refinements)", Unsat, nil)
		}
	}
	return fails, intervalDecided, orderRefuted
}

// TestSolverAgainstEnumeration is the oracle (DESIGN.md §4.4): every
// answerer agrees with enumeration on every formula, every Sat model
// satisfies every atom, and both word-level passes decide a share of
// the formulas, so the test measures them.
func TestSolverAgainstEnumeration(t *testing.T) {
	fails, intervals, order := oracleFailures(1, oracleTrials)
	for i, f := range fails {
		if i == 10 {
			t.Errorf("... and %d more", len(fails)-i)
			break
		}
		t.Error(f)
	}
	t.Logf("%d formulas: intervals decided %d, the order pass refuted %d", oracleTrials, intervals, order)
	if intervals == 0 || order < oracleTrials/20 {
		t.Errorf("intervals decided %d and the order pass refuted %d of %d formulas; the oracle exercises too little", intervals, order, oracleTrials)
	}
}
