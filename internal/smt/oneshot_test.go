package smt

import (
	"fmt"
	"sort"

	"vsd/internal/expr"
)

// The one-shot solver: every query is Ackermannized eagerly (every pair
// of reads of one array gets its consistency axiom up front) and
// bit-blasted into an instance of its own. Production solves on
// incremental sessions (CheckFresh for a query that must not see
// history); the one-shot path stays here as the tests' reference, since
// it shares neither the lazy array axioms nor the session's guards and
// cones with them.

// Check decides whether the conjunction of the given 1-bit expressions is
// satisfiable. On Sat it returns a model assigning every free variable
// and the bytes of every base array mentioned by the constraints.
func (s *Solver) Check(constraints []*expr.Expr) (Result, *expr.Assignment) {
	// 1.-2. Flattening, folding, dedup, verdict cache, intervals.
	query, key, res, m, by := s.preSolve(constraints, true)
	if by != layerNone {
		return res, m
	}

	// 3. Ackermannize packet-array reads.
	atoms, selects, selVars := ackermannize(query)

	// 4. Bit-blast and solve on a pooled blaster.
	s.stats.satCalls.Add(1)
	b := newBlaster()
	defer b.release()
	for _, a := range atoms {
		b.assertTrue(a)
	}
	// A one-shot instance holds this query alone, so its cone is the
	// whole instance.
	verdict := s.satSolve(b.sat, b.sat.everyVar(), nil)
	s.foldBlasterCounters(b, blasterCounters{})
	switch verdict {
	case SatUnsat:
		s.cachePut(key, query, Unsat, nil)
		return Unsat, nil
	case SatUnknown:
		return Unknown, nil
	}

	// 5. Reconstruct the model over the query's own variables (a variable
	// that only indexes a lone select never reaches the blaster and reads
	// zero), plus the Ackermann variables the select indices mention.
	asn := expr.NewAssignment()
	var vars []*expr.Expr
	for _, a := range query {
		vars = expr.Vars(a, vars)
	}
	for _, v := range vars {
		if _, ok := asn.Vars[v.Name]; !ok {
			asn.Vars[v.Name] = b.modelVar(v.Name, v.Width())
		}
	}
	for _, n := range selVars {
		asn.Vars[n] = b.modelVar(n, 8)
	}
	// Array contents: evaluate each select's (rewritten) index under the
	// model, then place the select variable's value at that index. The
	// Ackermann constraints guarantee consistency.
	// Indices are capped defensively: the IR guards every packet access
	// with a bounds assertion, so genuine models never index past the
	// maximum packet size, but a caller-supplied unguarded query must not
	// make us allocate gigabytes.
	const maxModelIndex = 1 << 20
	for i, sel := range selects {
		name := sel.sel.Arr.BaseName()
		idx := expr.Eval(sel.idx, asn).Int()
		if idx >= maxModelIndex {
			continue
		}
		val := byte(asn.Vars[selVars[i]].Int())
		content := asn.Arrays[name]
		for uint64(len(content)) <= idx {
			content = append(content, 0)
		}
		content[idx] = val
		asn.Arrays[name] = content
	}
	// Drop the internal Ackermann variables from the reported model.
	for _, n := range selVars {
		delete(asn.Vars, n)
	}
	s.cachePut(key, query, Sat, asn)
	return Sat, asn
}

// ackermannize replaces every KSelect node in the atoms with a fresh
// 8-bit variable and appends functional-consistency constraints: for any
// two reads of the same base array, equal indices force equal values.
// It returns the rewritten atoms, the select descriptors, and the fresh
// variable names (parallel slices).
func ackermannize(atoms []*expr.Expr) ([]*expr.Expr, []selectInfo, []string) {
	var sels []*expr.Expr
	for _, a := range atoms {
		sels = expr.SelectsOf(a, sels)
	}
	if len(sels) == 0 {
		return atoms, nil, nil
	}
	// Deterministic order for reproducible encodings.
	sort.Slice(sels, func(i, j int) bool {
		si, sj := sels[i], sels[j]
		if si.Arr.BaseName() != sj.Arr.BaseName() {
			return si.Arr.BaseName() < sj.Arr.BaseName()
		}
		return si.B.String() < sj.B.String()
	})
	repl := map[*expr.Expr]*expr.Expr{}
	names := make([]string, len(sels))
	for i, sel := range sels {
		names[i] = fmt.Sprintf("§sel%d", i)
		repl[sel] = expr.Var(names[i], 8)
	}
	// Rewrite: replace selects bottom-up (an index expression may itself
	// contain selects).
	memo := map[*expr.Expr]*expr.Expr{}
	var rw func(e *expr.Expr) *expr.Expr
	rw = func(e *expr.Expr) *expr.Expr {
		if e == nil {
			return nil
		}
		if r, ok := memo[e]; ok {
			return r
		}
		var r *expr.Expr
		if v, ok := repl[e]; ok {
			r = v
		} else {
			switch e.Kind {
			case expr.KConst, expr.KVar:
				r = e
			case expr.KBin:
				r = expr.Bin(e.Op, rw(e.A), rw(e.B))
			case expr.KNot:
				r = expr.Not(rw(e.A))
			case expr.KNeg:
				r = expr.Neg(rw(e.A))
			case expr.KIte:
				r = expr.Ite(rw(e.Cond), rw(e.A), rw(e.B))
			case expr.KZExt:
				r = expr.ZExt(rw(e.A), e.Width())
			case expr.KSExt:
				r = expr.SExt(rw(e.A), e.Width())
			case expr.KTrunc:
				r = expr.Trunc(rw(e.A), e.Width())
			case expr.KExtract:
				r = expr.Extract(rw(e.A), e.Lo, e.Width())
			default:
				panic("smt: unexpected node during Ackermannization")
			}
		}
		memo[e] = r
		return r
	}
	infos := make([]selectInfo, len(sels))
	outAtoms := make([]*expr.Expr, 0, len(atoms)+len(sels)*(len(sels)-1)/2)
	for _, a := range atoms {
		outAtoms = append(outAtoms, rw(a))
	}
	for i, sel := range sels {
		infos[i] = selectInfo{sel: sel, idx: rw(sel.B)}
	}
	// Functional consistency.
	for i := 0; i < len(sels); i++ {
		for j := i + 1; j < len(sels); j++ {
			if sels[i].Arr.BaseName() != sels[j].Arr.BaseName() {
				continue
			}
			vi, vj := expr.Var(names[i], 8), expr.Var(names[j], 8)
			c := expr.Implies(expr.Eq(infos[i].idx, infos[j].idx), expr.Eq(vi, vj))
			if !c.IsTrue() {
				outAtoms = append(outAtoms, c)
			}
		}
	}
	return outAtoms, infos, names
}
