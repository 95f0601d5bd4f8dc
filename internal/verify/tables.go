package verify

// Static tables at the leaves (DESIGN.md §3.2). Step 1 forks a lookup on
// a symbolic key once per table value and leaves the key unconstrained
// (symbex.TableLookup), so summaries, walks and certificates never see
// a table's ranges. That over-approximates every table, which is sound
// for a proof: no abstract violation means no concrete one. A path end
// that would be reported — a violation, a sequence witness, the bound's
// attaining path — is re-checked here against the concrete tables: its
// lookups' keys must be keys the table maps to the values the path
// took. An end that fails the check is spurious; it is dropped and
// counted (Stats.TableRefinements), and a witness that passes comes from
// the constrained query, so it replays on the concrete dataplane.

import (
	"errors"

	"vsd/internal/click"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/smt"
	"vsd/internal/symbex"
)

// errSpurious marks a path end the concrete tables rule out: its
// constraint holds on the value forks but not on the tables' ranges.
var errSpurious = errors.New("verify: path end ruled out by the concrete tables")

// pathLookup is a table lookup of a composed path, its key and guard in
// the path's input variables, bound to its element's concrete table.
type pathLookup struct {
	symbex.TableLookup
	tbl *ir.StaticTable
}

// bindLookup binds lk, logged by a segment of prog, to the path through
// sub.
func bindLookup(prog *ir.Program, sub *expr.Subst, lk symbex.TableLookup) pathLookup {
	tbl, _ := prog.TableByName(lk.Table)
	lk.Key = sub.Apply(lk.Key)
	if lk.Guard != nil {
		lk.Guard = sub.Apply(lk.Guard)
	}
	return pathLookup{TableLookup: lk, tbl: tbl}
}

// tableConstraint is the concrete relation of the lookups: each key (when
// its guard holds) is one its table maps to the value the path took.
func tableConstraint(lks []pathLookup) *expr.Expr {
	cs := make([]*expr.Expr, len(lks))
	for i, lk := range lks {
		c := keyIn(lk.Key, lk.tbl.KeysOf(lk.Val))
		if lk.Guard != nil {
			c = expr.Implies(lk.Guard, c)
		}
		cs[i] = c
	}
	return expr.And(cs...)
}

// keyIn is the disjunction of key ∈ [Lo, Hi] over ivs, built as a
// balanced tree so a value held by thousands of ranges stays shallow.
func keyIn(key *expr.Expr, ivs []ir.RangeEntry) *expr.Expr {
	switch len(ivs) {
	case 0:
		return expr.False()
	case 1:
		w, iv := key.Width(), ivs[0]
		if iv.Lo == iv.Hi {
			return expr.Eq(key, expr.Const(w, iv.Lo))
		}
		return expr.And(expr.Ule(expr.Const(w, iv.Lo), key), expr.Ule(key, expr.Const(w, iv.Hi)))
	}
	return expr.Or(keyIn(key, ivs[:len(ivs)/2]), keyIn(key, ivs[len(ivs)/2:]))
}

// keyAtom names what one key bit copies: a packet byte at a constant
// offset, or an input variable (name set, arr empty).
type keyAtom struct {
	arr, name string
	idx       uint64
}

// lookupsFree reports whether the lookups are free of conds: every key
// is unguarded and made of whole packet bytes at constant offsets and
// whole input variables, each read by no other key, that together span
// its table's key width, and no condition can read any of them. A free
// key then takes every value of its key space whatever conds fix, so
// conds ∧ tableConstraint is satisfiable whenever conds is: every value
// a lookup forks on is some key's value. The answer depends on the
// tables only through their value sets, which is what lets certificates
// record it under the summary key (leafKey).
func lookupsFree(conds []*expr.Expr, lks []pathLookup) bool {
	owned := map[keyAtom]bool{}
	bytesIn := map[string]bool{} // arrays some key reads a byte of
	for _, lk := range lks {
		if lk.Guard != nil {
			return false
		}
		srcs, ok := bitSources(lk.Key)
		if !ok || len(srcs) != int(lk.tbl.KeyW) {
			return false
		}
		seen := map[bitSource]bool{}
		atoms := map[keyAtom]bool{}
		for _, s := range srcs {
			if s.atom == nil || seen[s] {
				return false
			}
			seen[s] = true
			atoms[atomOf(s.atom)] = true
		}
		for a := range atoms {
			if owned[a] {
				return false
			}
			owned[a] = true
			if a.arr != "" {
				bytesIn[a.arr] = true
			}
		}
	}
	// Every byte read of a condition, and every variable it mentions.
	var symIdx, idx []*expr.Expr
	visited := map[*expr.Expr]bool{}
	var walk func(e *expr.Expr) bool
	walk = func(e *expr.Expr) bool {
		if e == nil || visited[e] {
			return true
		}
		visited[e] = true
		switch e.Kind {
		case expr.KVar:
			return !owned[keyAtom{name: e.Name}]
		case expr.KSelect:
			if k, ok := e.B.IsConst(); ok {
				if owned[keyAtom{arr: e.Arr.Name, idx: k.U}] {
					return false
				}
			} else if bytesIn[e.Arr.Name] {
				symIdx, idx = append(symIdx, e), append(idx, e.B)
			}
		}
		return walk(e.Cond) && walk(e.A) && walk(e.B)
	}
	for _, c := range conds {
		if !walk(c) {
			return false
		}
	}
	// A read at a symbolic offset is harmless only if no value of the
	// offset lands on a key byte.
	for i, r := range smt.Ranges(idx) {
		for a := range owned {
			if a.arr == symIdx[i].Arr.Name && r[0] <= a.idx && a.idx <= r[1] {
				return false
			}
		}
	}
	return true
}

// bitSource names the atom (a constant-offset packet byte or a variable)
// and bit that one bit of an expression copies; atom is nil for a bit
// that is constantly zero.
type bitSource struct {
	atom *expr.Expr
	bit  int
}

// bitSources returns, low bit first, the source of each bit of e when e
// only rearranges whole atoms — zero extension, constant shifts and the
// disjoint or of Concat — and ok false otherwise.
func bitSources(e *expr.Expr) (srcs []bitSource, ok bool) {
	w := int(e.Width())
	switch e.Kind {
	case expr.KVar:
		srcs = make([]bitSource, w)
		for i := range srcs {
			srcs[i] = bitSource{e, i}
		}
		return srcs, true
	case expr.KSelect:
		if _, ok := e.B.IsConst(); !ok {
			return nil, false
		}
		srcs = make([]bitSource, w)
		for i := range srcs {
			srcs[i] = bitSource{e, i}
		}
		return srcs, true
	case expr.KConst:
		if e.Val.U != 0 {
			return nil, false
		}
		return make([]bitSource, w), true
	case expr.KZExt:
		a, ok := bitSources(e.A)
		if !ok {
			return nil, false
		}
		return append(a, make([]bitSource, w-len(a))...), true
	case expr.KBin:
		switch e.Op {
		case expr.OpShl:
			k, isConst := e.B.IsConst()
			a, ok := bitSources(e.A)
			if !isConst || !ok || k.U >= uint64(w) {
				return nil, false
			}
			return append(make([]bitSource, k.U), a[:w-int(k.U)]...), true
		case expr.OpOr:
			a, okA := bitSources(e.A)
			b, okB := bitSources(e.B)
			if !okA || !okB {
				return nil, false
			}
			for i := range a {
				if a[i].atom != nil && b[i].atom != nil {
					return nil, false
				}
				if a[i].atom == nil {
					a[i] = b[i]
				}
			}
			return a, true
		}
	}
	return nil, false
}

// atomOf names a bit source's atom.
func atomOf(e *expr.Expr) keyAtom {
	if e.Kind == expr.KVar {
		return keyAtom{name: e.Name}
	}
	k, _ := e.B.IsConst()
	return keyAtom{arr: e.Arr.Name, idx: k.U}
}

// countRefinement counts one path end the concrete tables ruled out.
func (v *Verifier) countRefinement() {
	v.tableRefinements.Add(1)
	v.tel.refinements.Inc()
}

// leafFeasible reports whether the bound candidate st, a feasible walk
// end with table lookups, is feasible under p's concrete tables. It
// reads the certificate first: a path whose lookups are free of its
// conditions (lookupsFree) is feasible for every table with its value
// sets, recorded under the summary key alone; any other is decided by
// the solver and recorded under the concrete pipeline fingerprint
// (leafKey). An undecided query counts as feasible, which keeps the
// bound sound. A panic in the solve is contained into an unresolved
// error.
func (v *Verifier) leafFeasible(p *click.Pipeline, cert *certTable, st *composed) (feasible bool, err error) {
	freeKey := leafKey(nil, st)
	var concrete []byte
	if cert != nil {
		free, ok := cert.lookup(leafEntry, freeKey)
		if ok && free {
			return true, nil
		}
		concrete = leafKey(p, st)
		if ok {
			if feasible, ok := cert.lookup(leafEntry, concrete); ok {
				return feasible, nil
			}
		}
	}
	f := st.formulas()
	free := lookupsFree(append(v.Pre(), f.conds...), f.lookups)
	if cert != nil {
		cert.record(leafEntry, freeKey, free, false)
	}
	if free {
		return true, nil
	}
	lbl := ""
	if v.tel.active() {
		lbl = pathName(p, st)
	}
	lane := v.tel.getLane()
	defer v.tel.putLane(lane)
	defer v.capturePanic("bound leaf check", nil, &err)
	feasible, _, unknown, sat := v.feasible(lane, st, []*expr.Expr{tableConstraint(f.lookups)}, nil, "leaf", lbl)
	if cert != nil && !unknown {
		cert.record(leafEntry, concrete, feasible, sat)
	}
	return feasible, nil
}
