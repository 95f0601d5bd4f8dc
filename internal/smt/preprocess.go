package smt

import "sort"

// This file implements SatELite-style CNF preprocessing (Eén & Biere):
// backward subsumption, self-subsumption strengthening, and bounded
// variable elimination (BVE) by clause distribution. Subsumption and
// strengthening preserve logical equivalence and are always sound;
// elimination only preserves equisatisfiability, so it
//
//   - never touches frozen variables (the incremental session freezes
//     every variable the outside world can still name: activation
//     guards, bitvector variable bits, and the pinned constant), and
//   - records the removed clauses on elimStack so captureModel can
//     reconstruct values for eliminated variables, keeping SAT
//     witnesses replayable.
//
// The pass runs between solves at decision level 0. It operates in
// detached mode: watch lists are ignored and rebuilt wholesale at the
// end (via compact), unit consequences are applied through the
// occurrence lists instead of propagate, and qhead rewinds to 0 so the
// next Solve re-derives the closure through the fresh watches.

// Preprocessing tunables. The occurrence and resolvent caps follow
// MiniSat-simp's defaults closely; the clause floors keep the pass away
// from instances too small to repay a database rewrite.
const (
	preMinClauses      = 512 // below this a pass cannot pay for itself
	preGrowthFactor    = 4   // re-preprocess when the CNF grew this much
	bveMaxOcc          = 24  // skip variables with more occurrences per polarity
	bveMaxResolventLen = 20  // never distribute resolvents longer than this
	subMaxClauseLen    = 20  // longer clauses are not tried as subsumers
	subMaxOcc          = 800 // skip backward scans over longer occurrence lists
	prePassLimit       = 3   // subsumption/elimination alternations
)

// elimRecord remembers the clauses removed when eliminating variable v:
// the flattened literal runs lits[ends[i-1]:ends[i]]. Every run contains
// v. Records are immutable once pushed (portfolio clones alias them).
type elimRecord struct {
	v    int32
	lits []Lit
	ends []int32
}

// NeedPreprocess reports whether the problem CNF has grown enough since
// the last preprocessing run (or since construction) for another pass.
func (s *SatSolver) NeedPreprocess() bool {
	n := len(s.clauses)
	return n >= preMinClauses && n >= s.preClauses*preGrowthFactor
}

// NumProblemClauses returns the number of live problem clauses.
func (s *SatSolver) NumProblemClauses() int { return len(s.clauses) }

// NumEliminated returns how many variables BVE has removed.
func (s *SatSolver) NumEliminated() int {
	n := 0
	for _, e := range s.elim {
		if e {
			n++
		}
	}
	return n
}

// preprocessor is the transient state of one Preprocess call.
type preprocessor struct {
	s      *SatSolver
	frozen []bool
	occ    [][]cref // per literal: problem clauses registered at creation (may hold stale entries)
	sig    []uint64 // per cref: variable-based 64-bit clause signature
	inSub  []bool   // per cref: queued for subsumption
	subQ   []cref
	uhead  int // trail prefix whose consequences are applied to the DB
}

// Preprocess simplifies the problem CNF. frozen marks variables that
// must survive (nil = none). bve enables variable elimination; without
// it only the equivalence-preserving passes run (unit application,
// subsumption, self-subsumption strengthening), which is the mode
// incremental sessions use: every entailment of the original CNF is
// preserved, so Tseitin literals cached by the blaster stay sound and
// no structural cache needs invalidating. Elimination is reserved for
// one-shot solves, where nothing blasts against the CNF afterwards.
// It reports false when the formula is discovered unsatisfiable at the
// top level (the solver is then dead, like after a failed AddClause).
func (s *SatSolver) Preprocess(frozen []bool, bve bool) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	if conf := s.propagate(); conf != crefNil {
		s.ok = false
		return false
	}
	s.cnt.PreprocessRuns++
	p := &preprocessor{s: s, frozen: frozen}
	p.init()
	if p.applyUnits() {
		for pass := 0; pass < prePassLimit && s.ok; pass++ {
			changed := p.subsumptionPass()
			if !s.ok || !p.applyUnits() {
				break
			}
			if bve && p.bvePass() {
				changed = true
			}
			if !s.ok || !p.applyUnits() {
				break
			}
			if !changed {
				break
			}
		}
	}
	if s.ok {
		p.finish()
	}
	return s.ok
}

func (p *preprocessor) init() {
	s := p.s
	p.occ = make([][]cref, 2*len(s.assign))
	p.sig = make([]uint64, len(s.cdb))
	p.inSub = make([]bool, len(s.cdb))
	for _, c := range s.clauses {
		if s.cdb[c].deleted {
			continue
		}
		p.register(c)
	}
}

// register computes the clause's signature, adds it to the occurrence
// lists, and queues it for subsumption.
func (p *preprocessor) register(c cref) {
	s := p.s
	for int(c) >= len(p.sig) {
		p.sig = append(p.sig, 0)
		p.inSub = append(p.inSub, false)
	}
	var sig uint64
	for _, l := range s.lits(c) {
		sig |= 1 << (uint(l.Var()) & 63)
		p.occ[l] = append(p.occ[l], c)
	}
	p.sig[c] = sig
	if !p.inSub[c] {
		p.inSub[c] = true
		p.subQ = append(p.subQ, c)
	}
}

func (p *preprocessor) isFrozen(v int32) bool {
	return p.frozen != nil && int(v) < len(p.frozen) && p.frozen[v]
}

// deleteClause marks a problem clause deleted (lazily: occurrence
// entries stay and are filtered by the deleted flag).
func (p *preprocessor) deleteClause(c cref) {
	h := &p.s.cdb[c]
	if h.deleted {
		return
	}
	h.deleted = true
	p.s.deadLits += int(h.n)
}

// findLit returns the index of l in clause c's literals, or -1.
func (p *preprocessor) findLit(c cref, l Lit) int {
	for i, x := range p.s.lits(c) {
		if x == l {
			return i
		}
	}
	return -1
}

// strengthen removes literal l from clause c in place (self-subsumption
// or a false literal under a level-0 unit). Returns false on top-level
// unsatisfiability.
func (p *preprocessor) strengthen(c cref, l Lit) bool {
	s := p.s
	h := &s.cdb[c]
	if h.deleted {
		return true
	}
	i := p.findLit(c, l)
	if i < 0 {
		return true // stale occurrence entry
	}
	lits := s.lits(c)
	lits[i] = lits[len(lits)-1]
	h.n--
	s.deadLits++
	s.cnt.LitsStrengthened++
	switch h.n {
	case 0:
		s.ok = false
		return false
	case 1:
		u := s.lits(c)[0]
		p.deleteClause(c) // the unit moves to the trail
		switch s.value(u) {
		case lTrue:
			return true
		case lFalse:
			s.ok = false
			return false
		}
		return s.enqueue(u, crefNil)
	}
	// Recompute the signature (it can only shrink) and requeue.
	var sig uint64
	for _, x := range s.lits(c) {
		sig |= 1 << (uint(x.Var()) & 63)
	}
	p.sig[c] = sig
	if !p.inSub[c] {
		p.inSub[c] = true
		p.subQ = append(p.subQ, c)
	}
	return true
}

// applyUnits applies every pending level-0 assignment to the problem
// clause database through the occurrence lists: clauses containing the
// true literal are deleted, clauses containing its negation are
// strengthened (possibly yielding further units, which extend the trail
// and keep the loop going). This is complete unit propagation over the
// problem clauses without touching watch lists.
func (p *preprocessor) applyUnits() bool {
	s := p.s
	for p.uhead < len(s.trail) {
		l := s.trail[p.uhead]
		p.uhead++
		for _, c := range p.occ[l] {
			if !s.cdb[c].deleted && p.findLit(c, l) >= 0 {
				p.deleteClause(c)
			}
		}
		for _, c := range p.occ[l.Flip()] {
			if !p.strengthen(c, l.Flip()) {
				return false
			}
		}
	}
	return true
}

// subsumes checks whether every literal of c occurs in d, allowing at
// most one to occur negated. It returns (false, 0) when c does not
// subsume d, (true, -1) for plain subsumption, and (true, l) when
// exactly one literal occurs negated as l in d — the self-subsumption
// case: resolving c and d on l yields d without l, so d may be
// strengthened by removing l.
func (p *preprocessor) subsumes(c, d cref) (bool, Lit) {
	dl := p.s.lits(d)
	var flipped Lit = -1
	for _, lc := range p.s.lits(c) {
		found := false
		for _, ld := range dl {
			if ld == lc {
				found = true
				break
			}
			if ld == lc.Flip() {
				if flipped != -1 {
					return false, 0
				}
				flipped = ld
				found = true
				break
			}
		}
		if !found {
			return false, 0
		}
	}
	return true, flipped
}

// subsumptionPass drains the subsumption queue: each queued clause is
// tried as a (self-)subsumer against the clauses sharing its rarest
// literal (in either polarity, so strengthening on that literal is not
// missed). Reports whether anything changed.
func (p *preprocessor) subsumptionPass() bool {
	s := p.s
	changed := false
	for len(p.subQ) > 0 {
		c := p.subQ[len(p.subQ)-1]
		p.subQ = p.subQ[:len(p.subQ)-1]
		p.inSub[c] = false
		h := &s.cdb[c]
		if h.deleted || int(h.n) > subMaxClauseLen {
			continue
		}
		var best Lit = -1
		for _, l := range s.lits(c) {
			if best < 0 || len(p.occ[l])+len(p.occ[l.Flip()]) < len(p.occ[best])+len(p.occ[best.Flip()]) {
				best = l
			}
		}
		if best < 0 || len(p.occ[best])+len(p.occ[best.Flip()]) > subMaxOcc {
			continue
		}
		for pol := 0; pol < 2; pol++ {
			cand := p.occ[best]
			if pol == 1 {
				cand = p.occ[best.Flip()]
			}
			for _, d := range cand {
				if d == c || s.cdb[d].deleted || s.cdb[c].deleted {
					continue
				}
				if s.cdb[d].n < s.cdb[c].n || p.sig[c]&^p.sig[d] != 0 {
					continue
				}
				ok, flipped := p.subsumes(c, d)
				if !ok {
					continue
				}
				if flipped == -1 {
					p.deleteClause(d)
					s.cnt.ClausesSubsumed++
					changed = true
				} else if !p.strengthen(d, flipped) {
					return changed
				} else {
					changed = true
				}
			}
		}
	}
	return changed
}

// bvePass tries to eliminate every unfrozen, unassigned variable,
// cheapest (fewest occurrences) first. Reports whether any variable was
// eliminated.
func (p *preprocessor) bvePass() bool {
	s := p.s
	type cand struct {
		v int32
		n int
	}
	var cands []cand
	for v := int32(0); v < int32(len(s.assign)); v++ {
		if s.elim[v] || s.assign[v] != lUndef || p.isFrozen(v) {
			continue
		}
		n := len(p.occ[MkLit(v, false)]) + len(p.occ[MkLit(v, true)])
		if n > 0 {
			cands = append(cands, cand{v, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n < cands[j].n
		}
		return cands[i].v < cands[j].v
	})
	changed := false
	for _, cd := range cands {
		if !s.ok {
			break
		}
		if s.assign[cd.v] != lUndef || s.elim[cd.v] {
			continue
		}
		if p.tryEliminate(cd.v) {
			changed = true
			if !p.applyUnits() {
				break
			}
		}
	}
	return changed
}

// liveOcc gathers the live clauses that really contain l (compacting
// the occurrence list in passing).
func (p *preprocessor) liveOcc(l Lit) []cref {
	s := p.s
	kept := p.occ[l][:0]
	for _, c := range p.occ[l] {
		if !s.cdb[c].deleted && p.findLit(c, l) >= 0 {
			kept = append(kept, c)
		}
	}
	p.occ[l] = kept
	return kept
}

// resolventLen returns the length of the resolvent of cp and cn on v,
// or -1 when it is a tautology.
func (p *preprocessor) resolventLen(cp, cn cref, v int32) int {
	s := p.s
	n := 0
	pl := s.lits(cp)
	nl := s.lits(cn)
	for _, l := range pl {
		if l.Var() != v {
			n++
		}
	}
	for _, l := range nl {
		if l.Var() == v {
			continue
		}
		dup := false
		for _, x := range pl {
			if x.Var() == v {
				continue
			}
			if x == l {
				dup = true
				break
			}
			if x == l.Flip() {
				return -1
			}
		}
		if !dup {
			n++
		}
	}
	return n
}

// tryEliminate eliminates v by clause distribution when the resolvent
// set is no larger than the clauses it replaces (and every resolvent is
// short enough). Returns whether v was eliminated.
func (p *preprocessor) tryEliminate(v int32) bool {
	s := p.s
	pos := p.liveOcc(MkLit(v, false))
	neg := p.liveOcc(MkLit(v, true))
	if len(pos)+len(neg) == 0 || len(pos) > bveMaxOcc || len(neg) > bveMaxOcc {
		return false
	}
	limit := len(pos) + len(neg)
	resolvents := 0
	for _, cp := range pos {
		for _, cn := range neg {
			n := p.resolventLen(cp, cn, v)
			if n < 0 {
				continue
			}
			if n > bveMaxResolventLen {
				return false
			}
			if resolvents++; resolvents > limit {
				return false
			}
		}
	}
	// Commit: save the removed clauses for model reconstruction, then
	// distribute the resolvents and delete the originals. The occurrence
	// lists were compacted by liveOcc, so pos/neg are exactly the live
	// clauses mentioning v.
	rec := elimRecord{v: v}
	for _, c := range append(append([]cref{}, pos...), neg...) {
		rec.lits = append(rec.lits, s.lits(c)...)
		rec.ends = append(rec.ends, int32(len(rec.lits)))
	}
	s.elimStack = append(s.elimStack, rec)
	s.elim[v] = true
	s.cnt.VarsEliminated++
	var buf []Lit
	for _, cp := range pos {
		for _, cn := range neg {
			if p.resolventLen(cp, cn, v) < 0 {
				continue
			}
			buf = buf[:0]
			for _, l := range s.lits(cp) {
				if l.Var() != v {
					buf = append(buf, l)
				}
			}
		outer:
			for _, l := range s.lits(cn) {
				if l.Var() == v {
					continue
				}
				for _, x := range buf {
					if x == l {
						continue outer
					}
				}
				buf = append(buf, l)
			}
			if !p.addResolvent(buf) {
				return true // UNSAT discovered; v is still eliminated
			}
		}
	}
	for _, c := range pos {
		p.deleteClause(c)
	}
	for _, c := range neg {
		p.deleteClause(c)
	}
	return true
}

// addResolvent simplifies a resolvent against the level-0 assignment
// and attaches it as a problem clause. Returns false on top-level
// unsatisfiability.
func (p *preprocessor) addResolvent(lits []Lit) bool {
	s := p.s
	out := lits[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		switch s.value(out[0]) {
		case lTrue:
			return true
		case lFalse:
			s.ok = false
			return false
		}
		return s.enqueue(out[0], crefNil)
	}
	c := s.alloc(out, false)
	s.clauses = append(s.clauses, c)
	p.register(c)
	return true
}

// finish cleans the learnt database (dropping clauses that mention
// eliminated variables, deleting satisfied ones, and stripping false
// literals), rewrites the arenas without the deleted clauses, rebuilds
// the watch lists, and rewinds propagation so the next Solve re-derives
// the closure under the new database. The construction fingerprint is
// recomputed from the surviving CNF: preprocessing changes which learnt
// clauses are mutually sound to exchange, so pre- and post-rewrite
// solvers must land in different exchange pools.
func (p *preprocessor) finish() {
	s := p.s
	for {
		if !p.applyUnits() {
			return
		}
		again := false
		for _, c := range s.learnts {
			h := &s.cdb[c]
			if h.deleted {
				continue
			}
			drop := false
			for _, l := range s.lits(c) {
				if s.elim[l.Var()] || s.value(l) == lTrue {
					drop = true
					break
				}
			}
			if drop {
				p.deleteClause(c)
				continue
			}
			lits := s.lits(c)
			for i := 0; i < len(lits); {
				if s.value(lits[i]) == lFalse {
					lits[i] = lits[len(lits)-1]
					lits = lits[:len(lits)-1]
					h.n--
					s.deadLits++
				} else {
					i++
				}
			}
			switch h.n {
			case 0:
				s.ok = false
				return
			case 1:
				u := s.lits(c)[0]
				p.deleteClause(c)
				if !s.enqueue(u, crefNil) {
					s.ok = false
					return
				}
				again = true
			}
		}
		if !again {
			break
		}
	}
	// Live learnt lists must drop deleted entries before compact.
	keptL := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.cdb[c].deleted {
			keptL = append(keptL, c)
		}
	}
	s.learnts = keptL
	keptC := s.clauses[:0]
	for _, c := range s.clauses {
		if !s.cdb[c].deleted {
			keptC = append(keptC, c)
		}
	}
	s.clauses = keptC
	// Every standing assignment is level 0; reasons are never consulted
	// there, and some may point at deleted clauses.
	for _, l := range s.trail {
		s.reason[l.Var()] = crefNil
	}
	s.compact()
	s.qhead = 0
	s.preClauses = len(s.clauses)
	// Refingerprint from the surviving database.
	s.fp = fpOffset
	s.fpMix(uint64(len(s.assign)))
	s.fpMix(uint64(len(s.elimStack)))
	for _, c := range s.clauses {
		lits := s.lits(c)
		s.fpMix(uint64(len(lits))<<32 | 0xbe5)
		for _, l := range lits {
			s.fpMix(uint64(uint32(l)))
		}
	}
}
