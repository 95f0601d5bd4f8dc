package symbex

import "vsd/internal/expr"

// This file decides packet bounds checks that the path already proves,
// the classic bounds-check elimination by difference constraints (ABCD,
// Bodík, Gupta and Sarkar, PLDI 2000) applied where the engine creates
// the check (DESIGN.md §3.3). An access at a 32-bit offset base+k of n
// bytes covers bytes [k, k+n) of base; the path proves it in bounds
// without a solver query in two cases:
//
//   - a window of base contains [k, k+n); or
//   - the run's precondition bounds len ≤ L, some window of base starts
//     at lo ≤ k, some window end or end fact base+h ≤ len has h ≥ k+n,
//     and L + (h − lo) < 2³².
//
// Proof of the second case: let u = (base+lo) mod 2³². The window gives
// u ≤ len ≤ L, so u + (h − lo) < 2³² is (base+h) mod 2³², which is
// ≤ len; every byte from lo to h is then at an offset that does not wrap.

// window is a byte range [lo, hi) relative to an offset base that the
// path has proved in bounds: a solver-decided bounds check assumed
// (base+k) ≤ (base+k+n) ≤ len in 32-bit arithmetic, so the range is
// contiguous, does not wrap and ends at or below len. The offsets are
// integers, not residues; base nil stands for the constant 0. Windows of
// one base that overlap or touch describe one such range, so they merge.
type window struct {
	base   *expr.Expr
	lo, hi uint64
}

// splitOffset writes a 32-bit offset as base + k: the non-constant
// operand of an addition with a constant, a constant as nil + k, and
// anything else as itself + 0.
func splitOffset(off *expr.Expr) (*expr.Expr, uint64) {
	if v, ok := off.IsConst(); ok {
		return nil, v.U
	}
	if off.Kind == expr.KBin && off.Op == expr.OpAdd {
		if v, ok := off.B.IsConst(); ok {
			return off.A, v.U
		}
		if v, ok := off.A.IsConst(); ok {
			return off.B, v.U
		}
	}
	return off, 0
}

// conjuncts calls fn on every conjunct of a 1-bit expression.
func conjuncts(e *expr.Expr, fn func(*expr.Expr)) {
	if e.W == 1 && e.Kind == expr.KBin && e.Op == expr.OpAnd {
		conjuncts(e.A, fn)
		conjuncts(e.B, fn)
		return
	}
	fn(e)
}

// lenBound returns the least L for which some precondition states
// plen ≤ L, and whether there is one.
func lenBound(pre []*expr.Expr, plen *expr.Expr) (uint64, bool) {
	var l uint64
	found := false
	for _, c := range pre {
		if c.Kind != expr.KBin || c.Op != expr.OpUle || c.A != plen {
			continue
		}
		if v, ok := c.B.IsConst(); ok && (!found || v.U < l) {
			l, found = v.U, true
		}
	}
	return l, found
}

// addWindow records that bytes [lo, hi) of base are in bounds, merging
// the windows of base it overlaps or touches.
func (s *pathState) addWindow(base *expr.Expr, lo, hi uint64) {
	kept := s.windows[:0]
	for _, w := range s.windows {
		if w.base == base && w.lo <= hi && lo <= w.hi {
			lo, hi = min(lo, w.lo), max(hi, w.hi)
			continue
		}
		kept = append(kept, w)
	}
	s.windows = append(kept, window{base: base, lo: lo, hi: hi})
}

// provesInBounds reports whether the path's windows and end facts prove
// bytes [k, k+n) of base in bounds (the rule at the top of this file).
// maxLen is the run's bound L on the packet length, used only when
// bounded.
func (s *pathState) provesInBounds(base *expr.Expr, k, n, maxLen uint64, bounded bool) bool {
	end := k + n
	var lo uint64
	hasLo := false
	h, hasH := uint64(0), false
	for _, w := range s.windows {
		if w.base != base {
			continue
		}
		if w.lo <= k {
			if end <= w.hi {
				return true
			}
			if !hasLo || w.lo > lo {
				lo, hasLo = w.lo, true
			}
		}
		if w.hi >= end && (!hasH || w.hi < h) {
			h, hasH = w.hi, true
		}
	}
	if !bounded || !hasLo {
		return false
	}
	for _, c := range s.conds {
		conjuncts(c, func(f *expr.Expr) {
			if f.Kind != expr.KBin || f.Op != expr.OpUle || f.B != s.plen {
				return
			}
			if b, fh := splitOffset(f.A); b == base && fh >= end && (!hasH || fh < h) {
				h, hasH = fh, true
			}
		})
	}
	return hasH && maxLen+(h-lo) < 1<<32
}
