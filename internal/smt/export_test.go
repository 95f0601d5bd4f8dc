package smt

import "vsd/internal/expr"

// SetOrderAudit installs f to see the atoms of every query the order
// pass refutes, and returns a function that removes it. Not safe to call
// while queries are in flight.
func SetOrderAudit(f func(atoms []*expr.Expr)) (restore func()) {
	prev := orderAudit
	orderAudit = f
	return func() { orderAudit = prev }
}

// CoreVerdict decides the conjunction on the SAT core alone: the
// one-shot solver, its array axioms eager, with the word-level passes
// off.
func CoreVerdict(atoms []*expr.Expr) Result {
	r, _ := New(Options{DisableIntervals: true}).Check(atoms)
	return r
}
