package smt

import (
	"slices"
	"testing"

	"vsd/internal/expr"
)

// TestGateCacheHitIdentity verifies the structural gate cache: building
// the same gate twice — directly or through blasting structurally equal
// subterms — must return identical literals without allocating new SAT
// variables.
func TestGateCacheHitIdentity(t *testing.T) {
	b := newBlaster()
	defer b.release()
	x := b.fresh()
	y := b.fresh()

	and1 := b.mkAnd(x, y)
	mid := b.sat.NumVars()
	and2 := b.mkAnd(x, y)
	and3 := b.mkAnd(y, x) // commuted operands share the canonical key
	if and1 != and2 || and1 != and3 {
		t.Fatalf("mkAnd not hash-consed: %v %v %v", and1, and2, and3)
	}
	if b.sat.NumVars() != mid {
		t.Fatalf("cached mkAnd allocated variables: %d -> %d", mid, b.sat.NumVars())
	}

	xor1 := b.mkXor(x, y)
	mid = b.sat.NumVars()
	if got := b.mkXor(y, x); got != xor1 {
		t.Fatalf("commuted mkXor not cached: %v vs %v", got, xor1)
	}
	// Complemented operands fold onto the same gate with an output flip.
	if got := b.mkXor(x.Flip(), y); got != xor1.Flip() {
		t.Fatalf("complemented mkXor not normalized: %v vs %v", got, xor1.Flip())
	}
	if got := b.mkXor(x.Flip(), y.Flip()); got != xor1 {
		t.Fatalf("doubly-complemented mkXor not normalized: %v vs %v", got, xor1)
	}
	if b.sat.NumVars() != mid {
		t.Fatalf("cached mkXor allocated variables: %d -> %d", mid, b.sat.NumVars())
	}
	if b.gateHits == 0 {
		t.Fatal("gate cache recorded no hits")
	}
}

// TestBlastMemoIdentity verifies that blasting the same (interned)
// subterm twice returns the identical literal vector, and that a second
// expression containing the shared subterm adds no gates for it.
func TestBlastMemoIdentity(t *testing.T) {
	b := newBlaster()
	defer b.release()
	x := expr.Var("x", 16)
	y := expr.Var("y", 16)
	sum := expr.Add(x, y)

	bits1 := b.blast(sum)
	vars := b.sat.NumVars()
	bits2 := b.blast(sum)
	if b.sat.NumVars() != vars {
		t.Fatalf("re-blasting interned subterm allocated variables: %d -> %d", vars, b.sat.NumVars())
	}
	for i := range bits1 {
		if bits1[i] != bits2[i] {
			t.Fatalf("bit %d differs across blasts: %v vs %v", i, bits1[i], bits2[i])
		}
	}
	// A new expression over the same subterm reuses its literals.
	cmp := expr.Ult(sum, expr.Const(16, 500))
	b.blast(cmp)
	// Another comparison over the same sum: the eqBits/ultBits chains
	// differ, but the adder itself must not be rebuilt — the equality
	// ladder against a constant is at most 15 ANDs, and a fresh 16-bit
	// adder would add two gates per bit more.
	grow := b.sat.NumVars()
	b.blast(expr.Eq(sum, expr.Const(16, 77)))
	if added := b.sat.NumVars() - grow; added > 16 {
		t.Fatalf("blasting second comparison over shared adder added %d vars", added)
	}
}

// cnfCeiling is one benchmark expression with recorded size ceilings.
// The ceilings are the exact sizes the encoding emits (blasting is
// deterministic) and may only go down; a regression that re-expands
// shared structure (lost canonicalization, memo misses, encoding
// blow-ups) trips them.
type cnfCeiling struct {
	name       string
	build      func() *expr.Expr
	maxVars    int
	maxClauses int64
}

func cnfCeilings() []cnfCeiling {
	x32 := expr.Var("x", 32)
	y32 := expr.Var("y", 32)
	b8 := expr.Var("b", 8)
	return []cnfCeiling{
		{
			name:       "add-eq",
			build:      func() *expr.Expr { return expr.Eq(expr.Add(x32, y32), expr.Const(32, 0xDEADBEEF)) },
			maxVars:    160,
			maxClauses: 536,
		},
		{
			name: "parser-bound",
			// The CheckIPHeader shape: header-length scaling plus a bound
			// check against a length variable.
			build: func() *expr.Expr {
				ihl := expr.ZExt(expr.BvAnd(b8, expr.Const(8, 15)), 32)
				return expr.Ule(expr.Add(expr.Mul(ihl, expr.Const(32, 4)), expr.Const(32, 14)), y32)
			},
			maxVars:    77,
			maxClauses: 128,
		},
		{
			name: "mux-tree",
			build: func() *expr.Expr {
				c1 := expr.Eq(b8, expr.Const(8, 1))
				c2 := expr.Ult(b8, expr.Const(8, 40))
				v := expr.Ite(c1, x32, expr.Ite(c2, y32, expr.Add(x32, y32)))
				return expr.Ult(v, expr.Const(32, 1<<20))
			},
			maxVars:    287,
			maxClauses: 893,
		},
		{
			name: "shared-checksum-words",
			// Two 16-bit words folded into a sum twice — the second use
			// must come from the memo/gate cache, not a fresh adder.
			build: func() *expr.Expr {
				w1 := expr.Extract(x32, 0, 16)
				w2 := expr.Extract(x32, 16, 16)
				s := expr.Add(expr.ZExt(w1, 32), expr.ZExt(w2, 32))
				return expr.And(
					expr.Ult(s, expr.Const(32, 1<<17)),
					expr.Ne(s, expr.Const(32, 0xFFFF)),
				)
			},
			maxVars:    81,
			maxClauses: 267,
		},
	}
}

// TestCNFSizeCeilings blasts fixed benchmark expressions and asserts the
// emitted variable and clause counts stay under the recorded ceilings.
func TestCNFSizeCeilings(t *testing.T) {
	for _, c := range cnfCeilings() {
		t.Run(c.name, func(t *testing.T) {
			b := newBlaster()
			defer b.release()
			b.assertTrue(c.build())
			vars := b.sat.NumVars()
			clauses := b.sat.Counters().ClausesAdded
			t.Logf("%s: %d vars, %d clauses, %d gate-cache hits", c.name, vars, clauses, b.gateHits)
			if vars > c.maxVars {
				t.Errorf("%s: %d vars exceeds ceiling %d", c.name, vars, c.maxVars)
			}
			if clauses > c.maxClauses {
				t.Errorf("%s: %d clauses exceeds ceiling %d", c.name, clauses, c.maxClauses)
			}
		})
	}
}

// TestThreeInputGatesExhaustive checks MAJ and XOR3 against their
// semantics over every operand triple drawn from three inputs, their
// complements and both constants — so every operand sign, constant
// operands and repeated or complementary operands: under each input
// assignment the instance must be satisfiable and force the gate's
// output to the majority (parity) of its operands. A triple with a
// constant or a repeated variable must reduce to two-input gates.
func TestThreeInputGatesExhaustive(t *testing.T) {
	b := newBlaster()
	defer b.release()
	in := []Lit{b.fresh(), b.fresh(), b.fresh()}
	pool := []Lit{b.tru, b.fls()}
	for _, l := range in {
		pool = append(pool, l, l.Flip())
	}
	value := func(l Lit, asn int) bool {
		if v, ok := b.isConst(l); ok {
			return v
		}
		for i, x := range in {
			if l.Var() == x.Var() {
				return (asn>>i&1 == 1) != l.Neg()
			}
		}
		t.Fatalf("literal %v is not an operand", l)
		return false
	}
	type gate struct {
		name string
		mk   func(x, y, z Lit) Lit
		sem  func(x, y, z bool) bool
	}
	gates := []gate{
		{"maj", b.mkMaj, func(x, y, z bool) bool { return x && y || x && z || y && z }},
		{"xor3", b.mkXor3, func(x, y, z bool) bool { return x != y != z }},
	}
	for _, g := range gates {
		for _, x := range pool {
			for _, y := range pool {
				for _, z := range pool {
					threeInputs := countThreeInputGates(b)
					o := g.mk(x, y, z)
					// Variable 0 is the constant, so distinct variables
					// other than it are three proper inputs.
					inputs := map[int32]bool{x.Var(): true, y.Var(): true, z.Var(): true, b.tru.Var(): false}
					if len(inputs) < 4 && countThreeInputGates(b) != threeInputs {
						t.Errorf("%s(%v, %v, %v) built a three-input gate", g.name, x, y, z)
					}
					for asn := 0; asn < 8; asn++ {
						assume := make([]Lit, len(in))
						for i, l := range in {
							assume[i] = MkLit(l.Var(), asn>>i&1 == 0)
						}
						want := g.sem(value(x, asn), value(y, asn), value(z, asn))
						wantLit := o
						if !want {
							wantLit = o.Flip()
						}
						if r := b.sat.Solve(append(assume, wantLit)...); r != SatSat {
							t.Fatalf("%s(%v, %v, %v) under %03b: output %v refuted (%v)", g.name, x, y, z, asn, want, r)
						}
						if r := b.sat.Solve(append(assume, wantLit.Flip())...); r != SatUnsat {
							t.Fatalf("%s(%v, %v, %v) under %03b: output %v not forced (%v)", g.name, x, y, z, asn, want, r)
						}
					}
				}
			}
		}
	}
}

func countThreeInputGates(b *blaster) int {
	n := 0
	for _, f := range b.fanin {
		if f.z != litNone {
			n++
		}
	}
	return n
}

// TestThreeInputGateCache checks the sizes and the canonical keys of the
// three-input gates: MAJ is one variable and six clauses and is shared
// across operand orders; XOR3 is one variable and eight clauses and is
// shared across operand orders and signs, a complement flipping the
// output.
func TestThreeInputGateCache(t *testing.T) {
	b := newBlaster()
	defer b.release()
	x, y, z := b.fresh(), b.fresh(), b.fresh()
	vars, clauses := b.sat.NumVars(), b.sat.Counters().ClausesAdded
	maj := b.mkMaj(x, y, z)
	if dv, dc := b.sat.NumVars()-vars, b.sat.Counters().ClausesAdded-clauses; dv != 1 || dc != 6 {
		t.Errorf("mkMaj added %d vars and %d clauses, want 1 and 6", dv, dc)
	}
	vars, clauses = b.sat.NumVars(), b.sat.Counters().ClausesAdded
	par := b.mkXor3(x, y, z)
	if dv, dc := b.sat.NumVars()-vars, b.sat.Counters().ClausesAdded-clauses; dv != 1 || dc != 8 {
		t.Errorf("mkXor3 added %d vars and %d clauses, want 1 and 8", dv, dc)
	}
	vars, hits := b.sat.NumVars(), b.gateHits
	if got := b.mkMaj(z, x, y); got != maj {
		t.Errorf("permuted mkMaj not cached: %v vs %v", got, maj)
	}
	if got := b.mkXor3(y, z, x); got != par {
		t.Errorf("permuted mkXor3 not cached: %v vs %v", got, par)
	}
	if got := b.mkXor3(y.Flip(), z, x); got != par.Flip() {
		t.Errorf("complemented mkXor3 not normalized: %v vs %v", got, par.Flip())
	}
	if got := b.mkXor3(y.Flip(), z.Flip(), x); got != par {
		t.Errorf("doubly complemented mkXor3 not normalized: %v vs %v", got, par)
	}
	if b.sat.NumVars() != vars || b.gateHits != hits+4 {
		t.Errorf("cached gates: %d new vars, %d hits, want 0 and 4", b.sat.NumVars()-vars, b.gateHits-hits)
	}
	if got := b.mkMaj(x.Flip(), y, z); got == maj || got == maj.Flip() {
		t.Errorf("mkMaj(¬x, y, z) shares the gate of mkMaj(x, y, z)")
	}
}

// TestAdderConeReachesAllOperands checks that the cone of an adder's
// outputs is closed under three-input fan-in: the sum and the carry of
// a full adder reach both operand bits and the incoming carry, and the
// top bit of a ripple-carry sum reaches every operand bit below it.
func TestAdderConeReachesAllOperands(t *testing.T) {
	b := newBlaster()
	defer b.release()
	x, y, c := b.fresh(), b.fresh(), b.fresh()
	for _, out := range []Lit{b.mkXor3(x, y, c), b.mkMaj(x, y, c)} {
		vars, _ := b.cone([]Lit{out})
		for _, l := range []Lit{x, y, c} {
			if !slices.Contains(vars, l.Var()) {
				t.Errorf("cone of %v misses operand %v: %v", out, l, vars)
			}
		}
	}
	xs, ys := expr.Var("x", 4), expr.Var("y", 4)
	sum := b.blast(expr.Add(xs, ys))
	vars, _ := b.cone(sum[3:])
	for _, l := range append(b.varLits("x", 4), b.varLits("y", 4)...) {
		if !slices.Contains(vars, l.Var()) {
			t.Errorf("cone of the top sum bit misses operand bit %v", l)
		}
	}
}
