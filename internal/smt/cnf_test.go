package smt

import (
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
	// differ, but the adder itself must not be rebuilt — variable growth
	// stays far below a fresh 16-bit adder (~5 gates/bit).
	grow := b.sat.NumVars()
	b.blast(expr.Eq(sum, expr.Const(16, 77)))
	if added := b.sat.NumVars() - grow; added > 40 {
		t.Fatalf("blasting second comparison over shared adder added %d vars", added)
	}
}

// cnfCeiling is one benchmark expression with recorded size ceilings.
// The ceilings are ~25%% above the sizes measured when the structural
// gate cache landed; a regression that re-expands shared structure
// (lost canonicalization, memo misses, encoding blow-ups) trips them.
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
			maxVars:    320,
			maxClauses: 800,
		},
		{
			name: "parser-bound",
			// The CheckIPHeader shape: header-length scaling plus a bound
			// check against a length variable.
			build: func() *expr.Expr {
				ihl := expr.ZExt(expr.BvAnd(b8, expr.Const(8, 15)), 32)
				return expr.Ule(expr.Add(expr.Mul(ihl, expr.Const(32, 4)), expr.Const(32, 14)), y32)
			},
			maxVars:    120,
			maxClauses: 220,
		},
		{
			name: "mux-tree",
			build: func() *expr.Expr {
				c1 := expr.Eq(b8, expr.Const(8, 1))
				c2 := expr.Ult(b8, expr.Const(8, 40))
				v := expr.Ite(c1, x32, expr.Ite(c2, y32, expr.Add(x32, y32)))
				return expr.Ult(v, expr.Const(32, 1<<20))
			},
			maxVars:    560,
			maxClauses: 1500,
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
			maxVars:    160,
			maxClauses: 400,
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
