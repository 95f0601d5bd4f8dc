package smt

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestExchangePublishImport covers the pool contract: glue filtering,
// order-insensitive dedup, cursor advancement, and the publisher-id
// filter (a solver never re-imports its own publications).
func TestExchangePublishImport(t *testing.T) {
	e := NewClauseExchange(2, 8)
	const fp = uint64(0xfeed)
	a := MkLit(1, false)
	b := MkLit(2, true)
	c := MkLit(3, false)
	if e.Publish(fp, []Lit{a, b}, 3, 1) {
		t.Fatal("clause above the glue cap must not publish")
	}
	if !e.Publish(fp, []Lit{a, b}, 2, 1) {
		t.Fatal("low-glue clause must publish")
	}
	if e.Publish(fp, []Lit{b, a}, 1, 2) {
		t.Fatal("permuted duplicate must dedup")
	}
	if !e.Publish(fp, []Lit{a, b, c}, 1, 2) {
		t.Fatal("distinct clause must publish")
	}
	// Publisher 1 sees only publisher 2's clause and vice versa.
	got, cur := e.ImportSince(fp, 0, 1)
	if len(got) != 1 || cur != 2 {
		t.Fatalf("owner 1 import = %d clauses, cursor %d; want 1, 2", len(got), cur)
	}
	if len(got[0]) != 3 {
		t.Fatalf("owner 1 imported its own clause")
	}
	got, cur = e.ImportSince(fp, 0, 2)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("owner 2 import = %v", got)
	}
	// Cursor semantics: nothing new since the last call.
	if got, _ := e.ImportSince(fp, cur, 2); len(got) != 0 {
		t.Fatalf("stale cursor re-delivered %d clauses", len(got))
	}
	if e.PoolSize(fp) != 2 {
		t.Fatalf("PoolSize = %d, want 2", e.PoolSize(fp))
	}
}

// TestExchangeFingerprintIsolation asserts the scoping invariant the
// whole design rests on: pools are keyed by CNF fingerprint, so solvers
// with different fingerprints can never exchange a single clause.
func TestExchangeFingerprintIsolation(t *testing.T) {
	e := NewClauseExchange(0, 0)
	lits := []Lit{MkLit(0, false), MkLit(1, true)}
	if !e.Publish(0x1111, lits, 1, 1) {
		t.Fatal("publish failed")
	}
	if got, _ := e.ImportSince(0x2222, 0, 2); len(got) != 0 {
		t.Fatalf("fingerprint 0x2222 imported %d clauses published under 0x1111", len(got))
	}
	if e.PoolSize(0x2222) != 0 {
		t.Fatal("foreign pool not empty")
	}
}

// TestExchangeSolversDifferentCNFs drives the isolation end to end: two
// solvers with different problem CNFs attached to one exchange must
// never import each other's learnt clauses, while two solvers with
// identical construction traces share them.
func TestExchangeSolversDifferentCNFs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	build := func(extra bool) *SatSolver {
		s := NewSatSolver()
		rr := rand.New(rand.NewSource(1234)) // identical construction trace
		for i := 0; i < 12; i++ {
			s.NewVar()
		}
		for _, cl := range randCNF(rr, 12) {
			s.AddClause(append([]Lit{}, cl...)...)
		}
		if extra {
			s.AddClause(MkLit(int32(r.Intn(12)), true), MkLit(int32(r.Intn(12)), false))
		}
		return s
	}
	same1, same2, diff := build(false), build(false), build(true)
	if same1.Fingerprint() != same2.Fingerprint() {
		t.Fatal("identical construction traces must fingerprint equal")
	}
	if same1.Fingerprint() == diff.Fingerprint() {
		t.Skip("extra clause collided; fingerprints equal by construction")
	}
	e := NewClauseExchange(0, 0)
	for _, s := range []*SatSolver{same1, same2, diff} {
		detach := e.attach(s, map[uint64]int{})
		s.Solve()
		detach()
	}
	if diff.cnt.ClausesImported != 0 {
		t.Fatalf("solver with a different CNF imported %d clauses", diff.cnt.ClausesImported)
	}
	if e.PoolSize(same1.Fingerprint()) > 0 && same2.cnt.ClausesImported == 0 {
		// same2 attached after same1 solved, so anything same1 published
		// was visible to it at attach time.
		t.Fatal("identical-fingerprint solver imported nothing despite a populated pool")
	}
}

// TestExchangeConcurrent hammers one exchange from many goroutines —
// publishers and importers interleaved over a handful of fingerprints —
// under `go test -race`. Each importer asserts it never receives its own
// publications and that every received clause was actually published
// under its fingerprint.
func TestExchangeConcurrent(t *testing.T) {
	e := NewClauseExchange(3, 1<<10)
	fps := []uint64{0xa, 0xb, 0xc}
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := uint32(w + 1)
			r := rand.New(rand.NewSource(int64(w)))
			cursors := map[uint64]int{}
			for i := 0; i < rounds; i++ {
				fp := fps[r.Intn(len(fps))]
				// Tag the clause with its fingerprint (literal width) so
				// cross-pool leaks are detectable, and with its owner.
				cl := []Lit{
					MkLit(int32(fp), false),
					MkLit(int32(owner)+16, r.Intn(2) == 1),
					MkLit(int32(r.Intn(1<<12))+64, true),
				}
				e.Publish(fp, cl, int32(1+r.Intn(4)), owner)
				got, next := e.ImportSince(fp, cursors[fp], owner)
				cursors[fp] = next
				for _, cl := range got {
					if cl[0] != MkLit(int32(fp), false) {
						t.Errorf("worker %d: clause from pool %#x tagged %v", w, fp, cl[0])
					}
					if cl[1].Var() == int32(owner)+16 {
						t.Errorf("worker %d: re-imported own clause", w)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, fp := range fps {
		total += e.PoolSize(fp)
	}
	if total == 0 {
		t.Fatal("nothing was shared")
	}
}

// TestExchangeRacingSolvers runs real portfolio races wired to one
// exchange under the race detector: concurrent clones publishing and
// importing through attach/detach while the race is cancelled mid-way
// by the winning seat.
func TestExchangeRacingSolvers(t *testing.T) {
	r := rand.New(rand.NewSource(1222))
	e := NewClauseExchange(0, 0)
	for trial := 0; trial < 30; trial++ {
		nv := 8 + r.Intn(8)
		cnf := randCNF(r, nv)
		s := NewSatSolver()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		dead := false
		for _, cl := range cnf {
			if !s.AddClause(append([]Lit{}, cl...)...) {
				dead = true
				break
			}
		}
		if dead {
			continue
		}
		want := bruteForceSatUnder(nv, cnf, nil)
		verdict, winner, _ := racePortfolio(s, s.everyVar(), nil, 4, -1, time.Time{}, e)
		if winner == nil {
			t.Fatalf("trial %d: no winner", trial)
		}
		if (verdict == SatSat) != want {
			t.Fatalf("trial %d: raced verdict %v, brute force %v", trial, verdict, want)
		}
	}
}
