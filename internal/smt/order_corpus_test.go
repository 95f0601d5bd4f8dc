package smt_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/expr"
	"vsd/internal/packet"
	"vsd/internal/smt"
	"vsd/internal/verify"
)

// TestOrderPassAgreesWithCoreOnCorpus cross-checks every refutation the
// order pass makes while the example corpus is certified at maxlen 48
// against the SAT core: each refuted query must be Unsat there too.
func TestOrderPassAgreesWithCoreOnCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "corpus", "*.click"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	var items []verify.BatchItem
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := click.Parse(elements.Default(), string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		items = append(items, verify.BatchItem{Name: filepath.Base(f), Pipeline: p})
	}
	var mu sync.Mutex
	var refuted [][]*expr.Expr
	restore := smt.SetOrderAudit(func(atoms []*expr.Expr) {
		mu.Lock()
		refuted = append(refuted, append([]*expr.Expr{}, atoms...))
		mu.Unlock()
	})
	verdicts, st, _ := verify.Batch(items, verify.Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 1})
	restore()
	for _, vd := range verdicts {
		if vd.Error != "" {
			t.Fatalf("%s: %s", vd.Name, vd.Error)
		}
	}
	if len(refuted) == 0 || int64(len(refuted)) != st.Solver.OrderDecided {
		t.Fatalf("the audit saw %d refutations, the solver counted %d; want the same, and some", len(refuted), st.Solver.OrderDecided)
	}
	for i, atoms := range refuted {
		if r := smt.CoreVerdict(atoms); r != smt.Unsat {
			t.Errorf("refutation %d (%d atoms): the SAT core answers %s", i, len(atoms), r)
		}
	}
	t.Logf("%d order-pass refutations, all Unsat on the SAT core", len(refuted))
}
