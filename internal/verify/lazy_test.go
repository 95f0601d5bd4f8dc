package verify

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"vsd/internal/expr"
	"vsd/internal/packet"
)

// lazyCorpus is the differential corpus of TestLazyEagerDifferential:
// submissions whose verdicts read composed formulas after the walk —
// crash witnesses of the two buggy twins, the NAT's and the counter's
// sequence and induction obligations, and a functional spec walked with
// no precondition, so it replays from the certificate too.
func lazyCorpus(t *testing.T) []BatchItem {
	const key = 0
	counterMonotone := SeqSpec{Name: "count-monotone", Steps: 2, Post: func(si *SeqInfo) *expr.Expr {
		if si.Steps() < 2 {
			return nil
		}
		k := expr.Const(8, key)
		return expr.Ule(si.StateAfter(0, "cnt.count", k), si.StateAfter(1, "cnt.count", k))
	}}
	countBelow2 := StateInvariant{Name: "count-below-2", Pred: func(sv *StateView) *expr.Expr {
		return expr.Ult(sv.Read("cnt.count", expr.Const(8, key)), expr.Const(32, 2))
	}}
	natStable := SeqSpec{Name: "nat-one-source", Steps: 2, Post: func(si *SeqInfo) *expr.Expr {
		if si.Steps() < 2 || !si.Emitted(0) || !si.Emitted(1) {
			return nil
		}
		return expr.Eq(si.Out(0, 12, 4), si.Out(1, 12, 4))
	}}
	ttlDecrement := FuncSpec{Name: "ttl-decrement", Post: func(pi *PathInfo) *expr.Expr {
		if !pi.Emitted() || pi.EgressElem() != "ttl" {
			return nil
		}
		return expr.Eq(pi.Out(8, 1), expr.Sub(pi.In(8, 1), expr.Const(8, 1)))
	}}
	ttlKept := FuncSpec{Name: "ttl-kept", Post: func(pi *PathInfo) *expr.Expr {
		if !pi.Emitted() {
			return nil
		}
		return expr.Eq(pi.Out(8, 1), pi.In(8, 1))
	}}
	var items []BatchItem
	for _, tc := range certCorpus {
		it := BatchItem{Name: tc.name, Pipeline: parsePipeline(t, tc.src)}
		switch tc.name {
		case "buggy-reader":
		case "buggy-counter":
			it.SeqSpecs = []SeqSpec{counterMonotone}
			it.Invariants = []StateInvariant{countBelow2}
		case "nat":
			it.SeqSpecs = []SeqSpec{natStable}
		case "strip-check-ttl":
			it.Specs = []FuncSpec{ttlDecrement, ttlKept}
		default:
			continue
		}
		items = append(items, it)
	}
	return items
}

// thinCertificates drops every other entry of each kind, in key order,
// of the certificates v's walks used from store: a later walk replays
// half its stitches and solves the rest, so walkers build replayed
// states to decide their misses while others read them, and the
// crash-freedom induction re-solves half its sequence extensions on
// top of unbuilt replayed prefixes. (A walk the SAT core never helped
// saved no certificate to thin.)
func thinCertificates(v *Verifier, store *DiskStore) {
	for key := range v.certs {
		c, ok := store.LoadCertificate(key)
		if !ok {
			continue
		}
		for _, m := range c.entries {
			for i, k := range sortedKeys(m) {
				if i%2 == 1 {
					delete(m, k)
				}
			}
		}
		store.SaveCertificate(key, c)
	}
}

// TestLazyEagerDifferential holds the lazy walk (DESIGN.md §7.5) to the
// eager one, which builds every composed state at its stitch. Cold,
// warm, and warm from a thinned certificate, the verdict JSON is
// byte-identical, witness packets and outputs included, both walks
// decide the same stitches the same way, the induction explores the
// same sequences, and a warm lazy walk builds fewer states. `make race` runs it at -cpu 1,2,4, where walkers share
// the states they build.
func TestLazyEagerDifferential(t *testing.T) {
	runs := []string{"cold", "warm", "thinned"}
	for _, it := range lazyCorpus(t) {
		t.Run(it.Name, func(t *testing.T) {
			var want string
			var stats [2][3]Stats // [eager][run]
			for eager := 0; eager < 2; eager++ {
				store, err := NewDiskStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				for run := range runs {
					v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
					v.eagerBuild = eager == 1
					blob, err := json.Marshal(v.Batch([]BatchItem{it}))
					if err != nil {
						t.Fatal(err)
					}
					if want == "" {
						want = string(blob)
					} else if string(blob) != want {
						t.Errorf("eager=%d %s verdict differs:\nwant: %s\ngot:  %s", eager, runs[run], want, blob)
					}
					stats[eager][run] = v.Stats()
					if runs[run] == "warm" {
						thinCertificates(v, store)
					}
				}
			}
			for run := range runs {
				l, e := stats[0][run], stats[1][run]
				if l.ComposedPaths != e.ComposedPaths || l.ComposedInfeasible != e.ComposedInfeasible ||
					l.StitchesReplayed != e.StitchesReplayed || l.SolverQueries != e.SolverQueries {
					t.Errorf("%s: lazy walk paths/infeasible/replayed/queries %d/%d/%d/%d, eager %d/%d/%d/%d", runs[run],
						l.ComposedPaths, l.ComposedInfeasible, l.StitchesReplayed, l.SolverQueries,
						e.ComposedPaths, e.ComposedInfeasible, e.StitchesReplayed, e.SolverQueries)
				}
			}
			// The induction explores the same sequences whatever it replayed,
			// and from the thinned certificate it replays part and solves part.
			for eager := range stats {
				for run, st := range stats[eager] {
					if c := stats[0][0]; st.SeqSequences != c.SeqSequences || st.SeqInfeasible != c.SeqInfeasible {
						t.Errorf("eager=%d %s: %d sequences (%d infeasible), cold %d (%d)", eager, runs[run],
							st.SeqSequences, st.SeqInfeasible, c.SeqSequences, c.SeqInfeasible)
					}
				}
			}
			if cold, warm, thin := stats[0][0], stats[0][1], stats[0][2]; pipelineHasState(it.Pipeline) &&
				!(warm.SolverQueries < thin.SolverQueries && thin.SolverQueries < cold.SolverQueries) {
				t.Errorf("thinned run solved %d queries, want a partial re-solve between warm %d and cold %d",
					thin.SolverQueries, warm.SolverQueries, cold.SolverQueries)
			}
			lazy, eager := stats[0][1], stats[1][1]
			if lazy.StitchesReplayed == 0 {
				t.Error("warm run replayed no stitch")
			}
			if lazy.StitchesBuilt >= eager.StitchesBuilt {
				t.Errorf("warm lazy walk built %d states, eager %d: laziness saved nothing", lazy.StitchesBuilt, eager.StitchesBuilt)
			}
		})
	}
}

// TestConcurrentBuildsShareStates: the terminal states of a replayed
// walk come back unbuilt and share their unbuilt ancestors. Built from
// four goroutines at once, in different orders, each state is built
// exactly once and gets the formulas one goroutine builds alone.
func TestConcurrentBuildsShareStates(t *testing.T) {
	opts := Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 1, Store: NewMemStore()}
	p := parsePipeline(t, filterConfig)
	if _, err := New(opts).CrashFreedom(p); err != nil {
		t.Fatal(err)
	}
	replay := func() (*Verifier, []*composed) {
		v := New(opts)
		var ends []*composed
		if _, _, err := v.walk(p, nil, nil, func(end pathEnd) error {
			ends = append(ends, end.state)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n := v.Stats().StitchesBuilt; n != 0 {
			t.Fatalf("setup: the replayed walk built %d states", n)
		}
		return v, ends
	}
	render := func(st *composed) string {
		f := st.formulas()
		s := fmt.Sprint(f.conds, expr.SelectWide(f.pkt, expr.Const(32, 0), 8), len(f.reads), len(f.writes))
		for _, slot := range sortedMetaSlots(p) {
			s += " " + f.meta[slot].String()
		}
		return s
	}
	seqV, seqEnds := replay()
	want := make([]string, len(seqEnds))
	for i, st := range seqEnds {
		want[i] = render(st)
	}
	parV, parEnds := replay()
	got := make([][]string, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]string, len(parEnds))
			for k := range parEnds {
				i := (k + g*len(parEnds)/len(got)) % len(parEnds)
				got[g][i] = render(parEnds[i])
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g], want) {
			t.Errorf("goroutine %d built other formulas than a lone build", g)
		}
	}
	if s, c := seqV.Stats().StitchesBuilt, parV.Stats().StitchesBuilt; s == 0 || c != s {
		t.Errorf("concurrent builds: %d states built, a lone build %d", c, s)
	}
}
