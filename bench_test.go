// Package vsd's root benchmark harness regenerates every result of the
// paper's evaluation. One benchmark per experiment (see DESIGN.md §4 and
// EXPERIMENTS.md); custom metrics carry the quantities the paper
// reports (path counts, segment counts, instruction bounds) alongside
// wall time.
//
// Run everything:
//
//	go test -bench=. -benchmem -benchtime=1x
package vsd

import (
	"fmt"
	"testing"

	"vsd/internal/dataplane"
	"vsd/internal/elements"
	"vsd/internal/experiments"
	"vsd/internal/expr"
	"vsd/internal/packet"
	"vsd/internal/smt"
	"vsd/internal/symbex"
	"vsd/internal/verify"
	"vsd/internal/workload"
)

// BenchmarkF1ToyProgram symbolically executes the paper's Fig. 1 toy
// program: three feasible paths, one crashing.
func BenchmarkF1ToyProgram(b *testing.B) {
	prog, err := elements.ToyE2("")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eng := symbex.New(smt.New(smt.Options{}), symbex.Options{})
		segs, err := eng.Run(prog, symbex.DefaultInput(1, 64))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(segs)), "segments")
		}
	}
}

// BenchmarkF2ToyPipeline verifies the Fig. 2 pipeline end to end:
// suspect found, composed crash paths discharged, crash freedom proved.
func BenchmarkF2ToyPipeline(b *testing.B) {
	src := `
		src :: InfiniteSource;
		src -> ToyE1 -> ToyE2 -> Discard;`
	for i := 0; i < b.N; i++ {
		p := experiments.MustParse(src)
		v := verify.New(verify.Options{MinLen: 1, MaxLen: 64})
		rep, err := v.CrashFreedom(p)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Verified {
			b.Fatal("Fig. 2 pipeline must verify")
		}
		if i == 0 {
			st := v.Stats()
			b.ReportMetric(float64(st.Suspects), "suspects")
			b.ReportMetric(float64(st.ComposedInfeasible), "discharged")
		}
	}
}

// BenchmarkE1CrashFreedomIPRouter proves crash freedom for pipelines
// built from the IP-router element set (paper: "any pipeline that
// consists of these elements will not crash for any input").
func BenchmarkE1CrashFreedomIPRouter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E1CrashFreedom(benchMaxLen, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Verified {
				b.Fatalf("%s did not verify", r.Pipeline)
			}
		}
		if i == 0 {
			b.ReportMetric(float64(len(rows)), "pipelines")
			var agg smt.Stats
			for _, r := range rows {
				agg.AssumptionSolves += r.Solver.AssumptionSolves
				agg.ClausesReused += r.Solver.ClausesReused
				agg.SessionsOpened += r.Solver.SessionsOpened
				agg.SatCalls += r.Solver.SatCalls
				agg.CNFVars += r.Solver.CNFVars
				agg.CNFClauses += r.Solver.CNFClauses
				agg.GateCacheHits += r.Solver.GateCacheHits
				agg.MinimizedLits += r.Solver.MinimizedLits
				agg.BinaryProps += r.Solver.BinaryProps
				agg.GlueSum += r.Solver.GlueSum
				agg.LearntClauses += r.Solver.LearntClauses
			}
			b.ReportMetric(float64(agg.AssumptionSolves), "assumption-solves")
			b.ReportMetric(float64(agg.ClausesReused), "reused-clauses")
			b.ReportMetric(float64(agg.SessionsOpened), "sessions")
			// CNF shrink per query and SAT-core heuristic counters (the
			// PR-2 minimization stack).
			if agg.SatCalls > 0 {
				b.ReportMetric(float64(agg.CNFVars)/float64(agg.SatCalls), "cnf-vars/query")
				b.ReportMetric(float64(agg.CNFClauses)/float64(agg.SatCalls), "cnf-clauses/query")
			}
			b.ReportMetric(float64(agg.GateCacheHits), "gate-cache-hits")
			b.ReportMetric(float64(agg.MinimizedLits), "minimized-lits")
			b.ReportMetric(float64(agg.BinaryProps), "binary-props")
			if agg.LearntClauses > 0 {
				b.ReportMetric(float64(agg.GlueSum)/float64(agg.LearntClauses), "avg-glue")
			}
		}
	}
}

// benchMaxLen bounds the symbolic packet length for the benchmarks: it
// admits IP options (IHL up to 7 words at 48, more at larger values),
// which is what drives verification cost. EXPERIMENTS.md reports larger
// sweeps.
const benchMaxLen = 48

// BenchmarkE2InstructionBound computes the per-packet instruction bound
// of the full router and the witness packet attaining it (paper: "up to
// about 3600 instructions per packet").
func BenchmarkE2InstructionBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E2InstructionBound(benchMaxLen, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.MaxSteps), "bound-stmts")
			b.ReportMetric(float64(res.StaticBound), "static-max")
			b.ReportMetric(float64(res.WitnessSteps), "witness-stmts")
		}
	}
}

// BenchmarkE3ComposedVsMonolithic compares compositional verification
// against whole-pipeline symbolic execution over growing chains (paper:
// 18 minutes vs not finishing in 12 hours). The monolithic side runs
// under a path budget; the "x" suffix benchmarks report its blow-up.
func BenchmarkE3ComposedVsMonolithic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E3ComposedVsMonolithic(4, 5, 1<<14, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(float64(last.ComposedTime.Microseconds()), "composed-us")
			b.ReportMetric(float64(last.MonoTime.Microseconds()), "mono-us")
			b.ReportMetric(last.Speedup, "speedup")
			b.ReportMetric(float64(last.Solver.AssumptionSolves), "assumption-solves")
			b.ReportMetric(float64(last.Solver.ClausesReused), "reused-clauses")
		}
	}
}

// BenchmarkA1PathScaling measures the §3 analysis directly: composed
// work ~ k·2^n, monolithic paths ~ 2^(k·n).
func BenchmarkA1PathScaling(b *testing.B) {
	for k := 1; k <= 4; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.A1PathScaling(3, k, 0)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					last := rows[len(rows)-1]
					b.ReportMetric(float64(last.ComposedSegs), "composed-segs")
					b.ReportMetric(float64(last.MonoPaths), "mono-paths")
				}
			}
		})
	}
}

// BenchmarkA2LoopDecomposition compares loop strategies on the IP
// options element (paper: unrolled ≈ millions of segments/months,
// decomposed ≈ minutes).
func BenchmarkA2LoopDecomposition(b *testing.B) {
	modes := []struct {
		name string
		mode symbex.LoopMode
	}{
		{"merge", symbex.LoopMerge},
		{"unroll-budgeted", symbex.LoopUnroll},
	}
	prog, err := elements.IPOptions("")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := symbex.New(smt.New(smt.Options{}), symbex.Options{
					LoopMode: m.mode,
					// Budgets so the unroll baseline terminates quickly:
					// its blow-up happens between segment emissions (in
					// feasibility checks over the multiplying paths), so
					// the statement budget is the effective bound.
					MaxSegments: 1 << 9,
					MaxSteps:    1 << 13,
				})
				segs, err := eng.Run(prog, symbex.DefaultInput(14, benchMaxLen))
				if err != nil && m.mode != symbex.LoopUnroll {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(segs)), "segments")
					b.ReportMetric(float64(eng.Stats().StepsSymbex), "sym-stmts")
				}
			}
		})
	}
}

// BenchmarkA3StatefulElements verifies the stateful pipelines (NetFlow,
// NAT, counters) through the data-structure model.
func BenchmarkA3StatefulElements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.A3StatefulElements(benchMaxLen, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			verified := 0
			for _, r := range rows {
				if r.Verified {
					verified++
				}
			}
			b.ReportMetric(float64(verified), "verified")
			b.ReportMetric(float64(len(rows)-verified), "rejected")
		}
	}
}

// BenchmarkAblationIntervals measures the word-level pre-passes (the
// interval analysis and the order pass): the same query batch with and
// without them.
func BenchmarkAblationIntervals(b *testing.B) {
	prog, err := elements.CheckIPHeader("NOCHECKSUM")
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		name := "intervals-on"
		if disable {
			name = "intervals-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solver := smt.New(smt.Options{DisableIntervals: disable})
				eng := symbex.New(solver, symbex.Options{})
				if _, err := eng.Run(prog, symbex.DefaultInput(14, benchMaxLen)); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					st := solver.Stats()
					b.ReportMetric(float64(st.IntervalDecided), "interval-decided")
					b.ReportMetric(float64(st.OrderDecided), "order-decided")
					b.ReportMetric(float64(st.SatCalls), "sat-calls")
				}
			}
		})
	}
}

// BenchmarkAblationIncrementalSAT replays a stitching-shaped query log —
// monotonically growing constraint prefixes with a fresh branch atom per
// step, exactly the pattern segment composition produces — one shot per
// query (Solver.CheckFresh: a new instance, no verdict cache) and
// through one IncrementalSession. The custom metrics expose what the
// session reuses: assumption solves instead of CNF rebuilds, and learnt
// clauses carried across queries.
func BenchmarkAblationIncrementalSAT(b *testing.B) {
	queries := stitchingQueryLog(40)
	b.Run("oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver := smt.New(smt.Options{DisableIntervals: true})
			for _, q := range queries {
				solver.CheckFresh(q)
			}
			if i == 0 {
				st := solver.Stats()
				b.ReportMetric(float64(st.SatCalls), "sat-calls")
				b.ReportMetric(float64(st.SatConflicts), "conflicts")
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver := smt.New(smt.Options{DisableIntervals: true})
			sess := solver.NewSession()
			for _, q := range queries {
				sess.Check(q)
			}
			if i == 0 {
				st := solver.Stats()
				b.ReportMetric(float64(st.AssumptionSolves), "assumption-solves")
				b.ReportMetric(float64(st.ClausesReused), "reused-clauses")
				b.ReportMetric(float64(st.SessionsOpened), "sessions")
				b.ReportMetric(float64(st.SatConflicts), "conflicts")
			}
		}
	})
}

// stitchingQueryLog builds n queries over a shared symbolic packet: each
// extends a common prefix by one parser-style byte constraint and adds a
// query-specific branch atom (so the verdict cache cannot short-circuit
// the comparison).
func stitchingQueryLog(n int) [][]*expr.Expr {
	pkt := expr.BaseArray(symbex.PktArrayName)
	var prefix []*expr.Expr
	queries := make([][]*expr.Expr, 0, n)
	for i := 0; i < n; i++ {
		byteI := expr.Select(pkt, expr.Const(32, uint64(i)))
		prefix = append(prefix, expr.Ult(byteI, expr.Const(8, uint64(200-(i%64)))))
		sum := expr.Add(byteI, expr.Select(pkt, expr.Const(32, uint64((i+1)%16))))
		branch := expr.Eq(sum, expr.Const(8, uint64(3*i%251)))
		q := append(append([]*expr.Expr{}, prefix...), branch)
		queries = append(queries, q)
	}
	return queries
}

// BenchmarkAblationParallelism verifies the full router with a single
// walker versus one per core. On multicore hosts the gap is the point;
// on single-core hosts the two coincide (the pool degrades to a DFS).
func BenchmarkAblationParallelism(b *testing.B) {
	for _, par := range []int{1, 0} {
		name := fmt.Sprintf("parallel=%d", par)
		if par == 0 {
			name = "parallel=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := experiments.MustParse(experiments.IPRouterConfig(false))
				v := verify.New(verify.Options{
					MinLen: packet.MinFrame, MaxLen: benchMaxLen, Parallelism: par,
				})
				rep, err := v.CrashFreedom(p)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Verified {
					b.Fatal("router must verify")
				}
				if i == 0 {
					st := v.Stats()
					b.ReportMetric(float64(st.Solver.AssumptionSolves), "assumption-solves")
					b.ReportMetric(float64(st.Solver.SessionsOpened), "sessions")
				}
			}
		})
	}
}

// BenchmarkDataplaneForwarding measures the concrete runtime on the
// full router (checksum verification on), for scale context:
// verification happens offline, forwarding is the per-packet hot path.
func BenchmarkDataplaneForwarding(b *testing.B) {
	p := experiments.MustParse(experiments.IPRouterConfig(true))
	runner := dataplane.NewRunner(p)
	g := workload.New(workload.Spec{Seed: 99})
	pkts := g.Mix(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := pkts[i%len(pkts)].Clone()
		res := runner.Process(buf)
		if res.Crash != nil {
			b.Fatalf("verified router crashed: %v", res.Crash)
		}
	}
}
