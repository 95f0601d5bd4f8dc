package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric of BENCHMARK.json. The smoke test keeps
// these tables and the file in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, so they are named by role; README.md says what each
// means per workload. Every workload has five parts — the pipeline
// classes of certify-*, the request classes of serve-mixed, the phases
// of forward — and each part's operation time is a metric of its own,
// so that a slowdown of one class or phase meets a bound and cannot hide
// in a mean over all five.
var endToEnd = []metricDef{
	{"op_typical_ms", "ms", "lower"},
	{"op_slow_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"part_a_ms", "ms", "lower"},
	{"part_b_ms", "ms", "lower"},
	{"part_c_ms", "ms", "lower"},
	{"part_d_ms", "ms", "lower"},
	{"part_e_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// partMetrics names the per-part metrics in part order.
var partMetrics = []string{"part_a_ms", "part_b_ms", "part_c_ms", "part_d_ms", "part_e_ms"}

// perLayer is the traced run's table: counts from the layers' public
// Stats() snapshots, times from the benchmark's own spans around their
// public calls. The prefix is the layer (a repo module).
var perLayer = []metricDef{
	{"click.parse_us", "us", "lower"},
	{"click.ir_stmts", "count", "lower"},
	{"ir.fingerprint_us", "us", "lower"},

	{"symbex.step1_s", "s", "lower"},
	{"symbex.loop_step1_s", "s", "lower"},
	{"symbex.engine_runs", "count", "lower"},
	{"symbex.segments", "count", "lower"},
	{"symbex.steps", "count", "lower"},
	{"symbex.solver_checks", "count", "lower"},
	{"symbex.forks_cut", "count", "higher"},

	{"expr.encode_us", "us", "lower"},
	{"expr.decode_us", "us", "lower"},
	{"expr.summary_bytes", "B", "lower"},

	{"store.load_us", "us", "lower"},
	{"store.save_us", "us", "lower"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"store.corrupt", "count", "lower"},
	{"store.bytes", "B", "lower"},

	{"smt.solve_busy_s", "s", "lower"},
	{"smt.solve_p50_us", "us", "lower"},
	{"smt.solve_p99_us", "us", "lower"},
	{"smt.queries", "count", "lower"},
	{"smt.sat_calls", "count", "lower"},
	{"smt.cache_hit_share", "share", "higher"},
	{"smt.conflicts", "count", "lower"},
	{"smt.propagations", "count", "lower"},
	{"smt.cnf_vars", "count", "lower"},
	{"smt.cnf_clauses", "count", "lower"},
	{"smt.unknowns", "count", "lower"},

	{"verify.crash_s", "s", "lower"},
	{"verify.bound_s", "s", "lower"},
	{"verify.induction_s", "s", "lower"},
	{"verify.composed_paths", "count", "lower"},
	{"verify.infeasible_share", "share", "lower"},
	{"verify.solver_queries", "count", "lower"},
	{"verify.summary_cache_hits", "count", "higher"},
	{"verify.unresolved", "count", "lower"},
	{"verify.stage_coverage_share", "share", "higher"},

	{"queue.enqueue_us", "us", "lower"},
	{"queue.journal_ms", "ms", "lower"},
	{"queue.wait_ms", "ms", "lower"},
	{"queue.process_ms", "ms", "lower"},
	{"queue.deduped", "count", "lower"},
	{"queue.overflows", "count", "lower"},
	{"queue.retries", "count", "lower"},

	{"serve.http_overhead_ms", "ms", "lower"},
	{"serve.resubmit_p50_ms", "ms", "lower"},
	{"serve.novel_light_p50_ms", "ms", "lower"},
	{"serve.novel_loop_p50_ms", "ms", "lower"},
	{"serve.buggy_p50_ms", "ms", "lower"},
	{"serve.unparsable_p50_ms", "ms", "lower"},
	{"serve.status_200", "count", "higher"},
	{"serve.status_422", "count", "higher"},
	{"serve.status_503", "count", "lower"},
	{"serve.rss_growth_mb", "MB", "lower"},

	{"dataplane.build_ms", "ms", "lower"},
	{"dataplane.steps_per_pkt", "count", "lower"},
	{"dataplane.ns_per_step", "ns", "lower"},
	{"dataplane.allocs_per_pkt", "count", "lower"},
	{"dataplane.batch_p50_us", "us", "lower"},
	{"dataplane.batch_p99_us", "us", "lower"},
	{"dataplane.fastpath_share", "share", "higher"},
	{"dataplane.copy64_ns_per_pkt", "ns", "lower"},
	{"dataplane.copy1514_ns_per_pkt", "ns", "lower"},
	{"dataplane.runner_ns_per_pkt", "ns", "lower"},
	{"dataplane.interp_ns_per_pkt", "ns", "lower"},

	{"compile.compile_ms", "ms", "lower"},
	{"compile.instrs", "count", "lower"},
	{"compile.vm_ns_per_pkt", "ns", "lower"},
	{"compile.vm_top_element_share", "share", "lower"},
	{"compile.dispatches_per_pkt", "count", "lower"},
	{"compile.steps_per_dispatch", "count", "higher"},

	{"trace.overhead_share", "share", "lower"},
	{"trace.spans", "count", "lower"},
}

// median returns the middle of xs (mean of the two middles for even
// counts); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean is the geometric mean of the positive entries of xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStatusMB reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status
// in MB; pid 0 means this process.
func procStatusMB(pid int, field string) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
