// Command benchmark is the repo's benchmark (BENCHMARK.json): it
// measures what the system's two kinds of users wait for — time to a
// verdict (first certification, re-certification against a warm
// summary store, admission through the vsdserve daemon) and packets
// forwarded per second — and, in a separate traced run, attributes each
// to the repo's layers by timing calls into their public functions from
// outside. See README.md in this directory.
//
// Usage:
//
//	go run ./benchmark -workload certify-cold|certify-warm|serve-mixed|forward
//	                   [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE]
//	go run ./benchmark -aa [-seed N] [-seconds S]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with -trace 0,
// per-layer with -trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// tmpRoot is where every temporary directory of a run lives: inside the
// checkout (the benchmark reads and writes nowhere else; the system's
// temporary directory is outside it), ignored by git, removed when the
// run ends unless another run is using it.
const tmpRoot = ".benchmark-tmp"

// config is one invocation's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	TraceOut string
	// Short shrinks every workload to its smoke-test size: light
	// pipeline classes only, no loop-class requests, one round. Only the
	// tests set it.
	Short bool
	// TmpRoot overrides tmpRoot (tests use t.TempDir()).
	TmpRoot string
}

func main() {
	var cfg config
	trace := flag.Int("trace", 0, "0: untraced run, prints the end-to-end metrics; 1: traced run, prints the per-layer metrics")
	aa := flag.Bool("aa", false, "A/A mode: run every workload twice, alternating order, and compare")
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.Seed, "seed", 2013, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", 25, "length of the timed window")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "with -trace 1: write the benchmark's spans to this file (Chrome trace-event JSON, loads in Perfetto)")
	flag.Parse()
	cfg.Traced = *trace != 0
	cfg.TmpRoot = tmpRoot

	if *aa {
		if err := runAA(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloadDef is one entry of the benchmark's workload table.
type workloadDef struct {
	name string
	run  func(*runCtx) error
}

var workloads = []workloadDef{
	{"certify-cold", func(c *runCtx) error { return runCertify(c, true) }},
	{"certify-warm", func(c *runCtx) error { return runCertify(c, false) }},
	{"serve-mixed", runServe},
	{"forward", runForward},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// run executes one workload and returns its result line. It owns the
// run's temporary directory.
func run(cfg config) (*result, error) {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.Workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, workloadNames())
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.TmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.TmpRoot, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(dir)
		os.Remove(cfg.TmpRoot) // fails, as it should, while another run's directory is in it
	}()

	c := &runCtx{cfg: cfg, dir: dir, rec: newRecorder(cfg.Traced), vals: map[string]float64{}}
	fmt.Printf("# workload %s  seed %d  seconds %g  traced %v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Traced)
	if cfg.Short {
		fmt.Println("# smoke-test size: not a measurement")
	}
	fmt.Printf("# host %s %s/%s  GOMAXPROCS %d  nproc %d\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if cfg.Traced {
		c.set("trace.spans", float64(c.rec.spans()))
		c.rec.printSelfTimes()
		if cfg.TraceOut != "" {
			if err := c.rec.tracer.WriteFile(cfg.TraceOut); err != nil {
				return nil, err
			}
		}
	}
	return c.result(), nil
}

// runCtx carries one run's state: parameters, scratch directory, the
// span recorder, the metric values, and the failure account.
type runCtx struct {
	cfg  config
	dir  string
	rec  *recorder
	vals map[string]float64

	attempted, failed int
	// problems collects the reasons operations failed (printed, bounded).
	problems []string
}

func (c *runCtx) set(name string, v float64) { c.vals[name] = v }

// fail records why operations failed; n is how many operations it
// taints.
func (c *runCtx) fail(n int, format string, args ...any) {
	c.failed += n
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the result line: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one (a layer the
// workload does not exercise reports 0).
func (c *runCtx) result() *result {
	defs := endToEnd
	if c.cfg.Traced {
		defs = perLayer
	}
	if c.failed > c.attempted {
		c.failed = c.attempted
	}
	res := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("# operations attempted %d  failed %d\n", c.attempted, c.failed)
	for _, p := range c.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: c.vals[d.Name], Unit: d.Unit}
		fmt.Printf("%-34s %16.6g %-6s (%s is better)\n", d.Name, c.vals[d.Name], d.Unit, d.Better)
	}
	return res
}
