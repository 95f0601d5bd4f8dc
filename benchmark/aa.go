package main

// A/A mode: two sets of runs of the same code. Per workload, each set
// makes aaRuns untraced runs and one traced run, each in a child
// process of this binary (peak RSS is per process). The two sets' runs
// are interleaved, alternating which set goes first, so that the host's
// speed, which changes over minutes, lands on both (two sets taken eight
// minutes apart disagreed by 32 % on serve-mixed: README, "A/A mode").
// For every end-to-end metric it prints both sets' medians, their
// relative difference, the bound from BENCHMARK.json and pass/fail
// (pass: the difference is at most half the bound). For every per-layer
// count it says whether the count repeated exactly: only counts that do
// may carry a later claim.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// aaRuns is the number of untraced runs per workload in one set. A
// single run per set is not enough on the reference box: its slow
// spells last minutes and move whole runs by 20 % (README, "Noise").
const aaRuns = 3

// benchmarkFile is BENCHMARK.json as the A/A mode and the smoke test
// read it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// child runs one workload in a child process and parses its last line.
func child(cfg config, workload string, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return &res, nil
}

func runAA(cfg config) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	names := workloadNames()
	type set struct {
		e2e    []*result
		layers *result
	}
	runs := map[string]*[2]set{}
	for _, n := range names {
		runs[n] = &[2]set{}
	}
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "aa: %s\n", n)
		for r := 0; r < aaRuns; r++ {
			for k := 0; k < 2; k++ {
				st := &runs[n][(r+k)%2] // alternate which set goes first
				res, err := child(cfg, n, false)
				if err != nil {
					return err
				}
				st.e2e = append(st.e2e, res)
			}
		}
		for i := range runs[n] {
			if runs[n][i].layers, err = child(cfg, n, true); err != nil {
				return err
			}
		}
	}

	ok := true
	fmt.Printf("%-13s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "set1", "set2", "diff", "bound", "A/A")
	for _, n := range names {
		for i, st := range runs[n] {
			attempted, failed := st.layers.Attempted, st.layers.Failed
			for _, r := range st.e2e {
				attempted, failed = attempted+r.Attempted, failed+r.Failed
			}
			if failed > 0 {
				ok = false
				fmt.Printf("%-13s set %d: %d of %d operations failed\n", n, i+1, failed, attempted)
			}
		}
		for _, m := range bf.EndToEnd {
			var med [2]float64
			for i, st := range runs[n] {
				var vals []float64
				for _, r := range st.e2e {
					vals = append(vals, r.Metrics[m.Name].Value)
				}
				med[i] = median(vals)
			}
			diff := math.Abs(med[0]-med[1]) / math.Min(med[0], med[1])
			verdict := "pass"
			if !(diff <= m.Bound/2) {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-13s %-16s %14.6g %14.6g %7.1f%% %5.0f%%  %s\n", n, m.Name, med[0], med[1], 100*diff, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("\n%-13s %-28s %16s %16s  %s\n", "workload", "per-layer count", "set1", "set2", "repeats exactly")
	for _, n := range names {
		for _, m := range bf.PerLayer {
			if m.Unit != "count" {
				continue
			}
			a, b := runs[n][0].layers.Metrics[m.Name].Value, runs[n][1].layers.Metrics[m.Name].Value
			if a == 0 && b == 0 {
				continue
			}
			fmt.Printf("%-13s %-28s %16.6g %16.6g  %v\n", n, m.Name, a, b, a == b)
		}
	}
	if !ok {
		return fmt.Errorf("A/A: the two sets disagree (see FAIL rows)")
	}
	return nil
}
