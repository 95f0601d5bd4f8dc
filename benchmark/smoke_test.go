package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// shortLeavesOut lists the parts the smoke-sized pass does not run: the
// loop and csum pipeline classes take seconds.
var shortLeavesOut = map[string]bool{
	"certify-cold part_a_ms": true, "certify-cold part_b_ms": true,
	"certify-warm part_a_ms": true, "certify-warm part_b_ms": true,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke is the harness smoke test: a smoke-sized pass of every
// workload, untraced and traced, asserting that the program and
// BENCHMARK.json agree — every workload in the file exists, every
// metric the file names is emitted by every workload with that unit
// (and nothing else is) — that all operations are correct, and that
// nothing is left behind: no temporary directory, no vsdserve child.
// It asserts nothing about witness bytes or timings.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", bf.RunSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if got := workloadNames(); len(got) != len(names) {
		t.Fatalf("program has workloads %v, BENCHMARK.json %v", got, names)
	}
	e2e := map[string]string{}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	layers := map[string]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	seen := map[string]bool{}
	for _, n := range append(append(names, keys(e2e)...), keys(layers)...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	for _, w := range names {
		for _, traced := range []bool{false, true} {
			root := t.TempDir()
			res, err := run(config{Workload: w, Seed: 2013, Seconds: 1, Traced: traced, Short: true, TmpRoot: root})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is not emitted", w, traced, name)
				case got.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w, name, got.Unit, unit)
				case !traced && got.Value <= 0 && !shortLeavesOut[w+" "+name]:
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w, name, got.Value)
				}
			}
			assertEmpty(t, root)
		}
	}
}

// A failed run removes its directory and leaves no child behind: the
// build of the daemon fails (no go tool on PATH), and a daemon binary
// that exits at once is reaped without waiting for the health deadline.
func TestFailureCleansUp(t *testing.T) {
	root := t.TempDir()
	if bin, err := exec.LookPath("false"); err == nil {
		if _, err := startDaemon(bin, root); err == nil {
			t.Error("startDaemon accepted a binary that exits at once")
		}
	}
	t.Setenv("PATH", "")
	if _, err := run(config{Workload: "serve-mixed", Seed: 1, Seconds: 1, Short: true, TmpRoot: root}); err == nil {
		t.Fatal("serve-mixed ran without a go tool to build vsdserve")
	}
	os.Remove(filepath.Join(root, "vsdserve.log")) // startDaemon's, written straight into root above
	assertEmpty(t, root)
}

// assertEmpty checks that a run left nothing in its temporary root and
// that no process started from it (the vsdserve child) is still alive.
func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) { // a run removes its root when nothing else is in it
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("run left %s behind in its temporary root", e.Name())
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if cmdline, err := os.ReadFile(p); err == nil && bytes.Contains(cmdline, []byte(dir)) {
			t.Errorf("run left a child process behind: %s", bytes.ReplaceAll(cmdline, []byte{0}, []byte{' '}))
		}
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
