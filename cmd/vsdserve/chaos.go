package main

// The -chaos smoke: the degradation ladder exercised end to end
// against the real service wiring (DESIGN.md §9). Three passes over
// the same corpus:
//
//  1. clean     — a fault-free serial run; its verdicts are the
//                 reference.
//  2. faulted   — the full service (durable queue, HTTP ingress,
//                 retries) with the fault injector wired into the
//                 summary store and the solver. Must crash nothing,
//                 contain every injected panic, and converge — via the
//                 queue's retry ladder — to verdicts byte-identical to
//                 the clean pass. Zero flips. Every config is then
//                 posted once more: the answers, served from the
//                 logged verdicts, must be the same bytes and must
//                 enqueue no job.
//  3. kill -9   — jobs journaled, the worker "killed" after one job,
//                 the journal reopened and replayed. The verdict log
//                 must converge to the same verdict set.
//
// Everything is deterministic for a given corpus and -chaos-seed:
// verification is serial (Parallelism 1, one queue worker) and every
// fault decision comes from the injector's seeded stream.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/faultinject"
	"vsd/internal/packet"
	"vsd/internal/queue"
	"vsd/internal/verify"
)

// chaosRates is the fixed fault script: frequent disk corruption plus
// a burst of solver faults. Disk faults never touch verdicts (they
// degrade to cache misses), so they run unbounded; solver faults are
// capped by chaosSolverBudget.
var chaosRates = faultinject.Rates{
	SolverPanic:   0.05,
	SolverUnknown: 0.05,
	TornWrite:     0.5,
	Stale:         0.25,
}

// chaosSolverBudget and chaosMaxAttempts carry the convergence proof:
// every degraded attempt consumes at least one budgeted solver fault
// (the only fault kind that can degrade a verdict), so at most
// chaosSolverBudget attempts can fail across the whole pass — strictly
// fewer than any one submission's retry budget. Every submission is
// therefore guaranteed a fault-free attempt, and the faulted pass must
// converge to the clean verdicts exactly.
const (
	chaosSolverBudget = 8
	chaosMaxAttempts  = chaosSolverBudget + 2
)

// chaosVerifier builds the serial verifier every chaos pass uses;
// parallel workers would make fault draws order-dependent.
func chaosVerifier(maxLen uint64, store verify.SummaryStore, hook *faultinject.Injector) *verify.Verifier {
	opts := verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Parallelism: 1, Store: store}
	if hook != nil {
		opts.SolverFaultHook = hook.SolverHook()
	}
	return verify.New(opts)
}

func loadCorpus(dir string) ([]jsonSubmission, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.click"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("chaos: no .click files in %s", dir)
	}
	subs := make([]jsonSubmission, 0, len(names))
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		subs = append(subs, jsonSubmission{Name: filepath.Base(name), Config: string(src)})
	}
	return subs, nil
}

// marshalVerdict is the byte-level comparison form of a verdict.
func marshalVerdict(v verify.BatchVerdict) string {
	blob, _ := json.Marshal(v)
	return string(blob)
}

func runChaos(dir string, seed, maxLen uint64) error {
	subs, err := loadCorpus(dir)
	if err != nil {
		return err
	}

	// Pass 1: clean reference verdicts.
	cleanStore, err := verify.NewDiskStore(mkChaosDir("store-clean"))
	if err != nil {
		return err
	}
	clean := &server{verifier: chaosVerifier(maxLen, cleanStore, nil)}
	cleanByName := make(map[string]string, len(subs))
	for _, sub := range subs {
		p, err := click.Parse(elements.Default(), sub.Config)
		if err != nil {
			return fmt.Errorf("chaos: %s: %v", sub.Name, err)
		}
		verdict := clean.admit(sub.Name, p).BatchVerdict
		cleanByName[sub.Name] = marshalVerdict(verdict)
		fmt.Printf("chaos: clean    %-16s certified=%v bound=%d\n", sub.Name, verdict.Certified, verdict.BoundSteps)
	}

	if err := chaosFaultedPass(subs, cleanByName, seed, maxLen); err != nil {
		return err
	}
	if err := chaosReplayPass(subs, cleanByName, maxLen); err != nil {
		return err
	}
	fmt.Printf("chaos: all %d submission(s) survived faults and replay with zero crashes and zero verdict flips (seed %#x)\n",
		len(subs), seed)
	return nil
}

// mkChaosDir allocates a scratch directory; chaos runs are throwaway.
func mkChaosDir(kind string) string {
	dir, err := os.MkdirTemp("", "vsd-chaos-"+kind+"-")
	if err != nil {
		panic(err)
	}
	return dir
}

// chaosFaultedPass runs the real service — queue, worker, HTTP — with
// the injector attached, and checks the ladder's contract.
func chaosFaultedPass(subs []jsonSubmission, cleanByName map[string]string, seed, maxLen uint64) error {
	in := faultinject.New(seed, chaosRates)
	in.SolverBudget = chaosSolverBudget
	disk, err := verify.NewDiskStore(mkChaosDir("store-fault"))
	if err != nil {
		return err
	}
	qdir := mkChaosDir("queue-fault")
	q, err := queue.Open(queue.Options{Dir: qdir, Seed: seed, MaxAttempts: chaosMaxAttempts,
		BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond})
	if err != nil {
		return err
	}
	s := &server{
		verifier:    chaosVerifier(maxLen, faultinject.WrapStore(in, disk), in),
		queue:       q,
		maxAttempts: chaosMaxAttempts,
		verdictLog:  filepath.Join(qdir, "verdicts.jsonl"),
		injector:    in,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); q.Run(ctx, s.process, s.exhausted) }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := newHTTPServer("", s.mux())
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	var hc http.Client
	// post submits sub and requires the clean pass's verdict bytes.
	post := func(pass string, sub jsonSubmission) error {
		payload, _ := json.Marshal(sub)
		res, err := hc.Post(base+"/verify", "application/json", bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("chaos: %s %s: %w", pass, sub.Name, err)
		}
		body, rerr := io.ReadAll(res.Body)
		res.Body.Close()
		if rerr != nil {
			return fmt.Errorf("chaos: %s %s: reading response: %w", pass, sub.Name, rerr)
		}
		if res.StatusCode != http.StatusOK {
			return fmt.Errorf("chaos: %s %s: %s: %s", pass, sub.Name, res.Status, body)
		}
		var resp response
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("chaos: %s %s: bad response JSON: %w", pass, sub.Name, err)
		}
		if got := marshalVerdict(resp.BatchVerdict); got != cleanByName[sub.Name] {
			return fmt.Errorf("chaos: %s %s: verdict differs from the clean pass\nclean: %s\ngot:   %s",
				pass, sub.Name, cleanByName[sub.Name], got)
		}
		return nil
	}
	for _, sub := range subs {
		if err := post("faulted", sub); err != nil {
			return err
		}
		fmt.Printf("chaos: faulted  %-16s converged (attempts led to the clean verdict)\n", sub.Name)
	}
	// Resubmissions are answered from the logged verdicts: the clean
	// bytes again, with no new job. A degraded or stale verdict served
	// from that cache fails here.
	enqueued := q.Stats().Enqueued
	for _, sub := range subs {
		if err := post("resubmit", sub); err != nil {
			return err
		}
	}
	if n := q.Stats().Enqueued; n != enqueued {
		return fmt.Errorf("chaos: resubmitting %d config(s) enqueued %d new job(s)", len(subs), n-enqueued)
	}
	fmt.Printf("chaos: resubmit pass answered all %d config(s) with the clean verdict and no new job\n", len(subs))

	// The ladder's accounting must balance: something was injected, and
	// every injected solver panic was contained by the verify layer —
	// the daemon is still here to check it.
	ist := in.Stats()
	if ist.Total() == 0 {
		return fmt.Errorf("chaos: injector fired no faults; raise the rates or change the seed (%#x)", seed)
	}
	vst := s.verifier.Stats()
	if vst.PanicsRecovered != int(ist.SolverPanics) {
		return fmt.Errorf("chaos: recovered %d panics for %d injected — a panic escaped or was double-counted",
			vst.PanicsRecovered, ist.SolverPanics)
	}
	qs := q.Stats()
	fmt.Printf("chaos: faulted pass injected %d fault(s) (%d solver panics contained), %d queue retrie(s)\n",
		ist.Total(), ist.SolverPanics, qs.Retries)
	cancel()
	<-done
	return nil
}

// chaosReplayPass simulates kill -9 mid-batch: every job journaled,
// one processed, the queue abandoned without drain, then reopened. The
// replayed run's verdict log must converge to the clean verdict set.
func chaosReplayPass(subs []jsonSubmission, cleanByName map[string]string, maxLen uint64) error {
	qdir := mkChaosDir("queue-replay")
	verdictLog := filepath.Join(qdir, "verdicts.jsonl")

	q1, err := queue.Open(queue.Options{Dir: qdir, BaseBackoff: time.Millisecond})
	if err != nil {
		return err
	}
	keyToName := map[string]string{}
	for _, sub := range subs {
		p, err := click.Parse(elements.Default(), sub.Config)
		if err != nil {
			return err
		}
		payload, _ := json.Marshal(sub)
		key := p.Fingerprint().String()
		keyToName[key] = sub.Name
		if _, err := q1.Enqueue(key, payload); err != nil {
			return fmt.Errorf("chaos: replay enqueue %s: %w", sub.Name, err)
		}
	}
	s1 := &server{verifier: chaosVerifier(maxLen, nil, nil), maxAttempts: 3, verdictLog: verdictLog}
	ctx1, cancel1 := context.WithCancel(context.Background())
	processed := 0
	q1.Run(ctx1, func(ctx context.Context, job *queue.Job) error {
		err := s1.process(ctx, job)
		if processed++; processed >= 1 {
			cancel1() // the "kill": the worker dies here, no drain, no close
		}
		return err
	}, s1.exhausted)
	cancel1()

	// Restart: a fresh queue over the same journal directory must
	// replay exactly the unprocessed jobs.
	q2, err := queue.Open(queue.Options{Dir: qdir, BaseBackoff: time.Millisecond})
	if err != nil {
		return err
	}
	if got, want := int(q2.Stats().Replayed), len(subs)-processed; got != want {
		return fmt.Errorf("chaos: replay recovered %d journaled job(s), want %d", got, want)
	}
	s2 := &server{verifier: chaosVerifier(maxLen, nil, nil), maxAttempts: 3, verdictLog: verdictLog}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); q2.Run(ctx2, s2.process, s2.exhausted) }()
	if !q2.Drain(time.Minute) {
		cancel2()
		return fmt.Errorf("chaos: replayed queue did not drain")
	}
	cancel2()
	<-done

	// The verdict log (pre-kill lines plus replayed lines) must cover
	// every submission with the clean run's exact verdict bytes.
	data, err := os.ReadFile(verdictLog)
	if err != nil {
		return fmt.Errorf("chaos: replay verdict log: %w", err)
	}
	final := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec verdictRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return fmt.Errorf("chaos: replay verdict log line %q: %w", line, err)
		}
		final[keyToName[rec.Key]] = marshalVerdict(rec.Verdict)
	}
	for _, sub := range subs {
		got, ok := final[sub.Name]
		if !ok {
			return fmt.Errorf("chaos: replay lost %s: no verdict after restart", sub.Name)
		}
		if got != cleanByName[sub.Name] {
			return fmt.Errorf("chaos: replay %s: verdict diverged after restart\nclean:    %s\nreplayed: %s",
				sub.Name, cleanByName[sub.Name], got)
		}
	}
	fmt.Printf("chaos: replay pass killed the worker after %d job(s); restart replayed %d and converged\n",
		processed, len(subs)-processed)
	return nil
}
