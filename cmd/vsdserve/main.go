// Command vsdserve is the admission service the paper's element
// marketplace needs: a daemon that certifies a stream of submitted
// dataplane configurations. POST a Click config and get back an
// admission verdict — crash freedom, the worst-case instruction bound,
// the latency delta against the operator's baseline pipeline, and
// concrete witness packets for rejections — as JSON.
//
// All requests share one verifier: Step-1 summaries, incremental solver
// sessions, and (with -store) the persistent content-addressed summary
// store, so a submission reusing known element programs verifies
// without re-running the symbolic engine (DESIGN.md §7).
//
// With -queue, submissions pass through a crash-safe journaled queue
// (DESIGN.md §9): each accepted job is fsynced to the journal before
// the verdict is computed, a bounded depth turns overload into an
// explicit 503 + Retry-After instead of unbounded memory growth, and a
// kill -9 mid-batch loses nothing — the journal replays on restart and
// the verdict log converges to the same set. SIGINT/SIGTERM drain
// gracefully within -drain-timeout; undrained jobs stay journaled.
// A resubmission of a pipeline whose clean verdict is already in the
// verdict log costs a parse and a map lookup: it is answered with that
// verdict under its own name and wall_ms 0, with no job, no journal
// write, no verification and no log line. Verdicts with an error or
// unresolved obligations are never answered this way.
//
// Usage:
//
//	vsdserve [-addr :8847] [-store dir] [-maxlen N] [-parallel N]
//	         [-baseline config.click] [-queue dir] [-drain-timeout d]
//	         [-job-timeout d] [-watchdog d] [-smoke dir]
//	         [-chaos dir] [-chaos-seed N]
//
// Endpoints:
//
//	POST /verify    body: a Click configuration (text).
//	                response: admission verdict JSON (see verify.BatchVerdict),
//	                plus latency_delta_steps when -baseline is set and wall_ms.
//	                413 when the body exceeds 1 MiB; 503 + Retry-After when
//	                the submission queue is at capacity or draining.
//	GET  /stats     cumulative verifier statistics JSON, including the
//	                "robustness" degradation-ladder counters, service
//	                uptime, build info, and admission/solve latency
//	                percentiles.
//	GET  /metrics   Prometheus text exposition: admission-latency,
//	                solve-time and summarize-time histograms, store and
//	                queue counters, uptime.
//	GET  /debug/pprof/  the standard net/http/pprof profiling endpoints
//	                (heap, goroutine, CPU profile, execution trace).
//	GET  /healthz   liveness probe ("ok").
//
// -smoke dir runs the self-test used by `make serve-smoke`: the server
// starts on an ephemeral port, submits every .click file in dir to
// itself over HTTP, prints each verdict line, and exits non-zero if any
// request fails or any submission is rejected.
//
// -chaos dir runs the fault-injection self-test used by
// `make chaos-smoke` (see chaos.go): a clean pass, a faulted pass
// through the durable queue, and a simulated kill -9 replay, asserting
// zero crashes and zero verdict flips.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/faultinject"
	"vsd/internal/packet"
	"vsd/internal/queue"
	"vsd/internal/telemetry"
	"vsd/internal/verify"
)

// maxConfigBytes bounds request bodies; Click configurations are tiny.
const maxConfigBytes = 1 << 20

// doneKeep bounds the completed-verdict cache that answers handlers who
// attach to a deduplicated job after its verdict was already delivered,
// and the settled-verdict map that answers resubmissions.
const doneKeep = 1024

// server is the shared admission state.
type server struct {
	verifier *verify.Verifier
	store    *verify.DiskStore // nil without -store
	// baselineBound is the operator pipeline's instruction bound, for
	// the latency-delta assessment (nil without -baseline).
	baselineBound *int64

	// queue is the durable submission queue (nil without -queue): the
	// handler journals the job, a worker verifies it, and the handler
	// waits for that job's verdict.
	queue *queue.Queue
	// maxAttempts mirrors the queue's retry budget so process knows
	// when a degraded verdict is final rather than retryable.
	maxAttempts int
	// jobBudget is the per-job verification watchdog (0 = off).
	jobBudget time.Duration
	// verdictLog is the append-only verdicts.jsonl path ("" = off) —
	// the durable record kill -9 convergence is judged by.
	verdictLog string
	// injector is set in chaos mode so /stats exposes injected-fault
	// counts alongside the degradation counters they must match.
	injector *faultinject.Injector
	// metrics backs GET /metrics; the verifier and queue register their
	// families on it, admitHist records end-to-end admission latency.
	metrics   *telemetry.Registry
	admitHist *telemetry.Histogram
	started   time.Time

	wmu     sync.Mutex
	waiters map[uint64][]chan response
	done    map[uint64]response
	doneIDs []uint64
	// settled maps a job key (the pipeline fingerprint) to its clean,
	// logged verdict; a resubmission is answered from it without a job.
	// Dropped wholesale when it reaches doneKeep entries.
	settled     map[string]response
	settledHits atomic.Int64
	logMu       sync.Mutex
}

// response is one admission reply: the batch verdict plus service
// fields.
type response struct {
	verify.BatchVerdict
	// LatencyDeltaSteps is BoundSteps minus the -baseline pipeline's
	// bound: the "maximum increase in latency" the paper describes
	// operators quoting to customers.
	LatencyDeltaSteps *int64 `json:"latency_delta_steps,omitempty"`
	WallMS            int64  `json:"wall_ms"`
}

// jsonSubmission is the application/json request form of /verify, and
// doubles as the journaled job payload.
type jsonSubmission struct {
	Name   string `json:"name"`
	Config string `json:"config"`
}

// initTelemetry wires the registry behind GET /metrics: the admission
// latency histogram and a process-uptime gauge here, plus whatever
// families the verifier and queue register on the same registry.
// Histogram values are nanoseconds; unitDiv 1e9 exposes seconds, the
// Prometheus base unit.
func (s *server) initTelemetry() *telemetry.Registry {
	s.metrics = telemetry.NewRegistry()
	s.started = time.Now()
	s.admitHist = s.metrics.Histogram("vsd_admission_latency_seconds",
		"wall-clock verification latency per admitted submission", 1e9)
	s.metrics.GaugeFunc("vsd_uptime_seconds", "seconds since the service started",
		func() float64 { return time.Since(s.started).Seconds() })
	s.metrics.CounterFunc("vsd_verdict_cache_hits_total",
		"resubmissions answered from a logged verdict, with no job and no verification",
		s.settledHits.Load)
	return s.metrics
}

// buildInfo identifies the serving binary in /stats: the Go version
// plus the VCS stamp the toolchain embeds at build time.
func buildInfo() map[string]string {
	b := map[string]string{"go": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		b["module"] = bi.Main.Path
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				b[kv.Key] = kv.Value
			}
		}
	}
	return b
}

// admit runs one submission through the verifier, under the watchdog
// when a job budget is set. A watchdog interrupt surfaces inside the
// verdict as unresolved obligations — degraded, never fabricated.
func (s *server) admit(name string, p *click.Pipeline) response {
	start := time.Now()
	var verdict verify.BatchVerdict
	run := func() error {
		verdict = s.verifier.Batch([]verify.BatchItem{{Name: name, Pipeline: p}})[0]
		return nil
	}
	if s.jobBudget > 0 {
		s.verifier.WithWatchdog(s.jobBudget, run)
	} else {
		run()
	}
	s.admitHist.Record(int64(time.Since(start)))
	resp := response{BatchVerdict: verdict, WallMS: time.Since(start).Milliseconds()}
	if s.baselineBound != nil && verdict.Error == "" {
		delta := verdict.BoundSteps - *s.baselineBound
		resp.LatencyDeltaSteps = &delta
	}
	return resp
}

func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a Click configuration to /verify", http.StatusMethodNotAllowed)
		return
	}
	// Oversized bodies are refused outright (413), not silently
	// truncated into a different — and then wrongly certified — config.
	r.Body = http.MaxBytesReader(w, r.Body, maxConfigBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("submission exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	name := r.URL.Query().Get("name")
	config := string(body)
	// JSON submissions carry the name inline; malformed JSON is a client
	// error (400), distinct from a well-formed submission whose Click
	// configuration does not parse (422).
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var sub jsonSubmission
		if err := json.Unmarshal(body, &sub); err != nil {
			http.Error(w, "bad JSON submission: "+err.Error(), http.StatusBadRequest)
			return
		}
		if sub.Config == "" {
			http.Error(w, `bad JSON submission: "config" is required`, http.StatusBadRequest)
			return
		}
		config = sub.Config
		if sub.Name != "" {
			name = sub.Name
		}
	}
	if name == "" {
		name = "submission"
	}
	if strings.TrimSpace(config) == "" {
		http.Error(w, "empty submission", http.StatusBadRequest)
		return
	}
	p, err := click.Parse(elements.Default(), config)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if s.queue == nil {
		writeJSON(w, http.StatusOK, s.admit(name, p))
		return
	}
	key := p.Fingerprint().String()
	if resp, ok := s.settledVerdict(key); ok {
		resp.Name, resp.WallMS = name, 0
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.enqueueAndWait(w, r, name, config, key)
}

// settledVerdict looks key up among the clean, logged verdicts. The
// daemon's options are fixed for its lifetime, so a verdict is a
// function of the pipeline alone and a resubmission needs no job.
func (s *server) settledVerdict(key string) (response, bool) {
	s.wmu.Lock()
	resp, ok := s.settled[key]
	s.wmu.Unlock()
	if ok {
		s.settledHits.Add(1)
	}
	return resp, ok
}

// enqueueAndWait journals the submission and blocks until its verdict
// is delivered by the worker. The pipeline fingerprint is the
// idempotency key: resubmitting a pending pipeline attaches to the
// existing job instead of double-verifying it.
func (s *server) enqueueAndWait(w http.ResponseWriter, r *http.Request, name, config, key string) {
	payload, err := json.Marshal(jsonSubmission{Name: name, Config: config})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	job, err := s.queue.Enqueue(key, payload)
	switch {
	case errors.Is(err, queue.ErrOverloaded):
		// The bounded queue turns overload into explicit backpressure,
		// not unbounded memory growth.
		w.Header().Set("Retry-After", "2")
		http.Error(w, "verification queue at capacity; retry later", http.StatusServiceUnavailable)
		return
	case errors.Is(err, queue.ErrClosed):
		w.Header().Set("Retry-After", "30")
		http.Error(w, "service draining; journaled jobs resume on restart", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ch := s.waitFor(job.ID)
	select {
	case resp := <-ch:
		writeJSON(w, http.StatusOK, resp)
	case <-r.Context().Done():
		// Client gone; the journaled job completes regardless and its
		// verdict lands in the verdict log.
		s.dropWaiter(job.ID, ch)
	}
}

// waitFor registers for job id's verdict. Completed verdicts are
// answered from the done cache: a handler that deduplicated onto a job
// finishing concurrently must not wait forever.
func (s *server) waitFor(id uint64) chan response {
	ch := make(chan response, 1)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if resp, ok := s.done[id]; ok {
		ch <- resp
		return ch
	}
	if s.waiters == nil {
		s.waiters = make(map[uint64][]chan response)
	}
	s.waiters[id] = append(s.waiters[id], ch)
	return ch
}

func (s *server) dropWaiter(id uint64, ch chan response) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	kept := s.waiters[id][:0]
	for _, c := range s.waiters[id] {
		if c != ch {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		delete(s.waiters, id)
	} else {
		s.waiters[id] = kept
	}
}

// deliver hands a job's terminal verdict to its waiters. settle marks
// a clean verdict already in the verdict log, which answers later
// resubmissions of the same key.
func (s *server) deliver(id uint64, key string, resp response, settle bool) {
	s.wmu.Lock()
	if settle {
		if s.settled == nil || len(s.settled) >= doneKeep {
			s.settled = make(map[string]response)
		}
		s.settled[key] = resp
	}
	chans := s.waiters[id]
	delete(s.waiters, id)
	if s.done == nil {
		s.done = make(map[uint64]response)
	}
	s.done[id] = resp
	s.doneIDs = append(s.doneIDs, id)
	if len(s.doneIDs) > doneKeep {
		delete(s.done, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
	s.wmu.Unlock()
	for _, ch := range chans {
		ch <- resp
	}
}

// process is the queue worker's job body: decode, verify, and either
// complete the job or ask for a retry when the verdict degraded —
// transient faults (solver budget, contained panic, torn artifact)
// often clear on a later attempt, which is how the service converges
// back to the clean verdict instead of surfacing the fault.
func (s *server) process(_ context.Context, job *queue.Job) error {
	var sub jsonSubmission
	if err := json.Unmarshal(job.Payload, &sub); err != nil {
		// A payload that does not decode never will; no retry.
		s.complete(job, response{BatchVerdict: verify.BatchVerdict{
			Name: "journal-entry", Error: "corrupt journal payload: " + err.Error()}})
		return nil
	}
	p, err := click.Parse(elements.Default(), sub.Config)
	if err != nil {
		s.complete(job, response{BatchVerdict: verify.BatchVerdict{
			Name: sub.Name, Error: "parse: " + err.Error()}})
		return nil
	}
	resp := s.admit(sub.Name, p)
	degraded := resp.Error != "" || resp.Unresolved > 0
	if degraded && job.Attempts < s.maxAttempts {
		return fmt.Errorf("degraded verdict (unresolved %d, error %q)", resp.Unresolved, resp.Error)
	}
	s.complete(job, resp)
	return nil
}

// exhausted retires a job whose retry or deadline budget ran out; its
// waiters get the failure, never a fabricated verdict.
func (s *server) exhausted(job *queue.Job, err error) {
	s.complete(job, response{BatchVerdict: verify.BatchVerdict{
		Error: fmt.Sprintf("queue: retired after %d attempt(s): %v", job.Attempts, err)}})
}

// complete records a job's terminal verdict — durably in the verdict
// log, then to every waiting handler. Only a clean verdict whose log
// line was written is settled: degraded, exhausted and corrupt-payload
// verdicts are never answered without a job. The job's key is freed
// before the verdict is delivered, so a resubmission that arrives after
// it gets a new job (or the settled verdict), never this job's answer
// from the done cache. (The chaos replay pass runs its own queues and
// leaves s.queue nil.)
func (s *server) complete(job *queue.Job, resp response) {
	if s.queue != nil {
		s.queue.Release(job)
	}
	logged := false
	if s.verdictLog != "" {
		s.logMu.Lock()
		err := appendVerdict(s.verdictLog, job.Key, resp.BatchVerdict)
		s.logMu.Unlock()
		if err != nil {
			log.Printf("vsdserve: verdict log: %v", err)
		}
		logged = err == nil
	}
	s.deliver(job.ID, job.Key, resp, logged && resp.Error == "" && resp.Unresolved == 0)
}

// verdictRecord is one verdicts.jsonl line. WallMS and the latency
// delta stay out: the record must be a pure function of the submission
// so clean, faulted, and replayed runs compare byte for byte.
type verdictRecord struct {
	Key     string              `json:"key"`
	Verdict verify.BatchVerdict `json:"verdict"`
}

func appendVerdict(path, key string, v verify.BatchVerdict) error {
	line, err := json.Marshal(verdictRecord{Key: key, Verdict: v})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.verifier.Stats()
	out := map[string]any{
		"verifier": st,
		// Operator-facing counters under stable names: how much of the
		// stateful refinement was skipped (suspects left standing
		// because their bad-value search was truncated) and what the
		// sequence/induction engine has done (DESIGN.md §8).
		"counters": map[string]int{
			"refinement_truncated": st.RefinementTruncated,
			"seq_sequences":        st.SeqSequences,
			"seq_infeasible":       st.SeqInfeasible,
			"induction_depth":      st.InductionDepth,
			"induction_proved":     st.InductionProved,
			"induction_refuted":    st.InductionRefuted,
			"seq_spec_refuted":     st.SeqSpecRefuted,
			"stitches_replayed":    int(st.StitchesReplayed),
			"stitches_built":       int(st.StitchesBuilt),
			"table_refinements":    int(st.TableRefinements),
		},
	}
	// The degradation ladder, observable (DESIGN.md §9): every rung the
	// service stepped down — contained panics, watchdog interrupts,
	// rejected artifacts, queue retries — is a counter here, so an
	// operator can tell "degraded under faults" from "healthy".
	robust := map[string]int64{
		"panics_recovered": int64(st.PanicsRecovered),
		"watchdog_fired":   int64(st.WatchdogFired),
	}
	if s.store != nil {
		out["store"] = s.store.Stats()
		robust["store_corrupt"] = s.store.Stats().Corrupt
	}
	if s.queue != nil {
		qs := s.queue.Stats()
		robust["queue_depth"] = int64(s.queue.Depth())
		robust["queue_enqueued"] = qs.Enqueued
		robust["queue_deduped"] = qs.Deduped
		robust["queue_overflows"] = qs.Overflows
		robust["queue_replayed"] = qs.Replayed
		robust["queue_quarantined"] = qs.Quarantined
		robust["queue_completed"] = qs.Completed
		robust["queue_retries"] = qs.Retries
		robust["queue_exhausted"] = qs.Exhausted
		robust["verdict_cache_hits"] = s.settledHits.Load()
	}
	out["robustness"] = robust
	if s.injector != nil {
		out["faults_injected"] = s.injector.Stats()
	}
	// Service identity and latency spread. The histograms carry
	// nanosecond values (HistSummary fields are ns); /metrics exposes
	// the same data in seconds for Prometheus.
	if !s.started.IsZero() {
		out["uptime_seconds"] = time.Since(s.started).Seconds()
	}
	out["build"] = buildInfo()
	out["latency"] = map[string]telemetry.HistSummary{
		"admission_ns": s.admitHist.Summary(),
		"solve_ns":     st.SolveTimes,
		"summarize_ns": st.SummarizeTimes,
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves the Prometheus text exposition of every family
// registered on the server's registry — admission latency, solver and
// summarizer histograms, store and queue counters.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil {
		http.Error(w, "metrics not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("vsdserve: writing response: %v", err)
	}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/verify", s.handleVerify)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Registered explicitly (not via the net/http/pprof init side
	// effect) because this mux is not http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// newHTTPServer wraps the mux in a server with read/write timeouts so
// a stuck or trickling client cannot wedge the daemon's connections.
// The generous write timeout covers long verifications.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses the command line and runs the daemon, or one of its
// self-tests, until shutdown. A configuration that no verification can
// accept (an empty packet-length range) is refused before anything is
// opened or bound.
func run(args []string) error {
	fs := flag.NewFlagSet("vsdserve", flag.ExitOnError)
	addr := fs.String("addr", ":8847", "listen address")
	storeDir := fs.String("store", "", "persistent summary store directory (empty = in-memory only)")
	maxLen := fs.Uint64("maxlen", 256, "maximum packet length considered")
	parallel := fs.Int("parallel", 0, "verification worker pool size (0 = GOMAXPROCS)")
	baseline := fs.String("baseline", "", "operator baseline pipeline for the latency-delta report")
	smoke := fs.String("smoke", "", "self-test: serve on an ephemeral port, submit every .click file in this directory, exit")
	solverTimeout := fs.Duration("solver-timeout", 0, "per-obligation wall budget (0 = none); exceeded obligations report unresolved, never a verdict")
	queueDir := fs.String("queue", "", "crash-safe submission queue journal directory (empty = synchronous, no journal)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests and queued jobs; undrained jobs stay journaled")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall deadline in the queue (0 = none)")
	watchdog := fs.Duration("watchdog", 0, "per-job verification watchdog budget (0 = off); interrupted obligations report unresolved, never a verdict")
	chaos := fs.String("chaos", "", "chaos smoke: run the fault-injection self-test over every .click file in this directory, exit")
	chaosSeed := fs.Uint64("chaos-seed", 0xc0ffee, "deterministic seed for -chaos")
	fs.Parse(args)

	opts := verify.Options{MinLen: packet.MinFrame, MaxLen: *maxLen, Parallelism: *parallel,
		SolverTimeout: *solverTimeout}
	if err := opts.Validate(); err != nil {
		return fmt.Errorf("vsdserve: -maxlen %d: %w", *maxLen, err)
	}
	if *chaos != "" {
		return runChaos(*chaos, *chaosSeed, *maxLen)
	}

	s := &server{jobBudget: *watchdog}
	opts.Metrics = s.initTelemetry()
	if *storeDir != "" {
		store, err := verify.NewDiskStore(*storeDir)
		if err != nil {
			return err
		}
		s.store = store
		opts.Store = store
		// Step-2 certificate traffic (DESIGN.md §7.5), apart from the
		// summary counters.
		s.metrics.GaugeFunc("vsd_cert_hits", "Step-2 certificates loaded from the store",
			func() float64 { return float64(store.Stats().CertHits) })
		s.metrics.GaugeFunc("vsd_cert_misses", "Step-2 certificate lookups with no entry",
			func() float64 { return float64(store.Stats().CertMisses) })
		s.metrics.GaugeFunc("vsd_cert_corrupt", "Step-2 certificates rejected as corrupt",
			func() float64 { return float64(store.Stats().CertCorrupt) })
	}
	s.verifier = verify.New(opts)
	if *baseline != "" {
		src, err := os.ReadFile(*baseline)
		if err != nil {
			return err
		}
		p, err := click.Parse(elements.Default(), string(src))
		if err != nil {
			return fmt.Errorf("vsdserve: baseline: %w", err)
		}
		rep, err := s.verifier.BoundedInstructions(p)
		if err != nil {
			return fmt.Errorf("vsdserve: baseline bound: %w", err)
		}
		s.baselineBound = &rep.MaxSteps
		log.Printf("vsdserve: baseline bound %d IR statements (%s)", rep.MaxSteps, *baseline)
	}

	if *smoke != "" {
		return runSmoke(s, *smoke)
	}

	if *queueDir != "" {
		q, err := queue.Open(queue.Options{Dir: *queueDir, JobTimeout: *jobTimeout, Metrics: s.metrics})
		if err != nil {
			return err
		}
		s.queue = q
		s.maxAttempts = 3 // the queue.Options default retry budget
		s.verdictLog = filepath.Join(*queueDir, "verdicts.jsonl")
		if qs := q.Stats(); qs.Replayed > 0 || qs.Quarantined > 0 {
			log.Printf("vsdserve: journal replayed %d job(s), quarantined %d", qs.Replayed, qs.Quarantined)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	workerCtx, cancelWorkers := context.WithCancel(context.Background())
	defer cancelWorkers()
	var workers sync.WaitGroup
	if s.queue != nil {
		workers.Add(1)
		go func() {
			defer workers.Done()
			s.queue.Run(workerCtx, s.process, s.exhausted)
		}()
	}

	srv := newHTTPServer(*addr, s.mux())
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("vsdserve: admission service listening on %s (maxlen %d)", *addr, *maxLen)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: stop accepting, let in-flight requests and queued
	// jobs finish within the budget. Whatever does not drain stays in
	// the journal for the next start — shutdown loses no submission.
	log.Printf("vsdserve: shutting down (drain budget %v)", *drainTimeout)
	shutCtx, cancelShut := context.WithTimeout(context.Background(), *drainTimeout)
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("vsdserve: http shutdown: %v", err)
	}
	cancelShut()
	if s.queue != nil {
		if s.queue.Drain(*drainTimeout) {
			log.Printf("vsdserve: queue drained")
		} else {
			log.Printf("vsdserve: %d job(s) still journaled; they replay on restart", s.queue.Depth())
		}
	}
	cancelWorkers()
	workers.Wait()
	return nil
}

// runSmoke drives the server end to end over real HTTP: every .click
// file in dir is POSTed to a freshly bound ephemeral port, and every
// submission must come back certified.
func runSmoke(s *server, dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "*.click"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("smoke: no .click files in %s", dir)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := newHTTPServer("", s.mux())
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	var hc http.Client
	res, err := hc.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("smoke: healthz: %w", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: healthz returned %s", res.Status)
	}

	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := hc.Post(base+"/verify?name="+filepath.Base(name), "text/plain", strings.NewReader(string(src)))
		if err != nil {
			return fmt.Errorf("smoke: %s: %w", name, err)
		}
		body, rerr := io.ReadAll(res.Body)
		res.Body.Close()
		if rerr != nil {
			return fmt.Errorf("smoke: %s: reading response: %w", name, rerr)
		}
		if res.StatusCode != http.StatusOK {
			return fmt.Errorf("smoke: %s: %s: %s", name, res.Status, body)
		}
		var resp response
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("smoke: %s: bad response JSON: %w", name, err)
		}
		if resp.Error != "" {
			return fmt.Errorf("smoke: %s: verification error: %s", name, resp.Error)
		}
		if !resp.Certified {
			return fmt.Errorf("smoke: %s: submission rejected (crash_free=%v specs_failed=%v)",
				name, resp.CrashFree, resp.SpecsFailed)
		}
		fmt.Printf("smoke: %-16s certified, bound %d steps, %v\n",
			filepath.Base(name), resp.BoundSteps, time.Since(start).Round(time.Millisecond))
	}
	// The observability surface is part of the smoke contract: after
	// real submissions, /metrics must expose the admission and solver
	// histograms with nonzero counts, /stats must report uptime, and
	// /debug/pprof must answer.
	if err := checkEndpoint(&hc, base+"/metrics", func(body string) error {
		for _, family := range []string{
			"vsd_admission_latency_seconds", "vsd_solve_duration_seconds",
			"vsd_summarize_duration_seconds", "vsd_uptime_seconds",
		} {
			if !strings.Contains(body, family) {
				return fmt.Errorf("family %s missing", family)
			}
		}
		if !strings.Contains(body, "vsd_admission_latency_seconds_count") {
			return fmt.Errorf("admission histogram has no _count series")
		}
		return nil
	}); err != nil {
		return fmt.Errorf("smoke: /metrics: %w", err)
	}
	if err := checkEndpoint(&hc, base+"/stats", func(body string) error {
		for _, key := range []string{`"uptime_seconds"`, `"build"`, `"latency"`} {
			if !strings.Contains(body, key) {
				return fmt.Errorf("key %s missing", key)
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("smoke: /stats: %w", err)
	}
	if err := checkEndpoint(&hc, base+"/debug/pprof/cmdline", func(string) error { return nil }); err != nil {
		return fmt.Errorf("smoke: pprof: %w", err)
	}
	fmt.Println("smoke: /metrics, /stats, and /debug/pprof answered")
	fmt.Printf("smoke: all %d submission(s) certified\n", len(names))
	return nil
}

// checkEndpoint GETs url, requires 200, and hands the body to check.
func checkEndpoint(hc *http.Client, url string, check func(body string) error) error {
	res, err := hc.Get(url)
	if err != nil {
		return err
	}
	body, rerr := io.ReadAll(res.Body)
	res.Body.Close()
	if rerr != nil {
		return rerr
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", res.Status)
	}
	return check(string(body))
}
