package main

// Handler-level tests for the admission daemon: before these, the
// daemon was only exercised end to end by -smoke, which drives the
// happy path exclusively. Here the mux is hit directly with the
// malformed traffic a public endpoint actually sees.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vsd/internal/queue"
	"vsd/internal/verify"
)

func testServer() *server {
	return &server{verifier: verify.New(verify.Options{MinLen: 14, MaxLen: 48})}
}

const validConfig = `
	src :: InfiniteSource;
	src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
	chk[0] -> Discard; chk[1] -> Discard;`

func do(t *testing.T, s *server, method, path, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, req)
	return rec
}

func TestVerifyRejectsNonPOST(t *testing.T) {
	s := testServer()
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
		rec := do(t, s, method, "/verify", "", "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s /verify = %d, want 405", method, rec.Code)
		}
		if method == http.MethodGet && rec.Header().Get("Allow") != http.MethodPost {
			t.Errorf("405 without Allow header")
		}
	}
}

func TestVerifyRejectsMalformedJSON(t *testing.T) {
	s := testServer()
	cases := []struct {
		name, body string
	}{
		{"truncated object", `{"name": "x", "config": "src ::`},
		{"not json at all", `src :: InfiniteSource; src -> Discard;`},
		{"missing config", `{"name": "x"}`},
	}
	for _, c := range cases {
		rec := do(t, s, http.MethodPost, "/verify", "application/json", c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400 (body: %s)", c.name, rec.Code, rec.Body.String())
		}
	}
}

func TestVerifyRejectsUnparsableConfig(t *testing.T) {
	s := testServer()
	rec := do(t, s, http.MethodPost, "/verify", "text/plain", "src :: NoSuchElement; src -> Discard;")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad config = %d, want 422", rec.Code)
	}
	rec = do(t, s, http.MethodPost, "/verify", "text/plain", "   ")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty body = %d, want 400", rec.Code)
	}
}

func TestVerifyAcceptsTextAndJSONSubmissions(t *testing.T) {
	s := testServer()
	rec := do(t, s, http.MethodPost, "/verify?name=t.click", "text/plain", validConfig)
	if rec.Code != http.StatusOK {
		t.Fatalf("text submission = %d: %s", rec.Code, rec.Body.String())
	}
	var textResp response
	if err := json.Unmarshal(rec.Body.Bytes(), &textResp); err != nil {
		t.Fatal(err)
	}
	if !textResp.Certified || textResp.Name != "t.click" {
		t.Errorf("text verdict: %+v", textResp.BatchVerdict)
	}

	body, _ := json.Marshal(jsonSubmission{Name: "j.click", Config: validConfig})
	rec = do(t, s, http.MethodPost, "/verify", "application/json", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("json submission = %d: %s", rec.Code, rec.Body.String())
	}
	var jsonResp response
	if err := json.Unmarshal(rec.Body.Bytes(), &jsonResp); err != nil {
		t.Fatal(err)
	}
	if !jsonResp.Certified || jsonResp.Name != "j.click" {
		t.Errorf("json verdict: %+v", jsonResp.BatchVerdict)
	}
	if jsonResp.Fingerprint != textResp.Fingerprint {
		t.Error("same pipeline, different fingerprints across encodings")
	}
}

func TestVerifyReportsInductionForStatefulPipelines(t *testing.T) {
	s := testServer()
	rec := do(t, s, http.MethodPost, "/verify?name=cnt.click", "text/plain", `
		src :: InfiniteSource;
		cnt :: Counter(SATURATE);
		src -> cnt -> Discard;`)
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body.String())
	}
	var resp response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Induction) != 1 || !resp.Induction[0].Proved {
		t.Fatalf("induction results missing from verdict: %+v", resp.BatchVerdict)
	}
}

func TestStatsExposesRefinementAndInductionCounters(t *testing.T) {
	s := testServer()
	// Drive a stateful submission so the induction counters move.
	if rec := do(t, s, http.MethodPost, "/verify", "text/plain", `
		src :: InfiniteSource;
		cnt :: Counter(SATURATE);
		src -> cnt -> Discard;`); rec.Code != http.StatusOK {
		t.Fatalf("submission failed: %d", rec.Code)
	}
	rec := do(t, s, http.MethodGet, "/stats", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats = %d", rec.Code)
	}
	var out struct {
		Counters map[string]int `json:"counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"refinement_truncated", "induction_proved", "induction_depth", "seq_sequences", "seq_spec_refuted"} {
		if _, ok := out.Counters[key]; !ok {
			t.Errorf("/stats counters missing %q", key)
		}
	}
	if out.Counters["induction_proved"] != 1 {
		t.Errorf("induction_proved = %d, want 1", out.Counters["induction_proved"])
	}
}

// TestStatsExposeStitchCounters: /stats and /metrics report how many
// stitch decisions were replayed, how many composed states were built
// and how many path ends the concrete tables ruled out (none here). A
// resubmission replays its walks from the verifier's certificate tables
// and builds nothing.
func TestStatsExposeStitchCounters(t *testing.T) {
	s := &server{}
	s.verifier = verify.New(verify.Options{MinLen: 14, MaxLen: 48, Metrics: s.initTelemetry()})
	counters := func() map[string]int {
		rec := do(t, s, http.MethodGet, "/stats", "", "")
		var out struct {
			Counters map[string]int `json:"counters"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.Counters
	}
	var first map[string]int
	for i := 0; i < 2; i++ {
		if rec := do(t, s, http.MethodPost, "/verify", "text/plain", validConfig); rec.Code != http.StatusOK {
			t.Fatalf("submission %d = %d: %s", i, rec.Code, rec.Body.String())
		}
		if i == 0 {
			first = counters()
		}
	}
	c := counters()
	if first["stitches_built"] == 0 {
		t.Error("first submission built no composed state")
	}
	if c["stitches_built"] != first["stitches_built"] || c["stitches_replayed"] <= first["stitches_replayed"] {
		t.Errorf("resubmission: built %d -> %d, replayed %d -> %d; want built unchanged, replayed up",
			first["stitches_built"], c["stitches_built"], first["stitches_replayed"], c["stitches_replayed"])
	}
	if n, ok := c["table_refinements"]; !ok || n != 0 {
		t.Errorf("table_refinements = %d (present %v), want 0", n, ok)
	}
	rec := do(t, s, http.MethodGet, "/metrics", "", "")
	for _, line := range []string{
		fmt.Sprintf("vsd_stitches_built_total %d", c["stitches_built"]),
		fmt.Sprintf("vsd_stitches_replayed_total %d", c["stitches_replayed"]),
		"vsd_table_refinements_total 0",
	} {
		if !strings.Contains(rec.Body.String(), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// queuedServer builds a server backed by a durable queue in a fresh
// journal directory (no worker running yet).
func queuedServer(t *testing.T, depth int) *server {
	t.Helper()
	dir := t.TempDir()
	q, err := queue.Open(queue.Options{Dir: dir, MaxDepth: depth, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := testServer()
	s.queue = q
	s.maxAttempts = 3
	s.verdictLog = filepath.Join(dir, "verdicts.jsonl")
	return s
}

func TestVerifyRejectsOversizedBody(t *testing.T) {
	s := testServer()
	big := strings.Repeat("x", maxConfigBytes+1)
	rec := do(t, s, http.MethodPost, "/verify", "text/plain", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", rec.Code)
	}
}

func TestQueuedVerifyDeliversVerdictAndLogsIt(t *testing.T) {
	s := queuedServer(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.queue.Run(ctx, s.process, s.exhausted)

	rec := do(t, s, http.MethodPost, "/verify?name=q.click", "text/plain", validConfig)
	if rec.Code != http.StatusOK {
		t.Fatalf("queued submission = %d: %s", rec.Code, rec.Body.String())
	}
	var resp response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Certified || resp.Name != "q.click" {
		t.Errorf("queued verdict: %+v", resp.BatchVerdict)
	}
	// The verdict is durably logged under the submission's fingerprint.
	var rc struct {
		Key     string              `json:"key"`
		Verdict verify.BatchVerdict `json:"verdict"`
	}
	readLog := func() bool {
		data, err := os.ReadFile(s.verdictLog)
		if err != nil || len(data) == 0 {
			return false
		}
		if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(string(data)), "\n")[0]), &rc); err != nil {
			t.Fatal(err)
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !readLog() {
		if time.Now().After(deadline) {
			t.Fatal("verdict log never written")
		}
		time.Sleep(time.Millisecond)
	}
	if rc.Key != resp.Fingerprint || !rc.Verdict.Certified {
		t.Errorf("verdict log: key %q verdict %+v", rc.Key, rc.Verdict)
	}
}

func TestOverloadReturns503WithRetryAfter(t *testing.T) {
	s := queuedServer(t, 1)
	// Fill the single slot directly; no worker runs, so it stays pending.
	if _, err := s.queue.Enqueue("occupied", []byte("x")); err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, http.MethodPost, "/verify", "text/plain", validConfig)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded queue = %d, want 503 (body: %s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
}

// TestDrainRefusesNewWorkAndKeepsJournal is the graceful-shutdown
// contract at the handler level: after the drain starts, new
// submissions get an explicit 503, and whatever did not drain is still
// journaled for the next start.
func TestDrainRefusesNewWorkAndKeepsJournal(t *testing.T) {
	s := queuedServer(t, 8)
	if _, err := s.queue.Enqueue("stuck", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// No worker is running, so the drain must time out with the job
	// still pending.
	if s.queue.Drain(20 * time.Millisecond) {
		t.Fatal("drain reported success with a pending job and no worker")
	}
	rec := do(t, s, http.MethodPost, "/verify", "text/plain", validConfig)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining service = %d, want 503 (body: %s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After header")
	}
	// Restart: the undrained job replays from the journal.
	q2, err := queue.Open(queue.Options{Dir: filepath.Dir(s.verdictLog)})
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Stats().Replayed; got != 1 {
		t.Fatalf("restart replayed %d job(s), want 1", got)
	}
}

func TestStatsExposesRobustnessCounters(t *testing.T) {
	s := queuedServer(t, 8)
	rec := do(t, s, http.MethodGet, "/stats", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats = %d", rec.Code)
	}
	var out struct {
		Robustness map[string]int64 `json:"robustness"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"panics_recovered", "watchdog_fired", "queue_depth",
		"queue_enqueued", "queue_replayed", "queue_quarantined", "queue_retries", "queue_exhausted",
		"verdict_cache_hits"} {
		if _, ok := out.Robustness[key]; !ok {
			t.Errorf("/stats robustness missing %q", key)
		}
	}
}

// TestHTTPServerHasTimeouts pins the header/read/write timeouts a
// public daemon needs so one stuck client cannot wedge it.
func TestHTTPServerHasTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 {
		t.Fatalf("server missing timeouts: header=%v read=%v write=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
}

func TestHealthz(t *testing.T) {
	rec := do(t, testServer(), http.MethodGet, "/healthz", "", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

// TestRefusesEmptyLengthRange: a -maxlen below the minimum frame length
// leaves no packet to verify, so the daemon must refuse to start rather
// than certify every submission vacuously. It refuses before it opens a
// store or a queue, binds an address (the unbindable one here would fail
// differently), or runs a self-test.
func TestRefusesEmptyLengthRange(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:-1", "-maxlen", "10",
			"-store", filepath.Join(dir, "store"), "-queue", filepath.Join(dir, "queue")},
		{"-maxlen", "13", "-smoke", dir},
		{"-maxlen", "10", "-chaos", dir},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "empty packet-length range 14..") {
			t.Errorf("vsdserve %s: %v; want the empty-range refusal", strings.Join(args, " "), err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a refused start left %d entries behind", len(entries))
	}
}

// robustness reads the /stats robustness counters.
func robustness(t *testing.T, s *server) map[string]int64 {
	t.Helper()
	rec := do(t, s, http.MethodGet, "/stats", "", "")
	var out struct {
		Robustness map[string]int64 `json:"robustness"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Robustness
}

// logLines counts the verdict log's lines.
func logLines(t *testing.T, s *server) int {
	t.Helper()
	data, err := os.ReadFile(s.verdictLog)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// postVerdict submits config under name and decodes the 200 reply.
func postVerdict(t *testing.T, s *server, name, config string) response {
	t.Helper()
	return decodeVerdict(t, do(t, s, http.MethodPost, "/verify?name="+name, "text/plain", config))
}

func decodeVerdict(t *testing.T, rec *httptest.ResponseRecorder) response {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("/verify = %d: %s", rec.Code, rec.Body.String())
	}
	var resp response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestQueuedResubmissionAnsweredFromLoggedVerdict: once a clean verdict
// is in the verdict log, a resubmission of the same pipeline under
// another name gets that verdict back with its own name and wall_ms 0,
// and creates no job and no log line.
func TestQueuedResubmissionAnsweredFromLoggedVerdict(t *testing.T) {
	s := queuedServer(t, 8)
	s.initTelemetry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.queue.Run(ctx, s.process, s.exhausted)

	first := postVerdict(t, s, "first.click", validConfig)
	if !first.Certified {
		t.Fatalf("first verdict: %+v", first.BatchVerdict)
	}
	before, lines := robustness(t, s), logLines(t, s)
	again := postVerdict(t, s, "again.click", validConfig)
	if again.Name != "again.click" || again.WallMS != 0 {
		t.Errorf("resubmission answered as name %q, wall_ms %d; want again.click, 0", again.Name, again.WallMS)
	}
	again.Name, again.WallMS = first.Name, first.WallMS
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Errorf("resubmission verdict differs:\nfirst: %s\nagain: %s", a, b)
	}
	after := robustness(t, s)
	if after["queue_enqueued"] != before["queue_enqueued"] || after["queue_deduped"] != before["queue_deduped"] {
		t.Errorf("resubmission reached the queue: enqueued %d -> %d, deduped %d -> %d",
			before["queue_enqueued"], after["queue_enqueued"], before["queue_deduped"], after["queue_deduped"])
	}
	if n := logLines(t, s); n != lines {
		t.Errorf("verdict log grew %d -> %d lines", lines, n)
	}
	if after["verdict_cache_hits"] != before["verdict_cache_hits"]+1 {
		t.Errorf("verdict_cache_hits %d -> %d, want +1", before["verdict_cache_hits"], after["verdict_cache_hits"])
	}
	if rec := do(t, s, http.MethodGet, "/metrics", "", ""); !strings.Contains(rec.Body.String(), "vsd_verdict_cache_hits_total 1\n") {
		t.Errorf("/metrics lacks vsd_verdict_cache_hits_total 1:\n%s", rec.Body.String())
	}
}

// TestDegradedVerdictIsNotCached: a verdict with unresolved obligations
// is final only for the job that produced it; the same pipeline
// submitted again is queued and verified again.
func TestDegradedVerdictIsNotCached(t *testing.T) {
	s := queuedServer(t, 8)
	// The watchdog interrupts every attempt before it can decide anything.
	s.jobBudget = time.Nanosecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.queue.Run(ctx, s.process, s.exhausted)

	for i := 1; i <= 2; i++ {
		// No wait for the first job to retire: its key is freed before
		// its verdict is delivered, so the resubmission is a new job.
		resp := postVerdict(t, s, "degraded.click", validConfig)
		if resp.Unresolved == 0 && resp.Error == "" {
			t.Fatalf("submission %d: clean verdict under a 1 ns watchdog: %+v", i, resp.BatchVerdict)
		}
		c := robustness(t, s)
		if c["queue_enqueued"] != int64(i) || c["verdict_cache_hits"] != 0 {
			t.Errorf("after submission %d: queue_enqueued %d, verdict_cache_hits %d; want %d, 0",
				i, c["queue_enqueued"], c["verdict_cache_hits"], i)
		}
	}
	if n := logLines(t, s); n != 2 {
		t.Errorf("verdict log has %d lines, want one per degraded job (2)", n)
	}
}

// TestPendingResubmissionDedupsOntoJob: a resubmission that arrives
// before the first job has a verdict attaches to that job, and both
// handlers get its verdict.
func TestPendingResubmissionDedupsOntoJob(t *testing.T) {
	s := queuedServer(t, 8)
	replies := make(chan *httptest.ResponseRecorder, 2)
	post := func(name string) {
		go func() { replies <- do(t, s, http.MethodPost, "/verify?name="+name, "text/plain", validConfig) }()
	}
	waitFor := func(what string, cond func(map[string]int64) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(robustness(t, s)) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %v", what, robustness(t, s))
			}
			time.Sleep(time.Millisecond)
		}
	}
	// No worker yet, so the first job stays pending.
	post("pending.click")
	waitFor("the first job", func(c map[string]int64) bool { return c["queue_enqueued"] == 1 })
	post("attached.click")
	waitFor("the dedup", func(c map[string]int64) bool { return c["queue_deduped"] == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.queue.Run(ctx, s.process, s.exhausted)
	for i := 0; i < 2; i++ {
		select {
		case rec := <-replies:
			resp := decodeVerdict(t, rec)
			if !resp.Certified || resp.Name != "pending.click" {
				t.Errorf("reply %d: name %q, %+v", i, resp.Name, resp.BatchVerdict)
			}
		case <-time.After(time.Minute):
			t.Fatal("a handler never got the verdict")
		}
	}
	c := robustness(t, s)
	if c["queue_enqueued"] != 1 || c["verdict_cache_hits"] != 0 {
		t.Errorf("queue_enqueued %d, verdict_cache_hits %d; want 1, 0", c["queue_enqueued"], c["verdict_cache_hits"])
	}
	if n := logLines(t, s); n != 1 {
		t.Errorf("verdict log has %d lines, want 1", n)
	}
}
