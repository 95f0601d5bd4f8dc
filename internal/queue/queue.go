// Package queue is the crash-safe submission queue in front of the
// certification service (DESIGN.md §9). A daemon that accepts
// verification jobs over HTTP owes its callers two things a bare
// handler cannot give: accepted work survives a crash, and overload is
// refused explicitly instead of absorbed until the process dies.
//
//   - Durability: every accepted job is journaled to disk (temp file,
//     fsync, rename, directory fsync) before Enqueue returns; Open
//     replays the journal, so a kill -9 mid-batch loses nothing that
//     was acknowledged. Corrupt journal entries are quarantined aside
//     — counted and kept for inspection, never replayed and never
//     fatal.
//   - Backpressure: depth is bounded; past the bound Enqueue returns
//     ErrOverloaded, which the HTTP layer maps to 503 + Retry-After.
//   - Idempotency: jobs carry a caller-supplied key (the pipeline
//     fingerprint); re-submitting a key that is still pending returns
//     the existing job instead of queueing twice.
//   - Bounded effort: each job carries a deadline and a retry budget;
//     failed attempts back off exponentially with seeded jitter, and
//     exhaustion surfaces as an explicit terminal failure, never a
//     hang or a silent drop.
package queue

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vsd/internal/telemetry"
)

// ErrOverloaded is returned by Enqueue when the queue is at capacity.
// Callers translate it into backpressure (HTTP 503 + Retry-After).
var ErrOverloaded = errors.New("queue: at capacity")

// ErrClosed is returned by Enqueue after Close (graceful drain).
var ErrClosed = errors.New("queue: closed")

// Job is one accepted submission.
type Job struct {
	// ID orders jobs; it is unique within a journal directory and
	// preserved across restarts.
	ID uint64
	// Key is the caller-supplied idempotency key.
	Key string
	// Payload is the opaque submission body.
	Payload []byte
	// Attempts counts processing attempts so far (not persisted: a
	// restart resets the retry budget along with the in-flight state).
	Attempts int
	// Deadline bounds the job's total wall time in the queue; zero
	// means no deadline.
	Deadline time.Time
	// enqueuedAt feeds the wait-time histogram (not persisted: a
	// replayed job's wait restarts at Open).
	enqueuedAt time.Time
}

// Options configures a Queue.
type Options struct {
	// Dir is the journal directory (required).
	Dir string
	// MaxDepth bounds pending jobs (0 = 256).
	MaxDepth int
	// MaxAttempts bounds processing attempts per job (0 = 3).
	MaxAttempts int
	// BaseBackoff is the first retry delay (0 = 50ms); attempt n waits
	// BaseBackoff << (n-1), jittered, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff (0 = 5s).
	MaxBackoff time.Duration
	// JobTimeout is each job's wall budget from acceptance to terminal
	// state (0 = none).
	JobTimeout time.Duration
	// Seed seeds the backoff jitter stream (deterministic chaos runs).
	Seed uint64
	// Trace records enqueue-journal spans and per-job processing spans
	// (one lane per Run worker) into the given tracer; nil disables
	// tracing at zero cost.
	Trace *telemetry.Tracer
	// Metrics registers queue counters and the wait/processing latency
	// histograms (vsd_queue_*) on the given registry; nil skips them.
	Metrics *telemetry.Registry
}

func (o Options) maxDepth() int {
	if o.MaxDepth > 0 {
		return o.MaxDepth
	}
	return 256
}

func (o Options) maxAttempts() int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return 3
}

func (o Options) baseBackoff() time.Duration {
	if o.BaseBackoff > 0 {
		return o.BaseBackoff
	}
	return 50 * time.Millisecond
}

func (o Options) maxBackoff() time.Duration {
	if o.MaxBackoff > 0 {
		return o.MaxBackoff
	}
	return 5 * time.Second
}

// Stats counts queue traffic.
type Stats struct {
	Enqueued    int64 // jobs accepted (journaled)
	Deduped     int64 // Enqueue calls answered by a pending job with the same key
	Overflows   int64 // Enqueue calls refused at capacity
	Replayed    int64 // jobs recovered from the journal at Open
	Quarantined int64 // corrupt journal entries set aside at Open
	Completed   int64 // jobs processed successfully
	Retries     int64 // failed attempts that were re-scheduled
	Exhausted   int64 // jobs that ran out of attempts or deadline
}

// Queue is a durable bounded FIFO work queue. Safe for concurrent use.
type Queue struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*Job          // FIFO order
	byKey    map[string]*Job // pending + in-flight jobs by idempotency key
	nextID   uint64
	closed   bool
	inFlight int
	jitter   uint64
	stats    Stats

	// Telemetry (all nil-safe; see internal/telemetry). enqLane carries
	// instant markers only — Enqueue is called concurrently, so spans
	// (which must nest per lane) live on the per-worker lanes in Run.
	enqLane     *telemetry.Lane
	workerLanes int
	waitHist    *telemetry.Histogram // pending-to-taken latency
	procHist    *telemetry.Histogram // per-attempt processing latency
	journalHist *telemetry.Histogram // durable journal-write latency
}

// Open opens (creating if needed) the queue journaled at opts.Dir and
// replays every intact entry. Corrupt entries are renamed aside into
// the quarantine subdirectory.
func Open(opts Options) (*Queue, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("queue: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("queue: opening journal: %w", err)
	}
	q := &Queue{
		opts:   opts,
		byKey:  map[string]*Job{},
		jitter: opts.Seed ^ 0x9e3779b97f4a7c15,
	}
	q.cond = sync.NewCond(&q.mu)
	q.enqLane = opts.Trace.Lane("queue-enqueue")
	q.waitHist = opts.Metrics.Histogram("vsd_queue_wait_seconds",
		"time jobs spend pending before a worker takes them", 1e9)
	q.procHist = opts.Metrics.Histogram("vsd_queue_process_seconds",
		"per-attempt job processing time", 1e9)
	q.journalHist = opts.Metrics.Histogram("vsd_queue_journal_seconds",
		"durable journal-write latency on the enqueue path", 1e9)
	opts.Metrics.GaugeFunc("vsd_queue_depth",
		"pending plus in-flight jobs", func() float64 { return float64(q.Depth()) })
	if err := q.replay(); err != nil {
		return nil, err
	}
	return q, nil
}

// jobExt and quarantineDir name the journal's on-disk artifacts.
const (
	jobExt        = ".job"
	quarantineDir = "quarantine"
)

// journalMagic frames job files.
const journalMagic = "VSDQJOB1\n"

// encodeJob frames a job for the journal: magic, id, key, payload,
// then a checksum over everything before it.
func encodeJob(j *Job) []byte {
	buf := make([]byte, 0, len(journalMagic)+8+4+len(j.Key)+4+len(j.Payload)+sha256.Size)
	buf = append(buf, journalMagic...)
	buf = binary.BigEndian.AppendUint64(buf, j.ID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(j.Key)))
	buf = append(buf, j.Key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(j.Payload)))
	buf = append(buf, j.Payload...)
	check := sha256.Sum256(buf)
	return append(buf, check[:]...)
}

// decodeJob validates a journal entry. Any framing violation is an
// error (the caller quarantines).
func decodeJob(data []byte) (*Job, error) {
	rest := data
	minLen := len(journalMagic) + 8 + 4 + 4 + sha256.Size
	if len(rest) < minLen || string(rest[:len(journalMagic)]) != journalMagic {
		return nil, fmt.Errorf("queue: journal entry has bad header")
	}
	body, check := rest[:len(rest)-sha256.Size], rest[len(rest)-sha256.Size:]
	if sha256.Sum256(body) != [sha256.Size]byte(check) {
		return nil, fmt.Errorf("queue: journal entry checksum mismatch")
	}
	body = body[len(journalMagic):]
	id := binary.BigEndian.Uint64(body)
	body = body[8:]
	keyLen := binary.BigEndian.Uint32(body)
	body = body[4:]
	if uint64(keyLen)+4 > uint64(len(body)) {
		return nil, fmt.Errorf("queue: journal entry key truncated")
	}
	key := string(body[:keyLen])
	body = body[keyLen:]
	payLen := binary.BigEndian.Uint32(body)
	body = body[4:]
	if uint32(len(body)) != payLen {
		return nil, fmt.Errorf("queue: journal entry payload length mismatch")
	}
	return &Job{ID: id, Key: key, Payload: append([]byte(nil), body...)}, nil
}

func (q *Queue) jobPath(id uint64) string {
	return filepath.Join(q.opts.Dir, fmt.Sprintf("%016x%s", id, jobExt))
}

// persist writes the job's journal entry durably: temp file, write,
// fsync, rename into place, directory fsync.
func (q *Queue) persist(j *Job) error {
	tmp, err := os.CreateTemp(q.opts.Dir, "tmp-*"+jobExt)
	if err != nil {
		return err
	}
	_, werr := tmp.Write(encodeJob(j))
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, serr, cerr)
	}
	if err := os.Rename(tmp.Name(), q.jobPath(j.ID)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(q.opts.Dir)
	return nil
}

// syncDir fsyncs a directory so completed renames survive a crash
// (best-effort, as in the summary store).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// replay loads every journal entry at Open, quarantining the ones that
// fail validation. Jobs resume in ID order; stray temp files from a
// crashed persist are removed (their jobs were never acknowledged).
func (q *Queue) replay() error {
	ents, err := os.ReadDir(q.opts.Dir)
	if err != nil {
		return fmt.Errorf("queue: reading journal: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(q.opts.Dir, name))
			continue
		}
		if strings.HasSuffix(name, jobExt) {
			names = append(names, name)
		}
	}
	sort.Strings(names) // zero-padded hex IDs sort chronologically
	for _, name := range names {
		path := filepath.Join(q.opts.Dir, name)
		job, err := q.loadEntry(path, name)
		if err != nil {
			q.quarantine(path, name)
			continue
		}
		q.admit(job)
		q.stats.Replayed++
		if job.ID >= q.nextID {
			q.nextID = job.ID + 1
		}
	}
	return nil
}

// loadEntry reads and validates one journal file, also rejecting
// entries whose file name disagrees with the embedded ID (a renamed
// journal file is as suspect as a renamed store artifact).
func (q *Queue) loadEntry(path, name string) (*Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	job, err := decodeJob(data)
	if err != nil {
		return nil, err
	}
	wantID, err := strconv.ParseUint(strings.TrimSuffix(name, jobExt), 16, 64)
	if err != nil || wantID != job.ID {
		return nil, fmt.Errorf("queue: journal entry ID mismatch")
	}
	return job, nil
}

// quarantine moves a corrupt journal entry aside, preserving the bytes
// for inspection. A failed rename falls back to removal: a corrupt
// entry may never be replayed as a job.
func (q *Queue) quarantine(path, name string) {
	qdir := filepath.Join(q.opts.Dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil || os.Rename(path, filepath.Join(qdir, name)) != nil {
		os.Remove(path)
	}
	q.stats.Quarantined++
}

// admit appends a job to the pending list (caller holds mu or is
// single-threaded during replay).
func (q *Queue) admit(j *Job) {
	if q.opts.JobTimeout > 0 && j.Deadline.IsZero() {
		j.Deadline = time.Now().Add(q.opts.JobTimeout)
	}
	j.enqueuedAt = time.Now()
	q.pending = append(q.pending, j)
	q.byKey[j.Key] = j
}

// Enqueue journals a new job and admits it. At capacity it returns
// ErrOverloaded; if key matches a pending or in-flight job, that job
// is returned instead (idempotent resubmission, not an error).
func (q *Queue) Enqueue(key string, payload []byte) (*Job, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	if prev, ok := q.byKey[key]; ok {
		q.stats.Deduped++
		q.mu.Unlock()
		q.enqLane.Instant("queue", "dedup")
		return prev, nil
	}
	if len(q.pending)+q.inFlight >= q.opts.maxDepth() {
		q.stats.Overflows++
		q.mu.Unlock()
		q.enqLane.Instant("queue", "overflow")
		return nil, ErrOverloaded
	}
	job := &Job{ID: q.nextID, Key: key, Payload: append([]byte(nil), payload...)}
	q.nextID++
	q.mu.Unlock()

	// Durability before acknowledgement: the journal write happens
	// outside the lock (it fsyncs), and only a persisted job is
	// admitted.
	jStart := time.Now()
	if err := q.persist(job); err != nil {
		return nil, fmt.Errorf("queue: journaling job: %w", err)
	}
	q.journalHist.Record(int64(time.Since(jStart)))
	q.enqLane.Instant("queue", "enqueue")

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		os.Remove(q.jobPath(job.ID))
		return nil, ErrClosed
	}
	if prev, ok := q.byKey[key]; ok {
		// A concurrent Enqueue with the same key won the race; keep the
		// earlier job and drop this journal entry.
		os.Remove(q.jobPath(job.ID))
		q.stats.Deduped++
		return prev, nil
	}
	q.admit(job)
	q.stats.Enqueued++
	q.cond.Broadcast()
	return job, nil
}

// Depth reports pending plus in-flight jobs.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending) + q.inFlight
}

// Stats returns a snapshot of the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// backoff returns the jittered delay before retry attempt n (1-based
// count of failures so far): base << (n-1), jittered to [50%,100%],
// capped.
func (q *Queue) backoff(n int) time.Duration {
	d := q.opts.baseBackoff()
	for i := 1; i < n && d < q.opts.maxBackoff(); i++ {
		d *= 2
	}
	if max := q.opts.maxBackoff(); d > max {
		d = max
	}
	q.mu.Lock()
	q.jitter += 0x9e3779b97f4a7c15
	z := q.jitter
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	q.mu.Unlock()
	// Jitter to [d/2, d): full-jitter spreads thundering herds, the
	// lower bound keeps retries meaningfully spaced.
	return d/2 + time.Duration(z%uint64(d/2+1))
}

// take blocks until a job is available or the context/queue ends.
func (q *Queue) take(ctx context.Context) *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil
		}
		if len(q.pending) > 0 {
			job := q.pending[0]
			q.pending = q.pending[1:]
			q.inFlight++
			if !job.enqueuedAt.IsZero() {
				q.waitHist.Record(int64(time.Since(job.enqueuedAt)))
			}
			return job
		}
		if q.closed {
			return nil
		}
		q.cond.Wait()
	}
}

// Release frees an in-flight job's key: a later Enqueue of the key
// makes a new job instead of attaching to this one. A process callback
// calls it once the job's outcome is final and before publishing it, so
// no submission that arrives after the outcome dedups onto the finished
// job. The job stays journaled and in flight until Run retires it.
func (q *Queue) Release(job *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.release(job)
}

// release is Release under mu: it frees the key only while it is still
// this job's, never a newer job's with the same key.
func (q *Queue) release(job *Job) {
	if q.byKey[job.Key] == job {
		delete(q.byKey, job.Key)
	}
}

// finish retires an in-flight job: its journal entry is removed and
// its key freed.
func (q *Queue) finish(job *Job, ok bool) {
	os.Remove(q.jobPath(job.ID))
	q.mu.Lock()
	defer q.mu.Unlock()
	q.release(job)
	q.inFlight--
	if ok {
		q.stats.Completed++
	} else {
		q.stats.Exhausted++
	}
	q.cond.Broadcast()
}

// requeue puts a failed job back at the head of the line after its
// backoff (still journaled, still holding its key).
func (q *Queue) requeue(job *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = append([]*Job{job}, q.pending...)
	q.inFlight--
	q.stats.Retries++
	q.cond.Broadcast()
}

// Run processes jobs with process until ctx is cancelled, retrying
// failures on the backoff schedule within each job's attempt and
// deadline budget. When a job exhausts its budget, exhausted (if
// non-nil) receives it with the final error; the job is then retired.
// Run returns once ctx is done and no job is in flight in this call.
func (q *Queue) Run(ctx context.Context, process func(context.Context, *Job) error, exhausted func(*Job, error)) {
	// ctx cancellation must wake take's cond wait.
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer stop()
	// Each Run call is one goroutine, so it owns a lane: spans on it
	// nest properly no matter how many workers run concurrently.
	var lane *telemetry.Lane
	if q.opts.Trace != nil {
		q.mu.Lock()
		n := q.workerLanes
		q.workerLanes++
		q.mu.Unlock()
		lane = q.opts.Trace.Lane(fmt.Sprintf("queue-worker-%d", n))
	}
	for {
		job := q.take(ctx)
		if job == nil {
			return
		}
		if !job.Deadline.IsZero() && time.Now().After(job.Deadline) {
			if exhausted != nil {
				exhausted(job, fmt.Errorf("queue: job %d missed its deadline before processing", job.ID))
			}
			lane.Instant("queue", "deadline-miss")
			q.finish(job, false)
			continue
		}
		job.Attempts++
		sp := lane.Begin("queue", "job:"+strconv.FormatUint(job.ID, 10))
		if sp.Enabled() {
			sp.SetStr("key", job.Key)
			sp.SetInt("attempt", int64(job.Attempts))
		}
		pStart := time.Now()
		err := process(ctx, job)
		q.procHist.Record(int64(time.Since(pStart)))
		if sp.Enabled() {
			if err == nil {
				sp.SetStr("result", "ok")
			} else {
				sp.SetStr("result", "error")
			}
		}
		sp.End()
		if err == nil {
			q.finish(job, true)
			continue
		}
		expired := !job.Deadline.IsZero() && time.Now().After(job.Deadline)
		if job.Attempts >= q.opts.maxAttempts() || expired || ctx.Err() != nil {
			if exhausted != nil {
				exhausted(job, err)
			}
			q.finish(job, false)
			continue
		}
		delay := q.backoff(job.Attempts)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
		}
		q.requeue(job)
	}
}

// Close stops accepting new jobs. Pending jobs stay journaled (a
// restart replays them); combine with a cancelled Run context for a
// drain.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Drain closes the queue and waits until nothing is pending or in
// flight, or the timeout passes. It reports whether the queue fully
// drained; journaled leftovers survive for the next Open.
func (q *Queue) Drain(timeout time.Duration) bool {
	q.Close()
	deadline := time.Now().Add(timeout)
	for {
		q.mu.Lock()
		empty := len(q.pending) == 0 && q.inFlight == 0
		q.mu.Unlock()
		if empty {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
