package queue

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastOpts returns queue options tuned for test latency.
func fastOpts(dir string) Options {
	return Options{Dir: dir, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
}

// drainAll runs the queue until it empties, collecting outcomes.
func drainAll(t *testing.T, q *Queue, process func(context.Context, *Job) error) (done []*Job, dead []*Job) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		q.Run(ctx, func(ctx context.Context, j *Job) error {
			err := process(ctx, j)
			if err == nil {
				mu.Lock()
				done = append(done, j)
				mu.Unlock()
			}
			return err
		}, func(j *Job, err error) {
			mu.Lock()
			dead = append(dead, j)
			mu.Unlock()
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for q.Depth() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-finished
	return done, dead
}

func TestEnqueueProcessComplete(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := q.Enqueue(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done, dead := drainAll(t, q, func(context.Context, *Job) error { return nil })
	if len(done) != 5 || len(dead) != 0 {
		t.Fatalf("done=%d dead=%d, want 5/0", len(done), len(dead))
	}
	// FIFO order and journal cleanup.
	for i := 1; i < len(done); i++ {
		if done[i-1].ID >= done[i].ID {
			t.Fatalf("completion out of order: %d before %d", done[i-1].ID, done[i].ID)
		}
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == jobExt {
			t.Fatalf("journal entry %s left after completion", e.Name())
		}
	}
	st := q.Stats()
	if st.Enqueued != 5 || st.Completed != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCrashReplayConverges(t *testing.T) {
	dir := t.TempDir()
	q1, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := q1.Enqueue(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Process exactly one job, then "crash" (abandon q1 without Close —
	// the journal is the only survivor, as after kill -9).
	ctx, cancel := context.WithCancel(context.Background())
	processed := make(chan *Job, 1)
	go q1.Run(ctx, func(_ context.Context, j *Job) error {
		select {
		case processed <- j:
		default:
		}
		cancel()
		return nil
	}, nil)
	first := <-processed
	<-ctx.Done()

	q2, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Stats().Replayed; got < 3 {
		t.Fatalf("replayed %d jobs, want at least the 3 unprocessed", got)
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	drainAll(t, q2, func(_ context.Context, j *Job) error {
		mu.Lock()
		seen[j.Key] = true
		mu.Unlock()
		return nil
	})
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		if !seen[k] && k != first.Key {
			t.Fatalf("job %s lost across the crash", k)
		}
	}
}

func TestReplayQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	q1, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := 0; i < 3; i++ {
		j, err := q1.Enqueue(fmt.Sprintf("k%d", i), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, q1.jobPath(j.ID))
	}
	// Corrupt one entry three ways across test runs: truncate.
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// And bit-flip another.
	data2, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	data2[len(data2)/2] ^= 0x10
	if err := os.WriteFile(paths[2], data2, 0o644); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := q2.Stats()
	if st.Replayed != 1 || st.Quarantined != 2 {
		t.Fatalf("replayed=%d quarantined=%d, want 1/2", st.Replayed, st.Quarantined)
	}
	// The corrupt bytes are preserved for inspection, not deleted.
	qents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(qents) != 2 {
		t.Fatalf("quarantine holds %d entries (err %v), want 2", len(qents), err)
	}
	done, _ := drainAll(t, q2, func(context.Context, *Job) error { return nil })
	if len(done) != 1 || done[0].Key != "k0" {
		t.Fatalf("surviving job wrong: %+v", done)
	}
}

func TestOverloadBackpressure(t *testing.T) {
	opts := fastOpts(t.TempDir())
	opts.MaxDepth = 2
	q, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("b", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("c", nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third enqueue: %v, want ErrOverloaded", err)
	}
	if st := q.Stats(); st.Overflows != 1 {
		t.Fatalf("overflow not counted: %+v", st)
	}
	// Refused jobs leave no journal entries behind.
	ents, _ := os.ReadDir(opts.Dir)
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == jobExt {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("journal holds %d entries, want 2", n)
	}
}

func TestIdempotentResubmission(t *testing.T) {
	q, err := Open(fastOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.Enqueue("same", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Enqueue("same", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("resubmitting a pending key must return the pending job")
	}
	if q.Depth() != 1 {
		t.Fatalf("depth %d, want 1", q.Depth())
	}
	if st := q.Stats(); st.Deduped != 1 {
		t.Fatalf("dedup not counted: %+v", st)
	}
	// After completion the key is free again.
	drainAll(t, q, func(context.Context, *Job) error { return nil })
	q.mu.Lock()
	q.closed = false // reopen for the test; Drain/Close is covered elsewhere
	q.mu.Unlock()
	c, err := q.Enqueue("same", []byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("completed key did not free")
	}
}

// TestReleaseFreesKeyBeforeRetirement: once the process callback
// releases its job, a resubmission of the key is a new job even while
// the first is still in flight, and retiring the first job leaves the
// new job's key held.
func TestReleaseFreesKeyBeforeRetirement(t *testing.T) {
	q, err := Open(fastOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	first, err := q.Enqueue("same", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	var second *Job
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		q.Run(ctx, func(_ context.Context, j *Job) error {
			if j != first {
				// The first job has retired by now; its retirement must
				// not have freed this job's key.
				if again, _ := q.Enqueue("same", []byte("w")); again != j {
					t.Error("retiring the first job freed the second job's key")
				}
				return nil
			}
			if again, _ := q.Enqueue("same", []byte("y")); again != first {
				t.Error("an unreleased in-flight key did not dedup")
			}
			q.Release(j)
			second, err = q.Enqueue("same", []byte("z"))
			if err != nil || second == first {
				t.Errorf("after Release the key still dedups onto the first job (err %v)", err)
			}
			return nil
		}, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the jobs never completed")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-ran
	if st := q.Stats(); st.Enqueued != 2 || st.Deduped != 2 {
		t.Errorf("stats %+v, want 2 enqueued and 2 dedups", st)
	}
}

func TestRetryBackoffThenExhaustion(t *testing.T) {
	opts := fastOpts(t.TempDir())
	opts.MaxAttempts = 3
	q, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("flaky", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("doomed", nil); err != nil {
		t.Fatal(err)
	}
	var flakyTries atomic.Int64
	done, dead := drainAll(t, q, func(_ context.Context, j *Job) error {
		if j.Key == "flaky" {
			if flakyTries.Add(1) < 3 {
				return errors.New("transient")
			}
			return nil
		}
		return errors.New("permanent")
	})
	if len(done) != 1 || done[0].Key != "flaky" {
		t.Fatalf("flaky job did not converge: done=%+v", done)
	}
	if len(dead) != 1 || dead[0].Key != "doomed" || dead[0].Attempts != 3 {
		t.Fatalf("doomed job not exhausted after 3 attempts: %+v", dead)
	}
	st := q.Stats()
	if st.Retries == 0 || st.Exhausted != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestJobDeadlineExhausts(t *testing.T) {
	opts := fastOpts(t.TempDir())
	opts.JobTimeout = 20 * time.Millisecond
	opts.MaxAttempts = 1000
	q, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("slow", nil); err != nil {
		t.Fatal(err)
	}
	_, dead := drainAll(t, q, func(context.Context, *Job) error {
		time.Sleep(10 * time.Millisecond)
		return errors.New("keep failing")
	})
	if len(dead) != 1 {
		t.Fatalf("deadline did not exhaust the job: %+v", dead)
	}
	if dead[0].Attempts >= 1000 {
		t.Fatal("deadline should fire long before the attempt budget")
	}
}

func TestDrainStopsIntakeKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("pending", nil); err != nil {
		t.Fatal(err)
	}
	// No worker: the drain must time out, refuse new work, and leave
	// the journal for the next Open.
	if q.Drain(30 * time.Millisecond) {
		t.Fatal("drain reported success with a pending job and no worker")
	}
	if _, err := q.Enqueue("late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain enqueue: %v, want ErrClosed", err)
	}
	q2, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if q2.Stats().Replayed != 1 {
		t.Fatalf("undrained job not replayed: %+v", q2.Stats())
	}
}

func TestConcurrentEnqueueAndProcess(t *testing.T) {
	opts := fastOpts(t.TempDir())
	opts.MaxDepth = 1 << 20
	q, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 8, 25
	var wg sync.WaitGroup
	var enqueued atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if _, err := q.Enqueue(fmt.Sprintf("p%d-%d", p, i), nil); err == nil {
					enqueued.Add(1)
				}
			}
		}(p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var processed atomic.Int64
	workers := make(chan struct{}, 3)
	for w := 0; w < 3; w++ {
		workers <- struct{}{}
		go func() {
			defer func() { <-workers }()
			q.Run(ctx, func(context.Context, *Job) error {
				processed.Add(1)
				return nil
			}, nil)
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for q.Depth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	for i := 0; i < cap(workers); i++ {
		workers <- struct{}{}
	}
	if processed.Load() != enqueued.Load() {
		t.Fatalf("processed %d of %d enqueued", processed.Load(), enqueued.Load())
	}
}
