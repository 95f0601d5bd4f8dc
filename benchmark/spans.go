package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vsd/internal/telemetry"
)

// recorder keeps the benchmark's own spans — one around each call into
// a layer's public function — in memory for the length of a traced run.
// It records through internal/telemetry.Tracer, so the file written at
// exit loads in Perfetto and passes telemetry.ValidateTrace, and it
// keeps per-name totals and self times (span minus the part its child
// spans cover) for the per-layer table. On an untraced run every method
// is a no-op: end-to-end numbers never pay for a span.
type recorder struct {
	tracer *telemetry.Tracer

	mu    sync.Mutex
	n     int
	stats map[string]spanStat
}

// spanStat sums the spans of one name.
type spanStat struct {
	count       int
	total, self time.Duration
}

func newRecorder(on bool) *recorder {
	if !on {
		return &recorder{}
	}
	return &recorder{tracer: telemetry.New(telemetry.Opts{}), stats: map[string]spanStat{}}
}

func (r *recorder) on() bool { return r.tracer != nil }

// lane is one goroutine's span stack.
type lane struct {
	r     *recorder
	l     *telemetry.Lane
	stack []*openSpan
}

type openSpan struct {
	name     string
	start    time.Time
	children time.Duration
	sp       telemetry.Span
}

// lane opens a lane; each goroutine that records spans owns one.
func (r *recorder) lane(name string) *lane {
	return &lane{r: r, l: r.tracer.Lane(name)}
}

// begin opens a span named layer.what; op is the identifier shared by
// all spans of one certification or request. The parent is the span
// open on this lane. Close it with end.
func (ln *lane) begin(name string, op int) {
	if !ln.r.on() {
		return
	}
	sp := ln.l.Begin("benchmark", name)
	sp.SetInt("op", int64(op))
	if n := len(ln.stack); n > 0 {
		sp.SetStr("parent", ln.stack[n-1].name)
	}
	ln.stack = append(ln.stack, &openSpan{name: name, start: time.Now(), sp: sp})
}

// end closes the innermost open span and returns its duration (0 when
// untraced).
func (ln *lane) end() time.Duration {
	if !ln.r.on() {
		return 0
	}
	top := ln.stack[len(ln.stack)-1]
	ln.stack = ln.stack[:len(ln.stack)-1]
	top.sp.End()
	d := time.Since(top.start)
	if n := len(ln.stack); n > 0 {
		ln.stack[n-1].children += d
	}
	r := ln.r
	r.mu.Lock()
	st := r.stats[top.name]
	r.n++
	r.stats[top.name] = spanStat{st.count + 1, st.total + d, st.self + d - top.children}
	r.mu.Unlock()
	return d
}

func (r *recorder) spans() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// stat returns the count, summed duration and summed self time of the
// spans with this name.
func (r *recorder) stat(name string) spanStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats[name]
}

// printSelfTimes prints the span table: per span name, how many, total
// and self time.
func (r *recorder) printSelfTimes() {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.stats))
	for n := range r.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# spans: %-28s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, n := range names {
		st := r.stats[n]
		fmt.Printf("# spans: %-28s %8d %12.3f %12.3f\n", n, st.count,
			float64(st.total.Microseconds())/1e3, float64(st.self.Microseconds())/1e3)
	}
}
