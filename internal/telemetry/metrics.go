package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and serializes them in Prometheus text
// exposition format. A nil *Registry hands out nil metrics whose
// methods are allocation-free no-ops, so instrumented code never
// branches on "is telemetry on".
type Registry struct {
	mu     sync.Mutex
	names  []string // registration order is not stable; output is sorted
	metric map[string]metric
}

type metric interface {
	write(w io.Writer, name string)
	helpText() string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metric: make(map[string]metric)}
}

func (r *Registry) register(name string, m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metric[name]; ok {
		return old
	}
	r.metric[name] = m
	r.names = append(r.names, name)
	return m
}

// Counter returns the named monotonically increasing counter,
// creating it on first use. Nil registry returns nil (inert) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, &Counter{help: help}).(*Counter)
}

// Gauge returns the named settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, &Gauge{help: help}).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from f at scrape
// time — ideal for surfacing existing Stats() snapshots (queue depth,
// cache size) without double bookkeeping.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	if r == nil {
		return
	}
	r.register(name, &gaugeFunc{help: help, f: f})
}

// CounterFunc registers a counter whose value is read from f at scrape
// time, for a count its owner keeps whether or not a registry exists.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	if r == nil {
		return
	}
	r.register(name, &counterFunc{help: help, f: f})
}

// Histogram returns the named log-bucketed histogram. unitDiv scales
// recorded raw values into exposition units: a latency histogram
// recording nanoseconds passes 1e9 so Prometheus sees seconds, a size
// histogram passes 1. Nil registry returns nil (inert) histogram.
func (r *Registry) Histogram(name, help string, unitDiv float64) *Histogram {
	if r == nil {
		return nil
	}
	if unitDiv <= 0 {
		unitDiv = 1
	}
	return r.register(name, &Histogram{help: help, unitDiv: unitDiv}).(*Histogram)
}

// WritePrometheus serializes every registered metric in Prometheus
// text exposition format, sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	ms := make(map[string]metric, len(r.metric))
	for k, v := range r.metric {
		ms[k] = v
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		if h := m.helpText(); h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, h)
		}
		m.write(w, name)
	}
}

// Counter is a monotonically increasing counter. Nil-safe.
type Counter struct {
	v    atomic.Int64
	help string
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) helpText() string { return c.help }
func (c *Counter) write(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.v.Load())
}

// Gauge is a settable instantaneous value. Nil-safe.
type Gauge struct {
	v    atomic.Int64 // math.Float64bits encoded
	help string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(int64(math.Float64bits(v)))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(uint64(g.v.Load()))
}

func (g *Gauge) helpText() string { return g.help }
func (g *Gauge) write(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(g.Value()))
}

type gaugeFunc struct {
	help string
	f    func() float64
}

func (g *gaugeFunc) helpText() string { return g.help }
func (g *gaugeFunc) write(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(g.f()))
}

type counterFunc struct {
	help string
	f    func() int64
}

func (c *counterFunc) helpText() string { return c.help }
func (c *counterFunc) write(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.f())
}

// Histogram bucket geometry: HDR-style log-linear buckets. Values
// 0..15 get exact unit buckets; above that, each power-of-two octave
// is split into 16 linear sub-buckets, so the bucket width is always
// at most 1/16 of the bucket's lower bound — every recorded value is
// reconstructed with <= 6.25% relative error, which makes the
// extracted p50/p95/p99 "exact enough" for latency work while the
// record path stays a shift, a mask and one atomic add.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits // 16 sub-buckets per octave
	// Positive int64 values span exponents histSubBits..62, so the
	// highest bucket index is (62-histSubBits+1)*histSubCount+15 = 959.
	histBuckets = (63-histSubBits)*histSubCount + histSubCount // 960
)

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubCount {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(v>>uint(exp-histSubBits)) & (histSubCount - 1)
	return (exp-histSubBits+1)*histSubCount + sub
}

// bucketLower returns the smallest value mapping to bucket idx.
func bucketLower(idx int) int64 {
	if idx < histSubCount {
		return int64(idx)
	}
	exp := idx/histSubCount + histSubBits - 1
	sub := idx % histSubCount
	return (int64(histSubCount) + int64(sub)) << uint(exp-histSubBits)
}

// bucketUpper returns the exclusive upper bound of bucket idx.
func bucketUpper(idx int) int64 {
	if idx+1 >= histBuckets {
		return math.MaxInt64
	}
	return bucketLower(idx + 1)
}

// Histogram is a concurrent log-bucketed histogram over non-negative
// int64 samples (typically nanoseconds). Record is lock-free; nil
// histograms ignore Record without allocating.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	// min and max store sample+1 so the zero value means "unset";
	// samples are clamped non-negative, so the encoding never wraps.
	min atomic.Int64
	max atomic.Int64

	help    string
	unitDiv float64
}

// NewHistogram builds a standalone histogram (outside any registry).
func NewHistogram() *Histogram { return &Histogram{unitDiv: 1} }

// Record adds one sample. Negative samples clamp to zero.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	updateMin(&h.min, v+1)
	updateMax(&h.max, v+1)
}

func updateMin(a *atomic.Int64, enc int64) {
	for {
		cur := a.Load()
		if cur != 0 && cur <= enc {
			return
		}
		if a.CompareAndSwap(cur, enc) {
			return
		}
	}
}

func updateMax(a *atomic.Int64, enc int64) {
	for {
		cur := a.Load()
		if cur >= enc {
			return
		}
		if a.CompareAndSwap(cur, enc) {
			return
		}
	}
}

// Count returns the number of recorded samples (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	enc := h.min.Load()
	if enc == 0 {
		return 0
	}
	return enc - 1
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	enc := h.max.Load()
	if enc == 0 {
		return 0
	}
	return enc - 1
}

// Quantile returns the q-quantile (0 <= q <= 1) of the recorded
// samples, accurate to the bucket geometry (<= 6.25% relative error).
// Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the sample we want, 1-based, matching the
	// nearest-rank definition used by the tests' exact oracle.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			// Midpoint of the bucket, clamped to observed extremes so
			// quantiles never step outside [Min, Max].
			lo, hi := bucketLower(i), bucketUpper(i)
			mid := lo + (hi-lo)/2
			if hi == math.MaxInt64 {
				mid = lo
			}
			if mn := h.Min(); mid < mn {
				mid = mn
			}
			if mx := h.Max(); mid > mx {
				mid = mx
			}
			return mid
		}
	}
	return h.Max()
}

// Merge adds all samples recorded in other into h (bucket-wise; min
// and max merge exactly).
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	n := other.count.Load()
	if n == 0 {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if c := other.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.sum.Add(other.sum.Load())
	if enc := other.min.Load(); enc != 0 {
		updateMin(&h.min, enc)
	}
	if enc := other.max.Load(); enc != 0 {
		updateMax(&h.max, enc)
	}
	h.count.Add(n)
}

// HistSummary is a point-in-time percentile digest of a histogram.
type HistSummary struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
	P50   int64
	P95   int64
	P99   int64
}

// Summary extracts count/sum/min/max and p50/p95/p99 in one call.
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	return HistSummary{
		Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
}

func (h *Histogram) helpText() string { return h.help }

// write emits the histogram in Prometheus exposition format:
// cumulative _bucket{le=...} lines for each occupied bucket boundary,
// then the +Inf bucket, _sum and _count. Raw values are divided by
// unitDiv (1e9 turns recorded nanoseconds into seconds).
func (h *Histogram) write(w io.Writer, name string) {
	div := h.unitDiv
	if div <= 0 {
		div = 1
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if upper := bucketUpper(i); upper != math.MaxInt64 {
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
				name, formatFloat(float64(upper)/div), cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count.Load())
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.sum.Load())/div))
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
