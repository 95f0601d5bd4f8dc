package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exactQuantile is the nearest-rank percentile over a sorted slice —
// the oracle the bucketed histogram is checked against.
func exactQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func TestBucketGeometry(t *testing.T) {
	// Every representable value maps into a bucket whose bounds
	// contain it, and the buckets tile the domain contiguously.
	values := []int64{0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	for _, v := range values {
		idx := bucketIndex(v)
		lo, hi := bucketLower(idx), bucketUpper(idx)
		// hi == MaxInt64 marks the open-ended top bucket (+Inf).
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d mapped to bucket %d = [%d,%d)", v, idx, lo, hi)
		}
		// Relative bucket width bound: width <= lower/16 above the
		// exact range, which is the 6.25% error contract.
		if lo >= 16 && hi != math.MaxInt64 && hi-lo > lo/16 {
			t.Fatalf("bucket %d = [%d,%d) wider than 6.25%% of lower bound", idx, lo, hi)
		}
	}
	for idx := 0; idx < 500; idx++ {
		if got := bucketUpper(idx); got != bucketLower(idx+1) {
			t.Fatalf("bucket %d upper %d != bucket %d lower %d", idx, got, idx+1, bucketLower(idx+1))
		}
		if bucketIndex(bucketLower(idx)) != idx {
			t.Fatalf("bucketLower(%d)=%d maps back to %d", idx, bucketLower(idx), bucketIndex(bucketLower(idx)))
		}
	}
}

func TestQuantileAgainstExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":  func() int64 { return rng.Int63n(1_000_000) },
		"exp-tail": func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 5_000_000 + rng.Int63n(100_000)
			}
			return rng.Int63n(10_000)
		},
		"tiny":     func() int64 { return rng.Int63n(12) },
		"constant": func() int64 { return 777 },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			h := NewHistogram()
			samples := make([]int64, 0, 5000)
			for i := 0; i < 5000; i++ {
				v := draw()
				samples = append(samples, v)
				h.Record(v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0} {
				exact := exactQuantile(samples, q)
				got := h.Quantile(q)
				tol := exact / 16 // 6.25% of the true value
				if tol < 1 {
					tol = 1
				}
				if got < exact-tol || got > exact+tol {
					t.Errorf("q=%g: histogram %d vs exact %d (tol %d)", q, got, exact, tol)
				}
			}
			if h.Min() != samples[0] || h.Max() != samples[len(samples)-1] {
				t.Errorf("min/max %d/%d vs exact %d/%d", h.Min(), h.Max(), samples[0], samples[len(samples)-1])
			}
			var sum int64
			for _, v := range samples {
				sum += v
			}
			if h.Sum() != sum || h.Count() != int64(len(samples)) {
				t.Errorf("sum/count %d/%d vs exact %d/%d", h.Sum(), h.Count(), sum, len(samples))
			}
		})
	}
}

func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, whole := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 3000; i++ {
		v := rng.Int63n(1 << 30)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		whole.Record(v)
	}
	merged := NewHistogram()
	merged.Merge(a)
	merged.Merge(b)
	if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merge lost mass: count %d/%d sum %d/%d min %d/%d max %d/%d",
			merged.Count(), whole.Count(), merged.Sum(), whole.Sum(),
			merged.Min(), whole.Min(), merged.Max(), whole.Max())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merge changed q=%g: %d vs %d", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging an empty histogram is a no-op.
	before := merged.Summary()
	merged.Merge(NewHistogram())
	if merged.Summary() != before {
		t.Fatal("merging an empty histogram changed the summary")
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(rng.Int63n(1_000_000))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("lost samples: count %d != %d", h.Count(), workers*per)
	}
	var bucketTotal int64
	for i := 0; i < histBuckets; i++ {
		bucketTotal += h.buckets[i].Load()
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket mass %d != count %d", bucketTotal, workers*per)
	}
	if h.Quantile(1.0) < h.Quantile(0.5) {
		t.Fatal("quantiles not monotone")
	}
}

func TestNilMetricsAreInertAndAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", 1e9)
	r.GaugeFunc("f", "", func() float64 { return 1 })
	r.CounterFunc("cf", "", func() int64 { return 1 })
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		h.Record(123)
		_ = h.Quantile(0.5)
		_ = h.Summary()
		_ = c.Value()
		_ = g.Value()
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics path allocates: %v allocs/op", allocs)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote output: %q", buf.String())
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vsd_requests_total", "requests admitted")
	c.Add(42)
	g := r.Gauge("vsd_queue_depth", "jobs pending")
	g.Set(7)
	r.GaugeFunc("vsd_cache_entries", "summary cache size", func() float64 { return 13 })
	r.CounterFunc("vsd_hits_total", "answers served from a cache", func() int64 { return 5 })
	h := r.Histogram("vsd_admission_latency_seconds", "admission latency", 1e9)
	h.Record(1_500_000) // 1.5ms
	h.Record(2_000_000)
	h.Record(500_000_000) // 0.5s

	// Idempotent re-registration hands back the same metric.
	if r.Counter("vsd_requests_total", "requests admitted") != c {
		t.Fatal("re-registration returned a different counter")
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE vsd_requests_total counter\nvsd_requests_total 42\n",
		"# TYPE vsd_queue_depth gauge\nvsd_queue_depth 7\n",
		"vsd_cache_entries 13\n",
		"# TYPE vsd_hits_total counter\nvsd_hits_total 5\n",
		"# TYPE vsd_admission_latency_seconds histogram\n",
		`vsd_admission_latency_seconds_bucket{le="+Inf"} 3`,
		"vsd_admission_latency_seconds_count 3\n",
		"# HELP vsd_requests_total requests admitted\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must be sorted and le values increasing.
	idxA := strings.Index(out, "vsd_admission_latency_seconds")
	idxB := strings.Index(out, "vsd_cache_entries")
	idxC := strings.Index(out, "vsd_queue_depth")
	if !(idxA < idxB && idxB < idxC) {
		t.Errorf("families not sorted: %d %d %d", idxA, idxB, idxC)
	}
}
