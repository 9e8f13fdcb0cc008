package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers one registry from many goroutines — mixed
// registration (same names, so instruments and series are shared) and
// updates — while a reader renders the exposition. Run under -race this is
// the memory-model guarantee for the whole package.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 8
		perG       = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("test_ops_total", "ops")
			r.GaugeFunc("test_temp", "temp", func() float64 { return 1 })
			h := r.Histogram("test_lat_seconds", "lat", []float64{0.1, 1, 10})
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i%20) / 2)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WriteProm(&sb); err != nil {
						t.Errorf("WriteProm: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("test_ops_total", "ops").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\ntest_temp 1\n"); got != 1 {
		t.Errorf("%d test_temp series, want 1:\n%s", got, sb.String())
	}
	h := r.Histogram("test_lat_seconds", "lat", []float64{0.1, 1, 10})
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive bucket semantics: a
// sample exactly on an upper bound lands in that bucket, just above it
// spills to the next, and everything past the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "bounds", []float64{1, 2, 5})

	cases := []struct {
		v      float64
		bucket int // index into the 4 buckets (last = +Inf)
	}{
		{0.5, 0},
		{1, 0},                    // exactly on the bound: inclusive
		{math.Nextafter(1, 2), 1}, // just above: next bucket
		{2, 1},
		{4.999, 2},
		{5, 2},
		{5.001, 3}, // +Inf overflow
		{1e9, 3},
	}
	want := [4]int64{}
	for _, c := range cases {
		h.Observe(c.v)
		want[c.bucket]++
	}
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	var sum float64
	for _, c := range cases {
		sum += c.v
	}
	if h.Sum() != sum {
		t.Errorf("sum = %g, want %g", h.Sum(), sum)
	}
}

// TestHistogramRejectsBadBuckets: non-ascending bounds are a programming
// error and must fail loudly at registration, not corrupt exposition later.
func TestHistogramRejectsBadBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets did not panic")
		}
	}()
	NewRegistry().Histogram("bad", "x", []float64{1, 1})
}

// TestCounterIgnoresNegative: counters are monotone by contract.
func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

// TestWritePromGolden locks the exposition byte for byte: family ordering
// (sorted by name), HELP/TYPE lines, label rendering and escaping,
// cumulative histogram buckets with _sum/_count, and func-backed series.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounter("zz_jobs_total", "Finished jobs.", Label{Key: "state", Value: "done"}).Add(3)
	r.LabeledCounter("zz_jobs_total", "Finished jobs.", Label{Key: "state", Value: "failed"}).Add(1)
	r.GaugeFunc("aa_queue_depth", "Jobs waiting.", func() float64 { return 2 })
	r.GaugeFunc("mm_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	r.GaugeFunc("esc_gauge", `Help with \ and newline
end.`, func() float64 { return 1 }, Label{Key: "path", Value: `a"b\c`})
	// Exactly-representable binary fractions, so the rendered _sum is
	// byte-stable.
	h := r.Histogram("hh_latency_seconds", "Latency.", []float64{0.25, 0.5})
	h.Observe(0.125)
	h.Observe(0.25) // on the bound: counts in le="0.25"
	h.Observe(0.375)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_queue_depth Jobs waiting.
# TYPE aa_queue_depth gauge
aa_queue_depth 2
# HELP esc_gauge Help with \\ and newline\nend.
# TYPE esc_gauge gauge
esc_gauge{path="a\"b\\c"} 1
# HELP hh_latency_seconds Latency.
# TYPE hh_latency_seconds histogram
hh_latency_seconds_bucket{le="0.25"} 2
hh_latency_seconds_bucket{le="0.5"} 3
hh_latency_seconds_bucket{le="+Inf"} 4
hh_latency_seconds_sum 9.75
hh_latency_seconds_count 4
# HELP mm_uptime_seconds Uptime.
# TYPE mm_uptime_seconds gauge
mm_uptime_seconds 1.5
# HELP zz_jobs_total Finished jobs.
# TYPE zz_jobs_total counter
zz_jobs_total{state="done"} 3
zz_jobs_total{state="failed"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRegistryTypeConflictPanics: one name, two types is a wiring bug.
func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeFunc("x_total", "x", func() float64 { return 0 })
}
