package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := nearestRank(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 60},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 90, 110, 60, 140, 100, 80, 120, 100}
	for _, tc := range []struct {
		name                       string
		parent, chg                []float64
		lowerIsBetter              bool
		bound                      float64
		parentFailed, changeFailed int
		want                       verdict
	}{
		{"same runs", steady, steady, true, 0.05, 0, 0, unchanged},
		{"5% faster latency wins every pair", steady, shift(steady, 0.95), true, 0.05, 0, 0, improved},
		{"3% slower latency within bound", steady, shift(steady, 1.03), true, 0.05, 0, 0, unchanged},
		{"8% slower latency past bound", steady, shift(steady, 1.08), true, 0.05, 0, 0, regressed},
		{"8% lower throughput past bound", steady, shift(steady, 0.92), false, 0.05, 0, 0, regressed},
		{"8% higher throughput", steady, shift(steady, 1.08), false, 0.05, 0, 0, improved},
		{"spread wider than bound", noisy, shift(noisy, 1.01), true, 0.05, 0, 0, unresolved},
		{"spread wide but every change run better", noisy, shift(noisy, 0.3), true, 0.05, 0, 0, improved},
		{"no pairs", nil, nil, true, 0.05, 0, 0, unresolved},
		{"faster but fails more requests", steady, shift(steady, 0.5), true, 0.05, 0, 1, regressed},
		{"same speed, fails more requests", steady, steady, true, 0.05, 2, 3, regressed},
		{"faster and fails fewer requests", steady, shift(steady, 0.95), true, 0.05, 3, 0, improved},
	} {
		if got := judge(tc.parent, tc.chg, tc.lowerIsBetter, tc.bound, tc.parentFailed, tc.changeFailed); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestRepeatReruns checks the noise handling of -repeat -against: sides
// alternate which goes first every seed, a round with an off calibration
// on either side is rerun on both sides back to back in the opposite
// order, and a rerun whose own calibration is off again is dropped.
func TestRepeatReruns(t *testing.T) {
	defer func(f func(string, string, int64, float64) (*outcome, error)) { runChild = f }(runChild)
	var calls []string
	seen := map[string]int{}
	// Seed 3 reads slow on the parent the first time, seed 4 on the change
	// both times.
	slow := map[string]bool{"parent/3/0": true, "change/4/0": true, "change/4/1": true}
	runChild = func(bin, workload string, seed int64, seconds float64) (*outcome, error) {
		name := "parent"
		if bin != "parent" {
			name = "change"
		}
		key := fmt.Sprintf("%s/%d", name, seed)
		calls = append(calls, key)
		cal := 1.0
		if slow[fmt.Sprintf("%s/%d", key, seen[key])] {
			cal = 1.5
		}
		seen[key]++
		return &outcome{Correct: true, Attempted: 1, Metrics: map[string]metric{"latency_p50_s": {1, "s"}},
			detail: detail{HostCalibS: cal}}, nil
	}
	dir := t.TempDir()
	out, against := filepath.Join(dir, "change.json"), filepath.Join(dir, "parent.json")
	if err := runRepeat(4, "plate-cold", 1, 1, out, "parent", against); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"change/1", "parent/1", "parent/2", "change/2", "change/3", "parent/3", "parent/4", "change/4",
		"parent/3", "change/3", "change/4", "parent/4", // reruns, each in the opposite order
	}
	if !slices.Equal(calls, want) {
		t.Errorf("runs in order %v, want %v", calls, want)
	}
	for _, path := range []string{out, against} {
		rep, err := loadReport(path)
		if err != nil {
			t.Fatal(err)
		}
		var seeds []int64
		reruns := 0
		for _, x := range rep.kept("plate-cold") {
			seeds = append(seeds, x.Seed)
			if x.Rerun {
				reruns++
			}
		}
		if !slices.Equal(seeds, []int64{1, 2, 3}) || reruns != 1 || len(rep.Runs) != 6 {
			t.Errorf("%s: kept seeds %v with %d reruns out of %d runs; want seeds [1 2 3], 1 rerun, 6 runs", path, seeds, reruns, len(rep.Runs))
		}
	}
}

func TestHostIndex(t *testing.T) {
	r := reading{a: 2 * refFastA, b: refFastB}
	for _, tc := range []struct{ share, want float64 }{{0, 1}, {0.5, 1.5}, {1, 2}} {
		if got := r.index(tc.share); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("index(%g) = %g, want %g", tc.share, got, tc.want)
		}
	}
	gaps := []reading{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}}
	for _, tc := range []struct {
		b, window int
		want      reading
	}{
		{1, 1, reading{2.5, 25}}, // the readings just before and after
		{0, 3, reading{2.5, 25}}, // clipped at the start
		{3, 3, reading{3.5, 35}}, // clipped at the end
	} {
		if got := around(gaps, tc.b, tc.window); got != tc.want {
			t.Errorf("around(b=%d, window=%d) = %v, want %v", tc.b, tc.window, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 3},
		{ID: 3, Parent: 1, Start: 2, End: 5},
		{ID: 4, Parent: 1, Start: 8, End: 12}, // clipped to its parent
	}
	selfTimes(spans)
	for i, want := range []float64{4, 2, 3, 4} {
		if math.Abs(spans[i].Self-want) > 1e-12 {
			t.Errorf("span %d self %g, want %g", spans[i].ID, spans[i].Self, want)
		}
	}
}

// TestSmoke runs every workload at toy sizes, untraced and traced, and
// checks that the metrics printed are exactly the ones BENCHMARK.json
// names, with the same units, that every answer verified, and that the
// trace accounts for the requests' time.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads []string
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	if !slices.Equal(specWorkloads, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", specWorkloads, workloadNames)
	}
	e2e := map[string]string{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range sp.PerLayer {
		layer[m.Name] = m.Unit
	}
	// Enough requests that the traced run has traced and untraced ones.
	n := 3
	for !hasBoth(n) {
		n++
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), name, 1, runOpts{maxRequests: n, traced: traced, setupReps: 1, scale: toyScale})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != n {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d %v", name, traced, res.Correct, res.Attempted, res.Failed, res.detail.Failures)
			}
			want := e2e
			if traced {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for m, u := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != u {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m, got, u)
				}
			}
			if traced {
				c := res.Metrics["trace.coverage"].Value
				t.Logf("%s: trace coverage %.3f", name, c)
				if c < 0.95 {
					t.Errorf("%s: trace coverage %.3f < 0.95", name, c)
				}
			}
		}
	}
}

func hasBoth(n int) bool {
	var seen [2]bool
	for i := 0; i < n; i++ {
		if tracedCoin(i) {
			seen[0] = true
		} else {
			seen[1] = true
		}
	}
	return seen[0] && seen[1]
}
