package main

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Fake CPU @ 2.10GHz
BenchmarkKernelSpMM/csr/column/s=8/active-8         100   2000000 ns/op   0.80 Gflop-pairs/s
BenchmarkKernelSpMM/csr/interleaved/s=8/active-8    300   1000000 ns/op   1.90 Gflop-pairs/s
PASS
`

func parseSample(t *testing.T, text string) Report {
	t.Helper()
	rep, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseBenchLines(t *testing.T) {
	rep := parseSample(t, sample)
	if rep.Goos != "linux" || rep.Goarch != "amd64" || !strings.Contains(rep.CPU, "Fake") {
		t.Fatalf("context lines: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %d", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[1]
	if b.Pkg != "repro" || b.Procs != 8 || b.Runs != 300 {
		t.Fatalf("benchmark line: %+v", b)
	}
	if b.Metrics["ns/op"] != 1e6 || b.Metrics["Gflop-pairs/s"] != 1.9 {
		t.Fatalf("metrics: %+v", b.Metrics)
	}
}

func TestDiff(t *testing.T) {
	old := parseSample(t, sample)
	cur := parseSample(t, strings.NewReplacer(
		"2000000", "1500000",
		"interleaved", "panel",
	).Replace(sample))
	var sb strings.Builder
	diff(&sb, old, cur)
	out := sb.String()
	if !strings.Contains(out, "-25.0%") {
		t.Fatalf("missing ns/op delta:\n%s", out)
	}
	if !strings.Contains(out, "(new)") || !strings.Contains(out, "(removed)") {
		t.Fatalf("renamed benchmark not surfaced on both sides:\n%s", out)
	}
}

func TestMetricDirection(t *testing.T) {
	cases := map[string]int{
		"ns/op":         +1,
		"B/op":          +1,
		"allocs/op":     +1,
		"rhs/s":         -1,
		"solves/s":      -1,
		"Gflop-pairs/s": -1,
		"iterations":    0,
		"simulated-s":   0,
	}
	for unit, want := range cases {
		if got := metricDirection(unit); got != want {
			t.Errorf("metricDirection(%q) = %d, want %d", unit, got, want)
		}
	}
}

func TestRegressionsGate(t *testing.T) {
	old := parseSample(t, sample)

	// 50% slower ns/op and 40% lower throughput on the first benchmark:
	// both directions must trip a 25% gate.
	cur := parseSample(t, strings.NewReplacer(
		"2000000 ns/op   0.80", "3000000 ns/op   0.48",
	).Replace(sample))
	regs := regressions(old, cur, 25)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %d: %v", len(regs), regs)
	}
	for _, r := range regs {
		if !strings.Contains(r, "BenchmarkKernelSpMM/csr/column/s=8") {
			t.Errorf("regression names wrong benchmark: %s", r)
		}
	}

	// The same run clears a 60% gate.
	if regs := regressions(old, cur, 60); len(regs) != 0 {
		t.Fatalf("60%% gate should pass, got %v", regs)
	}

	// Improvements never trip the gate, whichever direction the unit runs.
	faster := parseSample(t, strings.NewReplacer(
		"2000000 ns/op   0.80", "1000000 ns/op   1.60",
	).Replace(sample))
	if regs := regressions(old, faster, 1); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

// The same benchmarks at GOMAXPROCS 1 (no suffix) and 2 (-2) archive under
// the same names; a sub-benchmark's own trailing number survives at both.
func TestParseGOMAXPROCSFixtures(t *testing.T) {
	want := []string{
		"BenchmarkTable1Coefficients/m=2",
		"BenchmarkTable1Coefficients/m=3",
		"BenchmarkTable1Coefficients/m=4",
		"BenchmarkTable1Coefficients/m=8",
		"BenchmarkPlateAssembly/cold=10,16,22",
		"BenchmarkPlateAssembly/plate=64",
		"BenchmarkPlateAssembly/plate=72",
		"BenchmarkPlateAssembly/intake=randomspd-10000",
	}
	for file, procs := range map[string]int{"testdata/gomaxprocs1.txt": 0, "testdata/gomaxprocs2.txt": 2} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		rep := parseSample(t, string(b))
		if len(rep.Benchmarks) != len(want) {
			t.Fatalf("%s: %d benchmarks, want %d", file, len(rep.Benchmarks), len(want))
		}
		for i, r := range rep.Benchmarks {
			if r.Name != want[i] || r.Procs != procs || r.Pkg != "repro" {
				t.Errorf("%s: result %d is %q procs %d pkg %q, want %q procs %d", file, i, r.Name, r.Procs, r.Pkg, want[i], procs)
			}
		}
	}
}

// TestFoldRepeatedLines: -count=3 output (a real run of a multi-goroutine
// benchmark, GOMAXPROCS 2) folds into one result per benchmark holding each
// metric's median, and a second run appended to the same input folds in
// too.
func TestFoldRepeatedLines(t *testing.T) {
	b, err := os.ReadFile("testdata/count3.txt")
	if err != nil {
		t.Fatal(err)
	}
	rep := parseSample(t, string(b))
	want := []string{"P=1/m=0", "P=2/m=0", "P=5/m=0", "P=1/m=2", "P=2/m=2", "P=5/m=2"}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("%d results, want %d", len(rep.Benchmarks), len(want))
	}
	for i, r := range rep.Benchmarks {
		if r.Name != "BenchmarkTable3FEMachine/"+want[i] || r.Procs != 2 || r.Runs != 3 {
			t.Errorf("result %d: %q procs %d runs %d, want %q procs 2 runs 3", i, r.Name, r.Procs, r.Runs, want[i])
		}
	}
	p5 := rep.Benchmarks[2]
	if p5.Metrics["ns/op"] != 1550011 || p5.Metrics["iterations"] != 47 || p5.Metrics["simulated-s"] != 0.02262 {
		t.Errorf("P=5/m=0 medians: %v, want ns/op 1550011 of (1550011, 1738958, 1457839)", p5.Metrics)
	}

	// A second run of one sub-benchmark, appended: four samples, so the
	// median is the mean of the middle two.
	more := "pkg: repro\nBenchmarkTable3FEMachine/P=5/m=0-2 \t 1 \t 1000000 ns/op \t 47.00 iterations\n"
	rep = parseSample(t, string(b)+more)
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("appended run: %d results, want %d", len(rep.Benchmarks), len(want))
	}
	p5 = rep.Benchmarks[2]
	if got, wantNs := p5.Metrics["ns/op"], (1457839+1550011)/2.0; p5.Runs != 4 || got != wantNs {
		t.Errorf("appended run: P=5/m=0 runs %d ns/op %v, want 4 and %v", p5.Runs, got, wantNs)
	}
	if p5.Metrics["simulated-s"] != 0.02262 {
		t.Errorf("appended run: a metric only some samples report keeps their median, got %v", p5.Metrics["simulated-s"])
	}
}

// benchLine formats a result line the way go test does: the GOMAXPROCS
// suffix only when procs > 1.
func benchLine(name string, procs int) string {
	if procs > 1 {
		name += "-" + strconv.Itoa(procs)
	}
	return name + "\t       1\t     123 ns/op\t       4 allocs/op\n"
}

// FuzzParseBench: a pkg: block of formatted (name, procs) lines parses
// back to the same names and procs, except where the documented ambiguity
// applies: without a GOMAXPROCS suffix, names that all end in one shared
// -N lose it to Procs.
func FuzzParseBench(f *testing.F) {
	f.Add("PlateAssembly/intake=randomspd-10000", "PlateAssembly/plate=64", uint8(0))
	f.Add("PlateAssembly/intake=randomspd-10000", "PlateAssembly/plate=64", uint8(2))
	f.Add("X/n-8", "Y/n-8", uint8(0))
	f.Add("X/n-8", "Y/n-8", uint8(8))
	f.Add("Solve", "Solve/s=8-4", uint8(1))
	f.Fuzz(func(t *testing.T, a, b string, p uint8) {
		names := []string{"Benchmark" + a, "Benchmark" + b}
		for _, n := range names {
			if n != strings.Join(strings.Fields(n), "") {
				return // go test names hold no white space
			}
		}
		procs := int(p)
		if procs == 1 {
			procs = 0 // go test prints no suffix at GOMAXPROCS 1
		}
		text := "pkg: fuzz\n" + benchLine(names[0], procs) + benchLine(names[1], procs)
		rep, err := parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		wantProcs := procs
		if procs == 0 {
			pa, oka := procsSuffix(names[0])
			pb, okb := procsSuffix(names[1])
			if oka && okb && pa == pb {
				suffix := "-" + strconv.Itoa(pa)
				names = []string{strings.TrimSuffix(names[0], suffix), strings.TrimSuffix(names[1], suffix)}
				wantProcs = pa
			}
		}
		if names[0] == names[1] {
			names = names[:1] // two lines of one benchmark fold into one result
		}
		if len(rep.Benchmarks) != len(names) {
			t.Fatalf("%q: %d results, want %d", text, len(rep.Benchmarks), len(names))
		}
		for i, r := range rep.Benchmarks {
			if r.Name != names[i] || r.Procs != wantProcs || r.Pkg != "fuzz" {
				t.Fatalf("%q: result %d is (%q, %d), want (%q, %d)", text, i, r.Name, r.Procs, names[i], wantProcs)
			}
		}
	})
}
