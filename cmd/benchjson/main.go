// Command benchjson converts `go test -bench` text output into a JSON
// document, so CI can archive benchmark results as a machine-readable
// artifact and diff them across commits:
//
//	go test -run='^$' -bench=. -benchtime=1x ./... | go run ./cmd/benchjson -o BENCH.json
//
// Every metric on a benchmark line is kept under its Go-reported unit —
// the standard ns/op, B/op and allocs/op alongside custom b.ReportMetric
// series like solves/s, rhs/s, iterations or simulated-s — together with
// the goos/goarch/cpu context lines and the package each benchmark ran in.
// Repeated lines of one benchmark — from -count, or from a second run
// appended to the same input — fold into one result holding each metric's
// median, so a noisy benchmark is compared by its typical sample rather
// than by one draw:
//
//	go test -run='^$' -bench='^BenchmarkDecomposedSolve$' -benchtime=1x -count=5 . | go run ./cmd/benchjson
//
// With -diff the run is additionally compared against a committed baseline
// report (a previous run's JSON), printing old → new with the percentage
// change for every metric both runs share:
//
//	go test -run='^$' -bench=. -benchtime=1x ./... | go run ./cmd/benchjson -diff BENCH_PR7.json
//
// -fail-over turns the diff into a regression gate: when any shared metric
// regresses by more than the given percentage — slower ns/op, more B/op or
// allocs/op, fewer of a /s throughput unit — the offenders are listed and
// the exit status is 1. Units whose direction is ambiguous (iterations,
// simulated-s, …) are never gated.
//
//	... | go run ./cmd/benchjson -diff BENCH_PR7.json -fail-over 25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark: its name (sub-benchmarks keep their
// /slash/path), the GOMAXPROCS suffix, the iteration count, and every
// value-unit metric pair its line reported. A benchmark with several lines
// sums their iteration counts and keeps each metric's median.
type Result struct {
	Pkg     string             `json:"pkg"`
	Name    string             `json:"name"`
	Procs   int                `json:"procs,omitempty"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the whole run.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	base := flag.String("diff", "", "baseline report (JSON from a previous run) to compare against")
	failOver := flag.Float64("fail-over", 0, "with -diff: exit 1 when a direction-aware metric regresses by more than this percentage (0 = report only)")
	flag.Parse()

	report, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	failed := false
	if *base != "" {
		baseline, err := loadReport(*base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		diff(os.Stdout, baseline, report)
		if *failOver > 0 {
			for _, r := range regressions(baseline, report, *failOver) {
				fmt.Fprintln(os.Stderr, "benchjson: regression:", r)
				failed = true
			}
		}
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if *out == "" {
		if *base == "" { // diff mode already owns stdout
			os.Stdout.Write(b)
		}
	} else {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
	}
	if failed {
		os.Exit(1)
	}
}

// metricDirection reports whether a unit regresses upward (+1: ns/op, B/op,
// allocs/op — more is worse), downward (-1: any /s throughput — less is
// worse), or has no gateable direction (0).
func metricDirection(unit string) int {
	switch unit {
	case "ns/op", "B/op", "allocs/op":
		return +1
	}
	if strings.HasSuffix(unit, "/s") {
		return -1
	}
	return 0
}

// regressions lists every shared, direction-aware metric that moved the
// wrong way by more than pct percent of the baseline value.
func regressions(old, cur Report, pct float64) []string {
	key := func(r Result) string { return r.Pkg + "." + r.Name }
	prev := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		prev[key(r)] = r
	}
	var out []string
	for _, r := range cur.Benchmarks {
		o, ok := prev[key(r)]
		if !ok {
			continue
		}
		units := make([]string, 0, len(r.Metrics))
		for u := range r.Metrics {
			if _, shared := o.Metrics[u]; shared {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			dir := metricDirection(u)
			ov, nv := o.Metrics[u], r.Metrics[u]
			if dir == 0 || ov == 0 {
				continue
			}
			change := (nv - ov) / ov * 100 * float64(dir)
			if change > pct {
				out = append(out, fmt.Sprintf("%s %s %.4g -> %.4g (%+.1f%% over the %.4g%% gate)",
					r.Name, u, ov, nv, (nv-ov)/ov*100, pct))
			}
		}
	}
	return out
}

// loadReport reads a previously archived JSON report.
func loadReport(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// diff prints every metric the two reports share, old → new with the
// percentage change, plus the benchmarks only one side has (renames and new
// kernels should be visible, not silently dropped). Benchmarks are matched
// by package + name, metrics by unit.
func diff(w io.Writer, old, cur Report) {
	key := func(r Result) string { return r.Pkg + "." + r.Name }
	prev := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		prev[key(r)] = r
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	fmt.Fprintf(w, "%-72s %-14s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	for _, r := range cur.Benchmarks {
		seen[key(r)] = true
		o, ok := prev[key(r)]
		if !ok {
			fmt.Fprintf(w, "%-72s %-14s %14s\n", r.Name, "(new)", "-")
			continue
		}
		units := make([]string, 0, len(r.Metrics))
		for u := range r.Metrics {
			if _, shared := o.Metrics[u]; shared {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			ov, nv := o.Metrics[u], r.Metrics[u]
			delta := "-"
			if ov != 0 {
				delta = fmt.Sprintf("%+.1f%%", (nv-ov)/ov*100)
			}
			fmt.Fprintf(w, "%-72s %-14s %14.4g %14.4g %9s\n", r.Name, u, ov, nv, delta)
		}
	}
	for _, r := range old.Benchmarks {
		if !seen[key(r)] {
			fmt.Fprintf(w, "%-72s %-14s %14s\n", r.Name, "(removed)", "-")
		}
	}
}

// parse reads go test -bench output. go test names a result line
// BenchmarkName/sub-N where N is GOMAXPROCS, and prints no suffix when
// GOMAXPROCS is 1, so a trailing -N alone does not tell a GOMAXPROCS
// suffix from a sub-benchmark's own number (intake=randomspd-10000). parse
// therefore splits -N off as Procs only when every result line of the same
// pkg: block ends in that same -N; otherwise names stay whole and Procs is
// 0. Two ambiguities remain: at GOMAXPROCS 1, a block whose every name ends
// in one shared number loses that number to Procs; and a -cpu list (one
// block at several GOMAXPROCS values) keeps every suffix in the names.
func parse(r io.Reader) (Report, error) {
	var rep Report
	var pkg string
	block := 0 // index of the current pkg: block's first result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			splitProcs(rep.Benchmarks[block:])
			block = len(rep.Benchmarks)
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBench(line)
			if ok {
				res.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, res)
			}
		}
	}
	splitProcs(rep.Benchmarks[block:])
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, nil
}

// fold merges the results that share a package and name into one, at the
// position of the first: iteration counts add up and every metric becomes
// the median of the samples that reported it.
func fold(results []Result) []Result {
	at := make(map[string]int, len(results))
	var out []Result
	var samples []map[string][]float64
	for _, r := range results {
		i, ok := at[r.Pkg+"."+r.Name]
		if !ok {
			i = len(out)
			at[r.Pkg+"."+r.Name] = i
			out = append(out, Result{Pkg: r.Pkg, Name: r.Name, Procs: r.Procs, Metrics: map[string]float64{}})
			samples = append(samples, map[string][]float64{})
		}
		out[i].Runs += r.Runs
		for u, v := range r.Metrics {
			samples[i][u] = append(samples[i][u], v)
		}
	}
	for i, byUnit := range samples {
		for u, vs := range byUnit {
			out[i].Metrics[u] = median(vs)
		}
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// procsSuffix returns the number after a name's last '-', if it is one.
func procsSuffix(name string) (int, bool) {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return 0, false
	}
	procs, err := strconv.Atoi(name[i+1:])
	return procs, err == nil && name[i+1:] == strconv.Itoa(procs)
}

// splitProcs moves the GOMAXPROCS suffix from the names of one pkg: block's
// results to Procs, when every name ends in the same -N.
func splitProcs(block []Result) {
	if len(block) == 0 {
		return
	}
	procs, ok := procsSuffix(block[0].Name)
	for _, r := range block[1:] {
		if !ok {
			return
		}
		p, pok := procsSuffix(r.Name)
		ok = pok && p == procs
	}
	if !ok {
		return
	}
	suffix := "-" + strconv.Itoa(procs)
	for i := range block {
		block[i].Name = strings.TrimSuffix(block[i].Name, suffix)
		block[i].Procs = procs
	}
}

// parseBench parses one result line of the form
//
//	BenchmarkName/sub-8   100   123.4 ns/op   55.0 solves/s   16 B/op   2 allocs/op
//
// keeping the whole first field as the name (parse splits the GOMAXPROCS
// suffix off per block). Lines that merely announce a benchmark (no fields
// yet) are skipped.
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	res := Result{Name: fields[0], Metrics: map[string]float64{}}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Runs = runs
	// The remainder alternates value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, len(res.Metrics) > 0
}
