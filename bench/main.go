// Command bench is the repository's benchmark: four seeded closed-loop
// workloads driven through the solver's public entry points, each checked
// answer by answer. An untraced run prints the end-to-end metrics; a traced
// run (-trace 1) repeats the workload and splits every request by layer.
//
// Build and run it from the repository root with
//
//	bash bench/run.sh -workload plate-batch-warm -seed 1 -seconds 15 -trace 0
//
// See README.md for the workloads, the metrics, -repeat and -compare.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all (each in a fresh process)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "length of the measured loop, in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	traceOut := flag.String("trace-out", "", "traced runs: span file (default .bench_build/bench-trace-<workload>.json)")
	repeat := flag.Int("repeat", 0, "run the benchmark this many times in fresh processes and report medians and quartiles")
	out := flag.String("out", "bench-report.json", "-repeat: report file")
	against := flag.String("against", "", "-repeat: another build of the benchmark (the parent) to alternate with, run for run")
	againstOut := flag.String("against-out", "bench-report-against.json", "-repeat -against: the other build's report file")
	compare := flag.Bool("compare", false, "compare two -repeat reports: -compare parent.json change.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two report files: parent.json change.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *repeat > 0:
		if err := runRepeat(*repeat, *workload, *seed, *seconds, *out, *against, *againstOut); err != nil {
			fatalf("%v", err)
		}
		return
	case *workload == "all":
		os.Exit(runAll(*seed, *seconds, *trace == 1))
	}

	if !slices.Contains(workloadNames, *workload) {
		fatalf("unknown workload %q (want all or one of %v)", *workload, workloadNames)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace is 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	o := runOpts{seconds: *seconds, traced: *trace == 1, setupReps: 3, setupSeconds: 6, scale: fullScale}
	if o.traced {
		o.traceOut = *traceOut
		if o.traceOut == "" {
			o.traceOut = filepath.Join(".bench_build", "bench-trace-"+*workload+".json")
		}
	}
	res, err := runWorkload(context.Background(), *workload, *seed, o)
	if err != nil {
		if res != nil {
			printRun(res)
		}
		fatalf("%v", err)
	}
	printRun(res)
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printRun writes a run's human-readable lines and its detail record; the
// result line, printed after, always comes last.
func printRun(res *outcome) {
	d := res.detail
	fmt.Printf("# %s seed=%d: %d requests measured, %d failed; p90 has %d samples beyond it; host index %.3f; host calibration %.6f s; checks took %.2f%% of the loop\n",
		d.Workload, d.Seed, d.Requests, res.Failed, d.P90Beyond, d.HostIndex, d.HostCalibS, 100*d.VerifyShare)
	for _, f := range d.Failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	for _, ms := range []struct {
		m    map[string]metric
		note string
	}{{res.Metrics, ""}, {d.Ungated, " (ungated)"}} {
		names := make([]string, 0, len(ms.m))
		for n := range ms.m {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Printf("%-28s %14.6g %s%s\n", n, ms.m[n].Value, ms.m[n].Unit, ms.note)
		}
	}
	b, _ := json.Marshal(map[string]detail{"detail": d})
	fmt.Println(string(b))
}

// printResult writes the run's result line.
func printResult(res *outcome) {
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
