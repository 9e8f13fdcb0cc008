package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// child runs one workload in a fresh process of bin (this benchmark, or
// another build of it) and parses what it printed.
func child(bin, workload string, seed int64, seconds float64, traced bool) (*outcome, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(bin, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res outcome
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, `{"detail":`); ok {
			if err := json.Unmarshal([]byte(strings.TrimSuffix(d, "}")), &res.detail); err != nil {
				return nil, fmt.Errorf("%s: bad detail line: %w", workload, err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (exit: %v)", workload, seed, runErr)
	}
	return &res, nil
}

func self() string {
	exe, err := os.Executable()
	if err != nil {
		fatalf("locate own executable: %v", err)
	}
	return exe
}

// runAll runs every workload once, each in its own process, prints their
// metrics, and ends with one result line covering all of them (metric names
// prefixed with the workload).
func runAll(seed int64, seconds float64, traced bool) int {
	total := outcome{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadNames {
		res, err := child(self(), w, seed, seconds, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printRun(res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for n, m := range res.Metrics {
			total.Metrics[w+"/"+n] = m
		}
	}
	printResult(&total)
	if !total.Correct {
		return 1
	}
	return 0
}

// run is one workload run in a -repeat report.
type run struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	HostCalibS float64           `json:"host_calib_s"`
	Flagged    bool              `json:"flagged,omitempty"`
	Rerun      bool              `json:"rerun,omitempty"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	HostIndex  float64           `json:"host_index"`
	Ungated    map[string]metric `json:"ungated,omitempty"`
	checked
}

// spread summarises one metric over a report's kept runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	RelIQR float64 `json:"rel_iqr"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

type report struct {
	Runs    []run                        `json:"runs"`
	Summary map[string]map[string]spread `json:"summary"`
}

// kept returns a workload's runs that were not flagged for host speed,
// first run per seed.
func (r *report) kept(workload string) []run {
	var out []run
	seen := map[int64]bool{}
	for _, x := range r.Runs {
		if x.Workload == workload && !x.Flagged && !seen[x.Seed] {
			seen[x.Seed] = true
			out = append(out, x)
		}
	}
	return out
}

// calibMedians returns each workload's median host calibration reading
// over the report's runs.
func (r *report) calibMedians() map[string]float64 {
	cal := map[string][]float64{}
	for _, x := range r.Runs {
		cal[x.Workload] = append(cal[x.Workload], x.HostCalibS)
	}
	out := map[string]float64{}
	for w, xs := range cal {
		out[w] = median(xs)
	}
	return out
}

// offCalib reports whether a run's host calibration is more than 10% off
// the median m.
func offCalib(x run, m float64) bool { return math.Abs(x.HostCalibS-m) > 0.1*m }

// round is one workload on one seed: the unit that is run on every side
// back to back, and rerun as a whole.
type round struct {
	workload string
	seed     int64
}

// flagRounds marks every run of a round in which any side's host
// calibration was more than 10% off that side's median for the workload,
// and returns those rounds in the order they were run.
func flagRounds(sides []*side) []round {
	bad := map[round]bool{}
	for _, s := range sides {
		med := s.rep.calibMedians()
		for _, x := range s.rep.Runs {
			if offCalib(x, med[x.Workload]) {
				bad[round{x.Workload, x.Seed}] = true
			}
		}
	}
	var out []round
	for _, x := range sides[0].rep.Runs {
		rd := round{x.Workload, x.Seed}
		if bad[rd] && !slices.Contains(out, rd) {
			out = append(out, rd)
		}
	}
	for _, s := range sides {
		for i := range s.rep.Runs {
			x := &s.rep.Runs[i]
			x.Flagged = x.Flagged || bad[round{x.Workload, x.Seed}]
		}
	}
	return out
}

func (r *report) summarize() {
	r.Summary = map[string]map[string]spread{}
	for _, w := range workloadNames {
		runs := r.kept(w)
		if len(runs) == 0 {
			continue
		}
		r.Summary[w] = map[string]spread{}
		for _, of := range []func(run) map[string]metric{
			func(x run) map[string]metric { return x.Metrics },
			func(x run) map[string]metric { return x.Ungated },
		} {
			for name, m := range of(runs[0]) {
				var xs []float64
				for _, x := range runs {
					xs = append(xs, of(x)[name].Value)
				}
				q1, q3 := quartiles(xs)
				r.Summary[w][name] = spread{Median: median(xs), Q1: q1, Q3: q3, RelIQR: relIQR(xs), N: len(xs), Unit: m.Unit}
			}
		}
	}
}

// side is one build taking part in a -repeat set.
type side struct {
	bin, out string
	rep      report
}

// runChild runs one untraced workload run; tests replace it.
var runChild = func(bin, workload string, seed int64, seconds float64) (*outcome, error) {
	return child(bin, workload, seed, seconds, false)
}

func (s *side) add(workload string, seed int64, seconds float64, rerun bool) error {
	res, err := runChild(s.bin, workload, seed, seconds)
	if err != nil {
		return err
	}
	s.rep.Runs = append(s.rep.Runs, run{
		Workload: workload, Seed: seed, HostCalibS: res.detail.HostCalibS, Rerun: rerun,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
		HostIndex: res.detail.HostIndex, Ungated: res.detail.Ungated, checked: res.detail.checked,
	})
	fmt.Fprintf(os.Stderr, "bench: %s %s seed %d done\n", s.bin, workload, seed)
	return nil
}

// runRound runs one round on every side back to back, in reverse order
// when flip is set.
func runRound(sides []*side, rd round, seconds float64, flip, rerun bool) error {
	order := slices.Clone(sides)
	if flip {
		slices.Reverse(order)
	}
	for _, s := range order {
		if err := s.add(rd.workload, rd.seed, seconds, rerun); err != nil {
			return err
		}
	}
	return nil
}

// runRepeat runs the selected workloads n times, each run in a fresh
// process and run i on seed seed+i. With against, the other build runs
// each round right after or before this one (which side goes first flips
// every seed), so -compare can pair the two reports run for run. A round
// in which any side's host calibration is more than 10% off that side's
// median is flagged and rerun once, on every side, back to back in the
// opposite order; the rerun is dropped too when its own calibration is
// off. Every run is kept in the report.
func runRepeat(n int, workload string, seed int64, seconds float64, out, against, againstOut string) error {
	workloads := workloadNames
	if workload != "all" {
		if !slices.Contains(workloadNames, workload) {
			return fmt.Errorf("unknown workload %q", workload)
		}
		workloads = []string{workload}
	}
	sides := []*side{{bin: self(), out: out}}
	if against != "" {
		sides = append(sides, &side{bin: against, out: againstOut})
	}
	flipped := func(rd round) bool { return (rd.seed-seed)%2 == 1 }
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			rd := round{w, seed + int64(i)}
			if err := runRound(sides, rd, seconds, flipped(rd), false); err != nil {
				return err
			}
		}
	}
	med := make([]map[string]float64, len(sides))
	for k, s := range sides {
		med[k] = s.rep.calibMedians()
	}
	for _, rd := range flagRounds(sides) {
		if err := runRound(sides, rd, seconds, !flipped(rd), true); err != nil {
			return err
		}
		off := false
		for k, s := range sides {
			off = off || offCalib(s.rep.Runs[len(s.rep.Runs)-1], med[k][rd.workload])
		}
		for _, s := range sides {
			s.rep.Runs[len(s.rep.Runs)-1].Flagged = off
		}
	}
	var errs []error
	for _, s := range sides {
		s.rep.summarize()
		b, err := json.MarshalIndent(s.rep, "", " ")
		if err != nil {
			return err
		}
		errs = append(errs, os.WriteFile(s.out, b, 0o644))
		fmt.Printf("%s (%s):\n", s.out, s.bin)
		printSummary(&s.rep)
	}
	return errors.Join(errs...)
}

func printSummary(r *report) {
	for _, w := range workloadNames {
		sum, ok := r.Summary[w]
		if !ok {
			continue
		}
		names := make([]string, 0, len(sum))
		for n := range sum {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			s := sum[n]
			fmt.Printf("  %-18s %-22s median %12.6g %-4s  q1 %12.6g  q3 %12.6g  IQR/median %5.1f%%  (n=%d)\n",
				w, n, s.Median, s.Unit, s.Q1, s.Q3, 100*s.RelIQR, s.N)
		}
	}
}

// spec is the part of BENCHMARK.json the comparator reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from there or from its own directory.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// maxJudgeBound caps the bound -compare judges with. BENCHMARK.json's
// timing bounds are wider, because this benchmark's run-to-run spread on a
// shared host is; judging with them would call a 20% slowdown unchanged.
// With the cap, a worsening past 10% is regressed, and a metric whose
// spread is wider than 10% is unresolved.
const maxJudgeBound = 0.10

// runCompare judges every end-to-end metric on every workload, pairing the
// two reports' runs by seed, with BENCHMARK.json's bound or maxJudgeBound,
// whichever is tighter. It returns 1 when any pair regressed.
func runCompare(parentPath, changePath string) int {
	sp, err := loadSpec()
	if err != nil {
		fatalf("read BENCHMARK.json: %v", err)
	}
	parent, err := loadReport(parentPath)
	if err != nil {
		fatalf("%v", err)
	}
	change, err := loadReport(changePath)
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	fmt.Printf("%-18s %-22s %14s %14s %8s %6s %s\n", "workload", "metric", "parent", "change", "worse", "wins", "verdict")
	for _, w := range workloadNames {
		bySeed := map[int64]run{}
		for _, x := range parent.kept(w) {
			bySeed[x.Seed] = x
		}
		var pairs [][2]run
		for _, x := range change.kept(w) {
			if p, ok := bySeed[x.Seed]; ok {
				pairs = append(pairs, [2]run{p, x})
			}
		}
		if len(pairs) == 0 {
			continue
		}
		pf, cf := 0, 0
		for _, pr := range pairs {
			pf, cf = pf+pr[0].Failed, cf+pr[1].Failed
		}
		if cf > pf {
			fmt.Printf("%-18s failed requests: parent %d, change %d\n", w, pf, cf)
		}
		for _, m := range sp.EndToEnd {
			var pv, cv []float64
			wins := 0
			lower := m.Better == "lower"
			for _, pr := range pairs {
				p, c := pr[0].Metrics[m.Name].Value, pr[1].Metrics[m.Name].Value
				pv, cv = append(pv, p), append(cv, c)
				if lower && c < p || !lower && c > p {
					wins++
				}
			}
			v := judge(pv, cv, lower, min(m.Bound, maxJudgeBound), pf, cf)
			worse := (median(cv) - median(pv)) / median(pv)
			if !lower {
				worse = -worse
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %7.1f%% %3d/%-2d %s\n", w, m.Name, median(pv), median(cv), 100*worse, wins, len(pairs), v)
			if v == regressed {
				code = 1
			}
		}
	}
	return code
}
