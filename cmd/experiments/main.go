// Command experiments regenerates every table and figure of the paper's
// evaluation section.
//
// Usage:
//
//	experiments [table1|table2|table3|ineq|cond|overhead|irregular|baseline|scaling|omega|machines|figures|all] [-quick]
//
// -quick shrinks Table 2's problem sizes for fast runs; the full sweep uses
// the paper's a = 20, 41, 62, 80 unit-square plates.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/femachine"
	"repro/internal/vectorsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	quick := flag.Bool("quick", false, "smaller Table 2 sizes for a fast run")
	flag.Parse()
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}

	runs := []struct {
		name string
		fn   func(bool) error
	}{
		{"table1", table1}, {"table2", table2}, {"table3", table3},
		{"ineq", ineq}, {"cond", cond}, {"overhead", overhead},
		{"irregular", irregular}, {"baseline", baseline}, {"scaling", scaling},
		{"omega", omega}, {"machines", machines}, {"figures", figures},
	}
	var names []string
	for _, r := range runs {
		if what == "all" {
			if err := r.fn(*quick); err != nil {
				log.Fatalf("%s: %v", r.name, err)
			}
			fmt.Println()
		} else if r.name == what {
			if err := r.fn(*quick); err != nil {
				log.Fatal(err)
			}
			return
		}
		names = append(names, r.name)
	}
	if what != "all" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; want %s|all\n", what, strings.Join(names, "|"))
		os.Exit(2)
	}
}

func table2Sizes(quick bool) []int {
	if quick {
		return []int{10, 20, 30}
	}
	return []int{20, 41, 62, 80} // the paper's a values (v = ⌈a²/3⌉)
}

func table1(bool) error {
	res, err := experiments.Table1(20, 20, 4)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func runTable2(quick bool) (experiments.Table2Result, error) {
	return experiments.Table2(vectorsim.Cyber203(), table2Sizes(quick), experiments.PaperTable2Specs(), 1e-6)
}

func table2(quick bool) error {
	res, err := runTable2(quick)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func table3(bool) error {
	res, err := experiments.Table3(6, 6, []int{1, 2, 5}, experiments.PaperTable3Specs(), 1e-6, femachine.DefaultTimeModel())
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func ineq(quick bool) error {
	res, err := runTable2(quick)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderInequality(experiments.Inequality42(res)))
	return nil
}

func cond(quick bool) error {
	size := 16
	if quick {
		size = 10
	}
	res, err := experiments.ConditionStudy(size, size, []experiments.MSpec{
		{M: 1}, {M: 2}, {M: 3}, {M: 4},
		{M: 2, Param: true}, {M: 3, Param: true}, {M: 4, Param: true},
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func overhead(bool) error {
	res, err := experiments.OverheadStudy(6, 6, []int{1, 2, 5}, 1e-6)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func irregular(quick bool) error {
	size := 17
	if quick {
		size = 9
	}
	res, err := experiments.IrregularStudy(size, []experiments.MSpec{
		{M: 0}, {M: 1}, {M: 2}, {M: 4, Param: true},
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func baseline(quick bool) error {
	size := 12
	if quick {
		size = 8
	}
	res, err := experiments.BaselineStudy(size, size, 1e-6)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func scaling(quick bool) error {
	ks := []int{1, 2, 3, 4}
	if quick {
		ks = []int{1, 2}
	}
	res, err := experiments.ScalingStudy(6, ks, 1e-6)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func omega(quick bool) error {
	size := 14
	if quick {
		size = 8
	}
	res, err := experiments.OmegaStudy(size, size, 1, []float64{0.6, 0.8, 1.0, 1.2, 1.4, 1.6})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func machines(quick bool) error {
	a := 20
	if quick {
		a = 10
	}
	res, err := experiments.CompareMachines(a, []experiments.MSpec{
		{M: 0}, {M: 1}, {M: 2, Param: true}, {M: 4, Param: true}, {M: 6, Param: true},
	}, 1e-6)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func figures(bool) error {
	out, err := experiments.AllFigures()
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}
