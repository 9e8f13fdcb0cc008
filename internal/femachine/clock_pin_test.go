package femachine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/poly"
)

// TestClockPins compares the machine's simulated times exactly, where the
// 4-decimal Table 3 goldens would not see a reordered charge: Table 3's
// 6×6 plate at P = 1, 2, 5 with m = 0, 2 and 3P, under the sum/max circuit
// and the software ring. Every float is printed in its shortest exact form.
func TestClockPins(t *testing.T) {
	plate := paperPlate(t)
	sys := core.System{K: plate.KColored, F: plate.ColoredRHS(), GroupStart: plate.Ordering.GroupStart[:]}
	sp, err := core.BuildSplitting(sys, core.Config{Splitting: core.SSORMulticolor})
	if err != nil {
		t.Fatal(err)
	}
	iv, err := core.IntervalFor(sp, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := poly.LeastSquares(3, iv.Lo, iv.Hi)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ring := range []bool{false, true} {
		tm := DefaultTimeModel()
		tm.SoftwareReduce = ring
		for _, pc := range []struct {
			label  string
			m      int
			alphas []float64
		}{{"0", 0, nil}, {"2", 2, poly.Ones(2).Coeffs}, {"3P", 3, ls.Coeffs}} {
			for _, p := range []int{1, 2, 5} {
				strat := mesh.RowStrips
				if p > 3 {
					strat = mesh.ColStrips
				}
				mach, err := New(plate, Config{P: p, Strategy: strat, M: pc.m, Alphas: pc.alphas, Tol: 1e-6, MaxIter: 100000, Time: tm})
				if err != nil {
					t.Fatal(err)
				}
				r, err := mach.Run()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "ring=%v m=%s P=%d: it=%d sim=%v compute=%v precond=%v halo=%v reduce=%v ex=%d/%d red=%d\n",
					ring, pc.label, p, r.Iterations, r.SimTime, r.ComputeTime, r.PrecondCommTime, r.HaloCommTime,
					r.ReduceWaitTime, r.PrecondExchanges, r.HaloExchanges, r.Reductions)
			}
		}
	}
	if got := b.String(); got != clockGolden {
		t.Errorf("machine clocks moved; got:\n%s", got)
	}
}

const clockGolden = `ring=false m=0 P=1: it=47 sim=0.09071499999999989 compute=0.09047999999999984 precond=0 halo=0 reduce=0.00023500000000005287 ex=0/0 red=141
ring=false m=0 P=2: it=47 sim=0.04700100000000001 compute=0.09047999999999988 precond=0 halo=0.001920000000000078 reduce=0.0016020000000000042 ex=0/96 red=282
ring=false m=0 P=5: it=47 sim=0.022621000000000016 compute=0.09047999999999984 precond=0 halo=0.006720000000000099 reduce=0.01590500000000014 ex=0/384 red=705
ring=false m=2 P=1: it=16 sim=0.07805999999999973 compute=0.07797999999999972 precond=0 halo=0 reduce=8.000000000001235e-05 ex=0/0 red=48
ring=false m=2 P=2: it=16 sim=0.04222800000000011 compute=0.07798000000000009 precond=0.005124000000000001 halo=0.0006800000000000158 reduce=0.0006719999999999968 ex=320/34 red=96
ring=false m=2 P=5: it=16 sim=0.021907999999999993 compute=0.0779799999999999 precond=0.022700000000000217 halo=0.0023800000000000344 reduce=0.006480000000000073 ex=1280/136 red=240
ring=false m=3P P=1: it=10 sim=0.06382999999999979 compute=0.0637799999999998 precond=0 halo=0 reduce=4.999999999999796e-05 ex=0/0 red=30
ring=false m=3P P=2: it=10 sim=0.03474200000000012 compute=0.06378000000000017 precond=0.004844000000000084 halo=0.00043999999999999964 reduce=0.0004200000000000258 ex=300/22 red=60
ring=false m=3P P=5: it=10 sim=0.018201999999999965 compute=0.0637799999999999 precond=0.021640000000000197 halo=0.0015400000000000118 reduce=0.004050000000000024 ex=1200/88 red=150
ring=true m=0 P=1: it=47 sim=0.09071499999999989 compute=0.09047999999999984 precond=0 halo=0 reduce=0.00023500000000005287 ex=0/0 red=141
ring=true m=0 P=2: it=47 sim=0.04756499999999995 compute=0.09047999999999988 precond=0 halo=0.001920000000000078 reduce=0.0027299999999998935 ex=0/96 red=282
ring=true m=0 P=5: it=47 sim=0.025347 compute=0.09047999999999984 precond=0 halo=0.006720000000000132 reduce=0.029534999999999974 ex=0/384 red=705
ring=true m=2 P=1: it=16 sim=0.07805999999999973 compute=0.07797999999999972 precond=0 halo=0 reduce=8.000000000001235e-05 ex=0/0 red=48
ring=true m=2 P=2: it=16 sim=0.042420000000000097 compute=0.07798000000000009 precond=0.005124000000000001 halo=0.0006800000000000158 reduce=0.001055999999999961 ex=320/34 red=96
ring=true m=2 P=5: it=16 sim=0.022835999999999995 compute=0.0779799999999999 precond=0.022700000000000223 halo=0.0023800000000000344 reduce=0.01112000000000003 ex=1280/136 red=240
ring=true m=3P P=1: it=10 sim=0.06382999999999979 compute=0.0637799999999998 precond=0 halo=0 reduce=4.999999999999796e-05 ex=0/0 red=30
ring=true m=3P P=2: it=10 sim=0.03486200000000011 compute=0.06378000000000017 precond=0.004844000000000084 halo=0.00043999999999999964 reduce=0.0006600000000000074 ex=300/22 red=60
ring=true m=3P P=5: it=10 sim=0.01878199999999997 compute=0.0637799999999999 precond=0.021640000000000194 halo=0.0015400000000000118 reduce=0.006950000000000017 ex=1200/88 red=150
`
