package experiments

import (
	"testing"

	"repro/internal/femachine"
)

// The golden renders pin the Finite Element Machine's simulated seconds,
// iteration counts and overhead breakdown: a change to the solver or the
// clock that moves any printed digit fails here.

const goldenTable3 = `Table 3: Finite Element Machine, 60 equations (6×6 plate), tol=1e-06
m         I |     T(P=1) |     T(P=2) speedup |     T(P=5) speedup
0        47 |     0.0907 |     0.0470    1.93 |     0.0226    4.01
1        22 |     0.0748 |     0.0400    1.87 |     0.0203    3.68
2        16 |     0.0781 |     0.0422    1.85 |     0.0219    3.56
2P       13 |     0.0636 |     0.0344    1.85 |     0.0179    3.56
3        13 |     0.0826 |     0.0450    1.84 |     0.0236    3.50
3P       10 |     0.0638 |     0.0347    1.84 |     0.0182    3.51
4        12 |     0.0939 |     0.0513    1.83 |     0.0271    3.47
4P        9 |     0.0707 |     0.0386    1.83 |     0.0204    3.47
5P        8 |     0.0747 |     0.0409    1.83 |     0.0217    3.45
6P        7 |     0.0757 |     0.0416    1.82 |     0.0221    3.43
`

const goldenOverhead = `FEM overhead breakdown, 6×6 plate (aggregate processor-seconds)
m      P       wall    compute  precondComm   haloComm   reduceWait
0      1     0.0907     0.0905       0.0000     0.0000       0.0002
3      1     0.0826     0.0826       0.0000     0.0000       0.0001
0      2     0.0470     0.0905       0.0000     0.0019       0.0016
3      2     0.0450     0.0826       0.0063     0.0006       0.0005
0      5     0.0226     0.0905       0.0000     0.0067       0.0159
3      5     0.0236     0.0826       0.0281     0.0020       0.0053
sum/max circuit ablation (P=5, CG): tree 0.0226s vs software ring 0.0253s (×1.12)
observation (3): with preconditioning the border exchanges dominate the
overhead, not the inner-product reductions.
`

const goldenScaling = `Weak scaling, 36 free nodes per processor (§4 closing discussion)
   P   grid    eqs   m   iters    time(s)  efficiency  precondComm%
   1   6x7       72   0      53     0.1240        1.00          0.0%
   1   6x7       72   3      14     0.1083        1.00          0.0%
   4  12x13     288   0     107     0.2707        0.97          0.0%
   4  12x13     288   3      27     0.2374        0.94          5.4%
with fixed per-processor load, the preconditioner's communication share
persists as P grows — the overhead CG itself avoids (paper §4, obs. 3).
`

func TestTable3Golden(t *testing.T) {
	res, err := Table3(6, 6, []int{1, 2, 5}, PaperTable3Specs(), 1e-6, femachine.DefaultTimeModel())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res.Render(), goldenTable3)
}

func TestOverheadGolden(t *testing.T) {
	res, err := OverheadStudy(6, 6, []int{1, 2, 5}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res.Render(), goldenOverhead)
}

func TestScalingGolden(t *testing.T) {
	res, err := ScalingStudy(6, []int{1, 2}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res.Render(), goldenScaling)
}

func checkGolden(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("render changed:\n--- got\n%s--- want\n%s", got, want)
	}
}
