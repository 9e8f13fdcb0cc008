package experiments

import (
	"testing"

	"repro/internal/femachine"
	"repro/internal/vectorsim"
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

// The quick-mode renders of cmd/experiments (Table 2 at a = 10, 20, 30 and
// the condition-number, irregular-region, baseline and ω studies) pin the
// iteration counts and condition numbers of one-shot solves: a change to
// the executor that moves any printed digit fails here.

const goldenTable2Quick = `Table 2: CYBER 203 iterations and timings, m-step SSOR PCG (tol=1e-06)
m    |     a=10 v=34 |    a=20 v=134 |    a=30 v=300
     |     I    T(s) |     I    T(s) |     I    T(s)
0    |    83   0.053 |   163   0.215 |   241   0.611
1    |    36   0.047 |    72   0.155 |   109   0.494
2    |    26   0.051 |    52   0.155 |    78   0.509
2P   |    21   0.042 |    41   0.122 |    61   0.398
3    |    22   0.058 |    43   0.164 |    65   0.553
3P   |    16   0.042 |    30   0.115 |    45   0.384
4P   |    13   0.043 |    24   0.112 |    36   0.379
5P   |    10   0.040 |    20   0.110 |    30   0.376
6P   |     9   0.042 |    17   0.107 |    26   0.377
7P   |     9   0.048 |    15   0.107 |    22   0.363
8P   |     9   0.054 |    14   0.112 |    20   0.370
9P   |     8   0.053 |    12   0.106 |    18   0.369
10P  |     7   0.051 |    12   0.116 |    17   0.382
optimal m per size:  a=10→5P  a=20→9P  a=30→7P
`

const goldenCondition = `Condition numbers, 10×10 plate (Lanczos estimates from converged PCG runs)
κ(K) = 2029.0 (plain CG)
m       κ(M_m⁻¹K)    iters   κ(M₁)/κ(M_m)   m² bound
1          241.13       51           1.00          1
2          120.81       37           2.00          4
3           80.71       30           2.99          9
4           60.66       26           3.98         16
2P          74.00       29           3.26          -
3P          39.04       21           6.18          -
4P          23.92       18          10.08          -
§2.1: unparametrized improvement κ(M₁)/κ(M_m) is bounded by m²;
parametrized rows (P) may exceed it — that is the point of §2.2.
`

const goldenIrregular = `Irregular regions (§5 future work): greedy-colored multicolor SSOR PCG
shape        colors      eqs m    iterations
L-shape           4      112 0            69
L-shape           4      112 1            28
L-shape           4      112 2            20
L-shape           4      112 4P           10
hole              4      142 0            78
hole              4      142 1            31
hole              4      142 2            23
hole              4      142 4P           11
the greedy colorer finds a small valid coloring; the m-step method
then applies to the irregular region exactly as to the rectangle.
`

const goldenBaseline = `Baselines, 8×8 plate (112 equations): CG acceleration vs pure stationary iteration
method                         iterations  stationary work
SSOR stationary                      1055             1055
multicolor SOR stationary            1155             1155
CG                                     66               66
1-step SSOR PCG                        29               29
4-step SSOR PCG (LS)                   10               40
the m-step PCG method does the work of a few dozen SSOR sweeps where the
pure stationary methods need thousands — CG acceleration is the point.
`

const goldenOmega = `Relaxation parameter study (§5): 1-step SSOR PCG on the 8×8 plate
ω        multicolor      natural
0.60             36           35
0.80             32           29
1.00             30           27
1.20             32           25
1.40             36           25
1.60             44           28
best multicolor ω sampled: 1.00; ω = 1 iterations: 30
the multicolor row is flat near ω = 1 — no SOR-style ω tuning needed.
`

func TestTable2Golden(t *testing.T) {
	res, err := Table2(vectorsim.Cyber203(), []int{10, 20, 30}, PaperTable2Specs(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res.Render(), goldenTable2Quick)
}

func TestConditionGolden(t *testing.T) {
	res, err := ConditionStudy(10, 10, []MSpec{
		{M: 1}, {M: 2}, {M: 3}, {M: 4},
		{M: 2, Param: true}, {M: 3, Param: true}, {M: 4, Param: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res.Render(), goldenCondition)
}

func TestIrregularGolden(t *testing.T) {
	res, err := IrregularStudy(9, []MSpec{{M: 0}, {M: 1}, {M: 2}, {M: 4, Param: true}})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res.Render(), goldenIrregular)
}

func TestBaselineGolden(t *testing.T) {
	res, err := BaselineStudy(8, 8, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res.Render(), goldenBaseline)
}

func TestOmegaGolden(t *testing.T) {
	res, err := OmegaStudy(8, 8, 1, []float64{0.6, 0.8, 1.0, 1.2, 1.4, 1.6})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res.Render(), goldenOmega)
}

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
