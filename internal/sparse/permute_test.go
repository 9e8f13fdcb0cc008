package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPerm(rng *rand.Rand, n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestPermValid(t *testing.T) {
	if !(Perm{2, 0, 1}).Valid() {
		t.Fatal("valid perm rejected")
	}
	if (Perm{0, 0, 1}).Valid() {
		t.Fatal("duplicate accepted")
	}
	if (Perm{0, 3}).Valid() {
		t.Fatal("out-of-range accepted")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		p := randPerm(rng, n)
		inv := p.Inverse()
		for i := 0; i < n; i++ {
			if inv[p[i]] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUnapplyVec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		p := randPerm(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		back := p.UnapplyVec(p.ApplyVec(x))
		for i := range x {
			if back[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: permuted SpMV commutes — B·(Px) = P·(Ax) where B = PermuteSym(A, p).
func TestPermuteSymCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		a := randCSR(rng, n, 4)
		p := randPerm(rng, n)
		b := PermuteSym(a, p)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		lhs, ax := make([]float64, n), make([]float64, n)
		b.MulVecTo(lhs, p.ApplyVec(x))
		a.MulVecTo(ax, x)
		rhs := p.ApplyVec(ax)
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-12*(1+math.Abs(rhs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteSymPreservesSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 20
	c := NewCOO(n, n)
	for k := 0; k < 60; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		v := rng.NormFloat64()
		c.Add(i, j, v)
		c.Add(j, i, v)
	}
	a := c.ToCSR()
	if !a.IsSymmetric(1e-14) {
		t.Fatal("setup not symmetric")
	}
	b := PermuteSym(a, randPerm(rng, n))
	if !b.IsSymmetric(1e-14) {
		t.Fatal("permutation broke symmetry")
	}
}

func TestPermuteSymIdentity(t *testing.T) {
	a := small()
	b := PermuteSym(a, Perm{0, 1, 2})
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatal("identity permutation changed matrix")
			}
		}
	}
}
