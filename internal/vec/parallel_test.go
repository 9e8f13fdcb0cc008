package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParDotMatchesSerialSmall(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 6, 7, 8}
	if got, want := ParDot(x, y, 4), Dot(x, y); got != want {
		t.Fatalf("ParDot = %v, want %v", got, want)
	}
}

func TestParDotMatchesSerialLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 3 * MinParallelLen
	x, y := randVec(rng, n), randVec(rng, n)
	got := ParDot(x, y, 8)
	want := Dot(x, y)
	if !almostEq(got, want, 1e-10) {
		t.Fatalf("ParDot = %v, want %v", got, want)
	}
}

func TestParDotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 2*MinParallelLen + 37
	x, y := randVec(rng, n), randVec(rng, n)
	first := ParDot(x, y, 7)
	for i := 0; i < 10; i++ {
		if got := ParDot(x, y, 7); got != first {
			t.Fatalf("ParDot nondeterministic: run %d got %v, first %v", i, got, first)
		}
	}
}

func TestParAxpyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2 * MinParallelLen
	x := randVec(rng, n)
	y1 := randVec(rng, n)
	y2 := Clone(y1)
	Axpy(1.5, x, y1)
	ParAxpy(1.5, x, y2, 6)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("ParAxpy differs at %d: %v vs %v", i, y2[i], y1[i])
		}
	}
}

func TestParRangeCoversAll(t *testing.T) {
	n := 3*MinParallelLen + 11
	seen := make([]int32, n)
	ParRange(n, 5, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestParRangeSmallFallsBack(t *testing.T) {
	called := 0
	ParRange(10, 8, func(lo, hi int) {
		called++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected single full chunk, got [%d,%d)", lo, hi)
		}
	})
	if called != 1 {
		t.Fatalf("expected exactly one chunk, got %d", called)
	}
}

func TestChunksPartition(t *testing.T) {
	f := func(n, w uint8) bool {
		nn, ww := int(n), int(w)
		if ww == 0 {
			ww = 1
		}
		cs := chunks(nn, ww)
		prev := 0
		for _, c := range cs {
			if c[0] != prev || c[1] <= c[0] {
				return false
			}
			prev = c[1]
		}
		return prev == nn || (nn == 0 && len(cs) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 {
		t.Fatal("default worker count must be >= 1")
	}
}

func BenchmarkDotSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, y := randVec(rng, 1<<16), randVec(rng, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkDotParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, y := randVec(rng, 1<<16), randVec(rng, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ParDot(x, y, 0)
	}
}
