package markovtest

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"longtailrec/internal/linalg"
)

func TestSolveKnownSystem(t *testing.T) {
	a := linalg.NewDenseFrom([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	// Solve must not mutate its inputs.
	if a.At(0, 0) != 2 {
		t.Fatal("Solve mutated A")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	a := linalg.NewDenseFrom([][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := linalg.NewDenseFrom([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveRandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		a := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonally dominant => nonsingular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := make([]float64, n)
		a.MulVec(x, r)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				t.Fatalf("trial %d: residual %v at %d", trial, r[i]-b[i], i)
			}
		}
	}
}

func TestQuickSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Add(i, i, 10)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := make([]float64, n)
		a.MulVec(x, res)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
