package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 4)
	m.Add(0, 1, 1)
	if m.At(0, 1) != 5 {
		t.Fatalf("At = %v, want 5", m.At(0, 1))
	}
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	row := m.Row(0)
	if len(row) != 3 || row[1] != 5 {
		t.Fatalf("Row = %v", row)
	}
}

func TestDenseFromAndClone(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestMulVecDense(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := make([]float64, 3)
	m.MulVec([]float64{1, 10}, y)
	want := []float64{21, 43, 65}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec = %v", y)
		}
	}
}

func TestMul(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTransposeDense(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if r, c := mt.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims %dx%d", r, c)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatal("T values wrong")
	}
}

func TestColSetCol(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	col := m.Col(1, nil)
	if col[0] != 2 || col[1] != 4 {
		t.Fatalf("Col = %v", col)
	}
	m.SetCol(0, []float64{9, 8})
	if m.At(0, 0) != 9 || m.At(1, 0) != 8 {
		t.Fatal("SetCol failed")
	}
}

func TestQROrthonormalAndReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		rows := 3 + rng.Intn(20)
		cols := 1 + rng.Intn(rows)
		m := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		q, r := QR(m)
		// QᵀQ = I
		qtq := q.T().Mul(q)
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(qtq.At(i, j)-want) > 1e-9 {
					t.Fatalf("trial %d: QᵀQ(%d,%d) = %v", trial, i, j, qtq.At(i, j))
				}
			}
		}
		// Q·R = M
		qr := q.Mul(r)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(qr.At(i, j)-m.At(i, j)) > 1e-9 {
					t.Fatalf("trial %d: QR(%d,%d) = %v, want %v", trial, i, j, qr.At(i, j), m.At(i, j))
				}
			}
		}
		// R upper triangular
		for i := 1; i < cols; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R(%d,%d) = %v below diagonal", i, j, r.At(i, j))
				}
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Second column is a multiple of the first.
	m := NewDenseFrom([][]float64{
		{1, 2},
		{2, 4},
		{3, 6},
	})
	q, r := QR(m)
	if math.Abs(r.At(1, 1)) > 1e-10 {
		t.Fatalf("rank-deficient R(1,1) = %v, want 0", r.At(1, 1))
	}
	// Q·R still reconstructs M.
	qr := q.Mul(r)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(qr.At(i, j)-m.At(i, j)) > 1e-9 {
				t.Fatalf("QR(%d,%d) = %v, want %v", i, j, qr.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestVectorOps(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v", got)
	}
	if got := Dot([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Fatalf("Dot = %v", got)
	}
	y := []float64{1, 1}
	AXPY(2, []float64{10, 20}, y)
	if y[0] != 21 || y[1] != 41 {
		t.Fatalf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 10.5 {
		t.Fatalf("Scale = %v", y)
	}
}
