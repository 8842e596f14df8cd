package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func denseEqual(a, b [][]float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

func TestCOOToCSRBasics(t *testing.T) {
	coo := NewCOO(3, 4)
	coo.Add(0, 1, 2)
	coo.Add(2, 3, 5)
	coo.Add(0, 1, 3) // duplicate, should sum to 5
	coo.Add(1, 0, 0) // explicit zero, should be dropped
	m := coo.ToCSR()
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("dims %dx%d, want 3x4", r, c)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz %d, want 2", m.NNZ())
	}
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5 (duplicates summed)", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Fatalf("At(1,0) = %v, want 0 (explicit zero dropped)", got)
	}
	if got := m.At(2, 3); got != 5 {
		t.Fatalf("At(2,3) = %v, want 5", got)
	}
}

func TestCOOCancellingDuplicatesDropped(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1.5)
	coo.Add(0, 0, -1.5)
	m := coo.ToCSR()
	if m.NNZ() != 0 {
		t.Fatalf("cancelled entry retained, nnz=%d", m.NNZ())
	}
}

func TestCOOBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds Add did not panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestDenseRoundTrip(t *testing.T) {
	d := [][]float64{
		{1, 0, 2},
		{0, 0, 0},
		{3, 4, 0},
	}
	m := NewCSRFromDense(d)
	if !denseEqual(m.ToDense(), d, 0) {
		t.Fatalf("dense round trip mismatch: %v", m.ToDense())
	}
	if m.NNZ() != 4 {
		t.Fatalf("nnz %d, want 4", m.NNZ())
	}
}

func TestRowAccess(t *testing.T) {
	m := NewCSRFromDense([][]float64{
		{0, 7, 0, 9},
		{0, 0, 0, 0},
	})
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 || vals[0] != 7 || vals[1] != 9 {
		t.Fatalf("Row(0) = %v %v", cols, vals)
	}
	if m.RowNNZ(1) != 0 {
		t.Fatalf("RowNNZ(1) = %d, want 0", m.RowNNZ(1))
	}
	if m.RowSum(0) != 16 {
		t.Fatalf("RowSum(0) = %v, want 16", m.RowSum(0))
	}
	if m.Sum() != 16 {
		t.Fatalf("Sum() = %v, want 16", m.Sum())
	}
}

func TestMulVec(t *testing.T) {
	m := NewCSRFromDense([][]float64{
		{1, 2},
		{0, 3},
		{4, 0},
	})
	x := []float64{10, 100}
	y := make([]float64, 3)
	m.MulVec(x, y)
	want := []float64{210, 300, 40}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestMulVecT(t *testing.T) {
	m := NewCSRFromDense([][]float64{
		{1, 2},
		{0, 3},
		{4, 0},
	})
	x := []float64{1, 10, 100}
	y := make([]float64, 2)
	m.MulVecT(x, y)
	// Mᵀ·x = [1*1 + 4*100, 2*1 + 3*10] = [401, 32]
	if y[0] != 401 || y[1] != 32 {
		t.Fatalf("MulVecT = %v, want [401 32]", y)
	}
}

func TestTranspose(t *testing.T) {
	d := [][]float64{
		{1, 0, 2, 0},
		{0, 3, 0, 0},
		{4, 0, 5, 6},
	}
	mT := NewCSRFromDense(d).Transpose()
	if r, c := mT.Dims(); r != 4 || c != 3 {
		t.Fatalf("transpose dims %dx%d", r, c)
	}
	want := [][]float64{
		{1, 0, 4},
		{0, 3, 0},
		{2, 0, 5},
		{0, 0, 6},
	}
	if !denseEqual(mT.ToDense(), want, 0) {
		t.Fatalf("transpose = %v", mT.ToDense())
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		coo := NewCOO(rows, cols)
		for k := 0; k < rng.Intn(30); k++ {
			coo.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		m := coo.ToCSR()
		if !m.Equal(m.Transpose().Transpose(), 0) {
			t.Fatalf("transpose not an involution on trial %d", trial)
		}
	}
}

func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		coo := NewCOO(rows, cols)
		for k := 0; k < rng.Intn(40); k++ {
			coo.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		m := coo.ToCSR()
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, cols)
		m.MulVecT(x, y1)
		y2 := make([]float64, cols)
		m.Transpose().MulVec(x, y2)
		for j := range y1 {
			if math.Abs(y1[j]-y2[j]) > 1e-12 {
				t.Fatalf("trial %d: MulVecT[%d]=%v but transpose MulVec=%v", trial, j, y1[j], y2[j])
			}
		}
	}
}

func TestRowNormalized(t *testing.T) {
	m := NewCSRFromDense([][]float64{
		{2, 2},
		{0, 0},
		{1, 3},
	}).RowNormalized()
	if got := m.At(0, 0); got != 0.5 {
		t.Fatalf("normalized (0,0) = %v", got)
	}
	if got := m.At(2, 1); got != 0.75 {
		t.Fatalf("normalized (2,1) = %v", got)
	}
	if m.RowSum(1) != 0 {
		t.Fatalf("empty row acquired mass: %v", m.RowSum(1))
	}
	if s := m.RowSum(2); math.Abs(s-1) > 1e-15 {
		t.Fatalf("row 2 sums to %v", s)
	}
}

func TestScale(t *testing.T) {
	m := NewCSRFromDense([][]float64{{1, 2}}).Scale(-3)
	if m.At(0, 0) != -3 || m.At(0, 1) != -6 {
		t.Fatalf("Scale gave %v", m.ToDense())
	}
}

// TestDeclareBlocks: the block record is absent until declared, survives on
// the matrix it was declared on only, and rejects boundaries that do not
// partition a square matrix.
func TestDeclareBlocks(t *testing.T) {
	// Row 0 a seed, rows 1-2 one block, row 3 the other.
	m := NewCSRFromDense([][]float64{{0, 1, 0, 2}, {1, 0, 0, 3}, {0, 0, 0, 4}, {2, 3, 4, 0}})
	if _, _, ok := m.Blocks(); ok {
		t.Fatal("blocks reported before any were declared")
	}
	if got := m.DeclareBlocks(1, 3); got != m {
		t.Fatal("DeclareBlocks did not return its receiver")
	}
	if a, b, ok := m.Blocks(); !ok || a != 1 || b != 3 {
		t.Fatalf("Blocks() = %d, %d, %v, want 1, 3, true", a, b, ok)
	}
	if _, _, ok := m.Scale(2).Blocks(); ok {
		t.Fatal("a derived matrix inherited the block record")
	}
	for _, bad := range [][2]int{{-1, 2}, {3, 2}, {1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("DeclareBlocks(%d, %d) on a 4x4 matrix did not panic", bad[0], bad[1])
				}
			}()
			m.DeclareBlocks(bad[0], bad[1])
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DeclareBlocks on a rectangular matrix did not panic")
		}
	}()
	NewCSRFromDense([][]float64{{1, 0, 0}, {0, 1, 0}}).DeclareBlocks(0, 1)
}

func TestSubmatrixRows(t *testing.T) {
	m := NewCSRFromDense([][]float64{
		{1, 0},
		{0, 2},
		{3, 4},
	})
	s := m.SubmatrixRows([]int{2, 0})
	want := [][]float64{
		{3, 4},
		{1, 0},
	}
	if !denseEqual(s.ToDense(), want, 0) {
		t.Fatalf("SubmatrixRows = %v", s.ToDense())
	}
}

func TestSubmatrix(t *testing.T) {
	m := NewCSRFromDense([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	s := m.Submatrix([]int{0, 2}, []int{2, 0})
	want := [][]float64{
		{3, 1},
		{9, 7},
	}
	if !denseEqual(s.ToDense(), want, 0) {
		t.Fatalf("Submatrix = %v", s.ToDense())
	}
}

func TestVec(t *testing.T) {
	v := NewVec(5, []int{1, 3}, []float64{2, -4})
	if v.Len() != 5 || v.NNZ() != 2 {
		t.Fatalf("Len/NNZ = %d/%d", v.Len(), v.NNZ())
	}
	if v.At(1) != 2 || v.At(3) != -4 || v.At(0) != 0 {
		t.Fatalf("At values wrong")
	}
	if got := v.Dot([]float64{1, 1, 1, 1, 1}); got != -2 {
		t.Fatalf("Dot = %v, want -2", got)
	}
	if got := v.Norm2(); math.Abs(got-math.Sqrt(20)) > 1e-12 {
		t.Fatalf("Norm2 = %v", got)
	}
}

func TestVecValidation(t *testing.T) {
	for _, tc := range []struct {
		idx []int
		val []float64
	}{
		{[]int{3, 1}, []float64{1, 1}}, // not increasing
		{[]int{1, 1}, []float64{1, 1}}, // duplicate
		{[]int{5}, []float64{1}},       // out of range
		{[]int{1}, []float64{1, 2}},    // length mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewVec(%v) did not panic", tc.idx)
				}
			}()
			NewVec(5, tc.idx, tc.val)
		}()
	}
}

// quickMatrix builds a reproducible random CSR from fuzz bytes.
func quickMatrix(raw []uint8, rows, cols int) *CSR {
	coo := NewCOO(rows, cols)
	for k := 0; k+2 < len(raw); k += 3 {
		i := int(raw[k]) % rows
		j := int(raw[k+1]) % cols
		v := float64(int(raw[k+2])) - 128
		coo.Add(i, j, v)
	}
	return coo.ToCSR()
}

func TestQuickRowPtrConsistency(t *testing.T) {
	f := func(raw []uint8) bool {
		m := quickMatrix(raw, 7, 5)
		total := 0
		for i := 0; i < 7; i++ {
			cols, vals := m.Row(i)
			if len(cols) != len(vals) {
				return false
			}
			for k := 1; k < len(cols); k++ {
				if cols[k] <= cols[k-1] {
					return false // columns must be strictly increasing
				}
			}
			total += len(cols)
		}
		return total == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDenseRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		m := quickMatrix(raw, 6, 6)
		return m.Equal(NewCSRFromDense(m.ToDense()), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposePreservesSum(t *testing.T) {
	f := func(raw []uint8) bool {
		m := quickMatrix(raw, 5, 9)
		return math.Abs(m.Sum()-m.Transpose().Sum()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 5000
	coo := NewCOO(n, n)
	for k := 0; k < 20*n; k++ {
		coo.Add(rng.Intn(n), rng.Intn(n), rng.Float64())
	}
	m := coo.ToCSR()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
}

// referenceToCSR is COO.ToCSR before it became a counting sort: duplicates
// summed through a map, then one sort of the survivors. It is the oracle
// FuzzToCSR holds ToCSR to, bit for bit.
func referenceToCSR(c *COO) *CSR {
	type key struct{ r, c int }
	// Deduplicate with a map first (entry order in COO is arbitrary).
	agg := make(map[key]float64, len(c.entries))
	for _, e := range c.entries {
		agg[key{e.Row, e.Col}] += e.Val
	}
	compact := make([]Entry, 0, len(agg))
	for k, v := range agg {
		if v != 0 {
			compact = append(compact, Entry{Row: k.r, Col: k.c, Val: v})
		}
	}
	sort.Slice(compact, func(a, b int) bool {
		if compact[a].Row != compact[b].Row {
			return compact[a].Row < compact[b].Row
		}
		return compact[a].Col < compact[b].Col
	})
	m := &CSR{
		rows:   c.rows,
		cols:   c.cols,
		rowPtr: make([]int, c.rows+1),
		colIdx: make([]int, len(compact)),
		vals:   make([]float64, len(compact)),
	}
	for i, e := range compact {
		m.rowPtr[e.Row+1]++
		m.colIdx[i] = e.Col
		m.vals[i] = e.Val
	}
	for r := 0; r < c.rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// fuzzValues are the entry values FuzzToCSR draws from: explicit zeros of
// both signs, pairs that cancel, sums whose value depends on their order
// (0.1 + 0.2 - 0.3), infinities that cancel to NaN, and the smallest
// subnormal.
var fuzzValues = []float64{0, math.Copysign(0, -1), 1, -1, 2.5, -2.5, 0.1, 0.2, -0.3,
	1e308, -1e308, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324}

// FuzzToCSR holds ToCSR to the map-based reference: the same rowPtr, the
// same column indices and the same value bits, with no spare capacity.
// The first two bytes pick the shape; each later triple, up to 256 of
// them, is one entry (row, column, value index).
func FuzzToCSR(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 2, 2, 3, 2, 0, 1, 4, 1, 0, 0})           // TestCOOToCSRBasics's matrix
	f.Add([]byte{2, 2, 0, 0, 4, 0, 0, 5, 1, 1, 1, 1, 1, 1})           // duplicates and a repeated 1
	f.Add([]byte{1, 3, 0, 2, 6, 0, 0, 7, 0, 2, 7, 0, 2, 8, 0, 0, 6})  // order-dependent sums, row out of column order
	f.Add([]byte{2, 2, 1, 1, 11, 1, 1, 12, 0, 0, 1, 0, 0, 0})         // +Inf + -Inf, a zero tail
	f.Add([]byte{2, 2, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 13}) // -0 before/after, NaN
	f.Add([]byte{4, 4, 3, 3, 14, 3, 3, 15, 2, 1, 9, 2, 1, 10})        // subnormals and huge values cancel
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := 1+int(data[0])%9, 1+int(data[1])%9
		coo := NewCOO(rows, cols)
		for k := 2; k+2 < min(len(data), 2+3*256); k += 3 {
			coo.Add(int(data[k])%rows, int(data[k+1])%cols, fuzzValues[int(data[k+2])%len(fuzzValues)])
		}
		got, want := coo.ToCSR(), referenceToCSR(coo)
		if r, c := got.Dims(); r != rows || c != cols {
			t.Fatalf("dims %dx%d, want %dx%d", r, c, rows, cols)
		}
		if !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colIdx, want.colIdx) {
			t.Fatalf("structure rowPtr %v colIdx %v, want %v %v", got.rowPtr, got.colIdx, want.rowPtr, want.colIdx)
		}
		for i, w := range want.vals {
			if math.Float64bits(got.vals[i]) != math.Float64bits(w) {
				t.Fatalf("vals[%d] = %v (%#x), want %v (%#x)", i, got.vals[i], math.Float64bits(got.vals[i]), w, math.Float64bits(w))
			}
		}
		if cap(got.colIdx) != len(got.colIdx) || cap(got.vals) != len(got.vals) {
			t.Fatalf("spare capacity: colIdx %d/%d, vals %d/%d", len(got.colIdx), cap(got.colIdx), len(got.vals), cap(got.vals))
		}
	})
}

// TestRowPanicMessage holds Row's out-of-range panic to its message.
func TestRowPanicMessage(t *testing.T) {
	m := NewCSRFromDense([][]float64{{1, 0}, {0, 2}})
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				err, ok := recover().(error)
				want := fmt.Sprintf("sparse: CSR.Row(%d) out of bounds for 2 rows", i)
				if !ok || err.Error() != want {
					t.Fatalf("Row(%d) panicked with %v, want %q", i, err, want)
				}
			}()
			m.Row(i)
		}()
	}
}
