package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float32) bool {
	d := float64(a - b)
	return math.Abs(d) <= float64(tol)
}

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || x.Dims() != 3 || x.Dim(1) != 3 {
		t.Fatalf("shape bookkeeping wrong: size=%d dims=%d", x.Size(), x.Dims())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestOnesFull(t *testing.T) {
	if got := Ones(3).Sum(); got != 3 {
		t.Fatalf("Ones sum = %v", got)
	}
	if got := Full(2.5, 4).Sum(); got != 10 {
		t.Fatalf("Full sum = %v", got)
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length must panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetOffsets(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.At(1, 2) != 7 || x.Data[5] != 7 {
		t.Fatalf("row-major offset wrong: %v", x.Data)
	}
	x.Set(-1, 0, 0)
	if x.Data[0] != -1 {
		t.Fatal("Set(0,0) must hit Data[0]")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range must panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 1)
	if x.At(0, 1) != 99 {
		t.Fatal("Reshape must share backing data")
	}
	z := x.Reshape(-1, 2)
	if z.Shape[0] != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Shape[0])
	}
}

func TestReshapeRejectsBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape must panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 50
	if x.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-3, 1, 4, -1}, 4)
	if x.Sum() != 1 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 0.25 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 4 || x.Min() != -3 || x.AbsMax() != 4 {
		t.Fatalf("Max/Min/AbsMax = %v/%v/%v", x.Max(), x.Min(), x.AbsMax())
	}
	if x.Argmax() != 2 {
		t.Fatalf("Argmax = %d", x.Argmax())
	}
	if !almostEq(x.L2Norm(), float32(math.Sqrt(27)), 1e-5) {
		t.Fatalf("L2Norm = %v", x.L2Norm())
	}
}

func TestHasNaN(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	if x.HasNaN() {
		t.Fatal("finite tensor flagged as NaN")
	}
	x.Data[1] = float32(math.NaN())
	if !x.HasNaN() {
		t.Fatal("NaN not detected")
	}
	x.Data[1] = float32(math.Inf(1))
	if !x.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Data; got[1] != 10 {
		t.Fatalf("Mul = %v", got)
	}
	c := a.Clone()
	AddInPlace(c, b)
	if c.Data[0] != 5 {
		t.Fatalf("AddInPlace = %v", c.Data)
	}
	c.CopyFrom(a)
	Axpy(2, b, c)
	if c.Data[2] != 15 {
		t.Fatalf("Axpy = %v", c.Data)
	}
	Scale(0.5, c)
	if c.Data[2] != 7.5 {
		t.Fatalf("Scale = %v", c.Data)
	}
	if got := Scaled(3, a).Data; got[1] != 6 {
		t.Fatalf("Scaled = %v", got)
	}
}

func TestLerp(t *testing.T) {
	a := FromSlice([]float32{0, 10}, 2)
	b := FromSlice([]float32{10, 0}, 2)
	dst := New(2)
	Lerp(dst, a, b, 0.25)
	if dst.Data[0] != 2.5 || dst.Data[1] != 7.5 {
		t.Fatalf("Lerp = %v", dst.Data)
	}
}

func TestDotAndCosine(t *testing.T) {
	a := FromSlice([]float32{1, 0}, 2)
	b := FromSlice([]float32{0, 1}, 2)
	if Dot(a, b) != 0 {
		t.Fatal("orthogonal dot must be 0")
	}
	if CosineSimilarity(a, b) != 0 {
		t.Fatal("orthogonal cosine must be 0")
	}
	if !almostEq(CosineSimilarity(a, a), 1, 1e-6) {
		t.Fatal("self cosine must be 1")
	}
	zero := New(2)
	if CosineSimilarity(a, zero) != 0 {
		t.Fatal("zero-norm cosine must be defined as 0")
	}
}

func TestMatMulHandComputed(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	MatMulInto(c, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	r := NewRNG(7)
	a := RandNormal(r, 0, 1, 4, 3)
	b := RandNormal(r, 0, 1, 4, 5)
	// MatMulT1Into(a,b) == MatMulInto(aᵀ, b)
	got, at, want := New(3, 5), New(3, 4), New(3, 5)
	MatMulT1Into(got, a, b)
	Transpose2DInto(at, a)
	MatMulInto(want, at, b)
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("MatMulT1 mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	// MatMulT2Into(a,c) == MatMulInto(a, cᵀ)
	c := RandNormal(r, 0, 1, 5, 3)
	got2, ct, want2 := New(4, 5), New(3, 5), New(4, 5)
	MatMulT2Into(got2, a, c)
	Transpose2DInto(ct, c)
	MatMulInto(want2, a, ct)
	for i := range got2.Data {
		if !almostEq(got2.Data[i], want2.Data[i], 1e-4) {
			t.Fatalf("MatMulT2 mismatch at %d", i)
		}
	}
}

func TestMatMulDimChecks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul must panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := New(3, 2)
	Transpose2DInto(at, a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose2D wrong: %v", at.Data)
	}
}

func TestSumRowsAndAddRowVector(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	s := New(3)
	SumRowsInto(s, a)
	if s.Data[0] != 5 || s.Data[1] != 7 || s.Data[2] != 9 {
		t.Fatalf("SumRowsInto = %v", s.Data)
	}
	v := FromSlice([]float32{10, 20, 30}, 3)
	AddRowVector(a, v)
	if a.At(0, 0) != 11 || a.At(1, 2) != 36 {
		t.Fatalf("AddRowVector = %v", a.Data)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 1, 1, 1000, 0, 0}, 2, 3)
	s := New(a.Shape...)
	SoftmaxInto(s, a)
	for j := 0; j < 3; j++ {
		if !almostEq(s.At(0, j), 1.0/3, 1e-5) {
			t.Fatalf("uniform softmax row wrong: %v", s.Data[:3])
		}
	}
	// Large logits must not overflow thanks to max subtraction.
	if !almostEq(s.At(1, 0), 1, 1e-5) {
		t.Fatalf("peaked softmax = %v", s.Data[3:])
	}
	var sum float32
	for j := 0; j < 3; j++ {
		sum += s.At(1, j)
	}
	if !almostEq(sum, 1, 1e-5) {
		t.Fatalf("softmax row must sum to 1, got %v", sum)
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice([]float32{0, 5, 1, 9, 2, 3}, 2, 3)
	got := ArgmaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestClipInPlace(t *testing.T) {
	a := FromSlice([]float32{-5, 0.5, 5}, 3)
	ClipInPlace(a, 1)
	if a.Data[0] != -1 || a.Data[1] != 0.5 || a.Data[2] != 1 {
		t.Fatalf("Clip = %v", a.Data)
	}
}

func TestRowAndRowsViews(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	r := Rows(a, 1, 2)
	r.Data[0] = 99
	if a.At(1, 0) != 99 {
		t.Fatal("Rows must be a view")
	}
	sub := Rows(a, 1, 3)
	if sub.Shape[0] != 2 || sub.At(0, 0) != 99 || sub.At(1, 1) != 6 {
		t.Fatalf("Rows view wrong: %v %v", sub.Shape, sub.Data)
	}
}

func TestConcat(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := FromSlice([]float32{3, 4, 5, 6}, 2, 2)
	c := Concat(a, b)
	if c.Shape[0] != 3 || c.At(2, 1) != 6 {
		t.Fatalf("Concat = %v %v", c.Shape, c.Data)
	}
}

// Property: MatMul distributes over addition: A(B+C) == AB + AC.
func TestMatMulDistributesProperty(t *testing.T) {
	r := NewRNG(42)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		m, k, n := 1+rr.Intn(5), 1+rr.Intn(5), 1+rr.Intn(5)
		a := RandNormal(rr, 0, 1, m, k)
		b := RandNormal(rr, 0, 1, k, n)
		c := RandNormal(rr, 0, 1, k, n)
		mm := func(b *Tensor) *Tensor {
			out := New(m, n)
			MatMulInto(out, a, b)
			return out
		}
		left := mm(Add(b, c))
		right := Add(mm(b), mm(c))
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any finite
// logits.
func TestSoftmaxIsDistributionProperty(t *testing.T) {
	r := NewRNG(9)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		rows, cols := 1+rr.Intn(4), 1+rr.Intn(6)
		x := RandNormal(rr, 0, 10, rows, cols)
		s := New(rows, cols)
		SoftmaxInto(s, x)
		for i := 0; i < rows; i++ {
			var sum float32
			for j := 0; j < cols; j++ {
				v := s.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if !almostEq(sum, 1, 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
