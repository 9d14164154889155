package tensor

import (
	"fmt"
	"math"
)

// The elementwise ops below, like every kernel in this package, are
// plain loops on the calling goroutine (DESIGN.md §8).

// Add returns a + b elementwise as a new tensor.
func Add(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	AddInto(out, a, b)
	return out
}

// AddInto computes dst = a + b elementwise into an existing tensor.
// dst may alias a or b.
func AddInto(dst, a, b *Tensor) {
	checkSame("AddInto", a, b)
	checkSame("AddInto", dst, a)
	d, y := dst.Data, b.Data
	for i, v := range a.Data {
		d[i] = v + y[i]
	}
}

// Sub returns a - b elementwise as a new tensor.
func Sub(a, b *Tensor) *Tensor {
	checkSame("Sub", a, b)
	out := New(a.Shape...)
	d, y := out.Data, b.Data
	for i, v := range a.Data {
		d[i] = v - y[i]
	}
	return out
}

// Mul returns a * b elementwise as a new tensor.
func Mul(a, b *Tensor) *Tensor {
	checkSame("Mul", a, b)
	out := New(a.Shape...)
	d, y := out.Data, b.Data
	for i, v := range a.Data {
		d[i] = v * y[i]
	}
	return out
}

// AddInPlace accumulates b into a (a += b).
func AddInPlace(a, b *Tensor) {
	checkSame("AddInPlace", a, b)
	d := a.Data
	for i, v := range b.Data {
		d[i] += v
	}
}

// Axpy performs a += alpha*b, the workhorse of SGD updates and gradient
// aggregation.
func Axpy(alpha float32, b, a *Tensor) {
	checkSame("Axpy", a, b)
	d := a.Data
	for i, v := range b.Data {
		d[i] += alpha * v
	}
}

// Scale multiplies every element of t by alpha in place.
func Scale(alpha float32, t *Tensor) {
	d := t.Data
	for i := range d {
		d[i] *= alpha
	}
}

// Scaled returns alpha*t as a new tensor.
func Scaled(alpha float32, t *Tensor) *Tensor {
	out := New(t.Shape...)
	d := out.Data
	for i, v := range t.Data {
		d[i] = alpha * v
	}
	return out
}

// Lerp overwrites dst with (1-w)*a + w*b, used by SoCFlow's Eq. 5
// mixed-precision weight merge.
func Lerp(dst, a, b *Tensor, w float32) {
	checkSame("Lerp", a, b)
	checkSame("Lerp", dst, a)
	d, y := dst.Data, b.Data
	for i, v := range a.Data {
		d[i] = (1-w)*v + w*y[i]
	}
}

// Dot returns the inner product of the flattened tensors.
func Dot(a, b *Tensor) float32 {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %v vs %v", a.Shape, b.Shape))
	}
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return float32(s)
}

// CosineSimilarity returns cos(a, b) of the flattened tensors, the
// metric SoCFlow uses for the INT8 confidence α (Eq. 4). It returns 0
// when either vector has zero norm.
func CosineSimilarity(a, b *Tensor) float32 {
	na, nb := float64(a.L2Norm()), float64(b.L2Norm())
	if na == 0 || nb == 0 {
		return 0
	}
	return float32(float64(Dot(a, b)) / (na * nb))
}

// Transpose2DInto writes the transpose of a 2-D tensor a[m,n] into an
// existing [n,m] tensor, overwriting its contents.
func Transpose2DInto(dst, a *Tensor) {
	if a.Dims() != 2 || dst.Dims() != 2 || dst.Shape[0] != a.Shape[1] || dst.Shape[1] != a.Shape[0] {
		panic(fmt.Sprintf("tensor: Transpose2DInto dst %v for %v", dst.Shape, a.Shape))
	}
	transposeInto(dst.Data, a.Data, a.Shape[0], a.Shape[1])
}

// SumRowsInto reduces a[m,n] over rows into an existing dst[n],
// overwriting its contents: the bias gradient.
func SumRowsInto(dst, a *Tensor) {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SumRowsInto of %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	if dst.Dims() != 1 || dst.Shape[0] != n {
		panic(fmt.Sprintf("tensor: SumRowsInto dst %v, want [%d]", dst.Shape, n))
	}
	for j := range dst.Data {
		dst.Data[j] = 0
	}
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			dst.Data[j] += v
		}
	}
}

// AddRowVector adds vector v[n] to every row of a[m,n] in place
// (bias broadcast).
func AddRowVector(a, v *Tensor) {
	if a.Dims() != 2 || v.Dims() != 1 || a.Shape[1] != v.Shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector %v += %v", a.Shape, v.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] += v.Data[j]
		}
	}
}

// SoftmaxInto computes the row-wise softmax of a 2-D tensor [batch,
// classes], with the usual max-subtraction for numerical stability,
// into an existing tensor of the same shape, overwriting its contents.
// dst may alias a.
func SoftmaxInto(dst, a *Tensor) {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxInto of %v", a.Shape))
	}
	checkSame("SoftmaxInto", dst, a)
	m, n := a.Shape[0], a.Shape[1]
	out := dst
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		orow := out.Data[i*n : (i+1)*n]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - mx))
			orow[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range orow {
			orow[j] *= inv
		}
	}
}

// ArgmaxRows returns the per-row argmax of a 2-D tensor, i.e. the
// predicted class indices for a batch of logits.
func ArgmaxRows(a *Tensor) []int {
	return ArgmaxRowsInto(nil, a)
}

// ArgmaxRowsInto is ArgmaxRows writing into dst, reallocating only when
// dst is too small — the allocation-free form for serving loops that
// classify the same batch shape repeatedly.
func ArgmaxRowsInto(dst []int, a *Tensor) []int {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows of %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	if cap(dst) < m {
		dst = make([]int, m)
	}
	out := dst[:m]
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[i] = bi
	}
	return out
}

// ClipInPlace clamps every element of t into [-c, c]. Gradient clipping
// keeps the micro-models used in tests numerically tame.
func ClipInPlace(t *Tensor, c float32) {
	for i, v := range t.Data {
		if v > c {
			t.Data[i] = c
		} else if v < -c {
			t.Data[i] = -c
		}
	}
}

// Rows returns a view of rows [lo,hi) of tensor a whose first dimension
// is the batch dimension. The returned tensor shares a's backing data.
func Rows(a *Tensor, lo, hi int) *Tensor {
	if a.Dims() < 1 || lo < 0 || hi > a.Shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: Rows[%d:%d] of %v", lo, hi, a.Shape))
	}
	stride := 1
	for _, d := range a.Shape[1:] {
		stride *= d
	}
	shape := append([]int{hi - lo}, a.Shape[1:]...)
	return &Tensor{Shape: shape, Data: a.Data[lo*stride : hi*stride]}
}

// RowsInto points view at rows [lo, hi) of a, reusing view's struct and
// shape slice so repeated slicing (e.g. the mixed-precision batch split
// every step) allocates nothing. Pass nil to create the view. The view
// aliases a's storage exactly like Rows.
func RowsInto(view, a *Tensor, lo, hi int) *Tensor {
	if a.Dims() < 1 || lo < 0 || hi > a.Shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: RowsInto[%d:%d] of %v", lo, hi, a.Shape))
	}
	stride := 1
	for _, d := range a.Shape[1:] {
		stride *= d
	}
	if view == nil {
		view = &Tensor{}
	}
	view.Shape = append(view.Shape[:0], hi-lo)
	view.Shape = append(view.Shape, a.Shape[1:]...)
	view.Data = a.Data[lo*stride : hi*stride]
	return view
}

// Concat concatenates tensors along dimension 0. All inputs must share
// trailing dimensions.
func Concat(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of nothing")
	}
	inner := 1
	for _, d := range ts[0].Shape[1:] {
		inner *= d
	}
	rows := 0
	for _, t := range ts {
		ti := 1
		for _, d := range t.Shape[1:] {
			ti *= d
		}
		if ti != inner {
			panic(fmt.Sprintf("tensor: Concat trailing-shape mismatch %v vs %v", ts[0].Shape, t.Shape))
		}
		rows += t.Shape[0]
	}
	shape := append([]int{rows}, ts[0].Shape[1:]...)
	out := New(shape...)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += len(t.Data)
	}
	return out
}

func checkSame(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}
