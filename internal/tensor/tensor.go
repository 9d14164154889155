// Package tensor implements dense float32 tensors and the numerical
// kernels (matmul, im2col convolution, pooling, reductions) that the
// SoCFlow functional training track is built on.
//
// The package is deliberately self-contained: it uses only the standard
// library, keeps all data in a flat []float32 with row-major strides, and
// favours predictable, allocation-conscious kernels over cleverness. All
// randomness is seeded explicitly so every experiment in the repository
// is reproducible bit-for-bit.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float32 tensor. The zero value is not
// usable; construct tensors with New, Zeros, FromSlice, or the random
// constructors in random.go.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the flat row-major backing store; len(Data) == Size().
	Data []float32
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, numel(shape))}
}

// Zeros is an alias for New, provided for readability at call sites that
// emphasise the initial contents.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Ones allocates a tensor filled with 1.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = 1
	}
	return t
}

// Full allocates a tensor filled with v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly numel(shape) elements.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != numel(shape) {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for shape %v (want %d)", len(data), shape, numel(shape)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panicNegativeDim(shape)
		}
		n *= d
	}
	return n
}

// panicNegativeDim formats a copy of shape so numel's parameter never
// reaches an interface conversion: otherwise escape analysis marks
// shape as leaking and every variadic call site (New, Ensure, arena
// Get) heap-allocates its argument slice even on the happy path.
func panicNegativeDim(shape []int) {
	panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
}

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies o's data into t. Shapes must match in element count.
func (t *Tensor) CopyFrom(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.Shape, o.Shape))
	}
	copy(t.Data, o.Data)
}

// Reshape returns a tensor sharing t's data with a new shape. The new
// shape must have the same number of elements. A single -1 dimension is
// inferred from the rest.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = len(t.Data) / known
	}
	if numel(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: Reshape %v to %v changes element count", t.Shape, shape))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panicBadIndex(idx, t.Shape, "for")
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panicBadIndex(idx, t.Shape, "out of range for")
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// panicBadIndex formats copies of idx and shape so offset's parameters
// never reach an interface conversion — otherwise every At/Set call
// site heap-allocates its variadic index slice (see panicNegativeDim).
func panicBadIndex(idx, shape []int, what string) {
	panic(fmt.Sprintf("tensor: index %v %s shape %v",
		append([]int(nil), idx...), what, append([]int(nil), shape...)))
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.Shape)
	if len(t.Data) <= 16 {
		fmt.Fprintf(&b, "%v", t.Data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g] (n=%d, mean=%.4g)", t.Data[0], t.Data[1], t.Data[len(t.Data)-1], len(t.Data), t.Mean())
	}
	return b.String()
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float32 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float32(len(t.Data))
}

// Sum returns the sum of all elements, accumulated in float64 for
// stability.
func (t *Tensor) Sum() float32 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return float32(s)
}

// Max returns the maximum element. It panics on empty tensors.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on empty tensors.
func (t *Tensor) Min() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns max(|x|) over all elements (0 for empty tensors),
// skipping NaN: the portable loop, or the AVX2 lanes of gemm_amd64.go.
func (t *Tensor) AbsMax() float32 { return absMax(t.Data) }

var absMax = absMaxGo

// absMaxGo clears the sign bit for |x|, so no branch depends on the
// sign, the one branch a predictor cannot learn on signed data; four
// lanes give it independent chains. Max-reduction is exact and
// order-free, so the result is bit-identical to a sequential scan.
func absMaxGo(d []float32) float32 {
	var m0, m1, m2, m3 float32
	i := 0
	for ; i+4 <= len(d); i += 4 {
		m0 = maxAbs(m0, d[i])
		m1 = maxAbs(m1, d[i+1])
		m2 = maxAbs(m2, d[i+2])
		m3 = maxAbs(m3, d[i+3])
	}
	for ; i < len(d); i++ {
		m0 = maxAbs(m0, d[i])
	}
	return maxAbs(maxAbs(m0, m1), maxAbs(m2, m3))
}

// maxAbs returns max(m, |v|) for m >= 0, or m when v is NaN (the
// comparison is false).
func maxAbs(m, v float32) float32 {
	if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > m {
		return a
	}
	return m
}

// Argmax returns the flat index of the maximum element.
func (t *Tensor) Argmax() int {
	if len(t.Data) == 0 {
		panic("tensor: Argmax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float32 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// HasNaN reports whether any element is NaN or Inf, a guard used by the
// training engine to detect divergence early.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}
