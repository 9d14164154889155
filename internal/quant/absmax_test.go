package quant

import (
	"math"
	"testing"

	"socflow/internal/tensor"
)

// The three per-row quantizers take their grid's abs-max from
// tensor.AbsMax. Each is held here to the hand-written loop it used
// before, on rows that plant NaN, ±0, ±Inf and denormals at every
// position: the same scales, the same codes, the same bits.

// loopAbsMax is the loop the quantizers ran before tensor.AbsMax.
func loopAbsMax(row []float32) float32 {
	var absMax float32
	for _, v := range row {
		a := v
		if a < 0 {
			a = -a
		}
		if a > absMax {
			absMax = a
		}
	}
	return absMax
}

// absMaxRows returns rows of every length up to three lane blocks + 1,
// each a seeded mix of normal values and the specials.
func absMaxRows() [][]float32 {
	rng := tensor.NewRNG(7)
	var rows [][]float32
	for n := 1; n <= 3*laneBlock+1; n++ {
		for rep := 0; rep < 24; rep++ {
			row := make([]float32, n)
			for i := range row {
				switch rng.Intn(3) {
				case 0:
					row[i] = specials[rng.Intn(len(specials))]
				case 1:
					row[i] = math.Float32frombits(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31) // denormal
				default:
					row[i] = float32(rng.Normal() * 40)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func TestAbsMaxMatchesLoop(t *testing.T) {
	for _, row := range append(absMaxRows(), nil, []float32{}) {
		if got, want := tensor.AbsMax(row), loopAbsMax(row); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("AbsMax(%v) = %v, the loop %v", row, got, want)
		}
	}
}

// loopQuantizeSlice is QuantizeSlice on the loop.
func loopQuantizeSlice(codes []int8, src []float32) float32 {
	s := scaleFor(loopAbsMax(src))
	if isNaN32(s) {
		return s
	}
	inv := 1 / s
	for i, v := range src {
		if isNaN32(v) {
			return nan32()
		}
		codes[i] = clampInt8(math.Round(float64(v * inv)))
	}
	return s
}

func TestQuantizeSliceAbsMaxMatchesLoop(t *testing.T) {
	for _, row := range absMaxRows() {
		got, want := make([]int8, len(row)), make([]int8, len(row))
		gs, ws := QuantizeSlice(got, row), loopQuantizeSlice(want, row)
		if math.Float32bits(gs) != math.Float32bits(ws) {
			t.Fatalf("QuantizeSlice(%v) scale %v, the loop %v", row, gs, ws)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("QuantizeSlice(%v) code %d = %d, the loop %d", row, i, got[i], want[i])
			}
		}
	}
}

func TestInt8SGDAnchorAbsMaxMatchesLoop(t *testing.T) {
	rows := absMaxRows()
	for i := 0; i+4 <= len(rows); i += 4 {
		n := len(rows[i])
		if len(rows[i+3]) != n {
			continue
		}
		w := tensor.New(4, n)
		for c := 0; c < 4; c++ {
			copy(w.Data[c*n:(c+1)*n], rows[i+c])
		}
		o := &Int8SGD{RNG: tensor.NewRNG(1)}
		got := o.anchor(w)
		for c := 0; c < 4; c++ {
			want := scaleFor(loopAbsMax(rows[i+c]) * headroom)
			if math.Float32bits(got[c]) != math.Float32bits(want) {
				t.Fatalf("anchor row %v: scale %v, the loop %v", rows[i+c], got[c], want)
			}
		}
	}
}

// loopStochasticPerChannel is QuantizeStochasticPerChannelInPlace's
// per-channel branch on the loop.
func loopStochasticPerChannel(t *tensor.Tensor, rng *tensor.RNG) {
	ch := t.Shape[0]
	stride := len(t.Data) / ch
	for c := 0; c < ch; c++ {
		row := t.Data[c*stride : (c+1)*stride]
		s := scaleFor(loopAbsMax(row))
		if isNaN32(s) {
			for i := range row {
				row[i] = nan32()
			}
			continue
		}
		inv := 1 / s
		for i, v := range row {
			if isNaN32(v) {
				continue
			}
			x := float64(v * inv)
			lo := math.Floor(x)
			r := lo
			if rng.Float64() < x-lo {
				r = lo + 1
			}
			row[i] = float32(clampInt8(r)) * s
		}
	}
}

func TestStochasticPerChannelAbsMaxMatchesLoop(t *testing.T) {
	rows := absMaxRows()
	for i := 0; i+3 <= len(rows); i += 3 {
		n := len(rows[i])
		if len(rows[i+2]) != n {
			continue
		}
		got := tensor.New(3, n)
		for c := 0; c < 3; c++ {
			copy(got.Data[c*n:(c+1)*n], rows[i+c])
		}
		want := got.Clone()
		QuantizeStochasticPerChannelInPlace(got, tensor.NewRNG(uint64(i)))
		loopStochasticPerChannel(want, tensor.NewRNG(uint64(i)))
		if j := sameBits(got.Data, want.Data); j >= 0 {
			t.Fatalf("rows %v: element %d = %v, the loop %v", want.Shape, j, got.Data[j], want.Data[j])
		}
	}
}
