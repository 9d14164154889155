package quant

import (
	"math"
	"testing"

	"socflow/internal/tensor"
)

// The lane kernels of quant_amd64.go against the portable loops. On a
// host without AVX2, and under GOARCH=386, fakeQuantGrid and stepRow are
// the loops themselves and these tests hold them to the same oracles.

// specials are planted at every lane position: NaN, ±Inf, ±0,
// denormals, the rounding and clamp boundaries ±126.5 and ±127.5, and
// ±MaxFloat32.
var specials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	126.5, -126.5, 127.5, -127.5, math.MaxFloat32, -math.MaxFloat32,
}

// laneBlock is the lane width; the lengths run from 0 to 3 blocks + 1.
const laneBlock = 8

// canary fills the elements past a kernel's n.
var canary = math.Float32frombits(0x7fc0dead)

// withPortable runs f with the portable loops in place of the lanes.
func withPortable(f func()) {
	fq, sr := fakeQuantGrid, stepRow
	fakeQuantGrid, stepRow = fakeQuantGridGo, stepRowGo
	defer func() { fakeQuantGrid, stepRow = fq, sr }()
	f()
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestFakeQuantLanesMatchLoop(t *testing.T) {
	r := tensor.NewRNG(5)
	for _, s := range []float32{1, 1.0 / 127, 0.37, 1e-3, 2, 1e-30} {
		inv := 1 / s
		for n := 0; n <= 3*laneBlock+1; n++ {
			for p := 0; p <= n; p++ {
				for _, sp := range specials {
					src := tensor.RandNormal(r, 0, 100*s, n).Data
					if p < n {
						src[p] = sp
					}
					got, want := make([]float32, n+laneBlock), make([]float32, n+laneBlock)
					for i := n; i < len(got); i++ {
						got[i], want[i] = canary, canary
					}
					fakeQuantGrid(got[:n], src, s, inv)
					fakeQuantGridGo(want[:n], src, s, inv)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("s=%g n=%d special %v at %d: element %d = %v, want %v", s, n, sp, p, i, got[i], want[i])
					}
					// In place, as Requantize runs it.
					fakeQuantGrid(src, src, s, inv)
					if i := sameBits(src, want[:n]); i >= 0 {
						t.Fatalf("s=%g n=%d in place: element %d = %v, want %v", s, n, i, src[i], want[i])
					}
				}
			}
		}
	}
}

// TestGridCodeLanesMatchRoundExhaustive runs TestGridCodeMatchesRound
// Exhaustive's binades through fakeQuantGrid with s = inv = 1, so every
// lane computes gridCode(y)·1.
func TestGridCodeLanesMatchRoundExhaustive(t *testing.T) {
	lo, hi := math.Float32bits(0.25), math.Float32bits(256)
	const chunk = 1 << 12
	src, dst := make([]float32, 0, chunk), make([]float32, chunk)
	flush := func() {
		fakeQuantGrid(dst[:len(src)], src, 1, 1)
		for i, y := range src {
			if g, w := dst[i], refCode(y); math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("lane gridCode(%v [%#08x]) = %v, want %v", y, math.Float32bits(y), g, w)
			}
		}
		src = src[:0]
	}
	for b := lo; b < hi; b++ {
		src = append(src, math.Float32frombits(b), math.Float32frombits(b|1<<31))
		if len(src) >= chunk-1 {
			flush()
		}
	}
	flush()
}

// stepCase is one stepRow call: a row, its gradient and the update
// constants, run on copies by the lanes and by the loop.
type stepCase struct {
	row, grad []float32
	u         update
}

func (c stepCase) run(t *testing.T, what string) {
	t.Helper()
	n := len(c.row)
	got, want := make([]float32, n+laneBlock), make([]float32, n+laneBlock)
	copy(got, c.row)
	copy(want, c.row)
	for i := n; i < len(got); i++ {
		got[i], want[i] = canary, canary
	}
	og, ow := &Int8SGD{RNG: tensor.NewRNG(9)}, &Int8SGD{RNG: tensor.NewRNG(9)}
	rg := stepRow(got[:n], c.grad, c.u, og)
	rw := stepRowGo(want[:n], c.grad, c.u, ow)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%s: n=%d element %d = %v, want %v", what, n, i, got[i], want[i])
	}
	if rg != rw {
		t.Fatalf("%s: n=%d regrid %v, want %v", what, n, rg, rw)
	}
	if a, b := og.RNG.Uint64(), ow.RNG.Uint64(); a != b {
		t.Fatalf("%s: n=%d the RNG stream moved on differently", what, n)
	}
}

func newUpdate(lr, clip, gmax, scale float32) update {
	gs := scaleFor(min(gmax, clip))
	return update{lr: lr, gs: gs, ginv: 1 / gs, scale: scale, inv: 1 / scale, limit: scale * 127}
}

// TestStepLanesMatchLoop plants every special in the weight and in the
// gradient at every lane position of every length, under gradient grids
// from clipped and unclipped abs-maxes and several weight grids.
func TestStepLanesMatchLoop(t *testing.T) {
	r := tensor.NewRNG(6)
	inf := float32(math.Inf(1))
	for _, u := range []update{
		newUpdate(0.02, 1, 3, 0.01),
		newUpdate(0.5, inf, 0.5, 1.0/127),
		newUpdate(1, 1, 1, 1),
		newUpdate(0.1, inf, 2, 0),     // scale underflowed: inv = +Inf
		newUpdate(0.1, inf, 1e-40, 1), // gradient grid with an overflowing 1/gs
		newUpdate(0.1, inf, inf, 1),   // NaN gradient grid
		newUpdate(0.1, 1, 1, float32(math.NaN())),
	} {
		for n := 0; n <= 3*laneBlock+1; n++ {
			for p := 0; p <= n; p++ {
				for _, sp := range specials {
					for _, where := range []string{"weight", "gradient"} {
						c := stepCase{
							row:  tensor.RandNormal(r, 0, 50*u.scale, n).Data,
							grad: tensor.RandNormal(r, 0, 1, n).Data,
							u:    u,
						}
						if p < n {
							if where == "weight" {
								c.row[p] = sp
							} else {
								c.grad[p] = sp
							}
						}
						c.run(t, where)
					}
				}
			}
		}
	}
}

// TestStepLanesLongRows crosses the 64-draw refill with NaN blocks at
// either side of it.
func TestStepLanesLongRows(t *testing.T) {
	r := tensor.NewRNG(7)
	u := newUpdate(0.05, 1, 2, 0.02)
	for _, n := range []int{63, 64, 65, 144, 200} {
		for _, nanAt := range []int{-1, 0, 7, 8, 56, 63, 64, 71, 72, n - 1} {
			c := stepCase{row: tensor.RandNormal(r, 0, 1, n).Data, grad: tensor.RandNormal(r, 0, 2, n).Data, u: u}
			if nanAt >= 0 && nanAt < n {
				c.grad[nanAt] = float32(math.NaN())
			}
			c.run(t, "long row")
		}
	}
}

// TestStepNaNDrawsNothing: the weights whose x is NaN (NaN weight,
// gradient or scale) become NaN and consume no draw, on both paths.
func TestStepNaNDrawsNothing(t *testing.T) {
	nan := float32(math.NaN())
	for _, step := range []func([]float32, []float32, update, *Int8SGD) bool{stepRow, stepRowGo} {
		for n := 1; n <= 3*laneBlock+1; n++ {
			for p := 0; p < n; p++ {
				for _, c := range []struct {
					w, g  float32
					scale float32
				}{{nan, 0.5, 0.01}, {0.1, nan, 0.01}, {0.1, 0.5, nan}} {
					row, grad := make([]float32, n), make([]float32, n)
					for i := range row {
						row[i], grad[i] = 0.1, 0.5
					}
					row[p], grad[p] = c.w, c.g
					u := newUpdate(0.01, 1, 0.5, 0.01)
					u.scale, u.inv, u.limit = c.scale, 1/c.scale, c.scale*127
					o := &Int8SGD{RNG: tensor.NewRNG(3)}
					step(row, grad, u, o)
					draws := n - 1
					if isNaN32(c.scale) {
						draws = 0
					}
					ref := tensor.NewRNG(3)
					for range draws {
						ref.Uint64()
					}
					if o.RNG.Uint64() != ref.Uint64() {
						t.Fatalf("n=%d NaN %+v at %d: stream not advanced by %d draws", n, c, p, draws)
					}
					if !isNaN32(row[p]) {
						t.Fatalf("n=%d NaN %+v at %d: weight = %v, want NaN", n, c, p, row[p])
					}
				}
			}
		}
	}
}

// TestStepRegridFromEveryLane drives one weight per row past its grid
// edge, at every lane position, and checks that it alone triggers the
// regrid.
func TestStepRegridFromEveryLane(t *testing.T) {
	for n := 1; n <= 3*laneBlock+1; n++ {
		for p := 0; p < n; p++ {
			row, grad := make([]float32, n), make([]float32, n)
			for i := range row {
				row[i] = 0.25
			}
			row[p] = 200
			u := newUpdate(0.01, 1, 1, 1)
			c := stepCase{row: row, grad: grad, u: u}
			c.run(t, "regrid")
			if !stepRow(append([]float32(nil), row...), grad, u, &Int8SGD{RNG: tensor.NewRNG(1)}) {
				t.Fatalf("n=%d: a weight past the grid edge at %d did not regrid", n, p)
			}
			row[p] = 0.25
			if stepRow(row, grad, u, &Int8SGD{RNG: tensor.NewRNG(1)}) {
				t.Fatalf("n=%d: regrid without a weight at the grid edge", n)
			}
		}
	}
}

// TestStepMatchesPortable runs whole Int8SGD steps, with regrids, NaN
// and clipped gradients, on both paths: equal weight bits, equal
// scales, and an equal next draw.
func TestStepMatchesPortable(t *testing.T) {
	type run struct {
		ws  []*tensor.Tensor
		opt *Int8SGD
	}
	start := func() run {
		r := tensor.NewRNG(11)
		ws := []*tensor.Tensor{
			tensor.RandNormal(r, 0, 0.3, 16, 144), tensor.RandNormal(r, 0, 0.3, 5, 13),
			tensor.RandNormal(r, 0, 1, 37), tensor.RandNormal(r, 0, 1, 3),
		}
		return run{ws, &Int8SGD{LR: 0.05, GradClip: 1, RNG: r.Split(77)}}
	}
	steps := func(rn run) {
		gr := tensor.NewRNG(12)
		for s := 0; s < 40; s++ {
			for k, w := range rn.ws {
				g := tensor.RandNormal(gr, 0, float32(1+k), w.Shape...)
				if s == 17 && k == 1 {
					g.Data[6] = float32(math.NaN())
				}
				if s%10 == 9 {
					g.Data[0] = 1e4 // overshoot: regrid
				}
				rn.opt.GradClip = float32(s % 3)
				rn.opt.Step(w, g)
			}
		}
	}
	lanes, loop := start(), start()
	steps(lanes)
	withPortable(func() { steps(loop) })
	for k := range lanes.ws {
		if i := sameBits(lanes.ws[k].Data, loop.ws[k].Data); i >= 0 {
			t.Fatalf("tensor %d element %d = %v, want %v", k, i, lanes.ws[k].Data[i], loop.ws[k].Data[i])
		}
		if i := sameBits(lanes.opt.scales[lanes.ws[k]], loop.opt.scales[loop.ws[k]]); i >= 0 {
			t.Fatalf("tensor %d channel %d scale differs", k, i)
		}
	}
	if lanes.opt.RNG.Uint64() != loop.opt.RNG.Uint64() {
		t.Fatal("the RNG stream moved on differently")
	}
}

// refStep is Int8SGD.Step as it was before the gradient was fused into
// the update: clipped in a copy, fake-quantized there through the
// reference rounding under the copy's own abs-max, then read back by
// the update loop.
func refStep(o *Int8SGD, w, g *tensor.Tensor) {
	gq := g.Clone()
	if o.GradClip > 0 {
		tensor.ClipInPlace(gq, o.GradClip)
	}
	var absMax float32
	for _, v := range gq.Data {
		if a := float32(math.Abs(float64(v))); a > absMax {
			absMax = a
		}
	}
	gs := scaleFor(absMax)
	for i, v := range gq.Data {
		switch {
		case isNaN32(gs):
			gq.Data[i] = nan32()
		case !isNaN32(v):
			gq.Data[i] = float32(clampInt8(math.Round(float64(v*(1/gs))))) * gs
		}
	}
	s := o.scaleOf(w)
	ch, stride := channelsOf(w)
	regrid := false
	for c := 0; c < ch; c++ {
		scale, inv := s[c], 1/s[c]
		limit := scale * 127
		for i := c * stride; i < (c+1)*stride; i++ {
			x := float64((w.Data[i] - o.LR*gq.Data[i]) * inv)
			if x != x {
				w.Data[i] = nan32()
				continue
			}
			lo := math.Floor(x)
			r := lo
			if o.RNG.Float64() < x-lo {
				r = lo + 1
			}
			v := float32(clampInt8(r)) * scale
			w.Data[i] = v
			if v >= limit || v <= -limit {
				regrid = true
			}
		}
	}
	if regrid {
		o.scales[w] = o.anchor(w)
	}
}

// TestStepMatchesUnfusedReference holds the fused Step, on both paths,
// to refStep: unclipped gradients and clips from 10^30 down to one whose
// grid scale is denormal, NaN and ±Inf elements, a gradient grid whose
// 1/gs overflows (under weights small enough to feel it), an all-NaN
// gradient, and regrids.
func TestStepMatchesUnfusedReference(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	tiny := func(g []float32) { tensor.Scale(1e-39, &tensor.Tensor{Data: g}); g[2] = 0 }
	for _, c := range []struct {
		name   string
		plant  func(g []float32)
		wscale float32
	}{
		{"plain", func(g []float32) {}, 1},
		{"nan", func(g []float32) { g[5], g[len(g)-1] = nan, nan }, 1},
		{"inf", func(g []float32) { g[3], g[9] = inf, -inf }, 1},
		{"tiny", tiny, 1},
		{"tiny, tiny weights", tiny, 1e-35},
		{"all nan", func(g []float32) {
			for i := range g {
				g[i] = nan
			}
		}, 1},
		{"overshot", func(g []float32) { g[0], g[40] = 1e4, -1e4 }, 1},
	} {
		name, plant := c.name, c.plant
		for _, clip := range []float32{0, 1, 0.05, 1e30, 1e-30, 4e-37} {
			steps := func(step func(o *Int8SGD, w, g *tensor.Tensor)) ([]*tensor.Tensor, *Int8SGD) {
				r := tensor.NewRNG(21)
				ws := []*tensor.Tensor{tensor.RandNormal(r, 0, 0.3, 6, 29), tensor.RandNormal(r, 0, 1, 45)}
				for _, w := range ws {
					tensor.Scale(c.wscale, w)
				}
				opt := &Int8SGD{LR: 0.1, GradClip: clip, RNG: r.Split(3)}
				gr := tensor.NewRNG(22)
				for s := 0; s < 3; s++ {
					for _, w := range ws {
						g := tensor.RandNormal(gr, 0, 2, w.Shape...)
						plant(g.Data)
						step(opt, w, g)
					}
				}
				return ws, opt
			}
			want, ref := steps(refStep)
			fused := func(o *Int8SGD, w, g *tensor.Tensor) { o.Step(w, g) }
			for _, path := range []string{"lanes", "portable"} {
				var ws []*tensor.Tensor
				var opt *Int8SGD
				if path == "lanes" {
					ws, opt = steps(fused)
				} else {
					withPortable(func() { ws, opt = steps(fused) })
				}
				for k := range ws {
					if i := sameBits(ws[k].Data, want[k].Data); i >= 0 {
						t.Fatalf("%s clip %v %s: tensor %d element %d = %v, want %v", name, clip, path, k, i, ws[k].Data[i], want[k].Data[i])
					}
					if i := sameBits(opt.scales[ws[k]], ref.scales[want[k]]); i >= 0 {
						t.Fatalf("%s clip %v %s: tensor %d scale %d differs", name, clip, path, k, i)
					}
				}
				if a, b := *opt.RNG, *ref.RNG; a.Uint64() != b.Uint64() {
					t.Fatalf("%s clip %v %s: the RNG stream moved on differently", name, clip, path)
				}
			}
		}
	}
}
