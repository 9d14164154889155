package nn_test

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"socflow/internal/nn"
	"socflow/internal/serve"
	"socflow/internal/tensor"
)

// BuildMicro with a nil RNG builds a catalog model's geometry alone:
// the layer-cost walk sees what it sees on a seeded build, every
// parameter and state tensor has the seeded build's shape, the drawn
// weights are all +0 and the rest (biases, batch-norm scale and shift,
// running statistics) equal the seeded build's bit for bit.
func TestNilRNGBuildsGeometryOnly(t *testing.T) {
	const inC, img, classes = 3, 8, 10
	for _, name := range nn.ModelNames() {
		spec := nn.MustSpec(name)
		seeded := spec.BuildMicro(tensor.NewRNG(1), inC, img, classes)
		bare := spec.BuildMicro(nil, inC, img, classes)
		if got, want := serve.LayerCosts(bare, inC, img), serve.LayerCosts(seeded, inC, img); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: layer costs of the nil-RNG build %+v, seeded %+v", name, got, want)
		}
		sp, bp := seeded.Params(), bare.Params()
		if len(sp) != len(bp) {
			t.Fatalf("%s: %d params, seeded %d", name, len(bp), len(sp))
		}
		for i, p := range bp {
			s := sp[i]
			if p.Name != s.Name || !slices.Equal(p.W.Shape, s.W.Shape) {
				t.Fatalf("%s: param %d is %s%v, seeded %s%v", name, i, p.Name, p.W.Shape, s.Name, s.W.Shape)
			}
			drawn := strings.HasSuffix(p.Name, ".w")
			for j, v := range p.W.Data {
				want := s.W.Data[j]
				if drawn {
					want = 0
				}
				if math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("%s: %s[%d] = %v, want %v", name, p.Name, j, v, want)
				}
			}
		}
		ss, bs := seeded.StateTensors(), bare.StateTensors()
		if len(ss) != len(bs) {
			t.Fatalf("%s: %d state tensors, seeded %d", name, len(bs), len(ss))
		}
		for i := range bs {
			if !slices.Equal(bs[i].Shape, ss[i].Shape) || !slices.Equal(bs[i].Data, ss[i].Data) {
				t.Errorf("%s: state tensor %d differs from the seeded build's", name, i)
			}
		}
	}
}
