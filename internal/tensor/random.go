package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 seeding a xoshiro-style state) used for weight
// initialization, data synthesis, and stochastic rounding. Having our
// own generator, rather than math/rand, guarantees that streams are
// identical across Go versions and can be split per SoC worker.
type RNG struct {
	s [2]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed into the two state words.
	z := seed
	for i := range r.s {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		r.s[i] = x ^ (x >> 31)
	}
	if r.s[0] == 0 && r.s[1] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent generator for stream i, so each SoC
// worker gets its own reproducible stream.
func (r *RNG) Split(i uint64) *RNG {
	return NewRNG(r.s[0]*0x9e3779b97f4a7c15 + r.s[1] ^ (i+1)*0xd1b54a32d192ed03)
}

// Uint64 returns the next raw 64-bit value (xoroshiro128+).
func (r *RNG) Uint64() uint64 {
	s0, s1 := r.s[0], r.s[1]
	result := s0 + s1
	s1 ^= s0
	r.s[0] = rotl(s0, 55) ^ s1 ^ (s1 << 14)
	r.s[1] = rotl(s1, 36)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Normal returns a standard-normal sample via Box-Muller.
func (r *RNG) Normal() float32 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// Perm returns a random permutation of [0, n), Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes idx in place.
func (r *RNG) Shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// RandNormal fills a new tensor with N(mean, std²) samples.
func RandNormal(r *RNG, mean, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = mean + std*r.Normal()
	}
	return t
}

// HeInit returns a tensor initialized with He/Kaiming normal
// initialization for a layer with the given fan-in, the standard choice
// for ReLU networks like VGG and ResNet.
func HeInit(r *RNG, fanIn int, shape ...int) *Tensor {
	if fanIn <= 0 {
		panic("tensor: HeInit with non-positive fan-in")
	}
	std := float32(math.Sqrt(2 / float64(fanIn)))
	return RandNormal(r, 0, std, shape...)
}
