package parallel

import (
	"sync/atomic"
	"testing"
)

// incKernel marks every index in its range and counts total visits, so
// a test can prove exact once-per-index coverage.
type incKernel struct {
	hits  []int32
	total atomic.Int64
}

func (k *incKernel) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&k.hits[i], 1)
		k.total.Add(1)
	}
}

func TestForKernelCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		withWorkers(t, workers)
		for _, n := range []int{1, 2, 3, 7, 64, 1000, 1023} {
			k := &incKernel{hits: make([]int32, n)}
			ForKernel(n, k)
			for i, h := range k.hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
			if got := k.total.Load(); got != int64(n) {
				t.Fatalf("workers=%d n=%d: %d total visits", workers, n, got)
			}
		}
	}
}

func TestForKernelZeroAndNegative(t *testing.T) {
	withWorkers(t, 4)
	k := &incKernel{hits: make([]int32, 1)}
	ForKernel(0, k)
	ForKernel(-3, k)
	if k.total.Load() != 0 {
		t.Fatalf("ForKernel ran on empty range")
	}
}

// nestedKernel issues a ForKernel from inside RunRange, the shape of a
// conv forward whose per-image kernel runs a GEMM. A deadlock here
// hangs the test binary; the help-drain loop in ForKernel must prevent
// workers from parking while their own chunks sit in the queue.
type nestedKernel struct {
	inner []*incKernel
}

func (k *nestedKernel) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		ForKernel(len(k.inner[i].hits), k.inner[i])
	}
}

func TestForKernelNestedDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 4)
	outer := &nestedKernel{}
	for i := 0; i < 32; i++ {
		outer.inner = append(outer.inner, &incKernel{hits: make([]int32, 257)})
	}
	ForKernel(len(outer.inner), outer)
	for i, in := range outer.inner {
		for j, h := range in.hits {
			if h != 1 {
				t.Fatalf("inner %d index %d visited %d times", i, j, h)
			}
		}
	}
}

// sumKernel writes disjoint results without atomics, checking the
// ownership contract is enough for determinism.
type sumKernel struct {
	dst []int
}

func (k *sumKernel) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		k.dst[i] = i * i
	}
}

func TestForKernelMatchesSerial(t *testing.T) {
	const n = 501
	want := make([]int, n)
	(&sumKernel{dst: want}).RunRange(0, n)
	for _, workers := range []int{2, 3, 8} {
		withWorkers(t, workers)
		got := make([]int, n)
		ForKernel(n, &sumKernel{dst: got})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForKernelDoesNotAllocate(t *testing.T) {
	withWorkers(t, 4)
	k := &sumKernel{dst: make([]int, 4096)}
	// Warm the worker pool and the job pool.
	for i := 0; i < 8; i++ {
		ForKernel(len(k.dst), k)
	}
	avg := testing.AllocsPerRun(50, func() { ForKernel(len(k.dst), k) })
	if avg != 0 {
		t.Fatalf("ForKernel allocates %.1f allocs/op, want 0", avg)
	}
}
