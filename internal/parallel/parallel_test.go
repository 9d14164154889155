package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := Set(n)
	t.Cleanup(func() { Set(prev) })
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 33} {
		withWorkers(t, w)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			hits := make([]int32, n)
			For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestDoRunsEveryIndex(t *testing.T) {
	withWorkers(t, 4)
	n := 100
	out := make([]int, n)
	Do(n, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("index %d: got %d", i, v)
		}
	}
}

// DoWidth visits every index once, never runs more than width of them
// at a time, and leaves the process width alone, at widths below and
// above it.
func TestDoWidthIsTheCallersOwn(t *testing.T) {
	withWorkers(t, 2)
	for _, width := range []int{1, 3, 5} {
		var live, peak atomic.Int32
		hits := make([]int32, 40)
		DoWidth(width, len(hits), func(i int) {
			n := live.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			atomic.AddInt32(&hits[i], 1)
			live.Add(-1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("width %d: index %d visited %d times", width, i, h)
			}
		}
		if p := peak.Load(); p > int32(width) {
			t.Fatalf("width %d: %d indices ran at once", width, p)
		}
		if Workers() != 2 {
			t.Fatalf("DoWidth(%d) changed the process width to %d", width, Workers())
		}
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 4)
	var total atomic.Int64
	Do(8, func(i int) {
		For(64, func(lo, hi int) {
			For(16, func(lo2, hi2 int) {
				total.Add(int64((hi - lo) * (hi2 - lo2)))
			})
		})
	})
	// Each outer index contributes 64*16 inner units.
	if got := total.Load(); got != 8*64*16 {
		t.Fatalf("nested work total %d, want %d", got, 8*64*16)
	}
}

func TestSetClampsAndRestores(t *testing.T) {
	prev := Set(0)
	if Workers() != 1 {
		t.Fatalf("Set(0) should clamp to 1, got %d", Workers())
	}
	Set(-3)
	if Workers() != 1 {
		t.Fatalf("Set(-3) should clamp to 1, got %d", Workers())
	}
	Set(prev)
	if Workers() != prev {
		t.Fatalf("restore failed: %d vs %d", Workers(), prev)
	}
}

func TestDefaultIsGOMAXPROCS(t *testing.T) {
	prev := Set(runtime.GOMAXPROCS(0))
	defer Set(prev)
	if Workers() < 1 {
		t.Fatalf("workers %d", Workers())
	}
}

// For is a closure adapter over the kernel pool: converting the func
// value to a Kernel is free, so a caller pays for the closure it built
// (one object, because it reaches the pool and so escapes) and nothing
// else — no goroutine, WaitGroup or per-chunk wrapper.
func TestForClosureCostsOneAllocation(t *testing.T) {
	withWorkers(t, 4)
	out := make([]int, 4096)
	call := func() {
		For(len(out), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = i
			}
		})
	}
	// Warm the workers and the job pool at this width: AllocsPerRun
	// measures under GOMAXPROCS(1).
	for i := 0; i < 8; i++ {
		call()
	}
	if avg := testing.AllocsPerRun(50, call); avg > 1 {
		t.Fatalf("For with a capturing closure allocates %.1f objects/call, want <= 1", avg)
	}
}
