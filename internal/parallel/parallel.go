// Package parallel provides the host-side worker pool behind the
// functional training track. The stack has one level of host
// parallelism: core's strategies fan their logical groups and federated
// clients out through DoWidth at their run's width (socflow.WithParallelism),
// while tensor and nn kernels run as plain loops on whichever goroutine
// calls them. Set fixes the process default a run without a width uses.
// ForKernel and For (Do is a closure adapter over them) stay general
// range dispatchers.
//
// Determinism contract: a dispatch never reorders work results. Callers
// must write to disjoint output ranges (ForKernel, For) or disjoint
// per-index state (Do) and perform any floating-point reduction
// themselves in a fixed order afterwards. Under that contract a run is
// bit-identical at every parallelism level, including 1 — the property
// the seeded simulation depends on (host parallelism must never change
// EpochAccuracies or SimSeconds).
//
// Nesting is safe: chunks handed to the persistent workers are bounded
// by a global token semaphore, and a caller that cannot obtain tokens
// simply runs its chunks inline on its own goroutine, so recursive
// calls can never deadlock, only degrade to sequential execution.
package parallel

import (
	"runtime"
	"sync/atomic"
)

// limiter is one immutable parallelism regime: a target worker count
// and the token semaphore bounding chunks handed to the workers. Set
// swaps the whole limiter atomically so in-flight calls keep the tokens
// they acquired and release them back to the channel they came from.
type limiter struct {
	workers int
	sem     chan struct{} // nil when workers == 1
}

var cur atomic.Pointer[limiter]

func init() { Set(runtime.GOMAXPROCS(0)) }

// Set fixes the process's default parallelism for subsequent
// dispatches (a run's own width goes to DoWidth instead).
// Values below 1 are clamped to 1 (fully sequential). It returns the
// previous setting so callers can restore it.
func Set(n int) (prev int) {
	if n < 1 {
		n = 1
	}
	l := &limiter{workers: n}
	if n > 1 {
		l.sem = make(chan struct{}, n-1)
	}
	if old := cur.Swap(l); old != nil {
		prev = old.workers
	} else {
		prev = 1
	}
	return prev
}

// Workers returns the current target parallelism.
func Workers() int { return cur.Load().workers }

// rangeFunc adapts a closure to Kernel. A func value is pointer-shaped,
// so converting it to the interface does not allocate: a closure caller
// pays for its closure and nothing else.
type rangeFunc func(lo, hi int)

func (f rangeFunc) RunRange(lo, hi int) { f(lo, hi) }

// For is ForKernel for a closure: it splits [0, n) into at most
// Workers() contiguous chunks and runs fn(lo, hi) on each. fn must only
// write state owned by its [lo, hi) range. A closure that reaches the
// pool is heap-allocated where it is built, so For is for cold,
// per-epoch fan-out; hot loops hand ForKernel a struct.
func For(n int, fn func(lo, hi int)) { ForKernel(n, rangeFunc(fn)) }

// Do runs fn(i) for every i in [0, n), fanning out like For. Each
// index must own its state; results must be combined by the caller in
// a fixed order.
func Do(n int, fn func(i int)) { DoWidth(0, n, fn) }

// DoWidth is Do at a caller's own width instead of the process's: at
// most width chunks, admitted under a semaphore of this call's alone,
// so concurrent callers at different widths never see each other's.
// This is how a run's WithParallelism travels with the run. width < 1
// means Workers(), under the shared semaphore.
func DoWidth(width, n int, fn func(i int)) {
	l := cur.Load()
	if width >= 1 {
		l = &limiter{workers: width}
		if width > 1 {
			l.sem = make(chan struct{}, width-1)
		}
	}
	forKernel(l, n, rangeFunc(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	}))
}
