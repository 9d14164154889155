package parallel

import (
	"runtime"
	"sync"
)

// Kernel is a range task that ForKernel can fan out without building a
// closure: implementations carry their operands as struct fields, so a
// caller that owns or pools its kernel structs dispatches without
// touching the allocator. RunRange must only write state owned by its
// [lo, hi) range — the package's determinism contract.
type Kernel interface {
	RunRange(lo, hi int)
}

// workItem is one chunk of a kernel job, sent to the persistent workers
// by value (a struct send on a channel does not allocate).
type workItem struct {
	job    *kernelJob
	lo, hi int
}

// kernelJob is the shared state of one ForKernel call: the kernel, the
// token semaphore the chunks were admitted under, and the completion
// group. Jobs are pooled; ForKernel clears the pointers before Put.
type kernelJob struct {
	k   Kernel
	sem chan struct{}
	wg  sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(kernelJob) }}

// workCh feeds the persistent workers. The buffer bounds queued chunks;
// a full queue degrades to inline execution, never blocks.
var workCh chan workItem

var startWorkersOnce sync.Once

// startWorkers lazily spawns the persistent worker goroutines on the
// first parallel ForKernel call. Workers live for the process and park
// on the channel when idle, so repeated kernels reuse them instead of
// spawning (and allocating) a goroutine per chunk.
func startWorkers() {
	startWorkersOnce.Do(func() {
		workCh = make(chan workItem, 1024)
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			go func() {
				for it := range workCh {
					it.run()
				}
			}()
		}
	})
}

// run executes one chunk, releases its admission token, and signals
// completion. It must not touch the job after wg.Done: the waiter may
// already be recycling it.
func (it workItem) run() {
	it.job.k.RunRange(it.lo, it.hi)
	if it.job.sem != nil {
		<-it.job.sem
	}
	it.job.wg.Done()
}

// ForKernel splits [0, n) into at most Workers() contiguous chunks and
// runs k.RunRange on each — helper chunks on the persistent worker
// pool, the final one on the calling goroutine — and returns when every
// chunk has finished. The call allocates nothing. Chunks are admitted
// under Set's global token semaphore; saturation (e.g. nested calls)
// degrades to inline execution.
//
// Waiting is deadlock-free under nesting: before parking, the caller
// helps drain the shared queue, so a worker blocked in a nested
// ForKernel always finds its chunks executed — by itself, another
// worker, or another waiter.
func ForKernel(n int, k Kernel) { forKernel(cur.Load(), n, k) }

// forKernel is ForKernel under the given limiter.
func forKernel(l *limiter, n int, k Kernel) {
	if n <= 0 {
		return
	}
	w := l.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		k.RunRange(0, n)
		return
	}
	startWorkers()
	j := jobPool.Get().(*kernelJob)
	j.k = k
	j.sem = l.sem
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if hi < n { // the final chunk always runs inline: free backpressure
			select {
			case l.sem <- struct{}{}:
				j.wg.Add(1)
				select {
				case workCh <- workItem{job: j, lo: lo, hi: hi}:
					continue
				default:
					// Queue full: undo the bookkeeping, run inline.
					j.wg.Done()
					<-l.sem
				}
			default:
				// No tokens (pool saturated or nested): run inline.
			}
		}
		k.RunRange(lo, hi)
	}
	// Help-drain before parking. Every send for this job happened above,
	// so once the queue is momentarily empty our remaining chunks are in
	// flight on workers and wg.Wait must return.
	for {
		select {
		case it := <-workCh:
			it.run()
		default:
			j.wg.Wait()
			j.k = nil
			j.sem = nil
			jobPool.Put(j)
			return
		}
	}
}
