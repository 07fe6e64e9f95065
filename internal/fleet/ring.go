package fleet

import "sync"

// ring is the bounded verdict queue between the shard workers and the
// aggregator. Its shedding policy is drop-oldest: a full queue evicts
// the stalest verdict to admit the new one, and every eviction is
// counted. The choice is deliberate — under overload the aggregator's
// per-die statistics recover from losing old samples (the EWMA simply
// sees a sparser stream), whereas blocking producers would stall whole
// shards behind one slow consumer and an unbounded queue would grow
// until the process dies. Memory is fixed at construction: one slice,
// no per-push allocation.
type ring struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	buf      []verdict
	head     int // index of the oldest element
	n        int // elements in the buffer
	dropped  uint64
	closed   bool
}

func newRing(capacity int) *ring {
	if capacity < 1 {
		capacity = 1
	}
	r := &ring{buf: make([]verdict, capacity)}
	r.nonEmpty = sync.NewCond(&r.mu)
	return r
}

// pushBatch admits every element of vs under one lock acquisition. It
// never blocks: each admission into a full ring evicts the then-oldest
// entry, and pushes after close are shed — the aggregator is gone, so
// the verdicts are dropped, not leaked into a queue nobody drains.
// Every eviction or shed is counted, and pushBatch returns the number
// shed, which producers use as a congestion signal to shrink their
// batches — bulk admission under saturation would evict contiguous runs
// of one shard's sweep and systematically starve the same dies, where
// fine-grained interleaving thins the stream uniformly. One Signal
// suffices — the ring has a single consumer.
func (r *ring) pushBatch(vs []verdict) (shed int) {
	if len(vs) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		r.dropped += uint64(len(vs))
		return len(vs)
	}
	for _, v := range vs {
		if r.n == len(r.buf) {
			r.head = (r.head + 1) % len(r.buf)
			r.n--
			r.dropped++
			shed++
		}
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
	}
	r.nonEmpty.Signal()
	return shed
}

// pop blocks until an element is available or the ring is closed and
// drained; ok is false only in the latter case. A closed ring still
// hands out its remaining elements — close-then-drain is the graceful
// shutdown path.
func (r *ring) pop() (verdict, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 && !r.closed {
		r.nonEmpty.Wait()
	}
	if r.n == 0 {
		return verdict{}, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = verdict{} // drop references for the GC
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, true
}

// popBatch blocks like pop until something is available, then drains
// up to len(buf) elements in one lock acquisition and returns how many
// it wrote. Zero only when the ring is closed and drained.
func (r *ring) popBatch(buf []verdict) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 && !r.closed {
		r.nonEmpty.Wait()
	}
	n := r.n
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = r.buf[r.head]
		r.buf[r.head] = verdict{} // drop references for the GC
		r.head = (r.head + 1) % len(r.buf)
	}
	r.n -= n
	return n
}

// close stops admissions and wakes blocked consumers once the remaining
// elements are drained.
func (r *ring) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.nonEmpty.Broadcast()
}

// stats returns the current depth, capacity, and drop count.
func (r *ring) stats() (depth, capacity int, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n, len(r.buf), r.dropped
}
