// Package core implements the paper's cachable queue (CQ) algorithm
// (§2.2) as a reusable single-producer/single-consumer queue, with all
// three of the paper's optimisations:
//
//   - Message valid bits: the receiver polls the entry at head, never
//     the tail pointer, so an empty-queue poll touches only memory the
//     producer will eventually write (on real hardware: a cache hit
//     until the producer's write invalidates it).
//
//   - Sense reverse: the valid flag's encoding alternates each pass
//     around the ring (valid == 1 on odd passes, 0 on even), so the
//     consumer never writes the entry to clear it — eliminating the
//     ownership (read-for-ownership) transfer a clear would cost.
//
//   - Lazy pointers: the producer keeps a stale shadow of the
//     consumer's head and re-reads the real head only when the shadow
//     says the queue is full; if the queue is on average no more than
//     half full the producer touches the shared head pointer only
//     twice per pass.
//
// The implementation uses monotonically increasing 64-bit positions;
// an entry's lap parity is its sense, exactly the paper's alternation.
// Between goroutines the valid flag and published head are atomics,
// which is the memory-model analogue of the paper's reliance on cache
// coherence plus memory barriers (§2.2 footnote 3).
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// pad keeps producer-side, consumer-side, and shared fields on
// separate cache lines, the software analogue of the paper keeping
// head and tail "in separate cache blocks".
type pad [64]byte

type entry[T any] struct {
	valid atomic.Uint32 // holds the sense value of the lap that wrote it
	val   T
}

// Queue is a single-producer single-consumer cachable queue.
// Enqueue must be called from one goroutine at a time, Dequeue from
// one goroutine at a time; the two sides may run concurrently.
type Queue[T any] struct {
	size    uint64
	mask    uint64
	lapBits uint
	entries []entry[T]

	_ pad
	// Producer-private state.
	tail       uint64 // next position to write
	shadowHead uint64 // lazy copy of the consumer's published head
	fullMisses uint64 // times the shadow had to be refreshed (stats)

	_ pad
	// Consumer-private state.
	head uint64 // next position to read

	_ pad
	// Shared: consumer publishes head here; producer reads it lazily.
	publishedHead atomic.Uint64
}

// New creates a queue with capacity entries (rounded up to a power of
// two, minimum 2).
func New[T any](capacity int) *Queue[T] {
	if capacity < 2 {
		capacity = 2
	}
	size := uint64(1) << uint(bits.Len(uint(capacity-1)))
	return &Queue[T]{
		size:    size,
		mask:    size - 1,
		lapBits: uint(bits.TrailingZeros64(size)),
		entries: make([]entry[T], size),
	}
}

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return int(q.size) }

// sense returns the valid-flag encoding for the lap containing pos:
// 1 on the first (odd) pass, 0 on the second, alternating — the
// paper's sense reverse. Zero-initialised entries are therefore
// invalid for the first lap.
func (q *Queue[T]) sense(pos uint64) uint32 {
	return uint32(1 ^ ((pos >> q.lapBits) & 1))
}

// TryEnqueue appends v and reports success; it fails only when the
// queue is full. This is the paper's Figure 4 enqueue.
func (q *Queue[T]) TryEnqueue(v T) bool {
	if q.tail-q.shadowHead >= q.size {
		// Shadow says full: refresh from the consumer (the only point
		// where the producer touches shared state).
		q.shadowHead = q.publishedHead.Load()
		q.fullMisses++
		if q.tail-q.shadowHead >= q.size {
			return false
		}
	}
	e := &q.entries[q.tail&q.mask]
	e.val = v
	e.valid.Store(q.sense(q.tail)) // release: publishes val
	q.tail++
	return true
}

// Enqueue appends v, spinning (with scheduler yields) while full.
func (q *Queue[T]) Enqueue(v T) {
	for !q.TryEnqueue(v) {
		runtime.Gosched()
	}
}

// TryDequeue removes the oldest entry; ok is false when the queue is
// empty. This is the paper's Figure 5 dequeue: the valid flag at head
// is compared against the consumer's current sense.
func (q *Queue[T]) TryDequeue() (v T, ok bool) {
	e := &q.entries[q.head&q.mask]
	if e.valid.Load() != q.sense(q.head) {
		return v, false // empty
	}
	v = e.val
	q.head++
	q.publishedHead.Store(q.head)
	return v, true
}

// Dequeue removes the oldest entry, spinning while empty.
func (q *Queue[T]) Dequeue() T {
	for {
		if v, ok := q.TryDequeue(); ok {
			return v
		}
		runtime.Gosched()
	}
}

// Peek returns the oldest entry without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	e := &q.entries[q.head&q.mask]
	if e.valid.Load() != q.sense(q.head) {
		return v, false
	}
	return e.val, true
}

// ConsumerLen reports the number of entries visible to the consumer.
// It may undercount entries the producer has published since the last
// poll (it walks valid flags; O(n) worst case, diagnostic use only).
func (q *Queue[T]) ConsumerLen() int {
	n := 0
	for pos := q.head; pos < q.head+q.size; pos++ {
		if q.entries[pos&q.mask].valid.Load() != q.sense(pos) {
			break
		}
		n++
	}
	return n
}

// FullMisses reports how many times the producer had to refresh the
// shadow head — the "cache misses on head" the lazy-pointer
// optimisation exists to minimise.
func (q *Queue[T]) FullMisses() uint64 { return q.fullMisses }

// String describes the queue for debugging.
func (q *Queue[T]) String() string {
	return fmt.Sprintf("cq.Queue{cap=%d tail=%d head=%d shadow=%d}",
		q.size, q.tail, q.publishedHead.Load(), q.shadowHead)
}
