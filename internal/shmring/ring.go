package shmring

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Ring is one direction of a segment: a single-producer/single-consumer
// descriptor ring over a fixed-slot payload slab. The producer and consumer
// are different processes (or goroutines); within one process each role must
// be externally serialized — a multiplexing client takes a producer lock, a
// serving loop is naturally single-threaded.
//
// Cursors are free-running sequence numbers: tail is advanced by the
// producer with a release store after the descriptor and payload are in
// place, head by the consumer after it is done with a slot. Go's sync/atomic
// gives the acquire/release ordering both directions need; everything else
// in the ring is plain memory guarded by those two cursors.
//
// Which slab slot a descriptor points at is the producer's private business.
// It keeps a last-in-first-out free list of slot indices outside the shared
// segment and reuses the slot the consumer most recently released, so a
// connection with k requests in flight touches k slots, not all Slots: its
// resident memory follows its in-flight depth rather than the ring's depth.
// head is written by the peer, so it is trusted only inside the window of
// this producer's own unreclaimed publishes; anywhere else it reads as full.
//
// The waiting flag is the doorbell contract: a consumer that found the ring
// empty sets it, re-checks the ring (the lost-wakeup guard), and parks on
// its connection; a producer that observes-and-clears it (TakeWaiting) after
// publishing owes the peer one wake frame. While traffic keeps both rings
// nonempty the flag stays clear and neither side enters the kernel.
type Ring struct {
	head     *atomic.Uint64
	tail     *atomic.Uint64
	waiting  *atomic.Uint32
	descs    []byte
	slab     []byte
	slots    uint64
	mask     uint64
	slotSize uint64

	// Producer-local slab allocator; never in shared memory. free is a stack
	// of free slot indices, owner[seq&mask] the slot behind descriptor seq,
	// pub the count of this producer's publishes (the tail it writes), and
	// freed how many of those have had their slot returned to free.
	free  []uint32
	owner []uint32
	pub   uint64
	freed uint64
}

// Slots returns the ring's descriptor capacity.
func (r *Ring) Slots() int { return int(r.slots) }

// SlotSize returns the payload capacity of one slot.
func (r *Ring) SlotSize() int { return int(r.slotSize) }

// Reserve returns the payload buffer of a free slab slot (length 0,
// capacity SlotSize) for the producer to encode into, or ok=false when the
// ring is full. It first takes back the slots of every descriptor the
// consumer has advanced past, then offers the most recently freed one; the
// slot is claimed only by the Publish that follows, so a Reserve on its own
// changes nothing. A consumer cursor outside this producer's outstanding
// publishes reads as full, never as a wild or doubly-freed slot.
func (r *Ring) Reserve() (slot []byte, ok bool) {
	h := r.head.Load()
	if h-r.freed > r.pub-r.freed {
		return nil, false
	}
	for ; r.freed != h; r.freed++ {
		r.free = append(r.free, r.owner[r.freed&r.mask])
	}
	if len(r.free) == 0 {
		return nil, false
	}
	off := uint64(r.free[len(r.free)-1]) * r.slotSize
	return r.slab[off : off : off+r.slotSize], true
}

// Publish claims the slot offered by the last Reserve and commits it with
// the request id and payload length n, making it visible to the consumer. n
// must not exceed the slot capacity.
func (r *Ring) Publish(id uint32, n int) { r.PublishAt(id, 0, n) }

// PublishAt is Publish with the payload starting skip bytes into the slot.
// Producers use it to place a payload so that some interior field — the
// float matrix of a batch request — lands 8-byte-aligned in the slab, which
// unlocks the consumer's zero-copy decode (slots themselves are 64-byte-
// aligned, so alignment within the slot is alignment in memory). The
// descriptor carries the skewed offset; consumers never see the skip.
// skip+n must not exceed the slot capacity.
func (r *Ring) PublishAt(id uint32, skip, n int) {
	if skip < 0 || n < 0 || uint64(skip)+uint64(n) > r.slotSize {
		panic(fmt.Sprintf("shmring: PublishAt(%d, %d) outside a %d-byte slot", skip, n, r.slotSize))
	}
	if len(r.free) == 0 {
		panic("shmring: PublishAt without a successful Reserve")
	}
	s := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	t := r.pub
	r.owner[t&r.mask] = s
	d := r.descs[(t&r.mask)*descSize:]
	binary.LittleEndian.PutUint32(d[0:4], uint32(uint64(s)*r.slotSize+uint64(skip)))
	binary.LittleEndian.PutUint32(d[4:8], uint32(n))
	binary.LittleEndian.PutUint32(d[8:12], id)
	r.pub = t + 1
	r.tail.Store(r.pub)
}

// Peek returns the oldest unconsumed entry without consuming it: its id and
// a payload slice aliasing the slab. ok=false means the ring is empty. A
// non-nil error means the peer published garbage — a descriptor pointing
// outside the slab, a length beyond its slot, or cursors further apart than
// the ring is deep — and the segment can no longer be trusted. The payload
// remains valid until Advance.
func (r *Ring) Peek() (id uint32, payload []byte, ok bool, err error) {
	h := r.head.Load()
	t := r.tail.Load()
	d := t - h
	if d == 0 {
		return 0, nil, false, nil
	}
	if d > r.slots {
		return 0, nil, false, fmt.Errorf("%w: cursors %d apart on a %d-slot ring", ErrCorrupt, d, r.slots)
	}
	desc := r.descs[(h&r.mask)*descSize:]
	off := uint64(binary.LittleEndian.Uint32(desc[0:4]))
	n := uint64(binary.LittleEndian.Uint32(desc[4:8]))
	id = binary.LittleEndian.Uint32(desc[8:12])
	if n > r.slotSize || off+n > uint64(len(r.slab)) {
		return 0, nil, false, fmt.Errorf("%w: descriptor %d+%d outside a %d-byte slab (slot size %d)",
			ErrCorrupt, off, n, len(r.slab), r.slotSize)
	}
	return id, r.slab[off : off+n], true, nil
}

// Advance consumes the entry returned by the last Peek, freeing its slot for
// the producer. The peeked payload must not be touched afterwards.
func (r *Ring) Advance() {
	r.head.Store(r.head.Load() + 1)
}

// Pending reports whether the ring holds unconsumed entries.
func (r *Ring) Pending() bool { return r.tail.Load() != r.head.Load() }

// SetWaiting advertises that the consumer is about to park. The caller must
// re-check Pending afterwards before actually parking — a publish that raced
// the flag store would otherwise sleep through its own doorbell.
func (r *Ring) SetWaiting() { r.waiting.Store(1) }

// ClearWaiting withdraws the advertisement (the consumer found work or woke).
func (r *Ring) ClearWaiting() { r.waiting.Store(0) }

// TakeWaiting atomically reads-and-clears the waiting flag. A producer calls
// it after publishing; true means the consumer was parked (or about to park)
// and the producer owes it one doorbell frame.
func (r *Ring) TakeWaiting() bool { return r.waiting.Swap(0) == 1 }
