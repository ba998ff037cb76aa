// Package shmring is the shared-memory ring transport under the serving
// daemon's MTS1 upgrade: one mmap'd segment per connection holding two
// single-producer/single-consumer descriptor rings (request and response)
// plus fixed-slot payload slabs. Steady-state predict traffic moves through
// the segment with zero syscalls and zero server-side copies — the producer
// encodes a request into a slab slot and publishes a descriptor with one
// atomic store; the consumer decodes straight out of the slab and answers in
// place through the opposite ring. The only kernel involvement left is the
// doorbell: a parked consumer advertises itself through the ring's waiting
// flag and is woken by one frame on the accompanying unix socket, so an idle
// connection burns no CPU and a busy one never enters the kernel at all.
//
// Segment layout (all integers little-endian, every region 64-byte aligned):
//
//	header   64 B   magic "MTSR" | version u32 | slots u32 | slotSize u32 |
//	                segSize u64 (rest reserved)
//	reqRing         ring header (3 cache lines: head, tail, waiting) +
//	                slots × 16 B descriptors {off u32, len u32, id u32, rsvd}
//	respRing        same shape
//	reqSlab         slots × slotSize payload bytes (client → server)
//	respSlab        slots × slotSize payload bytes (server → client)
//
// A descriptor points at one whole slab slot its producer owns until the
// consumer advances past it. Which slot that is stays the producer's private
// business (it reuses recently freed slots, so a lightly loaded connection
// keeps only a few slab pages resident); consumers accept any in-bounds
// offset. Cursors are free-running uint64 sequence numbers (descriptor index
// = seq & (slots-1)). The segment is plain shared memory written by another
// — possibly hostile or crashed — process, so every consumer-side read
// revalidates what it loads: torn or runaway cursors and out-of-bounds
// descriptors surface as ErrCorrupt, never as a read outside the mapping.
package shmring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync/atomic"
	"unsafe"
)

// Magic identifies a segment header.
const Magic = "MTSR"

// Version is the layout version written by Create and required by open.
const Version = 1

// Geometry bounds. Slots must be a power of two so the slot index is one
// mask; slot sizes are multiples of 64 so every slab slot stays cache-line
// aligned.
const (
	DefaultSlots    = 64
	DefaultSlotSize = 64 << 10
	MinSlots        = 8
	MaxSlots        = 4096
	MinSlotSize     = 1 << 10
	MaxSlotSize     = 1 << 20
)

const (
	headerSize     = 64
	ringHeaderSize = 192 // head, tail, waiting — one cache line each
	descSize       = 16
)

// ErrCorrupt reports a segment whose header, cursors, or descriptors are
// inconsistent: the peer is torn, hostile, or gone mid-write. The connection
// owning the segment cannot be resynchronized and should be torn down.
var ErrCorrupt = errors.New("shmring: corrupt segment state")

// Geometry is one ring pair's shape: Slots descriptors per direction, each
// owning SlotSize payload bytes.
type Geometry struct {
	Slots    uint32
	SlotSize uint32
}

// DefaultGeometry returns the server-default shape: 64 slots × 64 KiB, an
// 8 MiB segment comfortably covering a default-max-batch predict frame with
// deep pipelining.
func DefaultGeometry() Geometry {
	return Geometry{Slots: DefaultSlots, SlotSize: DefaultSlotSize}
}

// Validate checks the geometry bounds.
func (g Geometry) Validate() error {
	if g.Slots < MinSlots || g.Slots > MaxSlots || g.Slots&(g.Slots-1) != 0 {
		return fmt.Errorf("shmring: slots must be a power of two in [%d, %d], got %d", MinSlots, MaxSlots, g.Slots)
	}
	if g.SlotSize < MinSlotSize || g.SlotSize > MaxSlotSize || g.SlotSize%64 != 0 {
		return fmt.Errorf("shmring: slot size must be a multiple of 64 in [%d, %d], got %d", MinSlotSize, MaxSlotSize, g.SlotSize)
	}
	return nil
}

// Normalize clamps an arbitrary requested geometry (e.g. from a peer's
// handshake frame) to a valid one: zeros become the defaults, slot counts
// round up to the next power of two, slot sizes round up to a cache line,
// and both clamp into their bounds.
func Normalize(g Geometry) Geometry {
	if g.Slots == 0 {
		g.Slots = DefaultSlots
	}
	if g.SlotSize == 0 {
		g.SlotSize = DefaultSlotSize
	}
	g.Slots = min(max(ceilPow2(g.Slots), MinSlots), MaxSlots)
	g.SlotSize = min(max((g.SlotSize+63)&^uint32(63), MinSlotSize), MaxSlotSize)
	return g
}

// ceilPow2 rounds v up to the next power of two (saturating at 2^31).
func ceilPow2(v uint32) uint32 {
	if v <= 1 {
		return 1
	}
	if v > 1<<31 {
		return 1 << 31
	}
	return 1 << (32 - bits.LeadingZeros32(v-1))
}

// ringBytes is one ring's header + descriptor area.
func (g Geometry) ringBytes() int64 {
	return ringHeaderSize + int64(g.Slots)*descSize
}

// SegmentSize is the total segment byte count for this geometry.
func (g Geometry) SegmentSize() int64 {
	return headerSize + 2*g.ringBytes() + 2*int64(g.Slots)*int64(g.SlotSize)
}

// Segment is one mapped ring pair. Req carries producer=client traffic,
// Resp carries producer=server traffic; which ring a process produces into
// is a matter of which side of the connection it is, the Segment itself is
// symmetric.
type Segment struct {
	path   string
	data   []byte
	mapped bool
	geo    Geometry
	Req    *Ring
	Resp   *Ring
}

// Path returns the backing file path ("" for in-memory segments).
func (s *Segment) Path() string { return s.path }

// Geometry returns the segment's validated shape.
func (s *Segment) Geometry() Geometry { return s.geo }

// Create builds a fresh segment file at path (failing if one exists),
// truncates it to the geometry's size, maps it, and initializes the header
// with both rings empty.
func Create(path string, g Geometry) (*Segment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shmring: create %s: %w", path, err)
	}
	defer f.Close()
	size := g.SegmentSize()
	if err := f.Truncate(size); err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("shmring: size %s: %w", path, err)
	}
	data, err := mmap(f, int(size))
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("shmring: map %s: %w", path, err)
	}
	InitBuffer(data, g)
	seg, err := fromBuffer(data, path, true)
	if err != nil {
		munmap(data)
		os.Remove(path)
		return nil, err
	}
	return seg, nil
}

// Open maps an existing segment file created by a peer's Create, validating
// the header before trusting any of it.
func Open(path string) (*Segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("shmring: open %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("shmring: stat %s: %w", path, err)
	}
	if st.Size() < headerSize || st.Size() > headerSize+2*(ringHeaderSize+MaxSlots*descSize)+2*MaxSlots*MaxSlotSize {
		return nil, fmt.Errorf("%w: implausible segment size %d", ErrCorrupt, st.Size())
	}
	data, err := mmap(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("shmring: map %s: %w", path, err)
	}
	seg, err := fromBuffer(data, path, true)
	if err != nil {
		munmap(data)
		return nil, err
	}
	return seg, nil
}

// NewInMemory builds a heap-backed segment, for tests and same-process
// benchmarks that do not need a file.
func NewInMemory(g Geometry) (*Segment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	data := make([]byte, g.SegmentSize())
	InitBuffer(data, g)
	return fromBuffer(data, "", false)
}

// InitBuffer writes a fresh segment header for g into data (which must hold
// at least headerSize bytes) and leaves both rings empty. Exported for the
// fuzz harness, which corrupts initialized buffers.
func InitBuffer(data []byte, g Geometry) {
	copy(data[0:4], Magic)
	binary.LittleEndian.PutUint32(data[4:8], Version)
	binary.LittleEndian.PutUint32(data[8:12], g.Slots)
	binary.LittleEndian.PutUint32(data[12:16], g.SlotSize)
	binary.LittleEndian.PutUint64(data[16:24], uint64(g.SegmentSize()))
}

// FromBuffer interprets data as a segment without mapping anything: the
// header is validated exactly like Open's. The fuzz tests drive this with
// adversarial bytes; the contract is that no input makes it (or the rings it
// returns) panic or touch memory outside data.
func FromBuffer(data []byte) (*Segment, error) { return fromBuffer(data, "", false) }

func fromBuffer(data []byte, path string, mapped bool) (*Segment, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte segment is smaller than its header", ErrCorrupt, len(data))
	}
	if string(data[0:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("%w: segment version %d, want %d", ErrCorrupt, v, Version)
	}
	g := Geometry{
		Slots:    binary.LittleEndian.Uint32(data[8:12]),
		SlotSize: binary.LittleEndian.Uint32(data[12:16]),
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	size := g.SegmentSize()
	if binary.LittleEndian.Uint64(data[16:24]) != uint64(size) {
		return nil, fmt.Errorf("%w: header claims %d bytes, geometry needs %d",
			ErrCorrupt, binary.LittleEndian.Uint64(data[16:24]), size)
	}
	if int64(len(data)) < size {
		return nil, fmt.Errorf("%w: %d-byte segment, geometry needs %d", ErrCorrupt, len(data), size)
	}
	ringBytes := g.ringBytes()
	slabBytes := int64(g.Slots) * int64(g.SlotSize)
	reqRingOff := int64(headerSize)
	respRingOff := reqRingOff + ringBytes
	reqSlabOff := respRingOff + ringBytes
	respSlabOff := reqSlabOff + slabBytes
	return &Segment{
		path:   path,
		data:   data,
		mapped: mapped,
		geo:    g,
		Req:    ringAt(data, reqRingOff, reqSlabOff, g),
		Resp:   ringAt(data, respRingOff, respSlabOff, g),
	}, nil
}

// Close unmaps the segment. The caller must guarantee no goroutine touches
// either ring afterwards. The backing file, if any, is not removed — see
// Unlink.
func (s *Segment) Close() error {
	if !s.mapped {
		return nil
	}
	s.mapped = false
	return munmap(s.data)
}

// Unlink removes the backing file. Established mappings survive an unlink
// (the pages live until the last munmap), so the creating side unlinks as
// soon as both peers are mapped and nothing is left to leak on exit.
func (s *Segment) Unlink() error {
	if s.path == "" {
		return nil
	}
	return os.Remove(s.path)
}

// ringAt builds a Ring view over the segment region at ringOff/slabOff. All
// offsets are 64-byte aligned by construction (the header is 64 bytes, ring
// areas are 192 + slots*16 with slots ≥ 8 a power of two, slabs are
// slot-size multiples), which the atomic cursor pointers require.
func ringAt(data []byte, ringOff, slabOff int64, g Geometry) *Ring {
	hdr := data[ringOff:]
	// The free stack pops slot 0 first.
	free := make([]uint32, g.Slots)
	for i := range free {
		free[i] = g.Slots - 1 - uint32(i)
	}
	return &Ring{
		head:     (*atomic.Uint64)(unsafe.Pointer(&hdr[0])),
		tail:     (*atomic.Uint64)(unsafe.Pointer(&hdr[64])),
		waiting:  (*atomic.Uint32)(unsafe.Pointer(&hdr[128])),
		descs:    data[ringOff+ringHeaderSize : ringOff+ringHeaderSize+int64(g.Slots)*descSize],
		slab:     data[slabOff : slabOff+int64(g.Slots)*int64(g.SlotSize)],
		slots:    uint64(g.Slots),
		mask:     uint64(g.Slots) - 1,
		slotSize: uint64(g.SlotSize),
		free:     free,
		owner:    make([]uint32, g.Slots),
	}
}
