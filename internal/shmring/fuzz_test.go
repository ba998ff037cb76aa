package shmring

import (
	"encoding/binary"
	"testing"
	"unsafe"
)

// FuzzRingDescriptor feeds adversarial bytes through both trust boundaries of
// the package: FromBuffer's header validation, and — when the header parses —
// the consumer-side ring walk over attacker-controlled cursors and
// descriptors. The invariants under fuzz are memory safety — no input may
// panic, and every payload Peek hands back must alias the input buffer, never
// memory outside it — and slot ownership: two descriptors the producer
// publishes without an Advance between them never share slab bytes.
func FuzzRingDescriptor(f *testing.F) {
	// Seed 1: a pristine minimal segment.
	small := Geometry{Slots: MinSlots, SlotSize: MinSlotSize}
	good := make([]byte, small.SegmentSize())
	InitBuffer(good, small)
	f.Add(good)

	// Seed 2: one published entry, so mutations hit live descriptors.
	seg, err := FromBuffer(good)
	if err != nil {
		f.Fatal(err)
	}
	slot, _ := seg.Req.Reserve()
	slot = append(slot, "seed payload"...)
	seg.Req.Publish(7, len(slot))
	busy := append([]byte(nil), good...)
	f.Add(busy)

	// Seed 3: torn cursors — tail far beyond head.
	torn := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(torn[headerSize+64:], 1<<40)
	f.Add(torn)

	// Seed 4: descriptor escaping the slab.
	oob := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(oob[headerSize+64:], 1) // tail=1: one entry
	binary.LittleEndian.PutUint32(oob[headerSize+ringHeaderSize:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(oob[headerSize+ringHeaderSize+4:], 0xFFFFFFFF)
	f.Add(oob)

	// Seed 5: garbage geometry behind a valid magic.
	badGeo := append([]byte(nil), good[:headerSize]...)
	binary.LittleEndian.PutUint32(badGeo[8:12], 3)
	binary.LittleEndian.PutUint32(badGeo[12:16], 7)
	f.Add(badGeo)

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := FromBuffer(data)
		if err != nil {
			return // rejected at the header — exactly what hostile input should hit
		}
		// The header parsed; now every ring operation must stay inside data no
		// matter what the cursor/descriptor regions hold.
		for _, r := range []*Ring{seg.Req, seg.Resp} {
			id, payload, ok, err := r.Peek()
			if err != nil {
				continue
			}
			if ok {
				_ = id
				if len(payload) > 0 {
					// Touch both ends and verify the slice aliases data.
					_ = payload[0] + payload[len(payload)-1]
					first := &payload[0]
					last := &payload[len(payload)-1]
					inBuf := func(p *byte) bool {
						for i := range data {
							if &data[i] == p {
								return true
							}
						}
						return false
					}
					// Pointer-identity scan is O(n) but segments under fuzz are
					// small (min geometry ≈ 17 KiB).
					if !inBuf(first) || !inBuf(last) {
						t.Fatalf("Peek payload escapes the segment buffer")
					}
				}
				r.Advance()
			}
			// Producer side must also stay in-bounds, and two publishes with
			// no Advance between them must own disjoint slab slots.
			var prev []byte
			for k := 0; k < 2; k++ {
				slot, ok := r.Reserve()
				if !ok {
					break
				}
				slot = slot[:cap(slot)]
				for i := range slot {
					slot[i] = 0xA5
				}
				if prev != nil && overlap(prev, slot) {
					t.Fatalf("two unconsumed publishes share slab bytes")
				}
				r.Publish(uint32(k), len(slot))
				d := r.descs[((r.tail.Load()-1)&r.mask)*descSize:]
				if off := binary.LittleEndian.Uint32(d[0:4]); &r.slab[off] != &slot[0] {
					t.Fatalf("descriptor offset %d is not the reserved slot", off)
				}
				prev = slot
			}
			r.SetWaiting()
			r.TakeWaiting()
		}
	})
}

// overlap reports whether two non-empty slices share any byte of memory.
func overlap(a, b []byte) bool {
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}
