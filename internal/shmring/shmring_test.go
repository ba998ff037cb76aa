package shmring

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestGeometryNormalize(t *testing.T) {
	cases := []struct {
		in, want Geometry
	}{
		{Geometry{}, DefaultGeometry()},
		{Geometry{Slots: 3, SlotSize: 100}, Geometry{Slots: MinSlots, SlotSize: MinSlotSize}},
		{Geometry{Slots: 65, SlotSize: 4096}, Geometry{Slots: 128, SlotSize: 4096}},
		{Geometry{Slots: 1 << 30, SlotSize: 1 << 30}, Geometry{Slots: MaxSlots, SlotSize: MaxSlotSize}},
	}
	for _, c := range cases {
		got := Normalize(c.in)
		if got != c.want {
			t.Errorf("Normalize(%+v) = %+v, want %+v", c.in, got, c.want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("Normalize(%+v) = %+v does not validate: %v", c.in, got, err)
		}
	}
}

func TestSegmentCreateOpenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.shm")
	g := Geometry{Slots: 8, SlotSize: 1024}
	srv, err := Create(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Geometry() != g {
		t.Fatalf("opened geometry %+v, want %+v", cli.Geometry(), g)
	}

	// Client produces a request; server sees the identical bytes through its
	// own mapping and answers through the response ring.
	slot, ok := cli.Req.Reserve()
	if !ok {
		t.Fatal("fresh ring full")
	}
	slot = append(slot, "hello over shared memory"...)
	cli.Req.Publish(42, len(slot))

	id, payload, ok, err := srv.Req.Peek()
	if err != nil || !ok {
		t.Fatalf("Peek = ok=%v err=%v", ok, err)
	}
	if id != 42 || string(payload) != "hello over shared memory" {
		t.Fatalf("server saw id=%d payload=%q", id, payload)
	}
	rslot, ok := srv.Resp.Reserve()
	if !ok {
		t.Fatal("response ring full")
	}
	rslot = append(rslot, "ack"...)
	srv.Resp.Publish(id, len(rslot))
	srv.Req.Advance()

	rid, rp, ok, err := cli.Resp.Peek()
	if err != nil || !ok || rid != 42 || string(rp) != "ack" {
		t.Fatalf("client response peek: id=%d payload=%q ok=%v err=%v", rid, rp, ok, err)
	}
	cli.Resp.Advance()

	// The file survives an unlink for as long as the mappings do.
	if err := srv.Unlink(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("segment file still present after Unlink: %v", err)
	}
	slot, ok = cli.Req.Reserve()
	if !ok {
		t.Fatal("ring full after unlink")
	}
	slot = append(slot, 'x')
	cli.Req.Publish(7, len(slot))
	if id, _, ok, err := srv.Req.Peek(); err != nil || !ok || id != 7 {
		t.Fatalf("post-unlink traffic: id=%d ok=%v err=%v", id, ok, err)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.shm")
	s, err := Create(path, DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Create(path, DefaultGeometry()); err == nil {
		t.Fatal("Create over an existing file succeeded")
	}
}

func TestRingFullAndWrap(t *testing.T) {
	seg, err := NewInMemory(Geometry{Slots: 8, SlotSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r := seg.Req
	// Fill to capacity, drain, refill: sequence numbers keep running past the
	// slot count and the mask brings them home.
	for round := 0; round < 5; round++ {
		for i := 0; i < r.Slots(); i++ {
			slot, ok := r.Reserve()
			if !ok {
				t.Fatalf("round %d: full after %d entries", round, i)
			}
			slot = append(slot, byte(round), byte(i))
			r.Publish(uint32(round*100+i), len(slot))
		}
		if _, ok := r.Reserve(); ok {
			t.Fatalf("round %d: Reserve succeeded on a full ring", round)
		}
		for i := 0; i < r.Slots(); i++ {
			id, payload, ok, err := r.Peek()
			if err != nil || !ok {
				t.Fatalf("round %d entry %d: ok=%v err=%v", round, i, ok, err)
			}
			if id != uint32(round*100+i) || !bytes.Equal(payload, []byte{byte(round), byte(i)}) {
				t.Fatalf("round %d entry %d: id=%d payload=%v", round, i, id, payload)
			}
			r.Advance()
		}
		if r.Pending() {
			t.Fatalf("round %d: ring pending after full drain", round)
		}
	}
}

// TestRingPublishAt pins the skewed-offset publish: the consumer sees
// exactly the [skip, skip+n) window of the slot at an address whose
// alignment the producer controlled, and out-of-slot skews panic instead of
// corrupting a neighbor.
func TestRingPublishAt(t *testing.T) {
	seg, err := NewInMemory(Geometry{Slots: 8, SlotSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r := seg.Req
	for skip := 0; skip < 8; skip++ {
		slot, ok := r.Reserve()
		if !ok {
			t.Fatalf("skip %d: ring full", skip)
		}
		payload := []byte{0xAA, byte(skip), 0xBB}
		copy(slot[skip:skip+len(payload)], payload)
		r.PublishAt(uint32(skip), skip, len(payload))

		id, got, ok, err := r.Peek()
		if err != nil || !ok || id != uint32(skip) {
			t.Fatalf("skip %d: id=%d ok=%v err=%v", skip, id, ok, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("skip %d: payload %v, want %v", skip, got, payload)
		}
		// The producer controls in-slab alignment: slots are 64-aligned, so
		// the payload lands at offset ≡ skip (mod 8).
		if a := uintptr(unsafe.Pointer(&got[0])) % 8; a != uintptr(skip%8) {
			t.Fatalf("skip %d: payload aligned at %d", skip, a)
		}
		r.Advance()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PublishAt past the slot capacity did not panic")
			}
		}()
		if _, ok := r.Reserve(); !ok {
			t.Fatal("ring full")
		}
		r.PublishAt(0, 1000, 100)
	}()
}

func TestWaitingFlagHandshake(t *testing.T) {
	seg, err := NewInMemory(Geometry{Slots: 8, SlotSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r := seg.Req
	if r.TakeWaiting() {
		t.Fatal("fresh ring advertises a waiting consumer")
	}
	r.SetWaiting()
	if !r.TakeWaiting() {
		t.Fatal("TakeWaiting missed the flag")
	}
	if r.TakeWaiting() {
		t.Fatal("TakeWaiting did not clear the flag")
	}
	r.SetWaiting()
	r.ClearWaiting()
	if r.TakeWaiting() {
		t.Fatal("ClearWaiting left the flag set")
	}
}

// TestRingCorruptionDetected drives every validated failure mode: torn
// cursors and descriptors escaping the slab surface as ErrCorrupt from Peek,
// and a hostile cursor pair reads as full, never as a wild slot.
func TestRingCorruptionDetected(t *testing.T) {
	mk := func() *Segment {
		seg, err := NewInMemory(Geometry{Slots: 8, SlotSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}

	t.Run("cursor gap beyond depth", func(t *testing.T) {
		seg := mk()
		seg.Req.tail.Store(100) // head 0: 100 apart on an 8-slot ring
		if _, _, _, err := seg.Req.Peek(); err == nil {
			t.Fatal("torn cursors not detected")
		}
	})
	t.Run("descriptor length beyond slot", func(t *testing.T) {
		seg := mk()
		slot, _ := seg.Req.Reserve()
		seg.Req.Publish(1, len(append(slot, 'x')))
		binary.LittleEndian.PutUint32(seg.Req.descs[4:8], 4097)
		if _, _, _, err := seg.Req.Peek(); err == nil {
			t.Fatal("oversized descriptor not detected")
		}
	})
	t.Run("descriptor offset outside slab", func(t *testing.T) {
		seg := mk()
		slot, _ := seg.Req.Reserve()
		seg.Req.Publish(1, len(append(slot, 'x')))
		binary.LittleEndian.PutUint32(seg.Req.descs[0:4], uint32(len(seg.Req.slab)))
		binary.LittleEndian.PutUint32(seg.Req.descs[4:8], 64)
		if _, _, _, err := seg.Req.Peek(); err == nil {
			t.Fatal("out-of-slab descriptor not detected")
		}
	})
	t.Run("hostile cursors read as full", func(t *testing.T) {
		seg := mk()
		seg.Req.head.Store(1 << 62)
		seg.Req.tail.Store(0) // tail-head wraps to an enormous distance
		if _, ok := seg.Req.Reserve(); ok {
			t.Fatal("Reserve handed out a slot on hostile cursors")
		}
	})
}

func TestFromBufferRejectsGarbage(t *testing.T) {
	good := make([]byte, Geometry{Slots: 8, SlotSize: 1024}.SegmentSize())
	InitBuffer(good, Geometry{Slots: 8, SlotSize: 1024})
	if _, err := FromBuffer(good); err != nil {
		t.Fatalf("valid buffer rejected: %v", err)
	}

	bad := [][]byte{
		nil,
		[]byte("MTSR"),
		bytes.Repeat([]byte{0xFF}, 4096),
	}
	// Truncated body: valid header, not enough bytes behind it.
	short := make([]byte, 256)
	copy(short, good[:256])
	bad = append(bad, short)
	// Header size field disagreeing with the geometry.
	lied := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(lied[16:24], 12345)
	bad = append(bad, lied)
	for i, b := range bad {
		if _, err := FromBuffer(b); err == nil {
			t.Errorf("garbage buffer %d accepted", i)
		}
	}
}

// TestRingPairConcurrentInflight is the -race coverage the transport relies
// on: a producer goroutine streams distinct payloads through the request
// ring while a consumer echoes them through the response ring, with many
// descriptors in flight, and a collector validates every echoed payload.
// The atomic cursor stores are the only synchronization — exactly the
// cross-process contract.
func TestRingPairConcurrentInflight(t *testing.T) {
	seg, err := NewInMemory(Geometry{Slots: 16, SlotSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const total = 5000
	var consumerErr atomic.Value

	// Echo server: request payloads come back on the response ring under the
	// same id with a marker byte appended.
	go func() {
		for done := 0; done < total; {
			id, payload, ok, err := seg.Req.Peek()
			if err != nil {
				consumerErr.Store(err)
				return
			}
			if !ok {
				runtime.Gosched()
				continue
			}
			var slot []byte
			for {
				s, ok := seg.Resp.Reserve()
				if ok {
					slot = s
					break
				}
				runtime.Gosched()
			}
			slot = append(slot, payload...)
			slot = append(slot, 0xEE)
			seg.Resp.Publish(id, len(slot))
			seg.Req.Advance()
			done++
		}
	}()

	recvDone := make(chan error, 1)
	go func() {
		seen := make(map[uint32]bool, total)
		for len(seen) < total {
			id, payload, ok, err := seg.Resp.Peek()
			if err != nil {
				recvDone <- err
				return
			}
			if !ok {
				runtime.Gosched()
				continue
			}
			if seen[id] {
				recvDone <- fmt.Errorf("id %d echoed twice", id)
				return
			}
			want := payloadFor(id)
			if len(payload) != len(want)+1 || !bytes.Equal(payload[:len(want)], want) || payload[len(want)] != 0xEE {
				recvDone <- fmt.Errorf("id %d echoed %v", id, payload)
				return
			}
			seen[id] = true
			seg.Resp.Advance()
		}
		recvDone <- nil
	}()

	for i := 0; i < total; i++ {
		var slot []byte
		for {
			s, ok := seg.Req.Reserve()
			if ok {
				slot = s
				break
			}
			runtime.Gosched()
		}
		slot = append(slot, payloadFor(uint32(i))...)
		seg.Req.Publish(uint32(i), len(slot))
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	if err, _ := consumerErr.Load().(error); err != nil {
		t.Fatal(err)
	}
}

// payloadFor derives a distinct, length-varying payload from an id.
func payloadFor(id uint32) []byte {
	n := 1 + int(id%97)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(id + uint32(i)*31)
	}
	return b
}

// slotOf returns the slab slot a consumer-visible payload lives in.
func slotOf(r *Ring, payload []byte) uint64 {
	off := uintptr(unsafe.Pointer(unsafe.SliceData(payload))) - uintptr(unsafe.Pointer(&r.slab[0]))
	return uint64(off) / r.slotSize
}

// inflightSlots returns the slab slot of every published, unconsumed
// descriptor, oldest first, read straight from the descriptor ring.
func inflightSlots(r *Ring) []uint64 {
	var out []uint64
	for seq := r.head.Load(); seq != r.tail.Load(); seq++ {
		d := r.descs[(seq&r.mask)*descSize:]
		out = append(out, uint64(binary.LittleEndian.Uint32(d[0:4]))/r.slotSize)
	}
	return out
}

// assertDistinctSlots fails if two in-flight descriptors share a slab slot.
func assertDistinctSlots(t *testing.T, r *Ring, what string) {
	t.Helper()
	seen := make(map[uint64]bool)
	for _, s := range inflightSlots(r) {
		if seen[s] {
			t.Fatalf("%s: slab slot %d backs two in-flight descriptors (%v)", what, s, inflightSlots(r))
		}
		seen[s] = true
	}
}

// publishOne reserves, fills and publishes one payload, failing on a full
// ring.
func publishOne(t *testing.T, r *Ring, id uint32) {
	t.Helper()
	slot, ok := r.Reserve()
	if !ok {
		t.Fatalf("id %d: ring full", id)
	}
	r.Publish(id, len(append(slot, byte(id), byte(id>>8))))
}

// TestRingSlabWorkingSet pins the residency claim at its source: a producer
// that never has more than k descriptors in flight hands out exactly k
// distinct slab slots, however many requests pass through.
func TestRingSlabWorkingSet(t *testing.T) {
	for k := 1; k <= 3; k++ {
		seg, err := NewInMemory(Geometry{Slots: 64, SlotSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		r := seg.Req
		used := make(map[uint64]bool)
		inflight := 0
		for i := 0; i < 10000; i++ {
			if inflight == k {
				_, payload, ok, err := r.Peek()
				if err != nil || !ok {
					t.Fatalf("k=%d round %d: ok=%v err=%v", k, i, ok, err)
				}
				used[slotOf(r, payload)] = true
				r.Advance()
				inflight--
			}
			publishOne(t, r, uint32(i))
			inflight++
		}
		if len(used) != k {
			t.Fatalf("k=%d: %d distinct slab slots used, want %d", k, len(used), k)
		}
	}
}

// TestRingSlabNoOverlap fills the ring to its depth and checks that every
// in-flight descriptor owns a different slab slot, after a full FIFO drain
// and refill and after partial drains that interleave freed and fresh slots.
func TestRingSlabNoOverlap(t *testing.T) {
	seg, err := NewInMemory(Geometry{Slots: 16, SlotSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r := seg.Req
	id := uint32(0)
	fill := func() {
		for {
			slot, ok := r.Reserve()
			if !ok {
				break
			}
			r.Publish(id, len(append(slot, byte(id))))
			id++
		}
	}
	drain := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, ok, err := r.Peek(); err != nil || !ok {
				t.Fatalf("drain: ok=%v err=%v", ok, err)
			}
			r.Advance()
		}
	}
	fill()
	if got := len(inflightSlots(r)); got != r.Slots() {
		t.Fatalf("filled ring holds %d descriptors, want %d", got, r.Slots())
	}
	assertDistinctSlots(t, r, "first fill")
	drain(r.Slots())
	fill()
	assertDistinctSlots(t, r, "refill after full drain")
	for _, n := range []int{1, 5, 16, 3, 11} {
		drain(n)
		fill()
		assertDistinctSlots(t, r, fmt.Sprintf("refill after draining %d", n))
	}
}

// TestRingSlabHostileConsumer rewinds and overshoots the consumer cursor the
// peer controls: either reads as full, and once a sane cursor is back the
// producer still never hands out a slot an unconsumed descriptor owns.
func TestRingSlabHostileConsumer(t *testing.T) {
	seg, err := NewInMemory(Geometry{Slots: 8, SlotSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r := seg.Req
	for i := uint32(0); i < 4; i++ {
		publishOne(t, r, i)
	}
	// head 2: two descriptors consumed, two still owned. The next Reserve
	// reclaims the two consumed slots (freed 2, pub 4).
	r.Advance()
	r.Advance()
	if _, ok := r.Reserve(); !ok {
		t.Fatal("Reserve failed with a sane cursor")
	}
	for _, h := range []uint64{0, 1, 5, 1 << 40, ^uint64(0)} {
		r.head.Store(h) // below freed (a replayed free) or past pub
		if _, ok := r.Reserve(); ok {
			t.Fatalf("head %d (freed 2, pub 4): Reserve handed out a slot", h)
		}
	}
	r.head.Store(2)
	owned := map[uint64]bool{}
	for _, s := range inflightSlots(r) {
		owned[s] = true
	}
	for i := uint32(4); ; i++ {
		slot, ok := r.Reserve()
		if !ok {
			break
		}
		if s := slotOf(r, slot[:1]); owned[s] {
			t.Fatalf("Reserve handed out slot %d while an unconsumed descriptor owns it", s)
		}
		r.Publish(i, len(append(slot, 'x')))
		assertDistinctSlots(t, r, fmt.Sprintf("publish %d", i))
	}
	if got := len(inflightSlots(r)); got != r.Slots() {
		t.Fatalf("refilled ring holds %d descriptors, want %d", got, r.Slots())
	}
}
