package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/shmring"
)

// shmFixture starts a shared-memory-enabled server over the standard fixture
// directory (segments under a per-test dir) and returns a connection past
// the hello.
func shmFixture(t *testing.T, cfg Config) (*Engine, net.Conn, *bufio.Reader) {
	t.Helper()
	dir, _, _ := fixtureDir(t)
	if cfg.SHMDir == "" {
		cfg.SHMDir = t.TempDir()
	}
	e, err := NewEngine(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, br := dialSocket(t, serveSocket(t, e, true))
	sendHello(t, conn, br)
	return e, conn, br
}

// shmOpen drives the client half of the shared-memory handshake on a
// connection past the hello — open, map, ready — and returns the mapped
// segment.
func shmOpen(t *testing.T, conn net.Conn, br *bufio.Reader, g shmring.Geometry) *shmring.Segment {
	t.Helper()
	if err := WriteFrameID(conn, 1, EncodeSHMOpen(g)); err != nil {
		t.Fatal(err)
	}
	id, payload, err := ReadFrameID(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || FrameKind(payload) != SHMMagic {
		t.Fatalf("open answered id=%d kind=%q", id, FrameKind(payload))
	}
	granted, path, err := DecodeSHMAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := shmring.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	if seg.Geometry() != granted {
		t.Fatalf("segment geometry %+v, ack granted %+v", seg.Geometry(), granted)
	}
	if err := WriteFrameID(conn, 2, EncodeSHMReady()); err != nil {
		t.Fatal(err)
	}
	return seg
}

// shmCall pushes one payload through the request ring and busy-waits for its
// response, honoring the producer side of the doorbell contract (the server
// may be parked between calls).
func shmCall(t *testing.T, conn net.Conn, seg *shmring.Segment, id uint32, payload []byte) (uint32, []byte) {
	t.Helper()
	var slot []byte
	for {
		s, ok := seg.Req.Reserve()
		if ok {
			slot = s
			break
		}
		runtime.Gosched()
	}
	slot = append(slot, payload...)
	seg.Req.Publish(id, len(slot))
	if seg.Req.TakeWaiting() {
		if err := WriteFrame(conn, DoorbellPayload); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rid, rp, ok, err := seg.Resp.Peek()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out := append([]byte(nil), rp...)
			seg.Resp.Advance()
			return rid, out
		}
		if time.Now().After(deadline) {
			t.Fatal("no response within 10s")
		}
		runtime.Gosched()
	}
}

// waitGone polls until path disappears (unlinks happen on the server's side
// of an async protocol).
func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still exists", path)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSHMPredictParity runs classification and regression predictions plus a
// control call through the rings and checks them bit-for-bit against the
// in-process engine — and, the headline claim, that the server wrote zero
// doorbells while the client never parked.
func TestSHMPredictParity(t *testing.T) {
	e, conn, br := shmFixture(t, Config{})
	seg := shmOpen(t, conn, br, shmring.Geometry{})

	rows := [][]float64{{0.9, 0.1}, {0.2, 0.7}, {0.5, 0.5}, {0.01, 0.99}}
	var req bytes.Buffer
	for i, model := range []string{"abr", "thresholds"} {
		req.Reset()
		if err := EncodeBatchRequest(&req, model, rows); err != nil {
			t.Fatal(err)
		}
		id := uint32(100 + i)
		rid, payload := shmCall(t, conn, seg, id, req.Bytes())
		if rid != id || FrameKind(payload) != batchMagic {
			t.Fatalf("%s: answered id=%d kind=%q", model, rid, FrameKind(payload))
		}
		got, err := DecodeBatchResponse(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Predict(model, rows)
		if err != nil {
			t.Fatal(err)
		}
		for r := range rows {
			if want.Actions != nil && got.Actions[r] != want.Actions[r] {
				t.Fatalf("%s row %d: action %d, want %d", model, r, got.Actions[r], want.Actions[r])
			}
			if want.Values != nil && got.Values[r][0] != want.Values[r][0] {
				t.Fatalf("%s row %d: value %v, want %v", model, r, got.Values[r], want.Values[r])
			}
		}
	}

	// The segment file is unlinked once the server saw ready; the first
	// answered call above proves ready was processed.
	waitGone(t, seg.Path())

	// Control frames ride the rings too.
	ctrl, err := ControlRequest("stats", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if rid, payload := shmCall(t, conn, seg, 7, ctrl); rid != 7 || FrameKind(payload) != jsonMagic {
		t.Fatalf("control answered id=%d kind=%q", rid, FrameKind(payload))
	}
	// Unknown magics come back as in-slot errors, and the connection lives.
	if _, payload := shmCall(t, conn, seg, 8, []byte("XXXXjunk")); FrameKind(payload) != errMagic {
		t.Fatalf("junk answered kind=%q", FrameKind(payload))
	}
	// Errors flow in-slot as well: unknown model.
	req.Reset()
	if err := EncodeBatchRequest(&req, "nope", rows); err != nil {
		t.Fatal(err)
	}
	_, payload := shmCall(t, conn, seg, 9, req.Bytes())
	if FrameKind(payload) != errMagic {
		t.Fatalf("unknown model answered kind=%q", FrameKind(payload))
	}
	if status, _, err := DecodeErrorPayload(payload); err != nil || status != http.StatusNotFound {
		t.Fatalf("unknown model status %d err %v", status, err)
	}

	if w := e.SHMWakes(); w != 0 {
		t.Fatalf("server wrote %d doorbells against a never-parked client", w)
	}
	if c := e.SHMConns(); c != 1 {
		t.Fatalf("SHMConns = %d, want 1", c)
	}
}

// TestSHMDoorbell exercises both park paths: a parked server woken by the
// client's doorbell, and a parked client woken by the server's.
func TestSHMDoorbell(t *testing.T) {
	e, conn, br := shmFixture(t, Config{})
	seg := shmOpen(t, conn, br, shmring.Geometry{})

	var req bytes.Buffer
	if err := EncodeBatchRequest(&req, "abr", [][]float64{{0.3, 0.4}}); err != nil {
		t.Fatal(err)
	}

	// Let the server drain its spin budget and park.
	time.Sleep(50 * time.Millisecond)

	// Produce, then park ourselves behind the response ring's waiting flag
	// before reading the doorbell frame off the socket.
	slot, ok := seg.Req.Reserve()
	if !ok {
		t.Fatal("fresh ring full")
	}
	slot = append(slot, req.Bytes()...)
	seg.Req.Publish(1, len(slot))
	seg.Resp.SetWaiting()
	if seg.Resp.Pending() {
		seg.Resp.ClearWaiting()
	} else {
		if seg.Req.TakeWaiting() {
			if err := WriteFrame(conn, DoorbellPayload); err != nil {
				t.Fatal(err)
			}
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := ReadFrame(br, nil); err != nil {
			t.Fatalf("no doorbell from the server: %v", err)
		}
		conn.SetReadDeadline(time.Time{})
	}
	rid, payload, ok, err := seg.Resp.Peek()
	if err != nil || !ok || rid != 1 || FrameKind(payload) != batchMagic {
		t.Fatalf("after doorbell: id=%d ok=%v err=%v kind=%q", rid, ok, err, FrameKind(payload))
	}
	seg.Resp.Advance()
	if w := e.SHMWakes(); w != 1 {
		t.Fatalf("SHMWakes = %d after one parked exchange, want 1", w)
	}

	// A busy burst that never parks must not move the counter.
	for i := 0; i < 32; i++ {
		if rid, payload := shmCall(t, conn, seg, uint32(10+i), req.Bytes()); rid != uint32(10+i) || FrameKind(payload) != batchMagic {
			t.Fatalf("burst call %d: id=%d kind=%q", i, rid, FrameKind(payload))
		}
	}
	if w := e.SHMWakes(); w != 1 {
		t.Fatalf("SHMWakes moved to %d during a busy burst", w)
	}
}

// TestSHMHandshakeMatrix pins every MTS1 negotiation combination on
// connections past the hello.
func TestSHMHandshakeMatrix(t *testing.T) {
	predictV2 := func(t *testing.T, e *Engine, conn net.Conn, br *bufio.Reader, id uint32) {
		t.Helper()
		rows := [][]float64{{0.8, 0.3}}
		var req bytes.Buffer
		if err := EncodeBatchRequest(&req, "abr", rows); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrameID(conn, id, req.Bytes()); err != nil {
			t.Fatal(err)
		}
		rid, payload, err := ReadFrameID(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rid != id || FrameKind(payload) != batchMagic {
			t.Fatalf("v2 predict answered id=%d kind=%q", rid, FrameKind(payload))
		}
		got, err := DecodeBatchResponse(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Predict("abr", rows)
		if err != nil {
			t.Fatal(err)
		}
		if got.Actions[0] != want.Actions[0] {
			t.Fatalf("v2 predict action %d, want %d", got.Actions[0], want.Actions[0])
		}
	}

	t.Run("shm client, v2-only server", func(t *testing.T) {
		// ServeUDS declines MTS1: the open comes back as an error frame and
		// the connection keeps serving plain v2 — the client's fallback path.
		e, conn, br := udsFixture(t)
		if err := WriteFrameID(conn, 1, EncodeSHMOpen(shmring.Geometry{})); err != nil {
			t.Fatal(err)
		}
		id, payload, err := ReadFrameID(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != 1 || FrameKind(payload) != errMagic {
			t.Fatalf("open answered id=%d kind=%q, want an error frame", id, FrameKind(payload))
		}
		predictV2(t, e, conn, br, 2)
	})

	t.Run("v2 client, shm server", func(t *testing.T) {
		// A v2 client that never negotiates shm is served pipelined as ever.
		e, conn, br := shmFixture(t, Config{})
		predictV2(t, e, conn, br, 3)
	})

	t.Run("segment creation fails mid-handshake", func(t *testing.T) {
		// An unusable segment dir fails the open with an error frame; the
		// connection recovers into plain v2.
		e, conn, br := shmFixture(t, Config{SHMDir: filepath.Join(t.TempDir(), "missing", "deeper")})
		if err := WriteFrameID(conn, 1, EncodeSHMOpen(shmring.Geometry{})); err != nil {
			t.Fatal(err)
		}
		id, payload, err := ReadFrameID(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != 1 || FrameKind(payload) != errMagic {
			t.Fatalf("open answered id=%d kind=%q, want an error frame", id, FrameKind(payload))
		}
		if status, _, err := DecodeErrorPayload(payload); err != nil || status != http.StatusInternalServerError {
			t.Fatalf("segment failure status %d err %v", status, err)
		}
		predictV2(t, e, conn, br, 2)
	})

	t.Run("client aborts after mapping fails", func(t *testing.T) {
		// Open succeeds but the client cannot map: the abort discards the
		// segment (file gone) and the connection keeps serving v2.
		shmDir := t.TempDir()
		e, conn, br := shmFixture(t, Config{SHMDir: shmDir})
		if err := WriteFrameID(conn, 1, EncodeSHMOpen(shmring.Geometry{})); err != nil {
			t.Fatal(err)
		}
		id, payload, err := ReadFrameID(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != 1 || FrameKind(payload) != SHMMagic {
			t.Fatalf("open answered id=%d kind=%q", id, FrameKind(payload))
		}
		_, path, err := DecodeSHMAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrameID(conn, 2, EncodeSHMAbort()); err != nil {
			t.Fatal(err)
		}
		predictV2(t, e, conn, br, 3)
		waitGone(t, path)
	})

	t.Run("geometry is clamped by the server", func(t *testing.T) {
		// Absurd requests come back normalized into the configured bounds.
		_, conn, br := shmFixture(t, Config{SHMSlots: 16, SHMSlotSize: 4096})
		seg := shmOpen(t, conn, br, shmring.Geometry{Slots: 1 << 20, SlotSize: 1 << 28})
		if g := seg.Geometry(); g.Slots != 16 || g.SlotSize != 4096 {
			t.Fatalf("granted geometry %+v, want {16 4096}", g)
		}
	})
}

// TestSHMClientDisconnect pins teardown: a client that vanishes with a live
// segment — or sends a doorbell header claiming a 1 GiB short frame — leaves
// no file behind, the conn goroutine exits, and the hostile header costs the
// server no allocation for its claimed length.
func TestSHMClientDisconnect(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(conn net.Conn) error
	}{
		{"close", func(conn net.Conn) error { return conn.Close() }},
		{"1 GiB doorbell", func(conn net.Conn) error {
			_, err := conn.Write(binary.LittleEndian.AppendUint32(nil, 1<<30))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, conn, br := shmFixture(t, Config{})
			seg := shmOpen(t, conn, br, shmring.Geometry{})
			var req bytes.Buffer
			if err := EncodeBatchRequest(&req, "abr", [][]float64{{0.1, 0.2}}); err != nil {
				t.Fatal(err)
			}
			if rid, _ := shmCall(t, conn, seg, 1, req.Bytes()); rid != 1 {
				t.Fatalf("rid = %d", rid)
			}
			waitGone(t, seg.Path())
			before := totalAlloc()
			if err := tc.end(conn); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for e.SHMConns() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("SHMConns still %d after disconnect", e.SHMConns())
				}
				time.Sleep(time.Millisecond)
			}
			if d := totalAlloc() - before; d >= 1<<20 {
				t.Fatalf("the server allocated %d bytes tearing the connection down", d)
			}
		})
	}
}

// TestSHMEncodeBounded pins the no-realloc contract of the answer bounded to
// a ring slot: responses that cannot fit the slot come back as (truncated,
// in-slot) error frames rather than silently reallocating off the slab.
func TestSHMEncodeBounded(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(s)

	// 64 regression rows need a 13+64*8 = 525-byte response; a 256-byte slot
	// cannot hold it.
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = []float64{0.1, 0.2}
	}
	var req bytes.Buffer
	if err := EncodeBatchRequest(&req, "thresholds", rows); err != nil {
		t.Fatal(err)
	}
	slot := make([]byte, 0, 256)
	out := e.answer(req.Bytes(), s, slot, cap(slot))
	if &out[0] != &slot[:1][0] {
		t.Fatal("the answer escaped the slot")
	}
	if len(out) > cap(slot) {
		t.Fatalf("the answer took %d bytes of a %d-byte slot", len(out), cap(slot))
	}
	if FrameKind(out) != errMagic {
		t.Fatalf("oversized response came back kind=%q", FrameKind(out))
	}
	if status, _, err := DecodeErrorPayload(out); err != nil || status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized response status %d err %v", status, err)
	}

	// Error messages longer than the slot are truncated, not reallocated.
	long := bytes.Repeat([]byte("x"), 300)
	out = e.frameError(make([]byte, 0, 64), 64, errors.New(string(long)))
	if len(out) != 64 {
		t.Fatalf("bounded error length %d, want 64", len(out))
	}
}

// TestSHMShardedDispatch drives the ring loop over a 4-shard engine: pipelined
// ring traffic for models on different shards is answered in request order,
// bit-identical to the in-process engine — with control frames and errors
// interleaved — and every request is counted on its shard.
func TestSHMShardedDispatch(t *testing.T) {
	dir, tree := shardFixtureDir(t, 8)
	s, err := NewEngine(dir, Config{Shards: 4, SHMDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	conn, br := dialSocket(t, serveSocket(t, s, true))
	sendHello(t, conn, br)
	seg := shmOpen(t, conn, br, shmring.Geometry{})

	// Pipeline a burst of requests across all 8 models (spread over the 4
	// shards) without reading a single response.
	rows := [][]float64{{0.9, 0.1}, {0.2, 0.7}, {0.5, 0.5}}
	want := make([]int, len(rows))
	for i, row := range rows {
		want[i] = tree.Predict(row)
	}
	const burst = 24
	publish := func(id uint32, payload []byte) {
		t.Helper()
		var slot []byte
		for {
			sl, ok := seg.Req.Reserve()
			if ok {
				slot = sl
				break
			}
			runtime.Gosched()
		}
		skip := SHMAlignSkip(payload)
		slot = slot[:skip+len(payload)]
		copy(slot[skip:], payload)
		seg.Req.PublishAt(id, skip, len(payload))
		if seg.Req.TakeWaiting() {
			if err := WriteFrame(conn, DoorbellPayload); err != nil {
				t.Fatal(err)
			}
		}
	}
	var req bytes.Buffer
	for id := uint32(1); id <= burst; id++ {
		req.Reset()
		model := fmt.Sprintf("m%02d", int(id)%8)
		if err := EncodeBatchRequest(&req, model, rows); err != nil {
			t.Fatal(err)
		}
		publish(id, req.Bytes())
	}
	// A control frame and a junk frame ride the same ring.
	ctrl, err := ControlRequest("stats", "", "")
	if err != nil {
		t.Fatal(err)
	}
	publish(burst+1, ctrl)
	publish(burst+2, []byte("XXXXjunk"))

	deadline := time.Now().Add(20 * time.Second)
	got := map[uint32]string{}
	for len(got) < burst+2 {
		rid, payload, ok, err := seg.Resp.Peek()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d responses", len(got), burst+2)
			}
			runtime.Gosched()
			continue
		}
		switch {
		case rid <= burst:
			if FrameKind(payload) != batchMagic {
				t.Fatalf("id %d answered kind=%q", rid, FrameKind(payload))
			}
			p, err := DecodeBatchResponse(bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			for r := range rows {
				if p.Actions[r] != want[r] {
					t.Fatalf("id %d row %d: action %d, want %d", rid, r, p.Actions[r], want[r])
				}
			}
		case rid == burst+1:
			if FrameKind(payload) != jsonMagic {
				t.Fatalf("control answered kind=%q", FrameKind(payload))
			}
		default:
			if FrameKind(payload) != errMagic {
				t.Fatalf("junk answered kind=%q", FrameKind(payload))
			}
		}
		got[rid] = string(payload[:4])
		seg.Resp.Advance()
	}
	if c := s.SHMConns(); c != 1 {
		t.Fatalf("SHMConns = %d, want 1", c)
	}
	// Ring counters update per request, before its response is published:
	// every request was already counted on some shard.
	if total := s.requestsTotal(); total != burst {
		t.Fatalf("requestsTotal = %d, want %d", total, burst)
	}
}
