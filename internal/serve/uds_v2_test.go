package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// TestUDSV2PipelinedRoundTrip upgrades a connection, pipelines a burst of
// predict frames without reading a single response, then collects them all
// and matches each response to its request by correlation ID — the responses
// are free to arrive in any order.
func TestUDSV2PipelinedRoundTrip(t *testing.T) {
	e, conn, br := udsFixture(t)

	// Distinct rows per ID so a response matched to the wrong request is
	// caught, and non-sequential IDs so nothing can pass by echoing a
	// counter. 40 in-flight frames comfortably exceed the worker count, so
	// completion order is up to the scheduler.
	const n = 40
	rowsFor := func(i int) [][]float64 {
		return [][]float64{{float64(i) / n, 1 - float64(i)/n}, {0.5, float64(i) / (2 * n)}}
	}
	idFor := func(i int) uint32 { return uint32(i*2654435761 + 7) }

	var req bytes.Buffer
	for i := 0; i < n; i++ {
		req.Reset()
		if err := EncodeBatchRequest(&req, "abr", rowsFor(i)); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrameID(conn, idFor(i), req.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	got := make(map[uint32]*Prediction, n)
	var buf []byte
	for len(got) < n {
		id, payload, err := ReadFrameID(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = payload[:0]
		if FrameKind(payload) != batchMagic {
			t.Fatalf("id %d answered with frame kind %q", id, FrameKind(payload))
		}
		if _, dup := got[id]; dup {
			t.Fatalf("id %d answered twice", id)
		}
		p, err := DecodeBatchResponse(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		got[id] = p
	}
	for i := 0; i < n; i++ {
		p, ok := got[idFor(i)]
		if !ok {
			t.Fatalf("id %d never answered", idFor(i))
		}
		want, err := e.Predict("abr", rowsFor(i))
		if err != nil {
			t.Fatal(err)
		}
		for r := range want.Actions {
			if p.Actions[r] != want.Actions[r] {
				t.Fatalf("request %d row %d: socket says %d, engine says %d", i, r, p.Actions[r], want.Actions[r])
			}
		}
	}
}

// TestUDSV2ErrorAndControlFrames pins that v2 framing carries the full
// payload vocabulary: error frames keep their correlation ID and status, and
// control ops work pipelined alongside predicts on one connection.
func TestUDSV2ErrorAndControlFrames(t *testing.T) {
	_, conn, br := udsFixture(t)

	var req bytes.Buffer
	if err := EncodeBatchRequest(&req, "nope", [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameID(conn, 11, req.Bytes()); err != nil {
		t.Fatal(err)
	}
	creq, err := ControlRequest("models", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameID(conn, 22, creq); err != nil {
		t.Fatal(err)
	}

	kinds := make(map[uint32]string, 2)
	var buf []byte
	for len(kinds) < 2 {
		id, payload, err := ReadFrameID(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		kinds[id] = FrameKind(payload)
		if id == 11 {
			if status, msg, err := DecodeErrorPayload(payload); err != nil || status != http.StatusNotFound || msg == "" {
				t.Fatalf("unknown-model frame = %d %q (%v), want 404 with a message", status, msg, err)
			}
		}
		buf = payload[:0]
	}
	if kinds[11] != errMagic || kinds[22] != jsonMagic {
		t.Fatalf("frame kinds = %v, want 11:%q 22:%q", kinds, errMagic, jsonMagic)
	}

	// The connection survives the error frame: one more predict round-trips.
	req.Reset()
	if err := EncodeBatchRequest(&req, "abr", [][]float64{{0.9, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameID(conn, 33, req.Bytes()); err != nil {
		t.Fatal(err)
	}
	id, payload, err := ReadFrameID(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 33 || FrameKind(payload) != batchMagic {
		t.Fatalf("post-error predict answered id=%d kind=%q", id, FrameKind(payload))
	}
}

// TestUDSHandshakeMatrix pins the one upgrade point on both listeners. A
// client that skips the hello — its first frame a short-framed predict, as a
// client that predates the hello sends, or a bare header claiming a 1 GiB
// short frame — gets one 426 error frame naming the hello, is counted as one
// error, and is disconnected, without the server allocating for the claimed
// length. A fresh connection that sends the hello is still acknowledged.
func TestUDSHandshakeMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		shm  bool
	}{{"old client, new server", false}, {"v1 client, shm server", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _, _ := fixtureDir(t)
			e, err := NewEngine(dir, Config{SHMDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			sock := serveSocket(t, e, tc.shm)
			var req, predict bytes.Buffer
			if err := EncodeBatchRequest(&req, "abr", [][]float64{{0.9, 0.1}}); err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(&predict, req.Bytes()); err != nil {
				t.Fatal(err)
			}
			firsts := []struct {
				what  string
				bytes []byte
			}{
				{"short-framed predict", predict.Bytes()},
				{"1 GiB header", binary.LittleEndian.AppendUint32(nil, 1<<30)},
			}
			for i, first := range firsts {
				what := first.what
				conn, br := dialSocket(t, sock)
				before := totalAlloc()
				if _, err := conn.Write(first.bytes); err != nil {
					t.Fatal(err)
				}
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				resp, err := ReadFrame(br, nil)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				status, msg, _ := DecodeErrorPayload(resp)
				if FrameKind(resp) != errMagic || status != http.StatusUpgradeRequired || !strings.Contains(msg, HelloMagic) {
					t.Fatalf("%s answered %q status %d %q, want %q 426 naming %q", what, FrameKind(resp), status, msg, errMagic, HelloMagic)
				}
				if _, err := ReadFrame(br, nil); err != io.EOF {
					t.Fatalf("%s: after the refusal read %v, want EOF", what, err)
				}
				if d := totalAlloc() - before; d >= 1<<20 {
					t.Fatalf("%s: the server allocated %d bytes refusing it", what, d)
				}
				if got := e.errors.Load(); got != int64(i+1) {
					t.Fatalf("%s: engine counted %d errors, want %d", what, got, i+1)
				}
			}
			conn, br := dialSocket(t, sock)
			sendHello(t, conn, br)
		})
	}
}

// TestUDSPipelinedHeaderAllocatesByArrival pins the post-hello twin of the
// matrix's 1 GiB case on both listeners: a pipelined header claiming a 1 GiB
// payload (past the read buffer, so it takes the copying fallback) followed
// by nothing but a close costs the server at most one read chunk, not the
// declared length, and ends in a disconnect.
func TestUDSPipelinedHeaderAllocatesByArrival(t *testing.T) {
	for _, shm := range []bool{false, true} {
		t.Run(fmt.Sprintf("shm=%v", shm), func(t *testing.T) {
			dir, _, _ := fixtureDir(t)
			e, err := NewEngine(dir, Config{SHMDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			conn, br := dialSocket(t, serveSocket(t, e, shm))
			sendHello(t, conn, br)
			before := totalAlloc()
			var head [8]byte
			binary.LittleEndian.PutUint32(head[0:4], 1<<30)
			binary.LittleEndian.PutUint32(head[4:8], 9)
			if _, err := conn.Write(head[:]); err != nil {
				t.Fatal(err)
			}
			if err := conn.(*net.UnixConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, _, err := ReadFrameID(br, nil); err != io.EOF {
				t.Fatalf("after a bodiless 1 GiB header read %v, want the server's close (EOF)", err)
			}
			if d := totalAlloc() - before; d >= 2<<20 {
				t.Fatalf("the server allocated %d bytes for a header with no body", d)
			}
		})
	}
}

// TestUDSPipelinedLargeFrames sends predicts past the read buffer, one of
// them past a whole read chunk (65,536 two-feature rows, just over 1 MiB),
// and checks every answer against the engine: growing as bytes arrive keeps
// a large frame intact.
func TestUDSPipelinedLargeFrames(t *testing.T) {
	e, conn, br := udsFixture(t)
	var req bytes.Buffer
	for i, n := range []int{20000, DefaultMaxBatch, 100} {
		rows := make([][]float64, n)
		for r := range rows {
			rows[r] = []float64{float64(r%997) / 997, float64((r*7+i)%991) / 991}
		}
		req.Reset()
		if err := EncodeBatchRequest(&req, "abr", rows); err != nil {
			t.Fatal(err)
		}
		p, err := DecodeBatchResponse(bytes.NewReader(call(t, conn, br, req.Bytes())))
		if err != nil {
			t.Fatalf("%d rows: %v", n, err)
		}
		want, err := e.Predict("abr", rows)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Actions) != n {
			t.Fatalf("%d rows answered with %d actions", n, len(p.Actions))
		}
		for r := range want.Actions {
			if p.Actions[r] != want.Actions[r] {
				t.Fatalf("%d rows: row %d socket says %d, engine says %d", n, r, p.Actions[r], want.Actions[r])
			}
		}
	}
}

// TestReadGrowing feeds frames through a reader that trickles a few bytes
// per call, into buffers too small, exactly big enough and nil: every
// payload arrives intact, and a buffer that already fits is reused.
func TestReadGrowing(t *testing.T) {
	for _, n := range []int{0, 1, 4096, frameReadChunk, frameReadChunk + 1, 3*frameReadChunk + 12345} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i*31 + i>>11)
		}
		for _, buf := range [][]byte{nil, make([]byte, 0, 100), make([]byte, min(3, n), n)} {
			got, err := readGrowing(iotest.HalfReader(bytes.NewReader(want)), buf, n)
			if err != nil {
				t.Fatalf("n=%d cap=%d: %v", n, cap(buf), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d cap=%d: payload corrupted", n, cap(buf))
			}
			if cap(buf) >= n && n > 0 && &got[0] != &buf[:1][0] {
				t.Fatalf("n=%d cap=%d: a buffer that fits was not reused", n, cap(buf))
			}
		}
		if n > 0 {
			if _, err := readGrowing(bytes.NewReader(want[:n-1]), nil, n); err == nil {
				t.Fatalf("n=%d: a truncated payload read without error", n)
			}
		}
	}
}

// totalAlloc returns the bytes this process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestUDSV2ConcurrentConnections drives several pipelined connections at
// once — under -race this covers the reader/worker/writer handoffs and the
// shared buffer pools.
func TestUDSV2ConcurrentConnections(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sock := serveSocket(t, e, false)

	const conns, frames = 4, 60
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("unix", sock)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			if err := hello(conn, br); err != nil {
				errs <- err
				return
			}
			var req bytes.Buffer
			if err := EncodeBatchRequest(&req, "abr", [][]float64{{0.3, 0.7}}); err != nil {
				errs <- err
				return
			}
			for i := 0; i < frames; i++ {
				if err := WriteFrameID(conn, uint32(i), req.Bytes()); err != nil {
					errs <- err
					return
				}
			}
			seen := make(map[uint32]bool, frames)
			var buf []byte
			for len(seen) < frames {
				id, payload, err := ReadFrameID(br, buf)
				if err != nil {
					errs <- err
					return
				}
				if FrameKind(payload) != batchMagic || seen[id] {
					errs <- fmt.Errorf("unexpected or duplicate frame id %d kind %q", id, FrameKind(payload))
					return
				}
				seen[id] = true
				buf = payload[:0]
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReadFrameZeroAllocSteadyState pins the buffer-reuse contract of both
// framing readers: once the caller's scratch has grown to the frame size,
// repeated reads allocate nothing.
func TestReadFrameZeroAllocSteadyState(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 1024)
	var v1, v2 bytes.Buffer
	if err := WriteFrame(&v1, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameID(&v2, 42, payload); err != nil {
		t.Fatal(err)
	}
	v1Bytes, v2Bytes := v1.Bytes(), v2.Bytes()

	r := bytes.NewReader(nil)
	buf := make([]byte, 0, 2048)
	if allocs := testing.AllocsPerRun(200, func() {
		r.Reset(v1Bytes)
		b, err := ReadFrame(r, buf)
		if err != nil {
			panic(err)
		}
		buf = b
	}); allocs != 0 {
		t.Fatalf("ReadFrame allocated %.1f times per steady-state read, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		r.Reset(v2Bytes)
		id, b, err := ReadFrameID(r, buf)
		if err != nil || id != 42 {
			panic(err)
		}
		buf = b
	}); allocs != 0 {
		t.Fatalf("ReadFrameID allocated %.1f times per steady-state read, want 0", allocs)
	}
}

// BenchmarkReadFrame measures the steady-state frame-read path; ReportAllocs
// keeps the zero-alloc contract visible in bench output.
func BenchmarkReadFrame(b *testing.B) {
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	var frame bytes.Buffer
	if err := WriteFrame(&frame, payload); err != nil {
		b.Fatal(err)
	}
	data := frame.Bytes()
	r := bytes.NewReader(data)
	buf := make([]byte, 0, len(payload))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		var err error
		if buf, err = ReadFrame(r, buf); err != nil {
			b.Fatal(err)
		}
	}
}
