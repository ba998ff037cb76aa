package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
)

// helloV2 performs the client side of the v2 upgrade on a fresh connection
// and fails the test unless the server acknowledges.
func helloV2(t *testing.T, conn net.Conn, br *bufio.Reader) {
	t.Helper()
	if err := WriteFrame(conn, []byte(HelloMagic)); err != nil {
		t.Fatal(err)
	}
	ack, err := ReadFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ack, []byte(HelloMagic)) {
		t.Fatalf("hello answered with %q, want a %q ack", FrameKind(ack), HelloMagic)
	}
}

// udsFixtureV1 starts a server that refuses the v2 upgrade (a pre-v2 build),
// for the new-client/old-server half of the handshake matrix.
func udsFixtureV1(t *testing.T) (*Engine, net.Conn, *bufio.Reader) {
	t.Helper()
	dir, _, _ := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "metis.sock")
	l, err := ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go e.serveUDSConn(conn, false, false)
		}
	}()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return e, conn, bufio.NewReader(conn)
}

// TestUDSV2PipelinedRoundTrip upgrades a connection, pipelines a burst of
// predict frames without reading a single response, then collects them all
// and matches each response to its request by correlation ID — the responses
// are free to arrive in any order.
func TestUDSV2PipelinedRoundTrip(t *testing.T) {
	e, conn, br := udsFixture(t)
	helloV2(t, conn, br)

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
	helloV2(t, conn, br)

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

// TestUDSHandshakeMatrix pins both downgrade directions: an old (v1) client
// against a new server never upgrades — including when it sends a stray
// hello mid-stream, which is just an unknown magic — and a new client
// against an old server reads the error ack and keeps the same connection in
// v1 framing.
func TestUDSHandshakeMatrix(t *testing.T) {
	t.Run("old client, new server", func(t *testing.T) {
		_, conn, br := udsFixture(t)
		// First frame is a plain v1 predict: the server must serve v1.
		var req bytes.Buffer
		if err := EncodeBatchRequest(&req, "abr", [][]float64{{0.9, 0.1}}); err != nil {
			t.Fatal(err)
		}
		if resp := call(t, conn, br, req.Bytes()); FrameKind(resp) != batchMagic {
			t.Fatalf("v1 predict answered with %q", FrameKind(resp))
		}
		// A hello after the first frame is NOT an upgrade — unknown magic,
		// 400, connection stays v1.
		resp := call(t, conn, br, []byte(HelloMagic))
		if status, _, _ := DecodeErrorPayload(resp); FrameKind(resp) != errMagic || status != http.StatusBadRequest {
			t.Fatalf("mid-stream hello answered %q status %d, want %q 400", FrameKind(resp), status, errMagic)
		}
		if resp := call(t, conn, br, req.Bytes()); FrameKind(resp) != batchMagic {
			t.Fatalf("connection did not stay v1 after mid-stream hello: %q", FrameKind(resp))
		}
	})

	t.Run("new client, old server", func(t *testing.T) {
		e, conn, br := udsFixtureV1(t)
		// The hello comes back as an error frame (not an ack), after which
		// the same connection serves v1 frames.
		ack := call(t, conn, br, []byte(HelloMagic))
		if bytes.HasPrefix(ack, []byte(HelloMagic)) {
			t.Fatal("v1 server acknowledged the v2 hello")
		}
		if status, _, _ := DecodeErrorPayload(ack); FrameKind(ack) != errMagic || status != http.StatusBadRequest {
			t.Fatalf("hello refused with %q status %d, want %q 400", FrameKind(ack), status, errMagic)
		}
		rows := [][]float64{{0.9, 0.1}, {0.1, 0.9}}
		var req bytes.Buffer
		if err := EncodeBatchRequest(&req, "abr", rows); err != nil {
			t.Fatal(err)
		}
		resp := call(t, conn, br, req.Bytes())
		p, err := DecodeBatchResponse(bytes.NewReader(resp))
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Predict("abr", rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Actions {
			if p.Actions[i] != want.Actions[i] {
				t.Fatalf("row %d after downgrade: socket %d, engine %d", i, p.Actions[i], want.Actions[i])
			}
		}
	})
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
	sock := filepath.Join(t.TempDir(), "metis.sock")
	l, err := ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go e.ServeUDS(l)

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
			helloV2(t, conn, br)
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
