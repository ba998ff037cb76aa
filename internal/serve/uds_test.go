package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
)

// serveSocket serves e's framed socket protocol on a fresh unix socket —
// through ServeSHM when shm is set, ServeUDS otherwise — and returns its
// path.
func serveSocket(t *testing.T, e *Engine, shm bool) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "metis.sock")
	l, err := ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	run := e.ServeUDS
	if shm {
		run = e.ServeSHM
	}
	done := make(chan error, 1)
	go func() { done <- run(l) }()
	t.Cleanup(func() {
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("serving %s: %v", sock, err)
		}
	})
	return sock
}

// dialSocket opens a raw connection to sock, before any hello.
func dialSocket(t *testing.T, sock string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// hello performs the client side of the hello; it fails unless the server
// acknowledges.
func hello(conn net.Conn, br *bufio.Reader) error {
	if err := WriteFrame(conn, []byte(HelloMagic)); err != nil {
		return err
	}
	ack, err := ReadFrame(br, nil)
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(ack, []byte(HelloMagic)) {
		return fmt.Errorf("hello answered with %q, want a %q ack", FrameKind(ack), HelloMagic)
	}
	return nil
}

// sendHello is hello on the test's own goroutine.
func sendHello(t *testing.T, conn net.Conn, br *bufio.Reader) {
	t.Helper()
	if err := hello(conn, br); err != nil {
		t.Fatal(err)
	}
}

// udsFixture starts a framed socket server over the standard fixture
// directory and returns a connection past the hello plus its buffered
// reader.
func udsFixture(t *testing.T) (*Engine, net.Conn, *bufio.Reader) {
	t.Helper()
	dir, _, _ := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	conn, br := dialSocket(t, serveSocket(t, e, false))
	sendHello(t, conn, br)
	return e, conn, br
}

// call sends one frame and reads its response payload.
func call(t *testing.T, conn net.Conn, br *bufio.Reader, payload []byte) []byte {
	t.Helper()
	if err := WriteFrameID(conn, 1, payload); err != nil {
		t.Fatal(err)
	}
	id, resp, err := ReadFrameID(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("response carries id %d, want 1", id)
	}
	return resp
}

func TestUDSPredictRoundTrip(t *testing.T) {
	e, conn, br := udsFixture(t)
	rows := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {0.5, 0.5}}

	var req bytes.Buffer
	if err := EncodeBatchRequest(&req, "abr", rows); err != nil {
		t.Fatal(err)
	}
	resp := call(t, conn, br, req.Bytes())
	if FrameKind(resp) != batchMagic {
		t.Fatalf("frame kind %q, want %q", FrameKind(resp), batchMagic)
	}
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
			t.Fatalf("row %d: socket says %d, engine says %d", i, p.Actions[i], want.Actions[i])
		}
	}

	// Regression model over the same connection: frames are independent.
	req.Reset()
	if err := EncodeBatchRequest(&req, "thresholds", rows); err != nil {
		t.Fatal(err)
	}
	resp = call(t, conn, br, req.Bytes())
	p, err = DecodeBatchResponse(bytes.NewReader(resp))
	if err != nil {
		t.Fatal(err)
	}
	wantReg, err := e.Predict("thresholds", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantReg.Values {
		if p.Values[i][0] != wantReg.Values[i][0] {
			t.Fatalf("row %d: socket says %v, engine says %v", i, p.Values[i], wantReg.Values[i])
		}
	}
}

func TestUDSControlOps(t *testing.T) {
	e, conn, br := udsFixture(t)

	req, err := ControlRequest("models", "", "")
	if err != nil {
		t.Fatal(err)
	}
	resp := call(t, conn, br, req)
	if FrameKind(resp) != jsonMagic {
		t.Fatalf("frame kind %q, want %q", FrameKind(resp), jsonMagic)
	}
	var models struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.Unmarshal(FrameBody(resp), &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 2 {
		t.Fatalf("models op listed %d models, want 2", len(models.Models))
	}

	req, _ = ControlRequest("model", "abr", "")
	resp = call(t, conn, br, req)
	var detail ModelDetail
	if err := json.Unmarshal(FrameBody(resp), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Name != "abr" || detail.Features != 2 {
		t.Fatalf("model op returned %+v", detail)
	}

	req, _ = ControlRequest("stats", "", "")
	resp = call(t, conn, br, req)
	var stats map[string]any
	if err := json.Unmarshal(FrameBody(resp), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["dir"] != e.Dir() {
		t.Fatalf("stats dir = %v, want %v", stats["dir"], e.Dir())
	}

	req, _ = ControlRequest("reload", "", "")
	resp = call(t, conn, br, req)
	var rel struct {
		Reloaded bool     `json:"reloaded"`
		Models   []string `json:"models"`
	}
	if err := json.Unmarshal(FrameBody(resp), &rel); err != nil {
		t.Fatal(err)
	}
	if !rel.Reloaded || len(rel.Models) != 2 {
		t.Fatalf("reload op returned %+v", rel)
	}
	if e.Reloads() != 1 {
		t.Fatalf("engine counted %d reloads, want 1", e.Reloads())
	}
}

func TestUDSErrorFrames(t *testing.T) {
	e, conn, br := udsFixture(t)

	// Unknown model → 404 error frame (and the connection survives).
	var req bytes.Buffer
	if err := EncodeBatchRequest(&req, "nope", [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	resp := call(t, conn, br, req.Bytes())
	if FrameKind(resp) != errMagic {
		t.Fatalf("frame kind %q, want %q", FrameKind(resp), errMagic)
	}
	status, msg, err := DecodeErrorPayload(resp)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusNotFound || msg == "" {
		t.Fatalf("error frame = %d %q, want 404 with a message", status, msg)
	}

	// Unknown control op → 404.
	creq, _ := ControlRequest("explode", "", "")
	resp = call(t, conn, br, creq)
	if status, _, _ := DecodeErrorPayload(resp); status != http.StatusNotFound {
		t.Fatalf("unknown op status = %d, want 404", status)
	}

	// Unknown magic → 400, connection still usable afterwards.
	resp = call(t, conn, br, []byte("XXXXjunk"))
	if status, _, _ := DecodeErrorPayload(resp); status != http.StatusBadRequest {
		t.Fatalf("bad magic status = %d, want 400", status)
	}
	req.Reset()
	if err := EncodeBatchRequest(&req, "abr", [][]float64{{0.9, 0.1}}); err != nil {
		t.Fatal(err)
	}
	resp = call(t, conn, br, req.Bytes())
	if FrameKind(resp) != batchMagic {
		t.Fatalf("connection did not survive an error frame: kind %q", FrameKind(resp))
	}

	// All three failures were accounted exactly once each.
	if got := e.errors.Load(); got != 3 {
		t.Fatalf("engine counted %d errors, want 3", got)
	}
}

func TestListenUDSStaleSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "stale.sock")
	l, err := ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash: leave a socket file behind that nobody accepts on
	// (SetUnlinkOnClose(false) keeps the file across Close).
	l2, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	l2.(*net.UnixListener).SetUnlinkOnClose(false)
	l2.Close()

	// The stale file is still there; ListenUDS must clear and rebind it.
	l3, err := ListenUDS(sock)
	if err != nil {
		t.Fatalf("ListenUDS did not clear the stale socket: %v", err)
	}
	l3.Close()

	// A live listener must NOT be stolen.
	l4, err := ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l4.Close()
	go func() {
		for {
			c, err := l4.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	if _, err := ListenUDS(sock); err == nil {
		t.Fatal("ListenUDS bound over a live listener")
	}
}

// TestUDSServesQuantizedArtifact: a dtree/quantized artifact loads as-is,
// reports its shape, and predicts identically to the same tree saved as a
// dtree/tree — over the socket.
func TestUDSServesQuantizedArtifact(t *testing.T) {
	dir, cls, _ := fixtureDir(t)
	q, err := cls.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.SaveModel(filepath.Join(dir, "abr-q.metis"), q, map[string]string{"name": "abr-q"}); err != nil {
		t.Fatal(err)
	}
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := e.Model("abr-q")
	if !ok {
		t.Fatal("quantized artifact did not load")
	}
	if m.Quantized == nil || m.Kind != artifact.KindQuantizedTree {
		t.Fatalf("model loaded as %+v, want a quantized entry", m)
	}
	if m.NumFeatures() != 2 || m.IsRegression() {
		t.Fatalf("shape accessors: features=%d regression=%v", m.NumFeatures(), m.IsRegression())
	}

	rows := [][]float64{{0.9, 0.1}, {0.2, 0.7}, {0.4, 0.4}}
	want, err := e.Predict("abr", rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Predict("abr-q", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Actions {
		if got.Actions[i] != want.Actions[i] {
			t.Fatalf("row %d: quantized artifact %d, tree artifact %d", i, got.Actions[i], want.Actions[i])
		}
	}
}

// TestPredictIntoReusesBuffers pins the zero-growth contract of the serving
// loop: a second call with an equal-size batch must keep the first call's
// output arrays.
func TestPredictIntoReusesBuffers(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{0.9, 0.1}, {0.1, 0.9}}
	var p Prediction
	if err := e.PredictInto("abr", rows, &p); err != nil {
		t.Fatal(err)
	}
	first := &p.Actions[0]
	if err := e.PredictInto("abr", rows, &p); err != nil {
		t.Fatal(err)
	}
	if &p.Actions[0] != first {
		t.Fatal("PredictInto reallocated the actions buffer for an equal-size batch")
	}
	if err := e.PredictInto("missing", rows, &p); !errors.As(err, new(*UnknownModelError)) {
		t.Fatalf("err = %v, want UnknownModelError", err)
	}
}
