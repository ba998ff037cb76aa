package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/serve"
)

// Multiplexer defaults. Two connections are enough to keep a local daemon
// busy — the point of pipelining is frames in flight per connection, not
// connection count — and 128 in-flight frames per connection comfortably
// covers the server's dispatch queue without letting one caller swamp it.
const (
	defaultMuxConns    = 2
	defaultMuxInflight = 128
)

// muxResult is what the read loop delivers to a waiting call: a pooled copy
// of the response payload, or the connection's fatal error.
type muxResult struct {
	buf *[]byte
	err error
}

// framedConn is one pipelined connection the transport can round-robin
// calls over: a multiplexed pipelined socket connection (muxConn) or a
// shared-memory ring pair (shmConn). call blocks until the matched response
// arrives; the returned buffer comes from respPool and must be returned by
// the caller.
type framedConn interface {
	call(ctx context.Context, payload []byte) (*[]byte, error)
}

// muxConn is one pipelined connection. Calls from any number of
// goroutines register a correlation ID in pending, write their frame (writes
// serialized by wmu, IDs and registration by mu), and block on a per-call
// channel; a single read loop matches response frames back to callers by ID,
// in whatever order the server completed them. tokens bounds in-flight
// frames so a burst of callers queues here rather than ballooning the
// pending map and the server's queue. A connection that fails is failed
// sticky: every pending and future call gets the same error, and the
// transport replaces the connection on the next call.
type muxConn struct {
	t      *udsTransport
	c      net.Conn
	br     *bufio.Reader
	tokens chan struct{}

	// wmu serializes frame writes; each frame is written with one writev, so
	// holding a plain mutex across the syscall is the whole write path.
	wmu sync.Mutex

	mu      sync.Mutex
	pending map[uint32]chan muxResult
	nextID  uint32
	err     error // sticky fatal error; nil while healthy
}

// fail closes the connection and delivers err to every pending call, once;
// later failures keep the first error.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	pending := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	mc.c.Close()
	for _, ch := range pending {
		ch <- muxResult{err: err}
	}
}

// readLoop is the connection's only reader: it matches each response frame
// to its waiting call by correlation ID and hands over a pooled copy of the
// payload, so the read buffer is immediately reusable for the next frame.
// Unmatched IDs belong to calls that gave up (context cancellation); their
// responses are dropped.
func (mc *muxConn) readLoop() {
	var scratch []byte
	for {
		id, payload, err := serve.ReadFrameID(mc.br, scratch)
		if err != nil {
			mc.fail(fmt.Errorf("client: %s: %w", mc.t.path, err))
			return
		}
		scratch = payload[:0]
		mc.mu.Lock()
		ch, ok := mc.pending[id]
		if ok {
			delete(mc.pending, id)
		}
		mc.mu.Unlock()
		if !ok {
			continue
		}
		bp := mc.t.respPool.Get().(*[]byte)
		*bp = append((*bp)[:0], payload...)
		ch <- muxResult{buf: bp}
	}
}

// call sends one frame and waits for its matched response. The returned
// buffer comes from the transport's respPool; the caller must return it
// after decoding. Cancellation deregisters the ID and walks away — the
// response, if it still arrives, is dropped by the read loop.
func (mc *muxConn) call(ctx context.Context, payload []byte) (*[]byte, error) {
	select {
	case mc.tokens <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-mc.tokens }()

	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	id := mc.nextID
	mc.nextID++
	ch := make(chan muxResult, 1)
	mc.pending[id] = ch
	mc.mu.Unlock()

	mc.wmu.Lock()
	err := serve.WriteFrameID(mc.c, id, payload)
	mc.wmu.Unlock()
	if err != nil {
		mc.fail(fmt.Errorf("client: %s: %w", mc.t.path, err))
		return nil, err
	}

	select {
	case res := <-ch:
		return res.buf, res.err
	case <-ctx.Done():
		mc.mu.Lock()
		delete(mc.pending, id)
		mc.mu.Unlock()
		select {
		case res := <-ch:
			// The response (or a connection failure) raced the
			// cancellation; recycle the buffer and still honor the context.
			if res.buf != nil {
				mc.t.respPool.Put(res.buf)
			}
		default:
		}
		return nil, ctx.Err()
	}
}

// muxConnAt returns the multiplexed connection for slot i, dialing and
// handshaking a fresh one if the slot is empty. preexisting reports whether
// the connection was already established — an I/O failure on such a
// connection may just mean the server restarted since, which is worth one
// retry on a fresh dial. The dial and handshake honor ctx's deadline; the
// connection itself outlives the call.
func (t *udsTransport) muxConnAt(ctx context.Context, i int) (fc framedConn, preexisting bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mux == nil {
		t.mux = make([]framedConn, t.conns+1)
	}
	if fc := t.mux[i]; fc != nil {
		return fc, true, nil
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "unix", t.path)
	if err != nil {
		return nil, false, fmt.Errorf("client: dial %s: %w", t.path, err)
	}
	deadline, _ := ctx.Deadline()
	c.SetDeadline(deadline) // zero deadline = none
	br := bufio.NewReaderSize(c, 64<<10)
	if err := t.hello(c, br); err != nil {
		c.Close()
		return nil, false, err
	}
	if t.shm && i < t.conns && !t.noSHM.Load() {
		sc, err := t.shmUpgrade(c, br)
		if err != nil {
			c.Close()
			return nil, false, err
		}
		if sc != nil {
			t.mux[i] = sc
			return sc, false, nil
		}
		// The server (or this host) cannot do shared memory; t.noSHM is
		// latched and the upgraded connection proceeds as a plain mux conn.
	}
	c.SetDeadline(time.Time{})
	mc := &muxConn{
		t:       t,
		c:       c,
		br:      br,
		tokens:  make(chan struct{}, defaultMuxInflight),
		pending: make(map[uint32]chan muxResult),
	}
	t.mux[i] = mc
	go mc.readLoop()
	return mc, false, nil
}

// hello opens a fresh connection with the MTH2 hello. A server that answers
// anything but the ack does not speak pipelined framing; the error names the
// hello and carries the server's refusal.
func (t *udsTransport) hello(c net.Conn, br *bufio.Reader) error {
	err := serve.WriteFrame(c, []byte(serve.HelloMagic))
	var resp []byte
	if err == nil {
		resp, err = serve.ReadFrame(br, nil)
	}
	switch {
	case err != nil:
		return fmt.Errorf("client: %s: %s hello: %w", t.path, serve.HelloMagic, err)
	case bytes.HasPrefix(resp, []byte(serve.HelloMagic)):
		return nil
	}
	if serve.FrameKind(resp) == "MTE1" {
		if status, msg, err := serve.DecodeErrorPayload(resp); err == nil {
			return fmt.Errorf("client: %s refused the %s hello with %d: %s", t.path, serve.HelloMagic, status, msg)
		}
	}
	return fmt.Errorf("client: %s answered the %s hello with frame kind %q", t.path, serve.HelloMagic, serve.FrameKind(resp))
}

// dropMux clears slot i if it still holds fc, so the next call redials.
func (t *udsTransport) dropMux(i int, fc framedConn) {
	t.mu.Lock()
	if t.mux != nil && i < len(t.mux) && t.mux[i] == fc {
		t.mux[i] = nil
	}
	t.mu.Unlock()
}

// muxCall sends one payload over a multiplexed connection and returns the
// matched response, which comes from respPool and must be returned by the
// caller. Calls round-robin over the predict slots, or take the side slot
// when side is set; a payload too large for a shared-memory ring slot is
// rerouted to the side slot, which has no slot bound. An I/O failure on a
// preexisting connection gets one retry on a fresh dial, a failure on a
// fresh one is final. Context errors are the caller's own deadline, not a
// connection problem, and are returned without dropping the connection.
func (t *udsTransport) muxCall(ctx context.Context, payload []byte, side bool) (*[]byte, error) {
	i := t.conns
	if !side {
		i = int(t.next.Add(1) % uint32(t.conns))
	}
	for attempt := 0; ; attempt++ {
		fc, preexisting, err := t.muxConnAt(ctx, i)
		if err != nil {
			return nil, err
		}
		buf, err := fc.call(ctx, payload)
		switch {
		case err == nil:
			return buf, nil
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return nil, err
		case errors.Is(err, errSHMTooLarge):
			// The ring connection is healthy; only this payload does not fit.
			return t.muxCall(ctx, payload, true)
		}
		t.dropMux(i, fc)
		if !preexisting || attempt > 0 {
			return nil, err
		}
	}
}
