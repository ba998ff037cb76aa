package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/shmring"
)

// errSHMTooLarge reports a payload that does not fit one ring slot. The
// connection is perfectly healthy — muxCall reroutes the one request to the
// side slot, a plain pipelined connection with no slot bound.
var errSHMTooLarge = errors.New("client: payload exceeds the shared-memory slot size")

// shmClientSpin bounds the collector's polling of a nonempty-expected ring
// before it parks behind the waiting flag (see serve's shm doorbell
// contract). Each iteration yields.
const shmClientSpin = 64

// shmConn is one shared-memory connection: the drop-in counterpart of
// muxConn with the socket demoted to a doorbell channel. Producers (any
// caller goroutine) serialize on prodMu to claim a request-ring slot, copy
// their payload in, and publish; one collector goroutine drains the response
// ring and matches responses to waiting calls by correlation ID, exactly like
// muxConn's readLoop. The request payloads and responses are byte-for-byte
// the pipelined frames, so everything above call() is shared with the mux
// path.
type shmConn struct {
	t   *udsTransport
	c   net.Conn
	br  *bufio.Reader
	seg *shmring.Segment

	// tokens bounds in-flight requests at min(defaultMuxInflight, ring
	// slots), so a full ring means slots are genuinely owed to the server,
	// not leaked.
	tokens chan struct{}
	// prodMu serializes the request ring's producer side. It is also the
	// teardown fence: the closer takes it after the collector exits, so
	// nobody can touch a ring while (or after) the segment unmaps.
	wmu    sync.Mutex // doorbell writes
	prodMu sync.Mutex

	mu      sync.Mutex
	pending map[uint32]chan muxResult
	nextID  uint32
	err     error // sticky fatal error; nil while healthy

	wake          chan struct{}
	readerDone    chan struct{}
	collectorDone chan struct{}
}

// shmUpgrade negotiates a shared-memory segment on a connection fresh past
// the hello. A nil, nil return means the server (or this host) cannot do
// shared memory — the transport's noSHM latch is set and the caller
// proceeds with the plain multiplexed connection; a non-nil error means the
// connection itself died mid-handshake.
func (t *udsTransport) shmUpgrade(c net.Conn, br *bufio.Reader) (*shmConn, error) {
	if err := serve.WriteFrameID(c, 0, serve.EncodeSHMOpen(shmring.Geometry{})); err != nil {
		return nil, fmt.Errorf("client: %s: %w", t.path, err)
	}
	_, payload, err := serve.ReadFrameID(br, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", t.path, err)
	}
	if serve.FrameKind(payload) != serve.SHMMagic {
		// The server declined: ServeUDS answers the open with an error
		// frame, and so would a server that predates the upgrade.
		t.noSHM.Store(true)
		return nil, nil
	}
	_, path, err := serve.DecodeSHMAck(payload)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", t.path, err)
	}
	seg, err := shmring.Open(path)
	if err != nil {
		// Mapping failed (no common filesystem, permissions, platform):
		// abort so the server discards the segment, and stop trying on
		// future connections.
		t.noSHM.Store(true)
		if werr := serve.WriteFrameID(c, 0, serve.EncodeSHMAbort()); werr != nil {
			return nil, fmt.Errorf("client: %s: %w", t.path, werr)
		}
		return nil, nil
	}
	if err := serve.WriteFrameID(c, 0, serve.EncodeSHMReady()); err != nil {
		seg.Close()
		return nil, fmt.Errorf("client: %s: %w", t.path, err)
	}
	c.SetDeadline(time.Time{}) // the handshake is over; ring traffic has none
	sc := &shmConn{
		t:             t,
		c:             c,
		br:            br,
		seg:           seg,
		tokens:        make(chan struct{}, min(defaultMuxInflight, seg.Req.Slots())),
		pending:       make(map[uint32]chan muxResult),
		wake:          make(chan struct{}, 1),
		readerDone:    make(chan struct{}),
		collectorDone: make(chan struct{}),
	}
	go sc.sockReader()
	go sc.collect()
	go sc.closer()
	return sc, nil
}

// fail closes the connection and delivers err to every pending call, once.
func (sc *shmConn) fail(err error) {
	sc.mu.Lock()
	if sc.err != nil {
		sc.mu.Unlock()
		return
	}
	sc.err = err
	pending := sc.pending
	sc.pending = nil
	sc.mu.Unlock()
	sc.c.Close()
	for _, ch := range pending {
		ch <- muxResult{err: err}
	}
}

func (sc *shmConn) getErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.err
}

// sockReader is the connection's only socket reader: every inbound frame is
// a doorbell. Its exit (peer closed, or fail() closed the conn) is the
// teardown trigger.
func (sc *shmConn) sockReader() {
	defer close(sc.readerDone)
	var buf []byte
	for {
		var err error
		if buf, err = serve.ReadFrame(sc.br, buf); err != nil {
			return
		}
		select {
		case sc.wake <- struct{}{}:
		default:
		}
	}
}

// collect drains the response ring, copying each matched response into a
// pooled buffer (the slab slot is the server's to reuse the instant we
// advance) and delivering it to the waiting call.
func (sc *shmConn) collect() {
	defer close(sc.collectorDone)
	for {
		id, payload, ok, err := sc.seg.Resp.Peek()
		if err != nil {
			sc.fail(fmt.Errorf("client: %s: %w", sc.t.path, err))
			return
		}
		if !ok {
			if !sc.waitResp() {
				return
			}
			continue
		}
		sc.mu.Lock()
		ch, found := sc.pending[id]
		if found {
			delete(sc.pending, id)
		}
		sc.mu.Unlock()
		var bp *[]byte
		if found {
			bp = sc.t.respPool.Get().(*[]byte)
			*bp = append((*bp)[:0], payload...)
		}
		sc.seg.Resp.Advance()
		if found {
			ch <- muxResult{buf: bp}
		}
	}
}

// waitResp blocks until the response ring is (probably) nonempty: a short
// yield-spin while calls are in flight, then the waiting-flag park either
// way — the server doorbells the next publish. False means the connection is
// done.
func (sc *shmConn) waitResp() bool {
	sc.mu.Lock()
	busy := len(sc.pending) > 0
	failed := sc.err != nil
	sc.mu.Unlock()
	if failed {
		return false
	}
	if busy {
		for i := 0; i < shmClientSpin; i++ {
			if sc.seg.Resp.Pending() {
				return true
			}
			runtime.Gosched()
		}
	}
	sc.seg.Resp.SetWaiting()
	if sc.seg.Resp.Pending() {
		sc.seg.Resp.ClearWaiting()
		select {
		case <-sc.wake:
		default:
		}
		return true
	}
	select {
	case <-sc.wake:
		sc.seg.Resp.ClearWaiting()
		return true
	case <-sc.readerDone:
		sc.seg.Resp.ClearWaiting()
		sc.fail(fmt.Errorf("client: %s: connection closed", sc.t.path))
		return false
	}
}

// closer tears the connection down once the socket dies: mark it failed,
// wait out the collector, then take the producer lock so no call can be
// inside the ring, and unmap. Producers that arrive later take the lock,
// see the sticky error, and bail without touching the (gone) segment.
func (sc *shmConn) closer() {
	<-sc.readerDone
	sc.fail(fmt.Errorf("client: %s: connection closed", sc.t.path))
	<-sc.collectorDone
	sc.prodMu.Lock()
	sc.seg.Close()
	sc.prodMu.Unlock()
}

// call pushes one payload through the request ring and waits for its matched
// response — the shmConn side of the framedConn contract. The returned
// buffer comes from the transport's respPool; the caller must return it
// after decoding.
func (sc *shmConn) call(ctx context.Context, payload []byte) (*[]byte, error) {
	// skip places a batch request's float matrix 8-byte-aligned in the
	// slab, which is what lets the server decode it zero-copy.
	skip := serve.SHMAlignSkip(payload)
	if skip+len(payload) > sc.seg.Req.SlotSize() {
		return nil, errSHMTooLarge
	}
	select {
	case sc.tokens <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-sc.tokens }()

	sc.mu.Lock()
	if sc.err != nil {
		err := sc.err
		sc.mu.Unlock()
		return nil, err
	}
	id := sc.nextID
	sc.nextID++
	ch := make(chan muxResult, 1)
	sc.pending[id] = ch
	sc.mu.Unlock()

	sc.prodMu.Lock()
	if err := sc.getErr(); err != nil {
		sc.prodMu.Unlock()
		sc.deregister(id)
		return nil, err
	}
	var slot []byte
	for {
		s, ok := sc.seg.Req.Reserve()
		if ok {
			slot = s
			break
		}
		// Full ring: every slot is held by an in-flight call's request the
		// server has not consumed yet. Yield until it catches up.
		if err := sc.getErr(); err != nil {
			sc.prodMu.Unlock()
			sc.deregister(id)
			return nil, err
		}
		runtime.Gosched()
	}
	copy(slot[skip:skip+len(payload)], payload)
	sc.seg.Req.PublishAt(id, skip, len(payload))
	doorbell := sc.seg.Req.TakeWaiting()
	sc.prodMu.Unlock()

	if doorbell {
		sc.wmu.Lock()
		err := serve.WriteFrame(sc.c, serve.DoorbellPayload)
		sc.wmu.Unlock()
		if err != nil {
			// The request may already be consumed; fail() settles every
			// pending call (including this one, through ch).
			sc.fail(fmt.Errorf("client: %s: %w", sc.t.path, err))
		}
	}

	select {
	case res := <-ch:
		return res.buf, res.err
	case <-ctx.Done():
		sc.deregister(id)
		select {
		case res := <-ch:
			if res.buf != nil {
				sc.t.respPool.Put(res.buf)
			}
		default:
		}
		return nil, ctx.Err()
	}
}

// deregister abandons a pending call (cancellation or a failed send); a
// response that still arrives is dropped by the collector.
func (sc *shmConn) deregister(id uint32) {
	sc.mu.Lock()
	delete(sc.pending, id)
	sc.mu.Unlock()
}
