package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/shmring"
)

// The unix-domain-socket transport: the binary batch codec without the HTTP
// machinery. Every connection opens with the hello: the client's first frame
// is a short frame whose payload is exactly "MTH2",
//
//	short frame: length uint32 LE | payload [length]byte
//
// and the server acknowledges with a short frame whose payload starts with
// "MTH2". Both sides then speak pipelined framing for the rest of the
// connection:
//
//	frame: length uint32 LE | id uint32 LE | payload [length]byte
//
// where id is a correlation ID chosen by the client (length counts the
// payload only). The server dispatches every request to its inference pool
// without waiting for earlier responses; responses carry the request's id
// and may arrive IN ANY ORDER. Any first frame other than the hello is
// refused with one short "MTE1" frame (status 426, Upgrade Required, naming
// "MTH2"), counted once as an error, and the connection is closed.
//
// The first four payload bytes tag the frame kind:
//
//	"MTB1"  predict — the payload is exactly one binary batch request
//	        (the application/x-metis-batch body); the response is a binary
//	        batch response under the same magic.
//	"MTQ1"  control — the magic is followed by a JSON request
//	        {"op": "models"|"model"|"stats"|"reload", "name": …, "dir": …};
//	        the response is "MTJ1" followed by the same JSON body the
//	        corresponding HTTP route renders.
//	"MTE1"  error (response only) — status uint16 LE (the HTTP status the
//	        error maps to) followed by the message bytes.
//	"MTS1"  shared-memory upgrade (ServeSHM only; see shm.go).
//
// Short frames carry only the hello, its ack or refusal, and the doorbells
// of a shared-memory connection, so they are bounded by maxShortFrame: a
// peer cannot make the server allocate more than that before a payload byte
// arrives.
//
// Framing is the only thing this layer adds: predict payloads are byte-for-
// byte the HTTP binary bodies, so the two transports share one codec, one
// engine, one admission-control path, and one stats surface. What the socket
// removes is everything HTTP spends per request — header parsing, routing,
// header rendering, chunked encoding — and the request/response round-trip of
// dead air: frames pipeline, and both sides coalesce adjacent frames into
// vectored writes.
const (
	controlMagic = "MTQ1"
	jsonMagic    = "MTJ1"
	errMagic     = "MTE1"
)

// HelloMagic is the payload of the hello that opens every connection and the
// prefix of its acknowledgement (future servers may append capability bytes
// after it; clients must accept any ack payload starting with these four
// bytes).
const HelloMagic = "MTH2"

// maxFramePayload bounds one pipelined frame. The largest legitimate payload
// is a maxBinaryElems float64 matrix (1 GiB) plus the batch header; anything
// claiming more is a corrupt or hostile peer and kills the connection.
const maxFramePayload = maxBinaryElems*8 + 1<<16

// maxShortFrame bounds one short (ID-less) frame: the hello, its ack or
// refusal, and doorbells are all a few bytes.
const maxShortFrame = 4 << 10

// ErrBadFrame reports a malformed unix-socket frame.
var ErrBadFrame = errors.New("serve: malformed socket frame")

// WriteFrame writes payload as one short frame. The two byte ranges go out
// in a single writev, so no copy into a joined buffer happens on either side
// of the socket.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxShortFrame {
		return fmt.Errorf("%w: %d-byte short frame exceeds the %d limit", ErrBadFrame, len(payload), maxShortFrame)
	}
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], uint32(len(payload)))
	bufs := net.Buffers{head[:], payload}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one short frame into buf (reused when it fits, grown
// otherwise) and returns the payload. A declared length over maxShortFrame
// fails before anything is allocated for it. io.EOF is returned untouched
// when the peer closed between frames, so callers can distinguish a clean
// close from truncation. The header is staged through buf too — a
// stack-local header array would escape through the io.Reader interface and
// cost an allocation per frame, which the doorbell loops cannot afford.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = growBytes(buf, 4)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short length prefix: %v", ErrBadFrame, err)
	}
	n := int64(binary.LittleEndian.Uint32(buf))
	if n > maxShortFrame {
		return nil, fmt.Errorf("%w: %d-byte short frame exceeds the %d limit", ErrBadFrame, n, maxShortFrame)
	}
	buf = growBytes(buf, int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrBadFrame, err)
	}
	return buf, nil
}

// WriteFrameID writes payload as one pipelined frame under the given
// correlation ID. Like WriteFrame, the header and payload go out as one
// vectored write.
func WriteFrameID(w io.Writer, id uint32, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("%w: %d-byte payload exceeds the %d limit", ErrBadFrame, len(payload), maxFramePayload)
	}
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], id)
	bufs := net.Buffers{head[:], payload}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrameID reads one pipelined frame into buf (reused when it fits, grown
// as the payload arrives otherwise) and returns its correlation ID and
// payload. io.EOF is returned untouched when the peer closed between frames.
func ReadFrameID(r io.Reader, buf []byte) (id uint32, payload []byte, err error) {
	// As in ReadFrame, the header is staged through buf to keep the steady
	// state allocation-free.
	buf = growBytes(buf, 8)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: short header: %v", ErrBadFrame, err)
	}
	n := int64(binary.LittleEndian.Uint32(buf[0:4]))
	id = binary.LittleEndian.Uint32(buf[4:8])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: %d-byte payload exceeds the %d limit", ErrBadFrame, n, maxFramePayload)
	}
	if buf, err = readGrowing(r, buf, int(n)); err != nil {
		return 0, nil, fmt.Errorf("%w: short payload: %v", ErrBadFrame, err)
	}
	return id, buf, nil
}

// frameReadChunk is the most readGrowing allocates ahead of bytes that have
// actually arrived.
const frameReadChunk = 1 << 20

// readGrowing reads exactly n bytes into buf, reusing its capacity and
// otherwise growing it as the bytes arrive: by at most frameReadChunk at
// first, then doubling. A header that declares a huge payload and never
// sends it therefore costs at most one chunk, not the declared length, while
// a real large frame still arrives in O(n) total copying.
func readGrowing(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), len(buf)+min(n-len(buf), max(frameReadChunk, len(buf))))
			copy(grown, buf)
			buf = grown
		}
		end := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return nil, err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// ControlRequest builds an "MTQ1" control payload. Fields irrelevant to the
// op are left empty.
func ControlRequest(op, name, dir string) ([]byte, error) {
	body, err := json.Marshal(controlReq{Op: op, Name: name, Dir: dir})
	if err != nil {
		return nil, err
	}
	return append([]byte(controlMagic), body...), nil
}

// controlReq is the JSON body of an "MTQ1" frame.
type controlReq struct {
	Op   string `json:"op"`
	Name string `json:"name,omitempty"`
	Dir  string `json:"dir,omitempty"`
}

// DecodeErrorPayload parses an "MTE1" payload (sans magic check — callers
// dispatch on the magic) into the HTTP-equivalent status and message.
func DecodeErrorPayload(payload []byte) (status int, msg string, err error) {
	if len(payload) < 6 {
		return 0, "", fmt.Errorf("%w: %d-byte error payload", ErrBadFrame, len(payload))
	}
	return int(binary.LittleEndian.Uint16(payload[4:6])), string(payload[6:]), nil
}

// FrameKind returns the 4-byte magic of a response payload ("MTB1", "MTJ1",
// or "MTE1").
func FrameKind(payload []byte) string {
	if len(payload) < 4 {
		return ""
	}
	return string(payload[:4])
}

// FrameBody returns a response payload without its magic.
func FrameBody(payload []byte) []byte { return payload[4:] }

// ListenUDS listens on a unix-domain socket at path, clearing a stale socket
// file left by a crashed predecessor (a leftover file that no process
// accepts on) while refusing to steal a live one.
func ListenUDS(path string) (net.Listener, error) {
	l, err := net.Listen("unix", path)
	if err == nil {
		return l, nil
	}
	if _, statErr := os.Stat(path); statErr != nil {
		return nil, err
	}
	// The file exists: probe it. A live daemon accepts; a stale socket
	// refuses, and is safe to replace.
	if c, dialErr := net.DialTimeout("unix", path, 250*time.Millisecond); dialErr == nil {
		c.Close()
		return nil, fmt.Errorf("serve: %s is in use by a live listener", path)
	}
	if rmErr := os.Remove(path); rmErr != nil {
		return nil, fmt.Errorf("serve: clear stale socket %s: %w", path, rmErr)
	}
	return net.Listen("unix", path)
}

// ServeUDS accepts framed connections on l until the listener closes,
// answering every frame off the same engine the HTTP layer serves: one
// registry, one admission-control gate, one stats surface — a SIGHUP reload
// is visible on the socket and over HTTP in the same instant. It returns nil
// on a clean listener close. Shared-memory negotiation is declined (clients
// keep plain pipelined framing); see ServeSHM.
func (e *Engine) ServeUDS(l net.Listener) error { return e.serveFramed(l, false) }

// serveFramed is the accept loop shared by ServeUDS and ServeSHM.
func (e *Engine) serveFramed(l net.Listener, allowSHM bool) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		// Large socket buffers keep pipelined peers streaming instead of
		// blocking every couple of frames on the (small) kernel default —
		// each block is a park/unpark round through the scheduler and
		// netpoller, which at frame rates is real syscall time.
		if uc, ok := conn.(*net.UnixConn); ok {
			uc.SetReadBuffer(1 << 20)
			uc.SetWriteBuffer(1 << 20)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.serveUDSConn(conn, allowSHM)
		}()
	}
}

// serveUDSConn serves one connection. A first frame that is the hello is
// acknowledged and the connection is served pipelined, where allowSHM
// additionally accepts the MTS1 shared-memory upgrade. Any other first frame
// — a request from a client that skipped the hello, an over-long short
// frame, or garbage — is refused with one 426 error frame naming the hello,
// counted once, and the connection is closed. A peer that closes before
// sending a byte is not an error.
func (e *Engine) serveUDSConn(conn net.Conn, allowSHM bool) {
	defer conn.Close()
	// 256 KiB: large enough that a full default-max-batch predict frame fits
	// the pipelined mode's zero-copy peek window, and cheap at the handful of
	// co-located connections a unix socket serves.
	br := bufio.NewReaderSize(conn, 256<<10)
	hello, err := ReadFrame(br, nil)
	if err == io.EOF {
		return
	}
	if err != nil || string(hello) != HelloMagic {
		e.errors.Add(1)
		// Best effort: the connection closes whether or not the peer reads it.
		WriteFrame(conn, appendErrorPayload(nil, http.StatusUpgradeRequired,
			fmt.Sprintf("the first frame must be the %q hello: this server speaks pipelined framing only", HelloMagic)))
		return
	}
	if err := WriteFrame(conn, []byte(HelloMagic)); err != nil {
		return
	}
	e.serveUDSPipelined(conn, br, allowSHM)
}

// Pipelined-mode sizing: the per-connection dispatch queue bounds how many
// frames may be in flight beyond the workers (the reader blocks when it
// fills — backpressure instead of unbounded buffering), and the writer
// coalesces up to maxUDSCoalesce completed responses into one vectored
// write.
const (
	udsPipelineQueue = 256
	maxUDSCoalesce   = 128
)

// udsBufPool recycles the per-frame request and response buffers of
// pipelined connections. Pooled as pointers so Put does not allocate a
// slice-header box.
var udsBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// udsV2Job is one request handed from the reader to a dispatch worker. The
// common shape is a pre-decoded predict (s != nil): the reader decoded the
// feature rows straight out of its buffered peek — zero payload copies — and
// the worker only runs inference and encodes. Control frames, unknown
// magics, and frames too large to peek arrive as a raw copied payload in req
// (owned, from udsBufPool). udsV2Resp is one completed response handed to
// the writer, owning its buffer until the writer releases it.
type udsV2Job struct {
	id uint32
	// Decoded predict job: rows alias s.flat; derr is the decode error,
	// rendered by the worker so error frames keep their correlation ID.
	s     *batchScratch
	model string
	rows  [][]float64
	derr  error
	// Raw job (s == nil).
	req *[]byte
}

type udsV2Resp struct {
	id  uint32
	out *[]byte
}

// serveUDSPipelined serves one connection in pipelined framing: the reader hands
// every frame to a small per-connection worker pool without waiting for
// earlier responses, and a single writer goroutine matches completed
// responses (out of order) back onto the wire, coalescing adjacent ones into
// batched vectored writes. Inference parallelism across requests is still
// governed by the engine's shared pool and admission control; the workers
// here only overlap decode/encode and eliminate the per-frame round-trip of
// dead air. When allowSHM is set the reader additionally speaks the MTS1
// handshake, and a completed handshake drains this whole apparatus and hands
// the connection to serveSHM.
func (e *Engine) serveUDSPipelined(conn net.Conn, br *bufio.Reader, allowSHM bool) {
	workers := dispatchWorkers()
	jobs := make(chan udsV2Job, udsPipelineQueue)
	resps := make(chan udsV2Resp, udsPipelineQueue+workers)
	writerDone := make(chan struct{})

	go func() {
		defer close(writerDone)
		var (
			heads [maxUDSCoalesce][8]byte
			batch []udsV2Resp
			bufs  net.Buffers
		)
		flush := func() bool {
			bufs = bufs[:0]
			for i, r := range batch {
				binary.LittleEndian.PutUint32(heads[i][0:4], uint32(len(*r.out)))
				binary.LittleEndian.PutUint32(heads[i][4:8], r.id)
				bufs = append(bufs, heads[i][:], *r.out)
			}
			// WriteTo advances bufs destructively; it is rebuilt per flush.
			_, err := bufs.WriteTo(conn)
			for _, r := range batch {
				udsBufPool.Put(r.out)
			}
			batch = batch[:0]
			return err == nil
		}
		for {
			r, ok := <-resps
			if !ok {
				return
			}
			batch = append(batch, r)
			closed := false
		fill:
			for len(batch) < maxUDSCoalesce {
				select {
				case r2, ok := <-resps:
					if !ok {
						closed = true
						break fill
					}
					batch = append(batch, r2)
				default:
					break fill
				}
			}
			if !flush() {
				// The peer stopped reading; unblock the reader and drain the
				// workers so the connection tears down instead of deadlocking.
				conn.Close()
				for r := range resps {
					udsBufPool.Put(r.out)
				}
				return
			}
			if closed {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := batchScratchPool.Get().(*batchScratch)
			defer batchScratchPool.Put(ws)
			for j := range jobs {
				outp := udsBufPool.Get().(*[]byte)
				if j.s != nil {
					*outp = e.udsPredictDecoded(j.model, j.rows, j.derr, &j.s.pred, (*outp)[:0], 0)
					batchScratchPool.Put(j.s)
				} else {
					*outp = e.answer(*j.req, ws, (*outp)[:0], 0)
					udsBufPool.Put(j.req)
				}
				resps <- udsV2Resp{id: j.id, out: outp}
			}
		}()
	}

	// Shared-memory handshake state: pendingSeg is created by an MTS1 open
	// and owned here until the client's ready (liveSeg) or the connection
	// dies (cleaned up below — a client that crashed mid-handshake leaks
	// nothing).
	var pendingSeg, liveSeg *shmring.Segment

	// The read loop peeks whole frames out of the buffered reader and
	// decodes predict payloads in place — the bytes go straight from the
	// read buffer into the job's float rows while they are hot in cache,
	// and no per-frame payload buffer exists at all. Only frames that do
	// not fit the read buffer take the copying fallback. MTS1 handshake
	// frames are handled inline (they are a few bytes, always peekable).
	for {
		head, err := br.Peek(8)
		if err != nil {
			break
		}
		n := int(binary.LittleEndian.Uint32(head[0:4]))
		id := binary.LittleEndian.Uint32(head[4:8])
		if n > maxFramePayload {
			break
		}
		if n+8 > br.Size() {
			// Oversized frame: fall back to a copying read (the 8 header
			// bytes are still buffered; ReadFrameID re-reads them).
			reqp := udsBufPool.Get().(*[]byte)
			rid, frame, rerr := ReadFrameID(br, *reqp)
			if rerr != nil {
				udsBufPool.Put(reqp)
				break
			}
			*reqp = frame
			jobs <- udsV2Job{id: rid, req: reqp}
			continue
		}
		full, err := br.Peek(n + 8)
		if err != nil {
			break
		}
		frame := full[8:]
		if allowSHM && FrameKind(frame) == SHMMagic {
			ready, ok := e.shmHandshake(frame, id, &pendingSeg, resps)
			br.Discard(n + 8)
			if !ok {
				break
			}
			if ready != nil {
				liveSeg = ready
				break
			}
			continue
		}
		if FrameKind(frame) == batchMagic {
			s := batchScratchPool.Get().(*batchScratch)
			// aliasOK=false: frame is a bufio peek, invalidated by the
			// Discard below while the dispatched job still holds the rows.
			model, rows, derr := s.decodeRequestBytes(frame, e.maxBatch(), false)
			br.Discard(n + 8)
			jobs <- udsV2Job{id: id, s: s, model: model, rows: rows, derr: derr}
		} else {
			reqp := udsBufPool.Get().(*[]byte)
			*reqp = append((*reqp)[:0], frame...)
			br.Discard(n + 8)
			jobs <- udsV2Job{id: id, req: reqp}
		}
	}
	close(jobs)
	wg.Wait()
	close(resps)
	<-writerDone
	if pendingSeg != nil {
		pendingSeg.Close()
		pendingSeg.Unlink()
	}
	if liveSeg != nil {
		// The client is mapped (it said ready): drop the file name now so a
		// crash on either side from here on leaks nothing, then serve rings.
		liveSeg.Unlink()
		e.serveSHM(conn, br, liveSeg)
	}
}

// answer answers one request payload into out: a predict or control frame
// the pipelined socket copied off the wire, or a request-ring slot. respCap is
// the byte capacity of a fixed response buffer that out points into — a ring
// slot — or 0 where out grows. With respCap > 0 the answer never reallocates
// off the slot: a predict whose response would not fit is refused before
// admission (a 413 that predicted nothing), a control document that does not
// fit is a 413, and error messages are truncated to fit.
func (e *Engine) answer(frame []byte, s *batchScratch, out []byte, respCap int) []byte {
	switch FrameKind(frame) {
	case batchMagic:
		// aliasOK: frame is a copied socket payload or a request-ring slot,
		// both held past the predict that consumes the rows. With an aligned
		// ring producer (SHMAlignSkip) this is the zero-copy path the
		// shared-memory transport exists for.
		model, rows, err := s.decodeRequestBytes(frame, e.maxBatch(), true)
		return e.udsPredictDecoded(model, rows, err, &s.pred, out, respCap)
	case controlMagic:
		var req controlReq
		if err := json.Unmarshal(frame[4:], &req); err != nil {
			return e.frameError(out, respCap, errors.New("bad control body: "+err.Error()))
		}
		doc, err := e.control(req)
		if err != nil {
			return e.frameError(out, respCap, err)
		}
		enc, err := json.Marshal(doc)
		if err != nil {
			return e.frameError(out, respCap, &statusError{http.StatusInternalServerError, err.Error()})
		}
		if need := len(jsonMagic) + len(enc); respCap > 0 && need > respCap {
			return e.frameError(out, respCap, &statusError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("control response needs %d bytes, ring slot holds %d", need, respCap)})
		}
		return append(append(out, jsonMagic...), enc...)
	}
	return e.frameError(out, respCap, fmt.Errorf("unknown frame magic %q", FrameKind(frame)))
}

// udsPredictDecoded answers an already-decoded predict request, encoding the
// response (or the error frame) into out; respCap is as for answer. derr is
// the decode error, if any — rendered here so pipelined decode errors flow
// through the same response path as everything else. Socket and ring
// requests carry no tenant field; the model name keys the tenant.
func (e *Engine) udsPredictDecoded(model string, rows [][]float64, derr error, pred *Prediction, out []byte, respCap int) []byte {
	err := e.decodeRefusal(model, derr)
	if err == nil {
		err = e.predictTenant("", model, rows, pred, respCap)
	}
	if err == nil {
		var resp []byte
		if resp, err = appendBatchResponse(out, pred); err == nil {
			return resp
		}
	}
	return e.frameError(out, respCap, err)
}

// frameError renders err as an "MTE1" payload into out with the same status
// mapping as the HTTP layer, and accounts it in the engine error counter —
// the socket and ring transports' single error-accounting point. With
// respCap > 0 the message is truncated so the frame fits respCap bytes;
// ring slots are at least shmring.MinSlotSize, so the 6-byte header always
// fits.
func (e *Engine) frameError(out []byte, respCap int, err error) []byte {
	e.errors.Add(1)
	msg := err.Error()
	if room := respCap - len(out) - 6; respCap > 0 && len(msg) > room {
		msg = msg[:room]
	}
	return appendErrorPayload(out, errorStatus(err), msg)
}

// errorStatus maps an engine error to the HTTP status every transport
// renders it under: HTTP responses, socket error frames and in-slot errors.
func errorStatus(err error) int {
	var (
		unknown *UnknownModelError
		size    *BatchSizeError
		resp    *responseSizeError
		status  *statusError
	)
	switch {
	case errors.As(err, &status):
		return status.status
	case errors.Is(err, ErrBusy):
		return http.StatusServiceUnavailable
	case errors.As(err, &unknown):
		return http.StatusNotFound
	case errors.As(err, &size), errors.As(err, &resp):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// dispatchWorkers is the per-connection decode/encode worker count (distinct
// from Config.Workers, which sizes the server-wide inference pool): two
// workers growing with available cores up to four — enough to overlap
// decode with inference without drowning a small box in per-connection
// goroutines.
func dispatchWorkers() int { return max(2, min(4, runtime.GOMAXPROCS(0))) }

// appendErrorPayload encodes an "MTE1" payload into out.
func appendErrorPayload(out []byte, status int, msg string) []byte {
	out = append(out, errMagic...)
	out = binary.LittleEndian.AppendUint16(out, uint16(status))
	return append(out, msg...)
}
