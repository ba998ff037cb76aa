package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/shmring"
)

// The shared-memory upgrade: once a connection is past the hello, a client may
// send an "MTS1" control frame negotiating a per-connection mmap'd segment
// (see internal/shmring for the layout). After the handshake completes,
// steady-state predict traffic moves entirely through the segment — requests
// decoded straight out of the request slab, responses encoded in place into
// the response slab — and the socket is demoted to a doorbell channel: one
// tiny frame whenever a producer publishes into a ring whose consumer
// advertised it was parked. While both sides stay busy, the server's predict
// path makes zero syscalls and zero payload copies.
//
// Handshake, all frames pipelined on the already-upgraded connection:
//
//	client → server  "MTS1" | op 0x00 | slots u32 | slotSize u32
//	                 open: request a segment (zeros = server defaults; the
//	                 server may clamp both — its reply is authoritative).
//	server → client  "MTS1" | slots u32 | slotSize u32 | pathLen u16 | path
//	                 the segment is created and mapped at path; or an "MTE1"
//	                 error frame, after which the connection keeps serving
//	                 plain pipelined frames — a non-speaking server produces
//	                 the same MTE1 organically, so the client's fallback path
//	                 is one code path for both.
//	client → server  "MTS1" | op 0x01
//	                 ready: the client has mapped the segment. The server
//	                 unlinks the file (mappings survive; nothing leaks on
//	                 exit) and both sides switch to ring traffic.
//	client → server  "MTS1" | op 0x02
//	                 abort: the client could not map the segment (e.g. no
//	                 common filesystem); the server discards it and the
//	                 connection keeps serving plain pipelined frames.
//
// After ready, the socket carries only doorbell frames — short "MTD1" frames
// in both directions, content ignored; any readable frame means "check your
// ring". Request payloads in the slab are byte-for-byte the pipelined
// payloads ("MTB1" predict, "MTQ1" control), responses likewise, so the two
// transports share every codec and the engine cannot tell them apart.
const (
	// SHMMagic tags shared-memory handshake frames.
	SHMMagic = "MTS1"
	// shm handshake ops (first byte after the magic in client frames).
	shmOpOpen  = 0x00
	shmOpReady = 0x01
	shmOpAbort = 0x02
)

// DoorbellPayload is the body of a wake frame. Both sides treat ANY inbound
// frame as a doorbell once a segment is live; the fixed payload just keeps
// the wire self-describing.
var DoorbellPayload = []byte("MTD1")

// EncodeSHMOpen builds the client's segment-open frame requesting geometry g
// (zero fields ask for the server's defaults).
func EncodeSHMOpen(g shmring.Geometry) []byte {
	out := make([]byte, 0, 13)
	out = append(out, SHMMagic...)
	out = append(out, shmOpOpen)
	out = binary.LittleEndian.AppendUint32(out, g.Slots)
	out = binary.LittleEndian.AppendUint32(out, g.SlotSize)
	return out
}

// EncodeSHMReady builds the client's mapped-and-ready frame.
func EncodeSHMReady() []byte {
	return []byte{SHMMagic[0], SHMMagic[1], SHMMagic[2], SHMMagic[3], shmOpReady}
}

// EncodeSHMAbort builds the client's could-not-map frame.
func EncodeSHMAbort() []byte {
	return []byte{SHMMagic[0], SHMMagic[1], SHMMagic[2], SHMMagic[3], shmOpAbort}
}

// DecodeSHMAck parses the server's open acknowledgement (including its
// magic) into the granted geometry and segment path.
func DecodeSHMAck(payload []byte) (g shmring.Geometry, path string, err error) {
	if len(payload) < 14 || string(payload[:4]) != SHMMagic {
		return g, "", fmt.Errorf("%w: %d-byte shm ack", ErrBadFrame, len(payload))
	}
	g.Slots = binary.LittleEndian.Uint32(payload[4:8])
	g.SlotSize = binary.LittleEndian.Uint32(payload[8:12])
	n := int(binary.LittleEndian.Uint16(payload[12:14]))
	if len(payload) != 14+n {
		return g, "", fmt.Errorf("%w: shm ack claims a %d-byte path in a %d-byte frame", ErrBadFrame, n, len(payload))
	}
	return g, string(payload[14:]), nil
}

// appendSHMAck encodes the server's open acknowledgement into out.
func appendSHMAck(out []byte, g shmring.Geometry, path string) []byte {
	out = append(out, SHMMagic...)
	out = binary.LittleEndian.AppendUint32(out, g.Slots)
	out = binary.LittleEndian.AppendUint32(out, g.SlotSize)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(path)))
	return append(out, path...)
}

// ServeSHM is ServeUDS with the shared-memory upgrade enabled: connections
// are served identically (the hello, pipelined frames, same engine and
// stats) and may additionally negotiate an MTS1 segment. Callers that pass a
// listener to ServeUDS instead get a server that answers the open with an
// error — which clients treat as "stay on plain pipelined framing".
func (e *Engine) ServeSHM(l net.Listener) error { return e.serveFramed(l, true) }

// SHMWakes returns how many doorbell frames the server has written — the
// zero-syscall claim's observable: while a client keeps the request ring
// nonempty, this counter does not move.
func (e *Engine) SHMWakes() int64 { return e.shm.wakes.Load() }

// SHMConns returns how many connections are currently serving ring traffic.
func (e *Engine) SHMConns() int64 { return e.shm.conns.Load() }

// shmGeometry resolves a client's requested geometry against the engine
// config: zeros become the configured (or package) defaults, the config caps
// both axes when set — the server owns the memory — and the result is
// normalized into validity.
func (e *Engine) shmGeometry(req shmring.Geometry) shmring.Geometry {
	cfg := e.cfg
	if req.Slots == 0 && cfg.SHMSlots > 0 {
		req.Slots = uint32(cfg.SHMSlots)
	}
	if req.SlotSize == 0 && cfg.SHMSlotSize > 0 {
		req.SlotSize = uint32(cfg.SHMSlotSize)
	}
	req = shmring.Normalize(req)
	if cfg.SHMSlots > 0 {
		req.Slots = min(req.Slots, shmring.Normalize(shmring.Geometry{Slots: uint32(cfg.SHMSlots)}).Slots)
	}
	if cfg.SHMSlotSize > 0 {
		req.SlotSize = min(req.SlotSize, shmring.Normalize(shmring.Geometry{SlotSize: uint32(cfg.SHMSlotSize)}).SlotSize)
	}
	return req
}

// createSHMSegment builds a fresh segment file for one connection. The
// directory prefers Config.SHMDir, then /dev/shm (memory-backed, no
// writeback), then the OS temp dir.
func (e *Engine) createSHMSegment(g shmring.Geometry) (*shmring.Segment, error) {
	dir := e.cfg.SHMDir
	if dir == "" {
		if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
			dir = "/dev/shm"
		} else {
			dir = os.TempDir()
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("metis-ring-%d-%d.shm", os.Getpid(), e.shm.seq.Add(1)))
	return shmring.Create(path, g)
}

// shmHandshake processes one MTS1 frame inside the pipelined reader loop.
// It returns the segment to switch into when the frame was a ready, and
// whether the connection can continue (false kills it: a ready with no open
// is a protocol violation the stream cannot recover from). Acks and errors
// are enqueued through the normal response channel, so they interleave
// correctly with in-flight pipelined responses.
func (e *Engine) shmHandshake(frame []byte, id uint32, pending **shmring.Segment, resps chan<- udsV2Resp) (ready *shmring.Segment, ok bool) {
	reply := func(payload func(out []byte) []byte) {
		outp := udsBufPool.Get().(*[]byte)
		*outp = payload((*outp)[:0])
		resps <- udsV2Resp{id: id, out: outp}
	}
	if len(frame) < 5 {
		reply(func(out []byte) []byte {
			e.errors.Add(1)
			return appendErrorPayload(out, http.StatusBadRequest, "short shm handshake frame")
		})
		return nil, true
	}
	switch frame[4] {
	case shmOpOpen:
		var req shmring.Geometry
		if len(frame) >= 13 {
			req.Slots = binary.LittleEndian.Uint32(frame[5:9])
			req.SlotSize = binary.LittleEndian.Uint32(frame[9:13])
		}
		if *pending != nil {
			// A re-open before ready supersedes the first segment.
			(*pending).Close()
			(*pending).Unlink()
			*pending = nil
		}
		seg, err := e.createSHMSegment(e.shmGeometry(req))
		if err != nil {
			reply(func(out []byte) []byte {
				e.errors.Add(1)
				return appendErrorPayload(out, http.StatusInternalServerError, "shm segment: "+err.Error())
			})
			return nil, true
		}
		*pending = seg
		reply(func(out []byte) []byte { return appendSHMAck(out, seg.Geometry(), seg.Path()) })
		return nil, true
	case shmOpReady:
		if *pending == nil {
			return nil, false
		}
		seg := *pending
		*pending = nil
		return seg, true
	case shmOpAbort:
		if *pending != nil {
			(*pending).Close()
			(*pending).Unlink()
			*pending = nil
		}
		return nil, true
	default:
		reply(func(out []byte) []byte {
			e.errors.Add(1)
			return appendErrorPayload(out, http.StatusBadRequest,
				fmt.Sprintf("unknown shm handshake op %d", frame[4]))
		})
		return nil, true
	}
}

// shmSpin bounds how long a party burns CPU polling an empty ring before
// advertising itself parked and waiting for a doorbell. Each iteration
// yields, so on a loaded box the spin degrades into cooperative scheduling
// rather than a stall.
const shmSpin = 128

// serveSHM serves one connection's ring traffic until the peer disconnects
// or corrupts the segment. One consumer answers every request in ring
// order: with requests decoded zero-copy out of the slab and answered in
// place, the per-batch work is pure inference, which the owning shard's pool
// already parallelizes across rows. The socket read side runs in one helper
// goroutine that collapses every inbound frame into a wake signal.
//
// Each request runs through predictTenant like any other transport's, so the
// shard and model counters, the latency histogram, and the mirror see it
// before its response is published.
func (e *Engine) serveSHM(conn net.Conn, br *bufio.Reader, seg *shmring.Segment) {
	e.shm.conns.Add(1)
	defer e.shm.conns.Add(-1)
	// Teardown order: stop touching the rings (this function returns), then
	// unmap. The socket-reader helper never touches the segment, so it may
	// outlive the unmap until the deferred conn.Close in serveUDSConn
	// releases it.
	defer seg.Close()

	wake := make(chan struct{}, 1)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		var buf []byte
		for {
			var err error
			if buf, err = ReadFrame(br, buf); err != nil {
				return
			}
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}()

	s := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(s)
	for {
		id, payload, ok, err := seg.Req.Peek()
		if err != nil {
			conn.Close()
			return
		}
		if !ok {
			if !shmWaitRequest(seg, wake, closed) {
				return
			}
			continue
		}
		if !e.shmAnswer(seg, id, payload, s, closed) {
			conn.Close()
			return
		}
		seg.Req.Advance()
		if seg.Resp.TakeWaiting() {
			e.shm.wakes.Add(1)
			if err := WriteFrame(conn, DoorbellPayload); err != nil {
				conn.Close()
				return
			}
		}
	}
}

// shmWaitRequest blocks until the request ring is (probably) nonempty,
// spinning briefly before parking behind the waiting flag. False means the
// connection is gone.
func shmWaitRequest(seg *shmring.Segment, wake <-chan struct{}, closed <-chan struct{}) bool {
	for i := 0; i < shmSpin; i++ {
		if seg.Req.Pending() {
			return true
		}
		select {
		case <-closed:
			return false
		default:
		}
		runtime.Gosched()
	}
	seg.Req.SetWaiting()
	if seg.Req.Pending() {
		// A publish raced the flag store; the producer may or may not have
		// seen it. Withdraw and drain any doorbell it sent so the next park
		// does not wake spuriously.
		seg.Req.ClearWaiting()
		select {
		case <-wake:
		default:
		}
		return true
	}
	select {
	case <-wake:
		seg.Req.ClearWaiting()
		return true
	case <-closed:
		seg.Req.ClearWaiting()
		return false
	}
}

// shmAnswer answers one ring request in place: it claims the next response
// slot (spinning while the client drains a full ring), answers into the slab
// bounded to the slot, and publishes the answer under the request's id. False
// means the connection died while the response ring stayed full.
func (e *Engine) shmAnswer(seg *shmring.Segment, id uint32, frame []byte, s *batchScratch, closed <-chan struct{}) bool {
	for i := 0; ; i++ {
		if slot, ok := seg.Resp.Reserve(); ok {
			seg.Resp.Publish(id, len(e.answer(frame, s, slot, cap(slot))))
			return true
		}
		if i%shmSpin == shmSpin-1 {
			select {
			case <-closed:
				return false
			default:
			}
		}
		runtime.Gosched()
	}
}
