package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// udsTransport is the framed unix-domain-socket backend of the SDK: the same
// binary batch payloads the HTTP codec carries, minus HTTP. Every call rides
// a pipelined connection (mux.go). Predict calls round-robin over conns
// predict slots; control ops, and predict payloads too large for a
// shared-memory ring slot, ride one more slot — the side slot at index conns,
// a plain pipelined connection that never negotiates shared memory. Slots
// are dialed on first use and open with the MTH2 hello; a server that
// refuses it fails the call.
type udsTransport struct {
	path string
	// conns is the number of predict slots (WithConns).
	conns int

	// shm asks new predict connections to negotiate a shared-memory ring
	// segment (WithSharedMemory); noSHM latches once the server declines or
	// a segment cannot be mapped, so later connections skip the attempt.
	shm   bool
	noSHM atomic.Bool

	mu sync.Mutex
	// mux holds the conns predict slots followed by the side slot.
	mux []framedConn
	// next round-robins predict calls over the predict slots.
	next atomic.Uint32

	// reqPool recycles request-payload build buffers across calls and
	// goroutines; respPool recycles the response copies the mux reader hands
	// to waiting calls.
	reqPool  sync.Pool
	respPool sync.Pool
}

func newUDSTransport(path string) *udsTransport {
	t := &udsTransport{
		path:  path,
		conns: defaultMuxConns,
	}
	t.reqPool.New = func() any { return new(bytes.Buffer) }
	t.respPool.New = func() any { b := make([]byte, 0, 4096); return &b }
	return t
}

// udsCall sends one payload over the multiplexer — on the side slot when
// side is set — with the shared response handling: 503 retried with doubling
// backoff (mirroring the HTTP path's admission-control behavior), other
// "MTE1" error frames surfaced as *APIError, and any other response handed to
// handle, payload magic included, before its buffer is recycled.
func (c *Client) udsCall(ctx context.Context, payload []byte, side bool, handle func(resp []byte) error) error {
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		buf, err := c.uds.muxCall(ctx, payload, side)
		if err != nil {
			return err
		}
		resp := *buf
		if serve.FrameKind(resp) != "MTE1" {
			err := handle(resp)
			c.uds.respPool.Put(buf)
			return err
		}
		status, msg, perr := serve.DecodeErrorPayload(resp)
		c.uds.respPool.Put(buf)
		if perr != nil {
			return fmt.Errorf("client: %w", perr)
		}
		if status == http.StatusServiceUnavailable && attempt < c.retries {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
			continue
		}
		return &APIError{Status: status, Msg: msg}
	}
}

// udsControl runs one "MTQ1" control op on the side slot and decodes the
// JSON response into out.
func (c *Client) udsControl(ctx context.Context, op, name, dir string, out any) error {
	payload, err := serve.ControlRequest(op, name, dir)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return c.udsCall(ctx, payload, true, func(resp []byte) error {
		if serve.FrameKind(resp) != "MTJ1" {
			return fmt.Errorf("client: control op %q answered with frame kind %q", op, serve.FrameKind(resp))
		}
		if err := json.Unmarshal(serve.FrameBody(resp), out); err != nil {
			return fmt.Errorf("client: decode %s response: %w", op, err)
		}
		return nil
	})
}

// udsPredictBatch runs a batch through the socket's predict frames. The
// request payload is built in a pooled buffer; the response payload is the
// standard binary batch response.
func (c *Client) udsPredictBatch(ctx context.Context, model string, rows [][]float64) (*Prediction, error) {
	buf := c.uds.reqPool.Get().(*bytes.Buffer)
	defer c.uds.reqPool.Put(buf)
	buf.Reset()
	if err := serve.EncodeBatchRequest(buf, model, rows); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var p *Prediction
	err := c.udsCall(ctx, buf.Bytes(), false, func(resp []byte) error {
		if serve.FrameKind(resp) != "MTB1" {
			return fmt.Errorf("client: predict answered with frame kind %q", serve.FrameKind(resp))
		}
		sp, err := serve.DecodeBatchResponse(bytes.NewReader(resp))
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		p = &Prediction{Actions: sp.Actions, Values: sp.Values}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
