package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// errFrame hand-builds an "MTE1" payload, the way a real server renders one.
func errFrame(status int, msg string) []byte {
	out := []byte("MTE1")
	out = binary.LittleEndian.AppendUint16(out, uint16(status))
	return append(out, msg...)
}

// refusingServer hand-rolls a server that does not speak pipelined framing:
// it answers every short frame — the hello included — with an error frame,
// the way a daemon that predates the hello does. When silent is set it
// answers nothing at all.
func refusingServer(t *testing.T, silent bool) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "refusing.sock")
	l, err := serve.ListenUDS(sock)
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
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := serve.ReadFrame(br, nil); err != nil {
						return
					}
					if silent {
						continue
					}
					// The message does not echo the magic, so the client's
					// error must name the hello itself.
					if err := serve.WriteFrame(conn, errFrame(400, "unsupported frame")); err != nil {
						return
					}
				}
			}()
		}
	}()
	return sock
}

// TestClientMuxConcurrentDistinct fans goroutines with DISTINCT inputs over
// the multiplexer: under -race this exercises the pending-map and token
// paths, and the distinct expected outputs catch any response matched to the
// wrong call.
func TestClientMuxConcurrentDistinct(t *testing.T) {
	sock, e := testUDSServer(t)
	c := New("unix://" + sock)
	ctx := context.Background()

	const goroutines, calls = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				rows := [][]float64{
					{float64(g) / goroutines, float64(i) / calls},
					{float64(i) / calls, float64(g) / goroutines},
				}
				want, err := e.Predict("cls", rows)
				if err != nil {
					errs <- err
					return
				}
				got, err := c.PredictBatch(ctx, "cls", rows)
				if err != nil {
					errs <- err
					return
				}
				for r := range want.Actions {
					if got.Actions[r] != want.Actions[r] {
						errs <- fmt.Errorf("goroutine %d call %d row %d: got %d, want %d (response cross-matched?)",
							g, i, r, got.Actions[r], want.Actions[r])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClientHelloRefused pins the one upgrade point from the client's side:
// against a server that refuses the hello, or never answers it, predicts and
// control ops fail within their context with an error naming the hello —
// there is no fallback — and no connection is kept.
func TestClientHelloRefused(t *testing.T) {
	for _, silent := range []bool{false, true} {
		c := New("unix://" + refusingServer(t, silent))
		calls := map[string]func(context.Context) error{
			"predict": func(ctx context.Context) error {
				_, err := c.PredictBatch(ctx, "cls", [][]float64{{0.9, 0.1}})
				return err
			},
			"stats": func(ctx context.Context) error {
				_, err := c.Stats(ctx)
				return err
			},
		}
		for name, call := range calls {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			start := time.Now()
			err := call(ctx)
			cancel()
			if err == nil || !strings.Contains(err.Error(), serve.HelloMagic) {
				t.Fatalf("silent=%v %s: err = %v, want an error naming %s", silent, name, err, serve.HelloMagic)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("silent=%v %s: failed after %v, past its 100ms context", silent, name, d)
			}
		}
		c.uds.mu.Lock()
		for i, fc := range c.uds.mux {
			if fc != nil {
				t.Errorf("silent=%v: slot %d kept a connection", silent, i)
			}
		}
		c.uds.mu.Unlock()
	}
}

// TestClientMux503Retry pins admission-control behavior over the
// multiplexer: a 503 error frame is retried with backoff, any other status
// surfaces as *APIError.
func TestClientMux503Retry(t *testing.T) {
	_, _, e := testServer(t)
	sock := filepath.Join(t.TempDir(), "flaky.sock")
	l, err := serve.ListenUDS(sock)
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
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if hello, err := serve.ReadFrame(br, nil); err != nil || string(hello) != serve.HelloMagic {
					return
				}
				if err := serve.WriteFrame(conn, []byte(serve.HelloMagic)); err != nil {
					return
				}
				first := true
				var buf []byte
				for {
					id, frame, err := serve.ReadFrameID(br, buf)
					if err != nil {
						return
					}
					buf = frame
					var out []byte
					if first {
						// Push back once, like admission control under load.
						first = false
						out = errFrame(503, "busy")
					} else {
						model, rows, derr := serve.DecodeBatchRequest(bytes.NewReader(frame), 4096)
						if derr != nil {
							out = errFrame(400, derr.Error())
						} else if p, perr := e.Predict(model, rows); perr != nil {
							out = errFrame(404, perr.Error())
						} else {
							var resp bytes.Buffer
							if eerr := serve.EncodeBatchResponse(&resp, p); eerr != nil {
								out = errFrame(500, eerr.Error())
							} else {
								out = resp.Bytes()
							}
						}
					}
					if err := serve.WriteFrameID(conn, id, out); err != nil {
						return
					}
				}
			}()
		}
	}()

	c := New("unix://"+sock, WithConns(1), WithBackoff(time.Millisecond))
	got, err := c.PredictBatch(context.Background(), "cls", [][]float64{{0.9, 0.1}})
	if err != nil {
		t.Fatalf("503 was not retried over the mux: %v", err)
	}
	if len(got.Actions) != 1 {
		t.Fatalf("retried predict returned %+v", got)
	}

	// A 404 must NOT be retried: it surfaces as a typed APIError.
	_, err = c.PredictBatch(context.Background(), "missing", [][]float64{{1, 2}})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != 404 {
		t.Fatalf("err = %v, want *APIError with status 404", err)
	}
}
