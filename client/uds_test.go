package client

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/serve"
)

// testUDSServer serves the same fixture models over a framed unix socket and
// returns the socket path plus the engine behind it.
func testUDSServer(t *testing.T) (string, *serve.Engine) {
	t.Helper()
	_, _, e := testServer(t)
	sock := filepath.Join(t.TempDir(), "metis.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	go e.ServeUDS(l)
	t.Cleanup(func() { l.Close() })
	return sock, e
}

func TestClientUDSPredictMatchesHTTP(t *testing.T) {
	ts, _, _ := testServer(t)
	sock, e := testUDSServer(t)
	_ = ts
	httpClient := New(ts.URL)
	udsClient := New("unix://" + sock)
	ctx := context.Background()

	rows := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {0.3, 0.3}, {0.7, 0.2}}
	// The two transports front different engine instances loaded from
	// different fixture dirs, but the fixture is seeded, so the models are
	// identical; compare against the engine the socket serves.
	want, err := e.Predict("cls", rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := udsClient.PredictBatch(ctx, "cls", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Actions {
		if got.Actions[i] != want.Actions[i] {
			t.Fatalf("row %d: socket client %d, engine %d", i, got.Actions[i], want.Actions[i])
		}
	}
	httpGot, err := httpClient.PredictBatch(ctx, "cls", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Actions {
		if httpGot.Actions[i] != want.Actions[i] {
			t.Fatalf("row %d: HTTP client %d, engine %d", i, httpGot.Actions[i], want.Actions[i])
		}
	}

	// Regression model and single-row predict over the socket.
	vals, err := udsClient.PredictBatch(ctx, "reg", rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals.Values) != len(rows) {
		t.Fatalf("regression returned %d rows, want %d", len(vals.Values), len(rows))
	}
	single, err := udsClient.Predict(ctx, "cls", rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if single.Actions[0] != want.Actions[0] {
		t.Fatalf("single predict = %d, want %d", single.Actions[0], want.Actions[0])
	}
}

func TestClientUDSControlOps(t *testing.T) {
	sock, e := testUDSServer(t)
	c := New("unix://" + sock)
	ctx := context.Background()

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("Models listed %d entries, want 2", len(models))
	}
	detail, err := c.Model(ctx, "cls")
	if err != nil {
		t.Fatal(err)
	}
	if detail.Name != "cls" || detail.Features != 2 {
		t.Fatalf("Model detail = %+v", detail)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dir != e.Dir() {
		t.Fatalf("Stats dir = %q, want %q", stats.Dir, e.Dir())
	}
	names, err := c.Reload(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("Reload listed %d models, want 2", len(names))
	}
	if e.Reloads() != 1 {
		t.Fatalf("engine counted %d reloads, want 1", e.Reloads())
	}

	// Unknown model surfaces as a 404 APIError, same as HTTP.
	if _, err := c.Model(ctx, "nope"); err == nil {
		t.Fatal("expected an error for an unknown model")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Status != 404 {
		t.Fatalf("err = %v, want *APIError with status 404", err)
	}
}

// TestClientUDSConnectionReuse pins the slot layout: sequential predict
// calls ride one multiplexed connection instead of redialing, and control
// ops add exactly one more, the side slot.
func TestClientUDSConnectionReuse(t *testing.T) {
	sock, _ := testUDSServer(t)
	c := New("unix://"+sock, WithConns(1))
	ctx := context.Background()
	live := func() int {
		c.uds.mu.Lock()
		defer c.uds.mu.Unlock()
		n := 0
		for _, fc := range c.uds.mux {
			if fc != nil {
				n++
			}
		}
		return n
	}
	for i := 0; i < 5; i++ {
		if _, err := c.PredictBatch(ctx, "cls", [][]float64{{0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := live(); n != 1 {
		t.Fatalf("%d live connections after 5 sequential predicts, want 1", n)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := live(); n != 2 {
		t.Fatalf("%d live connections after 5 sequential control ops, want 2", n)
	}
}

// TestClientUDSReconnect pins the stale-connection retry: an established
// connection whose server died must be replaced transparently when a new
// server accepts on the same path.
func TestClientUDSReconnect(t *testing.T) {
	_, _, e := testServer(t)
	sock := filepath.Join(t.TempDir(), "metis.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	go e.ServeUDS(l)

	c := New("unix://" + sock)
	ctx := context.Background()
	if _, err := c.PredictBatch(ctx, "cls", [][]float64{{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}

	// Restart the server: the established connection is now dead.
	l.Close()
	l2, err := serve.ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	go e.ServeUDS(l2)

	if _, err := c.PredictBatch(ctx, "cls", [][]float64{{0.5, 0.5}}); err != nil {
		t.Fatalf("client did not recover from a server restart: %v", err)
	}
}

// TestClientUDSConcurrent exercises the multiplexer under parallel callers
// with the race detector in mind.
func TestClientUDSConcurrent(t *testing.T) {
	sock, _ := testUDSServer(t)
	c := New("unix://" + sock)
	ctx := context.Background()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := c.PredictBatch(ctx, "cls", [][]float64{{0.1, 0.9}, {0.9, 0.1}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
