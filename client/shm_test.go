package client

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/serve"
)

// testSHMServer serves the standard fixture models over a shared-memory-
// enabled socket with the given engine config (segments under a per-test
// dir).
func testSHMServer(t *testing.T, cfg serve.Config) (string, *serve.Engine) {
	t.Helper()
	_, _, e0 := testServer(t)
	if cfg.SHMDir == "" {
		cfg.SHMDir = t.TempDir()
	}
	e, err := serve.NewEngine(e0.Dir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "metis-shm.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	go e.ServeSHM(l)
	t.Cleanup(func() { l.Close() })
	return sock, e
}

func TestClientSharedMemoryPredict(t *testing.T) {
	sock, e := testSHMServer(t, serve.Config{})
	c := New("unix://"+sock, WithSharedMemory())
	ctx := context.Background()

	rows := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {0.3, 0.3}, {0.7, 0.2}}
	for _, model := range []string{"cls", "reg"} {
		want, err := e.Predict(model, rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.PredictBatch(ctx, model, rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if want.Actions != nil && got.Actions[i] != want.Actions[i] {
				t.Fatalf("%s row %d: shm client %d, engine %d", model, i, got.Actions[i], want.Actions[i])
			}
			if want.Values != nil && got.Values[i][0] != want.Values[i][0] {
				t.Fatalf("%s row %d: shm client %v, engine %v", model, i, got.Values[i], want.Values[i])
			}
		}
	}
	if e.SHMConns() == 0 {
		t.Fatal("no shared-memory connection established — the client silently fell back")
	}

	// Control ops keep working alongside ring traffic: they ride the side
	// slot, which never negotiates a segment of its own.
	conns := e.SHMConns()
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("models = %+v", models)
	}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if got := e.SHMConns(); got != conns {
		t.Fatalf("SHMConns went %d → %d over control ops", conns, got)
	}

	// Typed errors survive the ring: unknown model is a 404 *APIError.
	var apiErr *APIError
	if _, err := c.PredictBatch(ctx, "nope", rows); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown model over shm: %v", err)
	}
}

// TestClientSharedMemoryConcurrent hammers one shm transport from many
// goroutines — the -race coverage for the producer lock, the collector, and
// the pending map, with responses matched back across interleaved rings.
func TestClientSharedMemoryConcurrent(t *testing.T) {
	sock, e := testSHMServer(t, serve.Config{})
	c := New("unix://"+sock, WithSharedMemory())
	ctx := context.Background()

	want, err := e.Predict("cls", [][]float64{{0.2, 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, calls = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				got, err := c.PredictBatch(ctx, "cls", [][]float64{{0.2, 0.8}})
				if err != nil {
					errs <- err
					return
				}
				if got.Actions[0] != want.Actions[0] {
					errs <- errors.New("prediction mismatch under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestClientSharedMemoryFallback pins the negotiation matrix from the
// client's side: a shm-requesting client against a v2-only server falls back
// transparently and latches, so later connections skip the attempt.
func TestClientSharedMemoryFallback(t *testing.T) {
	sock, e := testUDSServer(t)
	c := New("unix://"+sock, WithSharedMemory())
	ctx := context.Background()

	rows := [][]float64{{0.6, 0.4}}
	want, err := e.Predict("cls", rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.PredictBatch(ctx, "cls", rows)
	if err != nil {
		t.Fatal(err)
	}
	if got.Actions[0] != want.Actions[0] {
		t.Fatalf("fallback predict %d, want %d", got.Actions[0], want.Actions[0])
	}
	if !c.uds.noSHM.Load() {
		t.Fatal("noSHM not latched after a declined negotiation")
	}
	// And the latched transport keeps serving.
	if _, err := c.PredictBatch(ctx, "cls", rows); err != nil {
		t.Fatal(err)
	}
}

// TestClientSharedMemoryOversizedPayload forces a tiny server-side slot: big
// batches reroute per call onto the side slot (no error surfaces), small
// batches keep riding the rings.
func TestClientSharedMemoryOversizedPayload(t *testing.T) {
	sock, e := testSHMServer(t, serve.Config{SHMSlotSize: 1024})
	c := New("unix://"+sock, WithSharedMemory())
	ctx := context.Background()

	// 100 rows × 2 features × 8 bytes ≈ 1.6 KiB of payload: over the slot.
	big := make([][]float64, 100)
	for i := range big {
		big[i] = []float64{float64(i) / 100, 0.5}
	}
	want, err := e.Predict("cls", big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.PredictBatch(ctx, "cls", big)
	if err != nil {
		t.Fatal(err)
	}
	for i := range big {
		if got.Actions[i] != want.Actions[i] {
			t.Fatalf("row %d: oversized-batch reroute %d, want %d", i, got.Actions[i], want.Actions[i])
		}
	}
	c.uds.mu.Lock()
	side := c.uds.mux[c.uds.conns]
	c.uds.mu.Unlock()
	if _, ok := side.(*muxConn); !ok {
		t.Fatalf("side slot holds %T after an oversized payload, want a plain *muxConn", side)
	}
	// Small batches still use the rings (the conn was not dropped and the
	// transport did not latch noSHM).
	if c.uds.noSHM.Load() {
		t.Fatal("one oversized payload latched noSHM")
	}
	if _, err := c.PredictBatch(ctx, "cls", big[:2]); err != nil {
		t.Fatal(err)
	}
	if e.SHMConns() == 0 {
		t.Fatal("shared-memory connection gone after an oversized payload")
	}
}
