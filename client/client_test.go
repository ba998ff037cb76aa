package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/metis/dtree"
	"repro/internal/serve"
)

// testServer serves one classification and one regression model through a
// real engine handler.
func testServer(t *testing.T) (*httptest.Server, *dtree.Tree, *serve.Engine) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	cd := &dtree.Dataset{}
	rd := &dtree.Dataset{}
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := 0
		if x[0] > x[1] {
			y = 1
		}
		cd.X = append(cd.X, x)
		cd.Y = append(cd.Y, y)
		rd.X = append(rd.X, append([]float64(nil), x...))
		rd.YReg = append(rd.YReg, []float64{3 * x[0]})
	}
	cls, err := dtree.Build(cd, dtree.BuildOptions{MaxLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := dtree.Build(rd, dtree.BuildOptions{MaxLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.SaveModel(filepath.Join(dir, "cls.metis"), cls, map[string]string{"name": "cls"}); err != nil {
		t.Fatal(err)
	}
	if err := artifact.SaveModel(filepath.Join(dir, "reg.metis"), reg, map[string]string{"name": "reg"}); err != nil {
		t.Fatal(err)
	}
	e, err := serve.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	t.Cleanup(ts.Close)
	return ts, cls, e
}

func TestClientModelsAndDetail(t *testing.T) {
	ts, _, _ := testServer(t)
	c := New(ts.URL + "/") // trailing slash must not produce // paths

	models, err := c.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Name != "cls" || models[1].Name != "reg" {
		t.Fatalf("models = %+v", models)
	}
	if models[0].Regression || !models[1].Regression {
		t.Fatalf("regression flags wrong: %+v", models)
	}

	detail, err := c.Model(context.Background(), "cls")
	if err != nil {
		t.Fatal(err)
	}
	if detail.Name != "cls" || detail.Features != 2 {
		t.Fatalf("detail = %+v", detail)
	}

	if _, err := c.Model(context.Background(), "nope"); err == nil {
		t.Fatal("expected 404 error")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Status != 404 {
		t.Fatalf("unknown model err = %v", err)
	}
}

func TestClientPredict(t *testing.T) {
	ts, cls, _ := testServer(t)
	c := New(ts.URL)
	ctx := context.Background()

	p, err := c.Predict(ctx, "cls", []float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Actions) != 1 || p.Actions[0] != cls.Predict([]float64{0.9, 0.1}) {
		t.Fatalf("single = %+v", p)
	}

	p, err = c.Predict(ctx, "reg", []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Values) != 1 || len(p.Values[0]) != 1 {
		t.Fatalf("reg single = %+v", p)
	}
}

// TestClientPredictBatchBinaryMatchesJSON: the default binary codec and the
// forced-JSON codec return identical predictions.
func TestClientPredictBatchBinaryMatchesJSON(t *testing.T) {
	ts, cls, _ := testServer(t)
	ctx := context.Background()
	rows := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {0.4, 0.6}}

	bin := New(ts.URL)
	pb, err := bin.PredictBatch(ctx, "cls", rows)
	if err != nil {
		t.Fatal(err)
	}
	js := New(ts.URL, WithJSON())
	pj, err := js.PredictBatch(ctx, "cls", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		want := cls.Predict(row)
		if pb.Actions[i] != want || pj.Actions[i] != want {
			t.Fatalf("row %d: binary %d, json %d, want %d", i, pb.Actions[i], pj.Actions[i], want)
		}
	}

	// Regression over binary.
	pv, err := bin.PredictBatch(ctx, "reg", rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(pv.Values) != len(rows) {
		t.Fatalf("reg batch = %+v", pv)
	}

	// All three batches (binary cls, JSON cls, binary reg) went through the
	// engine.
	st, err := bin.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Models["cls"].Predictions != 2*int64(len(rows)) || st.Models["reg"].Predictions != int64(len(rows)) {
		t.Fatalf("stats after batches = %+v", st.Models)
	}
}

// TestClientBinaryFallbackTo415Server: a server rejecting the binary codec
// flips the client to JSON permanently and the call still succeeds.
func TestClientBinaryFallbackTo415Server(t *testing.T) {
	ts, cls, _ := testServer(t)
	// A proxy that 415s binary bodies but forwards JSON.
	var binaryHits atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == serve.ContentTypeBinary {
			binaryHits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnsupportedMediaType)
			w.Write([]byte(`{"error":"binary not supported here"}`))
			return
		}
		resp, err := http.Post(ts.URL+r.URL.String(), r.Header.Get("Content-Type"), r.Body)
		if err != nil {
			http.Error(w, err.Error(), 502)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		if _, err := w.Write([]byte{}); err != nil {
			return
		}
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}))
	defer proxy.Close()

	c := New(proxy.URL)
	rows := [][]float64{{0.9, 0.1}, {0.1, 0.9}}
	p, err := c.PredictBatch(context.Background(), "cls", rows)
	if err != nil {
		t.Fatal(err)
	}
	if p.Actions[0] != cls.Predict(rows[0]) {
		t.Fatalf("fallback prediction = %+v", p)
	}
	// Second call goes straight to JSON — no second binary attempt.
	if _, err := c.PredictBatch(context.Background(), "cls", rows); err != nil {
		t.Fatal(err)
	}
	if got := binaryHits.Load(); got != 1 {
		t.Fatalf("binary attempts = %d, want 1 (client should remember)", got)
	}
}

// TestClientRetryOn503: the client retries 503 with backoff and succeeds
// once capacity frees up; a persistent 503 surfaces as APIError after the
// retry budget.
func TestClientRetryOn503(t *testing.T) {
	ts, cls, _ := testServer(t)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"serve: server at capacity, retry later"}`))
			return
		}
		// Forward to the real server.
		resp, err := http.Post(ts.URL+r.URL.String(), r.Header.Get("Content-Type"), r.Body)
		if err != nil {
			http.Error(w, err.Error(), 502)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}))
	defer flaky.Close()

	c := New(flaky.URL, WithBackoff(time.Millisecond))
	p, err := c.PredictBatch(context.Background(), "cls", [][]float64{{0.9, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Actions[0] != cls.Predict([]float64{0.9, 0.1}) {
		t.Fatalf("retried prediction = %+v", p)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 × 503 + success)", calls.Load())
	}

	// Retries exhausted → APIError{503}.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer always.Close()
	c2 := New(always.URL, WithBackoff(time.Millisecond), WithRetries(1))
	_, err = c2.Models(context.Background())
	if apiErr, ok := err.(*APIError); !ok || apiErr.Status != 503 {
		t.Fatalf("exhausted retries err = %v", err)
	}
}

// TestClientReload drives the admin reload endpoint end to end.
func TestClientReload(t *testing.T) {
	ts, _, e := testServer(t)
	c := New(ts.URL)
	names, err := c.Reload(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || e.Reloads() != 1 {
		t.Fatalf("reload names=%v reloads=%d", names, e.Reloads())
	}
	if _, err := c.Reload(context.Background(), "/nonexistent-zz"); err == nil {
		t.Fatal("expected reload error for bad dir")
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Reloads != 1 || len(st.Models) != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClientStatsRuntime: both transports' stats carry the daemon's
// cumulative allocation and GC counters, which never decrease across
// predicts, and the latency and shared-memory blocks of the same document.
func TestClientStatsRuntime(t *testing.T) {
	sock, e := testSHMServer(t, serve.Config{})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	ctx := context.Background()
	// The socket client's ring stays open after its first predict, so both
	// transports report a live ring connection and a recorded latency.
	ring := New("unix://"+sock, WithSharedMemory())
	if _, err := ring.PredictBatch(ctx, "cls", [][]float64{{0.9, 0.1}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{ring, New(ts.URL)} {
		// The engine runs in this process; one forced cycle makes the GC
		// count non-zero however little the test has allocated so far.
		runtime.GC()
		var prev RuntimeStats
		for i := 0; i < 3; i++ {
			st, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rt := st.Runtime
			if rt.HeapAllocBytes == 0 || rt.HeapAllocObjects == 0 || rt.GCCycles == 0 {
				t.Fatalf("runtime block has a zero counter: %+v", rt)
			}
			if rt.HeapAllocBytes < prev.HeapAllocBytes || rt.HeapAllocObjects < prev.HeapAllocObjects || rt.GCCycles < prev.GCCycles {
				t.Fatalf("runtime counters decreased: %+v after %+v", rt, prev)
			}
			prev = rt
			if st.Latency.Count == 0 || st.SHM.Conns == 0 {
				t.Fatalf("stats after a ring predict: latency %+v, shm %+v", st.Latency, st.SHM)
			}
			if _, err := c.PredictBatch(ctx, "cls", [][]float64{{0.9, 0.1}, {0.1, 0.9}}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRetryAfterSurfacedOnAPIError: a non-retried 503's fractional
// Retry-After lands on the returned APIError.
func TestRetryAfterSurfacedOnAPIError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0.250")
		http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := New(srv.URL, WithJSON(), WithRetries(0))
	_, err := c.PredictBatch(context.Background(), "m", [][]float64{{1}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.RetryAfter != 250*time.Millisecond {
		t.Fatalf("APIError %+v, want 503 with RetryAfter 250ms", apiErr)
	}
}

// TestRetryHonorsFractionalRetryAfter: a single-endpoint client waits the
// server's fractional hint (not the default backoff) before the retry that
// succeeds.
func TestRetryHonorsFractionalRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.100")
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"actions":[1]}`))
	}))
	defer srv.Close()
	// Default backoff would be 5s here; the 100ms hint must win.
	c := New(srv.URL, WithJSON(), WithBackoff(5*time.Second))
	start := time.Now()
	if _, err := c.PredictBatch(context.Background(), "m", [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 90*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("retry waited %v, want ~100ms (the server's hint, not the 5s backoff)", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}
