package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shmring"
)

// countingMirror is a Mirror that only counts its observations.
type countingMirror struct{ observes atomic.Int64 }

func (m *countingMirror) Observe(string, [][]float64, []int) { m.observes.Add(1) }
func (m *countingMirror) Snapshot() MirrorSnapshot           { return MirrorSnapshot{} }

// modelDetail is the model document the suite decodes.
type modelDetail = ModelDetail

// confCounters is the engine accounting the conformance suite compares.
type confCounters struct{ requests, predictions, latency, errors, rejected, observes int64 }

func (c confCounters) minus(d confCounters) confCounters {
	return confCounters{c.requests - d.requests, c.predictions - d.predictions, c.latency - d.latency,
		c.errors - d.errors, c.rejected - d.rejected, c.observes - d.observes}
}

// confCount reads e's counters and mirror's observations.
func confCount(e *Engine, mirror *countingMirror) confCounters {
	c := confCounters{requests: e.requestsTotal(), latency: int64(e.Latency().Count()),
		errors: e.errors.Load(), rejected: e.rejected.Load(), observes: mirror.observes.Load()}
	for _, m := range e.Models() {
		c.predictions += m.predictions.Load()
	}
	return c
}

// confAnswer is one transport's answer to one request: the HTTP-equivalent
// status, the error message on failure, the prediction on success, and how
// the engine's counters moved meanwhile.
type confAnswer struct {
	status int
	msg    string
	pred   *Prediction
	delta  confCounters
}

// confTransport sends one predict request over one transport.
type confTransport struct {
	name string
	call func(t *testing.T, model string, rows [][]float64) (status int, msg string, p *Prediction)
}

// wireAnswer splits a binary response or "MTE1" error payload.
func wireAnswer(t *testing.T, payload []byte) (int, string, *Prediction) {
	t.Helper()
	if FrameKind(payload) == errMagic {
		status, msg, err := DecodeErrorPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		return status, msg, nil
	}
	p, err := DecodeBatchResponse(bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("answer kind %q: %v", FrameKind(payload), err)
	}
	return http.StatusOK, "", p
}

// confTransports serves e over HTTP and its framed socket (with the
// shared-memory upgrade) and returns a caller for every transport: the
// in-process API, HTTP binary, the pipelined socket, and the rings.
func confTransports(t *testing.T, e *Engine) []confTransport {
	ts := httptest.NewServer(e.Handler())
	t.Cleanup(ts.Close)
	sock := serveSocket(t, e, true)
	udsConn, udsBR := dialSocket(t, sock)
	sendHello(t, udsConn, udsBR)
	shmConn, shmBR := dialSocket(t, sock)
	sendHello(t, shmConn, shmBR)
	seg := shmOpen(t, shmConn, shmBR, shmring.Geometry{})
	var shmID atomic.Uint32
	shmID.Store(100)

	encode := func(t *testing.T, model string, rows [][]float64) []byte {
		var buf bytes.Buffer
		if err := EncodeBatchRequest(&buf, model, rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return []confTransport{
		{"in-process", func(t *testing.T, model string, rows [][]float64) (int, string, *Prediction) {
			var p Prediction
			if err := e.PredictInto(model, rows, &p); err != nil {
				return errorStatus(err), err.Error(), nil
			}
			return http.StatusOK, "", &p
		}},
		{"http-binary", func(t *testing.T, model string, rows [][]float64) (int, string, *Prediction) {
			resp, err := http.Post(ts.URL+"/v2/models/"+model+":predict", ContentTypeBinary,
				bytes.NewReader(encode(t, model, rows)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				var doc map[string]string
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, doc["error"], nil
			}
			p, err := DecodeBatchResponse(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			return http.StatusOK, "", p
		}},
		{"uds-pipelined", func(t *testing.T, model string, rows [][]float64) (int, string, *Prediction) {
			return wireAnswer(t, call(t, udsConn, udsBR, encode(t, model, rows)))
		}},
		{"shm", func(t *testing.T, model string, rows [][]float64) (int, string, *Prediction) {
			id := shmID.Add(1)
			rid, payload := shmCall(t, shmConn, seg, id, encode(t, model, rows))
			if rid != id {
				t.Fatalf("ring answered id %d, want %d", rid, id)
			}
			return wireAnswer(t, payload)
		}},
	}
}

// TestTransportConformance sends the same requests over every transport —
// in-process, HTTP binary, the pipelined socket and the shared-memory rings —
// at one and four shards, with and without weighted tenants, and with and
// without a mirror installed. Rows holding NaN and ±Inf are valid input: they
// walk the tree like any other value. Every transport must give the same
// answer or the same status and message, and move the requests, predictions,
// latency, rejected and mirror counters by the same amounts; the errors
// counter moves once per failed wire request (the in-process API leaves error
// accounting to its caller). With the only admission token held (and, with
// tenants, the model's queue full), an unknown model is still a 404
// everywhere and a valid batch a 503. A ring response larger than its slot is
// a 413 that predicts nothing.
func TestTransportConformance(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	three := [][]float64{{0.9, 0.1}, {0.2, 0.7}, {0.5, 0.5}}
	nan, inf := math.NaN(), math.Inf(1)
	nonFinite := [][]float64{{nan, nan}, {inf, -inf}, {-inf, nan}, {0.5, inf}}
	cases := []struct {
		name, model string
		rows        [][]float64
		status      int
	}{
		{"classifier", "abr", three, http.StatusOK},
		{"regressor", "thresholds", three, http.StatusOK},
		{"classifier, NaN and ±Inf rows", "abr", nonFinite, http.StatusOK},
		{"regressor, NaN and ±Inf rows", "thresholds", nonFinite, http.StatusOK},
		{"unknown model", "nope", three, http.StatusNotFound},
		{"dimension mismatch", "abr", [][]float64{{1, 2, 3}, {4, 5, 6}}, http.StatusBadRequest},
		{"empty batch", "abr", nil, http.StatusBadRequest},
		{"over the row cap", "abr", [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}}, http.StatusRequestEntityTooLarge},
	}
	gold := map[string]float64{"gold": 3}
	for _, base := range []Config{{Shards: 1}, {Shards: 4}, {Shards: 1, Tenants: gold}, {Shards: 4, Tenants: gold}} {
		for _, mirrored := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/mirror=%v", base.Shards, mirrored)
			if base.Tenants != nil {
				name = "tenants/" + name
			}
			t.Run(name, func(t *testing.T) {
				cfg := base
				cfg.MaxBatch, cfg.MaxInflight, cfg.SHMDir = 4, 1, t.TempDir()
				e, err := NewEngine(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mirror := &countingMirror{}
				if mirrored {
					e.SetMirror(mirror)
				}
				transports := confTransports(t, e)
				ask := func(t *testing.T, tr confTransport, model string, rows [][]float64) confAnswer {
					before := confCount(e, mirror)
					status, msg, p := tr.call(t, model, rows)
					return confAnswer{status: status, msg: msg, pred: p, delta: confCount(e, mirror).minus(before)}
				}
				check := func(t *testing.T, model string, rows [][]float64, wantStatus int) {
					t.Helper()
					ref := ask(t, transports[0], model, rows)
					if ref.status != wantStatus {
						t.Fatalf("in-process: status %d (%s), want %d", ref.status, ref.msg, wantStatus)
					}
					if ref.delta.errors != 0 {
						t.Fatalf("in-process: errors moved by %d", ref.delta.errors)
					}
					for _, tr := range transports[1:] {
						got := ask(t, tr, model, rows)
						if got.status != ref.status || got.msg != ref.msg {
							t.Fatalf("%s: status %d %q, in-process %d %q", tr.name, got.status, got.msg, ref.status, ref.msg)
						}
						if !samePrediction(got.pred, ref.pred) {
							t.Fatalf("%s: answer %+v, in-process %+v", tr.name, got.pred, ref.pred)
						}
						want := ref.delta
						if ref.status != http.StatusOK {
							want.errors = 1
						}
						if got.delta != want {
							t.Fatalf("%s: counters moved by %+v, want %+v", tr.name, got.delta, want)
						}
					}
				}
				for _, c := range cases {
					t.Run(c.name, func(t *testing.T) { check(t, c.model, c.rows, c.status) })
				}
				t.Run("admission token held", func(t *testing.T) {
					defer holdGate(t, e, "abr")()
					check(t, "nope", three, http.StatusNotFound)
					check(t, "abr", three, http.StatusServiceUnavailable)
				})
				t.Run("ring response larger than its slot", func(t *testing.T) {
					// Ring slots are the one fixed-size response buffer. 64
					// regression rows need a 13+64·8 = 525-byte response, which
					// a 256-byte slot cannot hold: the batch is refused before
					// admission, counted like any validation failure, and
					// predicts, times and mirrors nothing. The engine lifts the
					// 4-row cap so that the slot, not the cap, refuses it.
					big, err := NewEngine(dir, Config{Shards: cfg.Shards})
					if err != nil {
						t.Fatal(err)
					}
					bigMirror := &countingMirror{}
					if mirrored {
						big.SetMirror(bigMirror)
					}
					rows := make([][]float64, 64)
					for i := range rows {
						rows[i] = []float64{0.1, 0.2}
					}
					var req bytes.Buffer
					if err := EncodeBatchRequest(&req, "thresholds", rows); err != nil {
						t.Fatal(err)
					}
					var s batchScratch
					before := confCount(big, bigMirror)
					status, msg, _ := wireAnswer(t, big.answer(alignedCopy(req.Bytes()), &s, make([]byte, 0, 256), 256))
					if status != http.StatusRequestEntityTooLarge {
						t.Fatalf("status %d (%s), want 413", status, msg)
					}
					if got, want := confCount(big, bigMirror).minus(before), (confCounters{requests: 1, errors: 1}); got != want {
						t.Fatalf("counters moved by %+v, want %+v", got, want)
					}
				})
			})
		}
	}
}

// holdGate takes the engine's only admission token and, on a tenant engine,
// fills model's queue with blocked waiters, so that the next valid call for
// model is rejected at once. The returned func lets them all go.
func holdGate(t *testing.T, e *Engine, model string) func() {
	t.Helper()
	if err := e.gate.acquire("held"); err != nil {
		t.Fatal(err)
	}
	waiters := e.gate.maxQueue
	done := make(chan error, waiters)
	for range waiters {
		go func() {
			err := e.gate.acquire(model)
			if err == nil {
				e.gate.release(0)
			}
			done <- err
		}()
	}
	waitForQueued(t, e.gate, waiters)
	return func() {
		e.gate.release(0)
		for range waiters {
			if err := <-done; err != nil {
				t.Errorf("queued waiter: %v", err)
			}
		}
	}
}

// samePrediction reports whether two predictions (nil for a failed call)
// carry the same actions and bit-identical values.
func samePrediction(a, b *Prediction) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !slices.Equal(a.Actions, b.Actions) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if !slices.EqualFunc(a.Values[i], b.Values[i], func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			return false
		}
	}
	return true
}

// TestPredictPathAllocs pins the steady-state allocations of the ring and
// pipelined-socket predict paths at one per request: the model-name string
// the decoder returns. Rows, outputs and the response all reuse scratch, and
// admission allocates nothing — checked behind a MaxInflight gate and behind
// two weighted tenants.
func TestPredictPathAllocs(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = []float64{float64(i) / 8, 1 - float64(i)/8}
	}
	for _, cfg := range []Config{
		{MaxInflight: 4},
		{MaxInflight: 2, Tenants: map[string]float64{"abr": 3, "thresholds": 1}},
	} {
		e, err := NewEngine(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"abr", "thresholds"} {
			name := fmt.Sprintf("tenants=%v/%s", cfg.Tenants != nil, model)
			gate := func() {
				if err := e.gate.acquire(model); err != nil {
					t.Fatal(err)
				}
				e.gate.release(time.Microsecond)
			}
			gate()
			if allocs := testing.AllocsPerRun(200, gate); allocs != 0 {
				t.Errorf("%s: a gated acquire+release made %.1f allocations, want 0", name, allocs)
			}
			frame := validRequest(t, model, rows)
			var s batchScratch
			slot := make([]byte, 0, 4<<10)
			ringReq := alignedCopy(frame)
			ring := func() {
				if out := e.answer(ringReq, &s, slot, cap(slot)); FrameKind(out) != batchMagic {
					t.Fatalf("%s: ring answered %q", name, out)
				}
			}
			ring()
			if allocs := testing.AllocsPerRun(200, ring); allocs > 1 {
				t.Errorf("%s: the ring answer made %.1f allocations per request, want at most 1", name, allocs)
			}
			out := make([]byte, 0, 4<<10)
			socket := func() {
				// The pipelined reader decodes out of a bufio peek (aliasOK=false)
				// and a dispatch worker answers.
				model, rows, derr := s.decodeRequestBytes(frame, e.maxBatch(), false)
				if out = e.udsPredictDecoded(model, rows, derr, &s.pred, out[:0], 0); FrameKind(out) != batchMagic {
					t.Fatalf("%s: socket answered %q", name, out)
				}
			}
			socket()
			if allocs := testing.AllocsPerRun(200, socket); allocs > 1 {
				t.Errorf("%s: the pipelined worker path made %.1f allocations per request, want at most 1", name, allocs)
			}
		}
	}
}

// fidelityMirror is a Mirror reporting fixed per-model fidelities.
type fidelityMirror map[string]float64

func (m fidelityMirror) Observe(string, [][]float64, []int) {}
func (m fidelityMirror) Snapshot() MirrorSnapshot {
	snap := MirrorSnapshot{Models: map[string]MirrorModelSnapshot{}}
	for name, f := range m {
		snap.Models[name] = MirrorModelSnapshot{Fidelity: f}
	}
	return snap
}

// TestControlDocumentsConform: the models, model and reload documents are
// identical over HTTP, the pipelined socket and a ring, and the stats
// document has the same keys on all three. The model document carries the
// model's refit generation and shadow fidelity on every transport.
func TestControlDocumentsConform(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	e, err := NewEngine(dir, Config{MaxInflight: 2, SHMDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := e.Model("abr")
	m.Generation = 3
	e.SetMirror(fidelityMirror{"abr": 0.75})

	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	sock := serveSocket(t, e, true)
	udsConn, udsBR := dialSocket(t, sock)
	sendHello(t, udsConn, udsBR)
	shmConn, shmBR := dialSocket(t, sock)
	sendHello(t, shmConn, shmBR)
	seg := shmOpen(t, shmConn, shmBR, shmring.Geometry{})
	var shmID atomic.Uint32

	httpRoutes := map[string]struct{ method, path string }{
		"models": {"GET", "/v2/models"},
		"model":  {"GET", "/v2/models/abr"},
		"stats":  {"GET", "/v2/stats"},
		"reload": {"POST", "/v2/admin/reload"},
	}
	wireBody := func(t *testing.T, payload []byte) []byte {
		t.Helper()
		if FrameKind(payload) != jsonMagic {
			t.Fatalf("answer kind %q, want %q", FrameKind(payload), jsonMagic)
		}
		return FrameBody(payload)
	}
	transports := []struct {
		name string
		doc  func(t *testing.T, op string) []byte
	}{
		{"http", func(t *testing.T, op string) []byte {
			route := httpRoutes[op]
			req, err := http.NewRequest(route.method, ts.URL+route.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d (%v) %s", route.method, route.path, resp.StatusCode, err, body)
			}
			return bytes.TrimSpace(body)
		}},
		{"uds-pipelined", func(t *testing.T, op string) []byte {
			req, err := ControlRequest(op, "abr", "")
			if err != nil {
				t.Fatal(err)
			}
			return wireBody(t, call(t, udsConn, udsBR, req))
		}},
		{"shm", func(t *testing.T, op string) []byte {
			req, err := ControlRequest(op, "abr", "")
			if err != nil {
				t.Fatal(err)
			}
			_, payload := shmCall(t, shmConn, seg, shmID.Add(1), req)
			return wireBody(t, payload)
		}},
	}
	keys := func(t *testing.T, doc []byte) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(doc, &m); err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	// Reload last: it reloads the registry, which resets the generation.
	for _, op := range []string{"models", "model", "stats", "reload"} {
		ref := transports[0].doc(t, op)
		for _, tr := range transports[1:] {
			got := tr.doc(t, op)
			if op == "stats" {
				if !slices.Equal(keys(t, got), keys(t, ref)) {
					t.Errorf("%s stats keys %v, http %v", tr.name, keys(t, got), keys(t, ref))
				}
			} else if !bytes.Equal(got, ref) {
				t.Errorf("%s %s document:\n%s\nhttp:\n%s", tr.name, op, got, ref)
			}
		}
		if op == "model" {
			var detail modelDetail
			if err := json.Unmarshal(ref, &detail); err != nil {
				t.Fatal(err)
			}
			if detail.Stats.Generation != 3 || detail.Stats.Fidelity == nil || *detail.Stats.Fidelity != 0.75 {
				t.Errorf("model document stats %+v, want generation 3 and fidelity 0.75", detail.Stats)
			}
		}
	}
	if e.Reloads() != int64(len(transports)) {
		t.Fatalf("%d reloads, want %d", e.Reloads(), len(transports))
	}
}

// TestTenantsBoundedByConfig: peer input cannot grow the fair gate's tenant
// set. Predicts naming unknown models, and X-Metis-Tenant values outside the
// configured map, leave at most the configured tenants plus the served
// models in the gate and in the stats document's tenants block.
func TestTenantsBoundedByConfig(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	e, err := NewEngine(dir, Config{Tenants: map[string]float64{"gold": 3}, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	post := func(model, tenant string) int {
		req, err := http.NewRequest("POST", ts.URL+"/v2/models/"+model+":predict",
			bytes.NewBufferString(`{"x":[0.5,0.5]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := e.Predict(fmt.Sprintf("nope-%d", i), [][]float64{{0.5, 0.5}}); err == nil {
			t.Fatal("an unknown model predicted")
		}
		if code := post("abr", fmt.Sprintf("peer-%d", i)); code != http.StatusOK {
			t.Fatalf("tenant peer-%d: status %d", i, code)
		}
		if code := post(fmt.Sprintf("nope-%d", i), fmt.Sprintf("other-%d", i)); code != http.StatusNotFound {
			t.Fatalf("unknown model: status %d", code)
		}
	}
	if code := post("abr", "gold"); code != http.StatusOK {
		t.Fatalf("tenant gold: status %d", code)
	}
	bound := len(e.cfg.Tenants) + len(e.Models())
	tenants := e.gate.snapshot()
	if len(tenants) > bound {
		t.Fatalf("%d tenants after %d peer-named calls, want at most %d", len(tenants), 3*n, bound)
	}
	if tenants["abr"].Admitted != n || tenants["gold"].Admitted != 1 {
		t.Fatalf("tenants %+v: want abr admitted %d and gold 1", tenants, n)
	}
	var stats struct {
		Tenants map[string]TenantStats `json:"tenants"`
	}
	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Tenants) > bound {
		t.Fatalf("/v2/stats lists %d tenants, want at most %d", len(stats.Tenants), bound)
	}
}
