package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/histo"
)

// maxJSONBody bounds a JSON request body; the binary codec bounds itself by
// row/feature counts instead.
const maxJSONBody = 64 << 20

// Handler returns the HTTP API over the engine:
//
//	GET  /healthz                      liveness probe
//	GET  /v2/models                    registry listing
//	GET  /v2/models/{name}             one model's detail + live counters
//	POST /v2/models/{name}:predict     prediction (JSON or binary batch)
//	GET  /v2/stats                     engine counters, uptime, reload state
//	POST /v2/admin/reload              hot-reload the artifact directory
//	GET  /metrics                      Prometheus text exposition
//
// Predict routes honor the X-Metis-Tenant header when the engine runs
// weighted fair admission and the header names a configured tenant; other
// requests are keyed by model name.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /v2/models", func(w http.ResponseWriter, r *http.Request) {
		e.writeControl(w, controlReq{Op: "models"})
	})
	mux.HandleFunc("GET /v2/models/{name}", func(w http.ResponseWriter, r *http.Request) {
		e.writeControl(w, controlReq{Op: "model", Name: r.PathValue("name")})
	})
	mux.HandleFunc("POST /v2/models/{action}", e.handleModelAction)
	mux.HandleFunc("GET /v2/stats", func(w http.ResponseWriter, r *http.Request) {
		e.writeControl(w, controlReq{Op: "stats"})
	})
	mux.HandleFunc("POST /v2/admin/reload", e.handleReload)
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	return mux
}

// modelInfo is one models-listing row.
type modelInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Scenario tags which pipeline domain produced the model (from the
	// artifact's "scenario" metadata; empty for hand-saved artifacts).
	Scenario   string            `json:"scenario,omitempty"`
	Nodes      int               `json:"nodes"`
	Features   int               `json:"features"`
	Classes    int               `json:"classes,omitempty"`
	OutDim     int               `json:"out_dim,omitempty"`
	Regression bool              `json:"regression"`
	Meta       map[string]string `json:"meta,omitempty"`
}

// info renders a model's registry row.
func (m *Model) info() modelInfo {
	return modelInfo{
		Name: m.Name, Kind: m.Kind, Scenario: m.Meta["scenario"],
		Nodes: m.NumNodes(), Features: m.NumFeatures(),
		Classes: m.NumClasses(), OutDim: m.OutDim(),
		Regression: m.IsRegression(), Meta: m.Meta,
	}
}

// modelStats is one stats entry.
type modelStats struct {
	Requests    int64 `json:"requests"`
	Predictions int64 `json:"predictions"`
	// Generation is the model's refit generation (0 = seed student); it
	// advances when the shadow loop refits and reverts on rollback, so an
	// operator polling stats can watch a canary converge.
	Generation int64 `json:"generation"`
	// Fidelity is the shadow loop's windowed teacher-agreement estimate for
	// this model; absent until a mirror is installed and its window fills.
	Fidelity *float64 `json:"fidelity,omitempty"`
}

// statsFor renders one model's stats entry, folding in the mirror's
// fidelity estimate when one is measuring this model.
func statsFor(m *Model, snap *MirrorSnapshot) modelStats {
	s := modelStats{
		Requests:    m.requests.Load(),
		Predictions: m.predictions.Load(),
		Generation:  m.Generation,
	}
	if snap != nil {
		if ms, ok := snap.Models[m.Name]; ok && ms.Fidelity >= 0 {
			f := ms.Fidelity
			s.Fidelity = &f
		}
	}
	return s
}

// modelDetail is the models/{name} body: the registry row plus the model's
// live counters.
type modelDetail struct {
	modelInfo
	Stats modelStats `json:"stats"`
}

// statusError is a failure reported under an explicit HTTP status, on every
// transport (see errorStatus).
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// control renders one control document — the models listing, one model's
// detail, the stats document, or a reload's outcome — for the HTTP routes
// and the socket and ring "MTQ1" op alike, so each document is built in one
// place. Its failures are *statusError: 404 for an unknown model or op, 409
// for a failed reload (the old generation keeps serving).
func (e *Engine) control(req controlReq) (any, error) {
	switch req.Op {
	case "models":
		infos := []modelInfo{}
		for _, m := range e.Models() {
			infos = append(infos, m.info())
		}
		return map[string]any{"models": infos}, nil
	case "model":
		m, ok := e.Model(req.Name)
		if !ok {
			return nil, &statusError{http.StatusNotFound, fmt.Sprintf("unknown model %q", req.Name)}
		}
		return modelDetail{modelInfo: m.info(), Stats: statsFor(m, e.mirrorSnapshot())}, nil
	case "stats":
		return e.statsBody(), nil
	case "reload":
		if err := e.Reload(req.Dir); err != nil {
			return nil, &statusError{http.StatusConflict, err.Error()}
		}
		names := []string{}
		for _, m := range e.Models() {
			names = append(names, m.Name)
		}
		return map[string]any{"reloaded": true, "dir": e.Dir(), "models": names, "skipped": len(e.Skipped())}, nil
	}
	return nil, &statusError{http.StatusNotFound,
		fmt.Sprintf("unknown control op %q (supported: models, model, stats, reload)", req.Op)}
}

// writeControl answers a control route with its document or its error.
func (e *Engine) writeControl(w http.ResponseWriter, req controlReq) {
	doc, err := e.control(req)
	if err != nil {
		e.failErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleModelAction routes POST /v2/models/{name}:{verb}. The whole last
// segment arrives as one path value; the verb is split off at the final
// colon, so model names themselves may contain colons.
func (e *Engine) handleModelAction(w http.ResponseWriter, r *http.Request) {
	seg := r.PathValue("action")
	i := strings.LastIndex(seg, ":")
	if i < 0 {
		e.fail(w, http.StatusNotFound, fmt.Sprintf("POST %s: want /v2/models/{name}:predict", r.URL.Path))
		return
	}
	name, verb := seg[:i], seg[i+1:]
	if verb != "predict" {
		e.fail(w, http.StatusNotFound, fmt.Sprintf("unknown model action %q (supported: predict)", verb))
		return
	}
	// Codec negotiation: the binary batch type selects the packed codec;
	// anything else is decoded as JSON (curl -d sends
	// x-www-form-urlencoded, so being strict here would break the plain
	// curl examples — a non-JSON body still fails with a clear 400).
	if contentType(r) == ContentTypeBinary {
		e.predictBinary(w, r, name)
		return
	}
	e.predictJSON(w, r, name)
}

// contentType returns the media type of the request body without parameters.
func contentType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(strings.ToLower(ct))
}

// predictBinary is the high-throughput path: binary request in, binary
// response out. All per-call buffers — body, decode, outputs, encode — come
// from the shared scratch pool, so steady-state binary serving reuses the
// same few allocations across requests. The body goes through the same
// decoder and predict path as the socket and ring transports.
func (e *Engine) predictBinary(w http.ResponseWriter, r *http.Request, name string) {
	s := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(s)
	frame, err := readBatchRequest(r.Body, s.payload, e.maxBatch())
	var rows [][]float64
	if err == nil {
		s.payload = frame
		// aliasOK: the body buffer stays with this request until the scratch
		// goes back to the pool.
		var bodyModel string
		bodyModel, rows, err = s.decodeRequestBytes(frame, e.maxBatch(), true)
		if err == nil && bodyModel != "" && bodyModel != name {
			e.fail(w, http.StatusBadRequest,
				fmt.Sprintf("body names model %q but the URL names %q", bodyModel, name))
			return
		}
	}
	if err = e.decodeRefusal(name, err); err == nil {
		err = e.predictTenant(r.Header.Get(TenantHeader), name, rows, &s.pred, 0)
	}
	if err != nil {
		e.failErr(w, err)
		return
	}
	if s.resp, err = appendBatchResponse(s.resp, &s.pred); err != nil {
		e.failErr(w, err)
		return
	}
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Write(s.resp)
}

// predictRequest is the JSON predict body: exactly one of X (single) or Xs
// (batch) must be set. Model is optional (the URL names the model) and must
// match the URL if present.
type predictRequest struct {
	Model string      `json:"model"`
	X     []float64   `json:"x,omitempty"`
	Xs    [][]float64 `json:"xs,omitempty"`
}

// predictResponse carries either a class decision or a regression vector,
// singly or per batch row.
type predictResponse struct {
	Model   string      `json:"model"`
	Action  *int        `json:"action,omitempty"`
	Actions []int       `json:"actions,omitempty"`
	Value   []float64   `json:"value,omitempty"`
	Values  [][]float64 `json:"values,omitempty"`
}

// predictJSON is the per-model JSON predict: the URL names the model.
func (e *Engine) predictJSON(w http.ResponseWriter, r *http.Request, name string) {
	var req predictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	if err := dec.Decode(&req); err != nil {
		e.fail(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if (req.X != nil) == (req.Xs != nil) {
		e.fail(w, http.StatusBadRequest, `set exactly one of "x" (single) or "xs" (batch)`)
		return
	}
	if req.Model != "" && req.Model != name {
		e.fail(w, http.StatusBadRequest,
			fmt.Sprintf("body names model %q but the URL names %q", req.Model, name))
		return
	}
	single := req.X != nil
	rows := req.Xs
	if single {
		rows = [][]float64{req.X}
	}
	var p Prediction
	if err := e.predictTenant(r.Header.Get(TenantHeader), name, rows, &p, 0); err != nil {
		e.failErr(w, err)
		return
	}
	resp := predictResponse{Model: p.Model}
	switch {
	case p.Values != nil && single:
		resp.Value = p.Values[0]
	case p.Values != nil:
		resp.Values = p.Values
	case single:
		resp.Action = &p.Actions[0]
	default:
		resp.Actions = p.Actions
	}
	writeJSON(w, http.StatusOK, resp)
}

// latencyBody renders a latency histogram as the stats document's latency
// block.
func latencyBody(h *histo.Histogram) map[string]any {
	return map[string]any{
		"count":   h.Count(),
		"mean_us": h.Mean() / 1e3,
		"p50_us":  float64(h.Quantile(0.50)) / 1e3,
		"p99_us":  float64(h.Quantile(0.99)) / 1e3,
		"p999_us": float64(h.Quantile(0.999)) / 1e3,
		"max_us":  float64(h.Max()) / 1e3,
	}
}

// statsBody builds the stats document (control's "stats" op). A multi-shard
// engine adds a "shards" block, and an admission gate a "tenants" block.
func (e *Engine) statsBody() map[string]any {
	snap := e.mirrorSnapshot()
	per := map[string]modelStats{}
	for _, m := range e.Models() {
		per[m.Name] = statsFor(m, snap)
	}
	shadow := map[string]any{"enabled": snap != nil}
	if snap != nil {
		shadow["sampled"] = snap.Sampled
		shadow["dropped"] = snap.Dropped
		shadow["scored"] = snap.Scored
		shadow["disagreements"] = snap.Disagreements
		shadow["refits"] = snap.Refits
		shadow["rollbacks"] = snap.Rollbacks
	}
	body := map[string]any{
		"uptime_s":  time.Since(e.start).Seconds(),
		"requests":  e.requestsTotal(),
		"errors":    e.errors.Load(),
		"reloads":   e.Reloads(),
		"dir":       e.Dir(),
		"loaded_at": e.LoadedAt().UTC().Format(time.RFC3339),
		"models":    per,
		"shadow":    shadow,
		"shm": map[string]any{
			"conns": e.shm.conns.Load(),
			"wakes": e.shm.wakes.Load(),
		},
		"latency": latencyBody(e.Latency()),
		"runtime": runtimeBody(),
	}
	if e.ShardCount() > 1 {
		body["shards"] = e.shardStats()
	}
	if e.gate != nil {
		body["tenants"] = e.gate.snapshot()
	}
	return body
}

// runtimeBody is the process's cumulative heap allocation and GC cycle
// counts. They never decrease, so the difference between two reads is what
// the process allocated and collected in between.
func runtimeBody() map[string]uint64 {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	return map[string]uint64{
		"heap_alloc_bytes":   samples[0].Value.Uint64(),
		"heap_alloc_objects": samples[1].Value.Uint64(),
		"gc_cycles":          samples[2].Value.Uint64(),
	}
}

// handleReload reloads the artifact directory. The optional body is
// {"dir": …}: a new directory to switch to; empty reloads the current one.
func (e *Engine) handleReload(w http.ResponseWriter, r *http.Request) {
	var req controlReq
	if body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		e.fail(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	} else if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			e.fail(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
	}
	e.writeControl(w, controlReq{Op: "reload", Dir: req.Dir})
}

// handleMetrics renders the engine counters in the Prometheus text
// exposition format — no client library, the format is four line shapes.
func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("metis_requests_total", "Predict calls admitted or rejected by the engine.", e.requestsTotal())
	counter("metis_errors_total", "Requests that failed (any 4xx/5xx).", e.errors.Load())
	counter("metis_reloads_total", "Registry hot reloads applied.", e.Reloads())
	counter("metis_shm_wakes_total", "Doorbell frames written to parked ring clients (flat while rings stay busy).", e.shm.wakes.Load())
	// Shadow-loop counters render as zeros until a mirror is installed, so
	// scrapers see a stable metric set whether or not -shadow-rate is on.
	var snap MirrorSnapshot
	if s := e.mirrorSnapshot(); s != nil {
		snap = *s
	}
	counter("metis_shadow_sampled_total", "Predict batches mirrored to the shadow-scoring queue.", snap.Sampled)
	counter("metis_shadow_dropped_total", "Sampled batches dropped because the shadow queue was full.", snap.Dropped)
	counter("metis_shadow_disagreements_total", "Shadow-scored rows where teacher and student disagreed.", snap.Disagreements)
	counter("metis_shadow_refits_total", "Drift-triggered student refits applied by the shadow loop.", snap.Refits)
	counter("metis_shadow_rollbacks_total", "Refits rolled back because the new student measured worse.", snap.Rollbacks)
	fmt.Fprintf(&b, "# HELP metis_shm_conns Connections currently serving shared-memory ring traffic.\n# TYPE metis_shm_conns gauge\nmetis_shm_conns %d\n",
		e.shm.conns.Load())
	fmt.Fprintf(&b, "# HELP metis_uptime_seconds Engine uptime.\n# TYPE metis_uptime_seconds gauge\nmetis_uptime_seconds %.3f\n",
		time.Since(e.start).Seconds())
	models := e.Models() // already sorted by name
	fmt.Fprintf(&b, "# HELP metis_models Servable models in the current registry generation.\n# TYPE metis_models gauge\nmetis_models %d\n", len(models))
	if e.ShardCount() > 1 {
		b.WriteString("# HELP metis_shard_requests_total Predict requests per engine shard.\n# TYPE metis_shard_requests_total counter\n")
		for _, ss := range e.shardStats() {
			fmt.Fprintf(&b, "metis_shard_requests_total{shard=\"%d\"} %d\n", ss.Shard, ss.Requests)
		}
	}
	if e.gate != nil {
		tenants := e.gate.snapshot()
		b.WriteString("# HELP metis_tenant_admitted_total Predict calls admitted per tenant.\n# TYPE metis_tenant_admitted_total counter\n")
		for name, ts := range tenants {
			fmt.Fprintf(&b, "metis_tenant_admitted_total{tenant=%q} %d\n", name, ts.Admitted)
		}
		b.WriteString("# HELP metis_tenant_rejected_total Predict calls rejected or shed per tenant.\n# TYPE metis_tenant_rejected_total counter\n")
		for name, ts := range tenants {
			fmt.Fprintf(&b, "metis_tenant_rejected_total{tenant=%q} %d\n", name, ts.Rejected+ts.Shed)
		}
	}
	b.WriteString("# HELP metis_model_requests_total Predict requests per model.\n# TYPE metis_model_requests_total counter\n")
	for _, m := range models {
		fmt.Fprintf(&b, "metis_model_requests_total{model=%q} %d\n", m.Name, m.requests.Load())
	}
	b.WriteString("# HELP metis_model_predictions_total Rows predicted per model.\n# TYPE metis_model_predictions_total counter\n")
	for _, m := range models {
		fmt.Fprintf(&b, "metis_model_predictions_total{model=%q} %d\n", m.Name, m.predictions.Load())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// failErr renders an engine error under the status every transport maps it
// to (errorStatus). A 503 carries the admission gate's computed Retry-After,
// rendered in fractional seconds (RFC 9110 allows only integer seconds, but
// every consumer here is the metis client, which parses fractions; an
// integer-only client rounding down to 0 just retries immediately, as it did
// with the old hardcoded 1).
func (e *Engine) failErr(w http.ResponseWriter, err error) {
	var busy *BusyError
	if errors.As(err, &busy) {
		w.Header().Set("Retry-After", formatRetryAfter(busy.RetryAfter))
	}
	e.fail(w, errorStatus(err), err.Error())
}

// formatRetryAfter renders a Retry-After duration as fractional seconds.
func formatRetryAfter(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
}

// fail renders a JSON error and accounts it in the engine error counter —
// the single error-accounting point of the HTTP layer, so every 4xx/5xx
// response bumps the counter exactly once.
func (e *Engine) fail(w http.ResponseWriter, code int, msg string) {
	e.errors.Add(1)
	writeJSON(w, code, map[string]string{"error": msg})
}
