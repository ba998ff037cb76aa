package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
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
		infos := []ModelInfo{}
		for _, m := range e.Models() {
			infos = append(infos, m.info())
		}
		return map[string]any{"models": infos}, nil
	case "model":
		m, ok := e.Model(req.Name)
		if !ok {
			return nil, &statusError{http.StatusNotFound, fmt.Sprintf("unknown model %q", req.Name)}
		}
		return ModelDetail{ModelInfo: m.info(), Stats: statsFor(m, e.mirrorSnapshot())}, nil
	case "stats":
		return e.stats(), nil
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

// handleMetrics renders the stats snapshot as Prometheus text.
func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := e.stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(appendMetrics(nil, &s))
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
