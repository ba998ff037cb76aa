package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
)

// TestV2PredictJSON: the per-model predict route takes single and batch
// JSON bodies, and rejects a body naming a different model.
func TestV2PredictJSON(t *testing.T) {
	dir, cls, reg := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	postV2 := func(model, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v2/models/"+model+":predict", ContentTypeJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	r, out := postV2("abr", `{"x":[0.9,0.1]}`)
	if r.StatusCode != 200 || int(out["action"].(float64)) != cls.Predict([]float64{0.9, 0.1}) {
		t.Fatalf("single: %d %v", r.StatusCode, out)
	}
	r, out = postV2("abr", `{"xs":[[0.9,0.1],[0.1,0.9]]}`)
	if r.StatusCode != 200 || len(out["actions"].([]any)) != 2 {
		t.Fatalf("batch: %d %v", r.StatusCode, out)
	}
	r, out = postV2("thresholds", `{"x":[0.3,0.7]}`)
	if r.StatusCode != 200 || out["value"].([]any)[0].(float64) != reg.PredictReg([]float64{0.3, 0.7})[0] {
		t.Fatalf("regression: %d %v", r.StatusCode, out)
	}

	// Body/URL model mismatch, unknown verb, unknown model, bad codec.
	if r, _ := postV2("abr", `{"model":"thresholds","x":[0.9,0.1]}`); r.StatusCode != 400 {
		t.Fatalf("mismatched body model: %d", r.StatusCode)
	}
	if r, _ := postV2("abr", `{"model":"abr","x":[0.9,0.1]}`); r.StatusCode != 200 {
		t.Fatalf("matching body model: %d", r.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v2/models/abr:explain", ContentTypeJSON, strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown verb: %d", resp.StatusCode)
	}
	if r, _ := postV2("nope", `{"x":[1,2]}`); r.StatusCode != 404 {
		t.Fatalf("unknown model: %d", r.StatusCode)
	}
	// Any non-binary content type falls through to the JSON codec (curl -d
	// sends x-www-form-urlencoded), so a JSON body predicts fine…
	resp, err = http.Post(ts.URL+"/v2/models/abr:predict", "application/x-www-form-urlencoded",
		strings.NewReader(`{"x":[0.9,0.1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("curl-style content type: %d", resp.StatusCode)
	}
	// …and a non-JSON body is a clear 400.
	resp, err = http.Post(ts.URL+"/v2/models/abr:predict", "text/csv", strings.NewReader("a,b"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("non-JSON body: %d", resp.StatusCode)
	}
}

// TestV2PredictBinary: binary request in, binary response out, for both
// classification and regression models — and results match the JSON path.
func TestV2PredictBinary(t *testing.T) {
	dir, cls, reg := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	rows := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {0.5, 0.5}}
	var buf bytes.Buffer
	if err := EncodeBatchRequest(&buf, "abr", rows); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v2/models/abr:predict", ContentTypeBinary, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("binary predict: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("response content type %q", ct)
	}
	p, err := DecodeBatchResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if p.Actions[i] != cls.Predict(row) {
			t.Fatalf("row %d: %d, want %d", i, p.Actions[i], cls.Predict(row))
		}
	}

	// Regression model over the same wire.
	buf.Reset()
	if err := EncodeBatchRequest(&buf, "", rows); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/v2/models/thresholds:predict", ContentTypeBinary, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	p, err = DecodeBatchResponse(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		want := reg.PredictReg(row)
		if len(p.Values[i]) != len(want) || p.Values[i][0] != want[0] {
			t.Fatalf("reg row %d: %v, want %v", i, p.Values[i], want)
		}
	}

	// A malformed binary body is a 400, not a hang or panic.
	resp3, err := http.Post(ts.URL+"/v2/models/abr:predict", ContentTypeBinary, strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 400 {
		t.Fatalf("garbage binary: %d", resp3.StatusCode)
	}
}

// TestV2ModelRoutesAndEscaping: model names that need percent-escaping
// resolve through the detail and predict routes (the old TrimPrefix routing
// mis-resolved these).
func TestV2ModelRoutesAndEscaping(t *testing.T) {
	dir, cls, _ := fixtureDir(t)
	if err := artifact.SaveModel(filepath.Join(dir, "spaced.metis"), cls, map[string]string{"name": "abr v2"}); err != nil {
		t.Fatal(err)
	}
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v2/models/abr%20v2")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || detail.Name != "abr v2" {
		t.Fatalf("escaped detail: %d %+v", resp.StatusCode, detail)
	}

	// Predict against the escaped name.
	resp, err = http.Post(ts.URL+"/v2/models/abr%20v2:predict", ContentTypeJSON, strings.NewReader(`{"x":[0.9,0.1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("escaped predict: %d", resp.StatusCode)
	}
}

// TestV2StatsReloadAndMetrics: /v2/stats carries reload state, the admin
// reload endpoint swaps the registry, and /metrics renders Prometheus text.
func TestV2StatsReloadAndMetrics(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	if r, _ := post(t, ts, "abr", `{"x":[0.9,0.1]}`); r.StatusCode != 200 {
		t.Fatalf("predict: %d", r.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/v2/admin/reload", ContentTypeJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rl struct {
		Reloaded bool     `json:"reloaded"`
		Models   []string `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !rl.Reloaded || len(rl.Models) != 2 {
		t.Fatalf("reload: %d %+v", resp.StatusCode, rl)
	}

	// Reload of a broken dir is a 409 and keeps serving.
	resp, err = http.Post(ts.URL+"/v2/admin/reload", ContentTypeJSON, strings.NewReader(`{"dir":"/nonexistent-zz"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("bad reload: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Requests float64 `json:"requests"`
		Reloads  float64 `json:"reloads"`
		Dir      string  `json:"dir"`
		Models   map[string]struct {
			Predictions float64 `json:"predictions"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Reloads != 1 || stats.Dir != dir {
		t.Fatalf("stats = %+v", stats)
	}
	// The abr counter survived the reload.
	if stats.Models["abr"].Predictions != 1 {
		t.Fatalf("abr predictions after reload = %v", stats.Models["abr"].Predictions)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE metis_requests_total counter",
		"metis_reloads_total 1",
		"metis_models 2",
		`metis_model_predictions_total{model="abr"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestV2BatchTooLarge: an over-cap batch is a 413 on both codecs.
func TestV2BatchTooLarge(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	e, err := NewEngine(dir, Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/models/abr:predict", ContentTypeJSON,
		strings.NewReader(`{"xs":[[1,2],[1,2],[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 413 {
		t.Fatalf("JSON oversize: %d", resp.StatusCode)
	}

	var buf bytes.Buffer
	if err := EncodeBatchRequest(&buf, "abr", [][]float64{{1, 2}, {1, 2}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v2/models/abr:predict", ContentTypeBinary, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 413 {
		t.Fatalf("binary oversize: %d", resp.StatusCode)
	}
}

// TestFailAccounting: every JSON error response goes through fail exactly
// once — the errors counter tracks the 4xx count, and error bodies carry
// the JSON content type.
func TestFailAccounting(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	bad := []struct {
		route, ctype, body string
		code               int
	}{
		{"/v2/models/abr:predict", ContentTypeJSON, `not json`, 400},
		{"/v2/models/abr:predict", ContentTypeJSON, `{"model":"nope","x":[1,2]}`, 400},
		{"/v2/models/nope:predict", ContentTypeJSON, `{"x":[1,2]}`, 404},
		{"/v2/models/abr:predict", ContentTypeBinary, `garbage`, 400},
		{"/v2/models/abr:predict", "text/csv", `a,b`, 400},
	}
	for _, tc := range bad {
		resp, err := http.Post(ts.URL+tc.route, tc.ctype, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: error body not JSON: %v", tc.route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code || body["error"] == "" {
			t.Fatalf("%s: %d %v, want %d with error body", tc.route, resp.StatusCode, body, tc.code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != ContentTypeJSON {
			t.Fatalf("%s: error content type %q", tc.route, ct)
		}
	}
	if got := e.errors.Load(); got != int64(len(bad)) {
		t.Fatalf("errors counter = %d, want %d", got, len(bad))
	}
}
