package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/metis/dtree"
	"repro/internal/nn"
)

// fixtureDir writes one classification tree, one regression tree, and one
// non-servable network artifact into a temp dir. Both trees are plain
// dtree/tree artifacts, so the engine quantizes each at load.
func fixtureDir(t testing.TB) (dir string, cls, reg *dtree.Tree) {
	t.Helper()
	dir = t.TempDir()

	rng := rand.New(rand.NewSource(3))
	cd := &dtree.Dataset{}
	rd := &dtree.Dataset{}
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := 0
		if x[0] > x[1] {
			y = 1
		}
		cd.X = append(cd.X, x)
		cd.Y = append(cd.Y, y)
		rd.X = append(rd.X, append([]float64(nil), x...))
		rd.YReg = append(rd.YReg, []float64{x[0] + 2*x[1]})
	}
	var err error
	cls, err = dtree.Build(cd, dtree.BuildOptions{MaxLeaves: 20})
	if err != nil {
		t.Fatal(err)
	}
	reg, err = dtree.Build(rd, dtree.BuildOptions{MaxLeaves: 20})
	if err != nil {
		t.Fatal(err)
	}

	if err := artifact.SaveModel(filepath.Join(dir, "abr.metis"), cls, map[string]string{"name": "abr", "scenario": "abr"}); err != nil {
		t.Fatal(err)
	}
	if err := artifact.SaveModel(filepath.Join(dir, "thresholds.metis"), reg, nil); err != nil {
		t.Fatal(err)
	}
	net := nn.NewNetwork(nn.Config{Sizes: []int{2, 2}, Hidden: nn.ReLU, Output: nn.Identity, Seed: 1})
	if err := artifact.SaveModel(filepath.Join(dir, "teacher.metis"), net, nil); err != nil {
		t.Fatal(err)
	}
	return dir, cls, reg
}

// post sends a JSON predict body to model's predict route.
func post(t *testing.T, ts *httptest.Server, model, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/models/"+model+":predict", "application/json", bytes.NewBufferString(body))
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

func TestEngineEndToEnd(t *testing.T) {
	dir, cls, reg := fixtureDir(t)
	s, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Skipped()) != 1 {
		t.Fatalf("skipped = %v, want the network artifact only", s.Skipped())
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Health.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	// Registry listing.
	resp, err = http.Get(ts.URL + "/v2/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []struct {
			Name       string `json:"name"`
			Regression bool   `json:"regression"`
			Features   int    `json:"features"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Models) != 2 {
		t.Fatalf("models = %+v, want 2", listing.Models)
	}
	if listing.Models[0].Name != "abr" || listing.Models[0].Regression ||
		listing.Models[1].Name != "thresholds" || !listing.Models[1].Regression {
		t.Fatalf("unexpected listing %+v", listing.Models)
	}

	// Single classification prediction matches the source tree.
	r, out := post(t, ts, "abr", `{"x":[0.9,0.1]}`)
	if r.StatusCode != 200 {
		t.Fatalf("predict: %d %v", r.StatusCode, out)
	}
	if int(out["action"].(float64)) != cls.Predict([]float64{0.9, 0.1}) {
		t.Fatalf("action = %v", out["action"])
	}

	// Batch classification.
	r, out = post(t, ts, "abr", `{"model":"abr","xs":[[0.9,0.1],[0.1,0.9]]}`)
	if r.StatusCode != 200 {
		t.Fatalf("batch: %d %v", r.StatusCode, out)
	}
	acts := out["actions"].([]any)
	if len(acts) != 2 || int(acts[0].(float64)) != 1 || int(acts[1].(float64)) != 0 {
		t.Fatalf("actions = %v", acts)
	}

	// Regression prediction matches the tree.
	r, out = post(t, ts, "thresholds", `{"x":[0.3,0.7]}`)
	if r.StatusCode != 200 {
		t.Fatalf("reg predict: %d %v", r.StatusCode, out)
	}
	want := reg.PredictReg([]float64{0.3, 0.7})
	got := out["value"].([]any)
	if len(got) != len(want) || got[0].(float64) != want[0] {
		t.Fatalf("value = %v, want %v", got, want)
	}

	// Error paths.
	for _, tc := range []struct {
		model, body string
		code        int
	}{
		{"nope", `{"x":[0,0]}`, 404},
		{"abr", `{}`, 400},
		{"abr", `{"x":[1],"xs":[[1,2]]}`, 400},
		{"abr", `{"x":[1,2,3]}`, 400},
		{"abr", `{"xs":[]}`, 400},
		{"abr", `not json`, 400},
	} {
		if r, _ := post(t, ts, tc.model, tc.body); r.StatusCode != tc.code {
			t.Fatalf("%s body %s → %d, want %d", tc.model, tc.body, r.StatusCode, tc.code)
		}
	}

	// Stats reflect the traffic above.
	resp, err = http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Requests float64 `json:"requests"`
		Errors   float64 `json:"errors"`
		Models   map[string]struct {
			Predictions float64 `json:"predictions"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Models["abr"].Predictions != 3 {
		t.Fatalf("abr predictions = %v, want 3", stats.Models["abr"].Predictions)
	}
	if stats.Models["thresholds"].Predictions != 1 {
		t.Fatalf("thresholds predictions = %v, want 1", stats.Models["thresholds"].Predictions)
	}
	if stats.Errors != 6 {
		t.Fatalf("errors = %v, want 6", stats.Errors)
	}

	// The v1 surface is gone.
	for _, route := range []string{"/v1/models", "/v1/stats"} {
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", route, resp.StatusCode)
		}
	}
}

// TestModelDetailEndpoint: /v2/models/{name} returns one model's kind,
// metadata, scenario tag, and live counters; unknown names 404.
func TestModelDetailEndpoint(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	s, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drive one prediction so the counters are non-zero.
	if r, _ := post(t, ts, "abr", `{"x":[0.9,0.1]}`); r.StatusCode != 200 {
		t.Fatalf("predict: %d", r.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v2/models/abr")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("detail: %d", resp.StatusCode)
	}
	var detail struct {
		Name     string            `json:"name"`
		Kind     string            `json:"kind"`
		Scenario string            `json:"scenario"`
		Meta     map[string]string `json:"meta"`
		Stats    struct {
			Requests    float64 `json:"requests"`
			Predictions float64 `json:"predictions"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	if detail.Name != "abr" || detail.Kind != artifact.KindTree || detail.Scenario != "abr" {
		t.Fatalf("detail header %+v", detail)
	}
	if detail.Meta["scenario"] != "abr" {
		t.Fatalf("detail meta %+v", detail.Meta)
	}
	if detail.Stats.Requests != 1 || detail.Stats.Predictions != 1 {
		t.Fatalf("detail stats %+v", detail.Stats)
	}

	// Unknown model and wrong method.
	resp, err = http.Get(ts.URL + "/v2/models/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown model: %d, want 404", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v2/models/abr", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("DELETE detail: %d, want 405", resp.StatusCode)
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing dir")
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("expected error for empty dir")
	}
}

// TestLoadDirSkipsUnknownKind: an artifact kind this build does not know —
// one written by a newer version, or the retired dtree/compiled — must be
// skipped and listed, not abort the load.
func TestLoadDirSkipsUnknownKind(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	for file, kind := range map[string]string{"future.metis": "future/model", "legacy.metis": "dtree/compiled"} {
		f, err := os.Create(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if err := artifact.WritePayload(f, kind, nil, []byte("opaque")); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	s, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Models()) != 2 || len(s.Skipped()) != 3 {
		t.Fatalf("models=%d skipped=%v", len(s.Models()), s.Skipped())
	}
	if !slices.Contains(s.Skipped(), "legacy.metis (kind dtree/compiled)") {
		t.Fatalf("skipped = %v, want the dtree/compiled file listed with its kind", s.Skipped())
	}
}

func TestLoadDirDuplicateName(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	// A second artifact claiming the name "abr" collides.
	src, err := artifact.Open(filepath.Join(dir, "abr.metis"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := src.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.SaveModel(filepath.Join(dir, "copy.metis"), tree, map[string]string{"name": "abr"}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}
