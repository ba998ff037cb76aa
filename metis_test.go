package metis

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// stairPolicy buckets a scalar state into actions.
type stairPolicy struct{}

func (stairPolicy) ActionProbs(s []float64) []float64 {
	out := make([]float64, 3)
	switch {
	case s[0] < 0.33:
		out[0] = 1
	case s[0] < 0.66:
		out[1] = 1
	default:
		out[2] = 1
	}
	return out
}

// scanEnv sweeps the unit interval deterministically.
type scanEnv struct {
	x    float64
	step int
}

func (e *scanEnv) Reset(seed int64) []float64 {
	e.x = float64(uint64(seed)%11) / 11
	e.step = 0
	return []float64{e.x}
}

func (e *scanEnv) Step(int) ([]float64, float64, bool) {
	e.step++
	e.x += 0.083
	if e.x >= 1 {
		e.x -= 1
	}
	return []float64{e.x}, 0, e.step >= 25
}

func (e *scanEnv) StateDim() int   { return 1 }
func (e *scanEnv) NumActions() int { return 3 }

func TestPublicDistill(t *testing.T) {
	res, err := Distill(&scanEnv{}, stairPolicy{}, DistillConfig{
		MaxLeaves: 8, Iterations: 2, EpisodesPerIter: 15, MaxSteps: 25,
		FeatureNames: []string{"x"}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.95 {
		t.Fatalf("fidelity %.3f", res.Fidelity)
	}
	if !strings.Contains(res.Tree.Rules(0), "x <") {
		t.Fatal("rules missing the named feature")
	}
	for _, probe := range []struct {
		x    float64
		want int
	}{{0.1, 0}, {0.5, 1}, {0.9, 2}} {
		if got := res.Tree.Predict([]float64{probe.x}); got != probe.want {
			t.Fatalf("Predict(%v) = %d, want %d", probe.x, got, probe.want)
		}
	}
}

func TestPublicFitTree(t *testing.T) {
	ds := &Dataset{
		X:    [][]float64{{0}, {1}, {2}, {3}},
		YReg: [][]float64{{0}, {0}, {10}, {10}},
	}
	tree, err := FitTree(ds, DistillConfig{MaxLeaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v := tree.PredictReg([]float64{0.5})[0]; v != 0 {
		t.Fatalf("low prediction %v", v)
	}
	if v := tree.PredictReg([]float64{2.5})[0]; v != 10 {
		t.Fatalf("high prediction %v", v)
	}
}

// twoKnobSystem is a trivial MaskSystem: one connection matters.
type twoKnobSystem struct{}

func (twoKnobSystem) NumConnections() int { return 2 }
func (twoKnobSystem) Discrete() bool      { return false }
func (twoKnobSystem) Output(m []float64) []float64 {
	return []float64{10*m[0] + 0.01*m[1]}
}

func TestPublicCriticalConnections(t *testing.T) {
	res := CriticalConnections(twoKnobSystem{}, MaskOptions{
		Lambda1: 0.5, Lambda2: 0.2, Iterations: 200, Seed: 1,
	})
	if res.TopConnections(1)[0] != 0 {
		t.Fatalf("top connection = %d (W=%v), want 0", res.TopConnections(1)[0], res.W)
	}
	if res.W[0] <= res.W[1] {
		t.Fatalf("critical mask %v not above irrelevant %v", res.W[0], res.W[1])
	}
}

// TestPublicSaveServe covers the deployment loop end to end through the
// facade: distill → SaveTree → LoadTree → Compile parity → NewServer →
// prediction over both a plain JSON POST and the client SDK.
func TestPublicSaveServe(t *testing.T) {
	res, err := Distill(&scanEnv{}, stairPolicy{}, DistillConfig{
		MaxLeaves: 8, Iterations: 2, EpisodesPerIter: 15, MaxSteps: 25,
		FeatureNames: []string{"x"}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "stair.metis")
	if err := SaveTree(path, res.Tree, map[string]string{"name": "stair"}); err != nil {
		t.Fatal(err)
	}

	back, err := LoadTree(path)
	if err != nil {
		t.Fatal(err)
	}
	quantized, err := Quantize(back)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x < 1; x += 0.01 {
		if quantized.Predict([]float64{x}) != res.Tree.Predict([]float64{x}) {
			t.Fatalf("quantized/loaded drift at x=%v", x)
		}
	}

	srv, err := NewServer(dir, WithWorkers(1), WithMaxBatch(64))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if models := srv.Models(); len(models) != 1 || models[0] != "stair" {
		t.Fatalf("served models = %v", models)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A plain single-row JSON predict answers.
	resp, err := http.Post(ts.URL+"/v2/models/stair:predict", "application/json",
		bytes.NewBufferString(`{"x":[0.9]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Action int `json:"action"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Action != res.Tree.Predict([]float64{0.9}) {
		t.Fatalf("served action %d, tree says %d", out.Action, res.Tree.Predict([]float64{0.9}))
	}

	// v2 via the re-exported client SDK (binary batch codec).
	c := NewClient(ts.URL)
	pred, err := c.PredictBatch(context.Background(), "stair", [][]float64{{0.1}, {0.5}, {0.9}})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range []float64{0.1, 0.5, 0.9} {
		if pred.Actions[i] != res.Tree.Predict([]float64{x}) {
			t.Fatalf("client action[%d] = %d, tree says %d", i, pred.Actions[i], res.Tree.Predict([]float64{x}))
		}
	}
}

// TestPublicQuantize covers the quantized-serving facade: Quantize →
// SaveQuantized round-trips through LoadQuantized, the artifact
// is directly servable, and predictions match the source tree.
func TestPublicQuantize(t *testing.T) {
	res, err := Distill(&scanEnv{}, stairPolicy{}, DistillConfig{
		MaxLeaves: 8, Iterations: 2, EpisodesPerIter: 15, MaxSteps: 25,
		FeatureNames: []string{"x"}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Quantize(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "stair-q.metis")
	if err := SaveQuantized(path, q, map[string]string{"name": "stair-q"}); err != nil {
		t.Fatal(err)
	}
	back, err := LoadQuantized(path)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x < 1; x += 0.01 {
		if back.Predict([]float64{x}) != res.Tree.Predict([]float64{x}) {
			t.Fatalf("quantized/loaded drift at x=%v", x)
		}
	}

	srv, err := NewServer(dir, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	pred, err := NewClient(ts.URL).PredictBatch(context.Background(), "stair-q", [][]float64{{0.1}, {0.5}, {0.9}})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range []float64{0.1, 0.5, 0.9} {
		if pred.Actions[i] != res.Tree.Predict([]float64{x}) {
			t.Fatalf("served action[%d] = %d, tree says %d", i, pred.Actions[i], res.Tree.Predict([]float64{x}))
		}
	}
}

// TestPipelineServeReload is the pipeline→deployment e2e: artifacts written
// by the scenario engine's OutDir are directly servable, and a running
// server picks newly produced students up through hot reload without a
// restart.
func TestPipelineServeReload(t *testing.T) {
	res, err := Distill(&scanEnv{}, stairPolicy{}, DistillConfig{
		MaxLeaves: 8, Iterations: 1, EpisodesPerIter: 10, MaxSteps: 25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveTree(filepath.Join(dir, "stair.metis"), res.Tree, map[string]string{"name": "stair"}); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	// A pipeline run drops its student (and manifest) into the served dir.
	rep, err := RunScenario("auto-lrla", ScenarioConfig{Scale: "tiny", Workers: 1, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ArtifactPath == "" {
		t.Fatalf("pipeline did not persist: %+v", rep)
	}

	// Hot reload through the admin endpoint: the new student appears, the
	// manifest artifact is skipped, and the old model keeps serving.
	names, err := c.Reload(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		if n == "auto-lrla-tiny" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reloaded models = %v, want auto-lrla-tiny", names)
	}

	detail, err := c.Model(context.Background(), "auto-lrla-tiny")
	if err != nil {
		t.Fatal(err)
	}
	if detail.Scenario != "auto-lrla" || detail.Features <= 0 {
		t.Fatalf("pipeline student detail = %+v", detail)
	}
	pred, err := c.PredictBatch(context.Background(), "auto-lrla-tiny",
		[][]float64{make([]float64, detail.Features)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Actions) != 1 {
		t.Fatalf("pipeline student prediction = %+v", pred)
	}
	if _, err := c.Predict(context.Background(), "stair", []float64{0.9}); err != nil {
		t.Fatalf("pre-reload model gone: %v", err)
	}
}

func TestPublicScenarios(t *testing.T) {
	names := Scenarios()
	if len(names) < 6 {
		t.Fatalf("only %d scenarios registered: %v", len(names), names)
	}
	for _, want := range []string{"abr", "auto-lrla", "auto-srla", "routenet", "jobs", "nfv", "cellular"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scenario %q missing from %v", want, names)
		}
	}

	if _, err := RunScenario("no-such-scenario", ScenarioConfig{}); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown scenario error = %v", err)
	}

	out := filepath.Join(t.TempDir(), "models")
	rep, err := RunScenario("jobs", ScenarioConfig{Scale: "tiny", Workers: 1, OutDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != "jobs" || rep.StudentKind != "mask" || rep.Summary == "" {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.ArtifactPath == "" || rep.ManifestPath == "" {
		t.Fatalf("pipeline did not persist: %+v", rep)
	}
}
