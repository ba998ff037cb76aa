package scenarios

import (
	"bytes"
	"encoding"
	"testing"

	"repro/internal/artifact"
	"repro/internal/auto"
	"repro/internal/scenario"
)

// tinyRun drives one registered scenario through the pipeline at tiny scale.
func tinyRun(t *testing.T, name string, workers int, outDir string) *scenario.Report {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	p := &scenario.Pipeline{Config: scenario.Config{Scale: scenario.ScaleTiny, Workers: workers, OutDir: outDir}}
	rep, err := p.Run(sc)
	if err != nil {
		t.Fatalf("pipeline %s: %v", name, err)
	}
	return rep
}

// metric fetches one named metric from a report.
func metric(t *testing.T, rep *scenario.Report, name string) float64 {
	t.Helper()
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("report for %s has no metric %q (have %+v)", rep.Scenario, name, rep.Metrics)
	return 0
}

func TestRegistryHasAllBuiltins(t *testing.T) {
	names := map[string]bool{}
	for _, n := range scenario.Names() {
		names[n] = true
	}
	for _, want := range []string{"abr", "auto-lrla", "auto-srla", "routenet", "jobs", "nfv", "cellular"} {
		if !names[want] {
			t.Errorf("scenario %q not registered (have %v)", want, scenario.Names())
		}
	}
}

func TestJobsScenarioTiny(t *testing.T) {
	dir := t.TempDir()
	rep := tinyRun(t, "jobs", 0, dir)
	if rep.StudentKind != "mask" {
		t.Fatalf("student kind %q", rep.StudentKind)
	}
	if rep.Summary == "" {
		t.Fatal("empty interpretation summary")
	}
	if mk := metric(t, rep, "makespan"); mk <= 0 {
		t.Fatalf("makespan %v", mk)
	}
	// The expected interpretation is the critical path: the top-mask
	// dependencies must recover at least part of it.
	if hit := metric(t, rep, "critical_path_hit"); hit <= 0 {
		t.Fatalf("top-mask dependencies recover none of the critical path (hit %v)", hit)
	}
	// The persisted student must be a loadable mask result, and the
	// manifest must name a heuristic teacher.
	if _, err := artifact.LoadAs[any](rep.ArtifactPath); err != nil {
		t.Fatal(err)
	}
	man, err := artifact.LoadManifest(rep.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if man.TeacherKind != artifact.KindHeuristic || man.StudentKind != artifact.KindMaskResult {
		t.Fatalf("manifest kinds %q/%q", man.TeacherKind, man.StudentKind)
	}
}

func TestNFVScenarioTiny(t *testing.T) {
	rep := tinyRun(t, "nfv", 0, "")
	if rep.StudentKind != "mask" || rep.Summary == "" {
		t.Fatalf("bad student: kind %q, summary %q", rep.StudentKind, rep.Summary)
	}
	if u := metric(t, rep, "max_utilization"); u <= 0 {
		t.Fatalf("max utilization %v", u)
	}
	if n := metric(t, rep, "placements"); n <= 0 {
		t.Fatalf("placements %v", n)
	}
}

func TestCellularScenarioTiny(t *testing.T) {
	rep := tinyRun(t, "cellular", 0, "")
	if rep.StudentKind != "mask" || rep.Summary == "" {
		t.Fatalf("bad student: kind %q, summary %q", rep.StudentKind, rep.Summary)
	}
	if f := metric(t, rep, "associated_frac"); f <= 0 || f > 1 {
		t.Fatalf("associated fraction %v", f)
	}
	if n := metric(t, rep, "coverage_relations"); n <= 0 {
		t.Fatalf("coverage relations %v", n)
	}
}

// studentBytes marshals a report's persisted student model for bit-identity
// comparison.
func studentBytes(t *testing.T, rep *scenario.Report) []byte {
	t.Helper()
	a, err := artifact.Open(rep.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	return a.Payload
}

// TestPipelineDeterminism is the engine-level worker-invariance contract:
// the same scenario at the same scale must produce a bit-identical student
// for any worker count — for both student forms (a mask-search student and
// a distilled-tree student), including the incremental RouteNet* search and
// the Pensieve teacher whose demonstrations are rolled out ahead.
func TestPipelineDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers []int
	}{
		{name: "jobs", workers: []int{1, 3}},
		{name: "auto-lrla", workers: []int{1, 4}},
		{name: "routenet", workers: []int{1, 3}},
		{name: "abr", workers: []int{1, 3}},
	} {
		var ref []byte
		for _, w := range tc.workers {
			rep := tinyRun(t, tc.name, w, t.TempDir())
			b := studentBytes(t, rep)
			if ref == nil {
				ref = b
				continue
			}
			if !bytes.Equal(ref, b) {
				t.Errorf("%s: student bytes differ between worker counts %v", tc.name, tc.workers)
			}
		}
	}
}

// TestAllScenariosTinyEndToEnd is the acceptance sweep: every registered
// built-in scenario runs the full pipeline at tiny scale and persists a
// loadable student artifact plus manifest.
func TestAllScenariosTinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every tiny teacher; skipped in -short")
	}
	dir := t.TempDir()
	p := &scenario.Pipeline{Config: scenario.Config{Scale: scenario.ScaleTiny, Workers: 0, OutDir: dir}}
	names := []string{"abr", "auto-lrla", "auto-srla", "routenet", "jobs", "nfv", "cellular"}
	reps, err := p.RunAll(names)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("scenario %s: nil report", names[i])
		}
		if rep.Summary == "" || len(rep.Metrics) == 0 {
			t.Errorf("scenario %s: empty summary or metrics", names[i])
		}
		model, _, err := artifact.Load(rep.ArtifactPath)
		if err != nil {
			t.Errorf("scenario %s: student artifact: %v", names[i], err)
			continue
		}
		if _, ok := model.(encoding.BinaryMarshaler); !ok {
			t.Errorf("scenario %s: student model %T not re-persistable", names[i], model)
		}
		if _, err := artifact.LoadManifest(rep.ManifestPath); err != nil {
			t.Errorf("scenario %s: manifest: %v", names[i], err)
		}
	}
}

// TestTeacherCacheSkipsRetraining verifies a second pipeline run restores
// the teacher from CacheDir and still produces the identical student.
func TestTeacherCacheSkipsRetraining(t *testing.T) {
	cache := t.TempDir()
	sc, _ := scenario.Get("auto-srla")
	run := func() []byte {
		p := &scenario.Pipeline{Config: scenario.Config{
			Scale: scenario.ScaleTiny, Workers: 1, CacheDir: cache, OutDir: t.TempDir(),
		}}
		rep, err := p.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return studentBytes(t, rep)
	}
	first := run()
	// The first run must have populated the cache with an artifact loadable
	// under the scenario's fingerprint — that is what the second run hits.
	cfg := scenario.Config{Scale: scenario.ScaleTiny, CacheDir: cache}
	if !cfg.LoadCachedTeacher("auto-srla", sc.Fingerprint(cfg), auto.NewSRLA(seedSRLAAgent)) {
		t.Fatal("first run left no loadable teacher in the cache")
	}
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatal("cached-teacher run produced a different student")
	}
}

// TestDatasetCacheSkipsCollection verifies the dataset artifact kind end to
// end: the abr scenario's first run persists its DAgger corpus as a
// dataset/table artifact, and a second run refits on the cached table —
// skipping rollout collection — while producing a bit-identical student.
func TestDatasetCacheSkipsCollection(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the tiny Pensieve teacher; skipped in -short")
	}
	cache := t.TempDir()
	sc, _ := scenario.Get("abr")
	run := func() []byte {
		p := &scenario.Pipeline{Config: scenario.Config{
			Scale: scenario.ScaleTiny, Workers: 1, CacheDir: cache, OutDir: t.TempDir(),
		}}
		rep, err := p.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return studentBytes(t, rep)
	}
	first := run()
	cfg := scenario.Config{Scale: scenario.ScaleTiny, CacheDir: cache}
	ds, ok := cfg.LoadCachedDataset("abr", sc.Fingerprint(cfg))
	if !ok {
		t.Fatal("first run left no loadable dataset in the cache")
	}
	if ds.Len() == 0 || ds.NumFeatures() == 0 {
		t.Fatalf("cached corpus is degenerate: %d×%d", ds.Len(), ds.NumFeatures())
	}
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatal("cached-dataset run produced a different student")
	}
}

// TestTeacherQueryCloneContract enforces the scenario.Teacher contract on
// every cheap built-in teacher: Query answers an input vector, and a Clone
// answers identically while being independently usable.
func TestTeacherQueryCloneContract(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		input    func(sc scenario.Scenario, teach scenario.Teacher) []float64
	}{
		// Global/heuristic teachers take a connection mask (all-ones = Y_I).
		{scenario: "jobs", input: allOnesMask},
		{scenario: "nfv", input: allOnesMask},
		{scenario: "cellular", input: allOnesMask},
		// Local teachers take a state vector.
		{scenario: "auto-srla", input: func(scenario.Scenario, scenario.Teacher) []float64 {
			return make([]float64, auto.SRLAStateDim)
		}},
	} {
		sc, ok := scenario.Get(tc.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", tc.scenario)
		}
		teach, err := sc.Train(scenario.Config{Scale: scenario.ScaleTiny, Workers: 1})
		if err != nil {
			t.Fatalf("%s: train: %v", tc.scenario, err)
		}
		in := tc.input(sc, teach)
		want := teach.Query(in)
		if len(want) == 0 {
			t.Fatalf("%s: teacher answered an empty vector", tc.scenario)
		}
		got := teach.Clone().Query(in)
		if len(got) != len(want) {
			t.Fatalf("%s: clone output length %d, teacher %d", tc.scenario, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: clone disagrees with teacher at %d: %v vs %v", tc.scenario, i, got[i], want[i])
			}
		}
	}
}

// allOnesMask sizes an identity mask by querying the teacher's system with
// a nil mask first (nil = unmasked by convention in every mask.System).
func allOnesMask(sc scenario.Scenario, teach scenario.Teacher) []float64 {
	st := teach.(systemTeacher)
	ones := make([]float64, st.sys.NumConnections())
	for i := range ones {
		ones[i] = 1
	}
	return ones
}
