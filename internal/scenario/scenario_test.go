package scenario

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/metis/mask"
)

// fakeTeacher implements Teacher over a fixed vector.
type fakeTeacher struct{ out []float64 }

func (t *fakeTeacher) Query(in []float64) []float64 { return t.out }
func (t *fakeTeacher) Clone() Teacher               { return &fakeTeacher{out: append([]float64(nil), t.out...)} }
func (t *fakeTeacher) Model() any                   { return nil }

// fakeStudent implements Student over a mask result (a registered artifact
// kind, so the pipeline can persist it).
type fakeStudent struct{ res *mask.Result }

func (s *fakeStudent) Kind() string    { return "mask" }
func (s *fakeStudent) Summary() string { return "fake summary" }
func (s *fakeStudent) Model() any      { return s.res }

// fakeScenario records the stage order the pipeline drives it through.
type fakeScenario struct {
	name   string
	stages []string
	fail   string // stage to fail at, "" for none
}

func (f *fakeScenario) Name() string                  { return f.name }
func (f *fakeScenario) Describe() string              { return "a fake scenario" }
func (f *fakeScenario) Fingerprint(cfg Config) string { return "fake/" + cfg.Scale }
func (f *fakeScenario) stage(s string) error {
	f.stages = append(f.stages, s)
	if f.fail == s {
		return fmt.Errorf("boom at %s", s)
	}
	return nil
}

func (f *fakeScenario) Train(cfg Config) (Teacher, error) {
	return &fakeTeacher{out: []float64{1, 2}}, f.stage("train")
}

func (f *fakeScenario) Distill(cfg Config, t Teacher) (Student, error) {
	return &fakeStudent{res: &mask.Result{W: []float64{0.9, 0.1}}}, f.stage("distill")
}

func (f *fakeScenario) Evaluate(cfg Config, t Teacher, s Student) ([]Metric, error) {
	return []Metric{{Name: "quality", Value: 0.5}}, f.stage("evaluate")
}

func TestPipelineStageOrderAndReport(t *testing.T) {
	sc := &fakeScenario{name: "fake"}
	p := &Pipeline{Config: Config{Scale: ScaleTiny}}
	rep, err := p.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(sc.stages, ","), "train,distill,evaluate"; got != want {
		t.Fatalf("stage order %q, want %q", got, want)
	}
	if rep.Scenario != "fake" || rep.Scale != ScaleTiny || rep.StudentKind != "mask" {
		t.Fatalf("bad report header: %+v", rep)
	}
	if len(rep.Metrics) != 1 || rep.Metrics[0].Name != "quality" {
		t.Fatalf("bad metrics: %+v", rep.Metrics)
	}
	if !strings.Contains(rep.String(), "fake summary") {
		t.Fatalf("report rendering lost the summary:\n%s", rep)
	}
	if rep.ArtifactPath != "" {
		t.Fatalf("no OutDir configured but artifact written to %s", rep.ArtifactPath)
	}
}

func TestPipelinePersistsStudentAndManifest(t *testing.T) {
	dir := t.TempDir()
	sc := &fakeScenario{name: "fake"}
	p := &Pipeline{Config: Config{Scale: ScaleTiny, OutDir: dir}}
	rep, err := p.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ArtifactPath != filepath.Join(dir, "fake-tiny.metis") {
		t.Fatalf("artifact path %s", rep.ArtifactPath)
	}
	// Student artifact: right kind, scenario-tagged metadata.
	a, err := artifact.Open(rep.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != artifact.KindMaskResult {
		t.Fatalf("student artifact kind %s", a.Kind)
	}
	if a.Meta["scenario"] != "fake" || a.Meta["scale"] != ScaleTiny || a.Meta["student"] != "mask" {
		t.Fatalf("student meta %+v", a.Meta)
	}
	// The serving name is scale-qualified so students of the same scenario
	// at different scales can share one directory in metis-serve.
	if a.Meta["name"] != "fake-tiny" {
		t.Fatalf("serving name %q, want fake-tiny", a.Meta["name"])
	}
	// Manifest: kinds, config fingerprint, metrics, and a student
	// fingerprint matching the stored payload's checksum.
	man, err := artifact.LoadManifest(rep.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if man.Scenario != "fake" || man.Scale != ScaleTiny {
		t.Fatalf("manifest header %+v", man)
	}
	if man.TeacherKind != artifact.KindHeuristic {
		t.Fatalf("teacher kind %s, want heuristic", man.TeacherKind)
	}
	if man.StudentKind != artifact.KindMaskResult || man.Config != "fake/tiny" {
		t.Fatalf("manifest %+v", man)
	}
	if man.Metrics["quality"] != 0.5 {
		t.Fatalf("manifest metrics %+v", man.Metrics)
	}
	if want := fmt.Sprintf("%08x", artifact.Checksum(a.Payload)); man.StudentFingerprint != want {
		t.Fatalf("student fingerprint %s, want %s", man.StudentFingerprint, want)
	}
}

// TestPersistedNamesDistinctAcrossScales: two scales of one scenario in a
// shared OutDir must carry distinct serving names (else metis-serve rejects
// the directory as holding duplicate models).
func TestPersistedNamesDistinctAcrossScales(t *testing.T) {
	dir := t.TempDir()
	sc := &fakeScenario{name: "fake-scales"}
	names := map[string]bool{}
	for _, scale := range []string{ScaleTiny, ScaleTest} {
		p := &Pipeline{Config: Config{Scale: scale, OutDir: dir}}
		rep, err := p.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		a, err := artifact.Open(rep.ArtifactPath)
		if err != nil {
			t.Fatal(err)
		}
		if names[a.Meta["name"]] {
			t.Fatalf("serving name %q collides across scales", a.Meta["name"])
		}
		names[a.Meta["name"]] = true
	}
}

func TestPipelineRejectsUnknownScale(t *testing.T) {
	p := &Pipeline{Config: Config{Scale: "galactic"}}
	if _, err := p.Run(&fakeScenario{name: "fake"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestPipelineStageErrorsAreTagged(t *testing.T) {
	for _, stage := range []string{"train", "distill", "evaluate"} {
		p := &Pipeline{}
		_, err := p.Run(&fakeScenario{name: "fake", fail: stage})
		if err == nil || !strings.Contains(err.Error(), stage) {
			t.Fatalf("stage %s: error %v", stage, err)
		}
	}
}

func TestRunAllKeepsOrderAndJoinsErrors(t *testing.T) {
	Register(&fakeScenario{name: "fake-a"})
	Register(&fakeScenario{name: "fake-b"})
	p := &Pipeline{Config: Config{Workers: 2}}
	reps, err := p.RunAll([]string{"fake-b", "no-such-scenario", "fake-a"})
	if err == nil || !strings.Contains(err.Error(), "no-such-scenario") {
		t.Fatalf("missing unknown-scenario error, got %v", err)
	}
	if reps[0] == nil || reps[0].Scenario != "fake-b" {
		t.Fatalf("slot 0: %+v", reps[0])
	}
	if reps[1] != nil {
		t.Fatalf("failed slot should be nil, got %+v", reps[1])
	}
	if reps[2] == nil || reps[2].Scenario != "fake-a" {
		t.Fatalf("slot 2: %+v", reps[2])
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	Register(&fakeScenario{name: "fake-dup"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(&fakeScenario{name: "fake-dup"})
}

func TestTeacherCacheRoundTrip(t *testing.T) {
	cfg := Config{Scale: ScaleTiny, CacheDir: t.TempDir()}
	model := &mask.Result{W: []float64{0.25, 0.75}, Norm: 0.5}

	restored := new(mask.Result)
	if cfg.LoadCachedTeacher("fake", "fp1", restored) {
		t.Fatal("cache hit before anything was saved")
	}
	if err := cfg.SaveCachedTeacher("fake", "fp1", model); err != nil {
		t.Fatal(err)
	}
	if !cfg.LoadCachedTeacher("fake", "fp1", restored) {
		t.Fatal("cache miss after save")
	}
	if restored.W[1] != 0.75 || restored.Norm != 0.5 {
		t.Fatalf("restored %+v", restored)
	}
	// A fingerprint change (different training knobs) must invalidate.
	if cfg.LoadCachedTeacher("fake", "fp2", new(mask.Result)) {
		t.Fatal("fingerprint mismatch still hit")
	}
	// The same name and fingerprint at another scale is another teacher.
	other := cfg
	other.Scale = ScaleTest
	if other.LoadCachedTeacher("fake", "fp1", new(mask.Result)) {
		t.Fatal("a teacher cached at one scale hit at another")
	}
	// Caching disabled: both paths are no-ops.
	off := Config{Scale: ScaleTiny}
	if err := off.SaveCachedTeacher("fake", "fp1", model); err != nil {
		t.Fatal(err)
	}
	if off.LoadCachedTeacher("fake", "fp1", new(mask.Result)) {
		t.Fatal("cache hit with caching disabled")
	}
}
