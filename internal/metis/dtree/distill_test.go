package dtree

import (
	"testing"

	"repro/internal/abr"
	"repro/internal/pensieve"
	"repro/internal/rl"
	"repro/internal/trace"
)

// thresholdPolicy is a deterministic synthetic teacher: pick action by
// bucketing state[0].
type thresholdPolicy struct{ actions int }

func (p thresholdPolicy) ActionProbs(s []float64) []float64 {
	out := make([]float64, p.actions)
	idx := int(s[0] * float64(p.actions))
	if idx >= p.actions {
		idx = p.actions - 1
	}
	if idx < 0 {
		idx = 0
	}
	out[idx] = 1
	return out
}

// lineEnv is a toy env whose single state feature random-walks in [0,1].
type lineEnv struct {
	x     float64
	steps int
	seed  int64
}

func (e *lineEnv) Reset(seed int64) []float64 {
	e.seed = seed
	e.x = float64(uint64(seed)%97) / 97
	e.steps = 0
	return []float64{e.x}
}

func (e *lineEnv) Step(a int) ([]float64, float64, bool) {
	e.steps++
	e.x += 0.107
	if e.x >= 1 {
		e.x -= 1
	}
	return []float64{e.x}, 0, e.steps >= 30
}

func (e *lineEnv) StateDim() int   { return 1 }
func (e *lineEnv) NumActions() int { return 4 }
func (e *lineEnv) Snapshot() any   { return *e }
func (e *lineEnv) Restore(s any)   { *e = s.(lineEnv) }

func TestDistillPolicyHighFidelity(t *testing.T) {
	env := &lineEnv{}
	teacher := thresholdPolicy{actions: 4}
	res, err := DistillPolicy(env, teacher, DistillConfig{
		MaxLeaves: 16, Iterations: 2, EpisodesPerIter: 10, MaxSteps: 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.95 {
		t.Fatalf("fidelity %.3f, want ≥0.95 for a 4-bucket teacher", res.Fidelity)
	}
	if res.DatasetSize == 0 {
		t.Fatal("no samples collected")
	}
	// The tree must reproduce the bucketing on fresh points.
	for _, x := range []float64{0.1, 0.3, 0.6, 0.9} {
		want := rl.Greedy(teacher, []float64{x})
		if got := res.Tree.Predict([]float64{x}); got != want {
			t.Fatalf("tree(%v) = %d, teacher = %d", x, got, want)
		}
	}
}

func TestDistillResampleRequiresSnapshotter(t *testing.T) {
	// chain env without Snapshot support.
	env := noSnapEnv{}
	_, err := DistillPolicy(env, thresholdPolicy{actions: 2}, DistillConfig{Resample: true, Seed: 1})
	if err == nil {
		t.Fatal("expected error for Resample without Snapshotter")
	}
}

type noSnapEnv struct{}

func (noSnapEnv) Reset(int64) []float64               { return []float64{0} }
func (noSnapEnv) Step(int) ([]float64, float64, bool) { return []float64{0}, 0, true }
func (noSnapEnv) StateDim() int                       { return 1 }
func (noSnapEnv) NumActions() int                     { return 2 }

// TestDistillPensieveEndToEnd is the integration test for the §3.2 pipeline:
// train a small teacher, distill it, and check the student stays within a
// few percent of the teacher's QoE (the paper reports <2%; we allow more at
// the reduced test scale).
func TestDistillPensieveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := abr.NewEnv(abr.Config{
		Video:  abr.StandardVideo(48, 1),
		Traces: trace.HSDPA(10, 400, 7),
	})
	agent := pensieve.NewAgent(2, false)
	pensieve.Pretrain(agent, env, 200, 5, 0)

	res, err := DistillPolicy(env, agent, DistillConfig{
		MaxLeaves: 100, Iterations: 2, EpisodesPerIter: 10,
		MaxSteps: 60, Resample: true, QHorizon: 5, Seed: 3,
		FeatureNames: abr.FeatureNames(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.7 {
		t.Fatalf("fidelity %.3f too low", res.Fidelity)
	}
	teacherQoE := meanOf(abr.RunTraces(env, agent.Selector(), 10))
	studentQoE := meanOf(abr.RunTraces(env, abr.PolicySelector(res.Tree.Predict), 10))
	if studentQoE < teacherQoE-0.25 {
		t.Fatalf("student QoE %.3f much worse than teacher %.3f", studentQoE, teacherQoE)
	}
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
