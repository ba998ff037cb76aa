package pensieve

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/abr"
	"repro/internal/trace"
)

func trainEnv() *abr.Env {
	return abr.NewEnv(abr.Config{
		Video:  abr.StandardVideo(48, 1),
		Traces: trace.HSDPA(20, 400, 7),
	})
}

func TestAgentShapes(t *testing.T) {
	a := NewAgent(1, false)
	s := make([]float64, abr.StateDim)
	probs := a.Probs(s)
	if len(probs) != abr.NumBitrates {
		t.Fatalf("probs len = %d, want %d", len(probs), abr.NumBitrates)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probs sum = %v, want 1", sum)
	}
}

func TestModifiedAgentHasSkip(t *testing.T) {
	a := NewAgent(1, true)
	if !a.Modified {
		t.Fatal("Modified flag not set")
	}
	last := a.Actor.Layers[len(a.Actor.Layers)-1]
	if last.In != HiddenWidth+1 {
		t.Fatalf("modified output fan-in = %d, want %d", last.In, HiddenWidth+1)
	}
}

func TestTrainingImprovesQoE(t *testing.T) {
	env := trainEnv()
	a := NewAgent(2, false)
	before := meanQoE(env, a, 10)
	Pretrain(a, env, 300, 11, 0)
	after := meanQoE(env, a, 10)
	if after <= before {
		t.Fatalf("training did not improve QoE: before %.3f after %.3f", before, after)
	}
	// A trained teacher should clearly beat always-lowest-bitrate and be
	// competitive with the rate-based heuristic.
	fixedQoE, rbQoE := 0.0, 0.0
	for _, q := range abr.RunTraces(env, abr.AlgorithmSelector(abr.Fixed{}), 10) {
		fixedQoE += q
	}
	for _, q := range abr.RunTraces(env, abr.AlgorithmSelector(&abr.RB{}), 10) {
		rbQoE += q
	}
	fixedQoE /= 10
	rbQoE /= 10
	if after <= fixedQoE {
		t.Fatalf("trained QoE %.3f does not beat Fixed %.3f", after, fixedQoE)
	}
	if after <= rbQoE {
		t.Fatalf("trained QoE %.3f does not beat RB %.3f", after, rbQoE)
	}
}

func TestTrainCurveRecorded(t *testing.T) {
	env := trainEnv()
	test := abr.NewEnv(abr.Config{Video: abr.StandardVideo(48, 2), Traces: trace.HSDPA(5, 400, 8)})
	a := NewAgent(3, false)
	curve := Train(a, env, TrainOptions{Episodes: 60, EvalEvery: 20, EvalEpisodes: 3, TestEnv: test, Seed: 5})
	if len(curve) != 3 {
		t.Fatalf("curve points = %d, want 3", len(curve))
	}
	if curve[2].Episode != 60 {
		t.Fatalf("last curve episode = %d, want 60", curve[2].Episode)
	}
}

func TestSampleTrajectories(t *testing.T) {
	env := trainEnv()
	a := NewAgent(4, false)
	states, actions := SampleTrajectories(env, a, 3)
	if len(states) != len(actions) {
		t.Fatalf("states %d != actions %d", len(states), len(actions))
	}
	if len(states) != 3*48 {
		t.Fatalf("trajectory samples = %d, want %d", len(states), 3*48)
	}
	for _, s := range states {
		if len(s) != abr.StateDim {
			t.Fatalf("state dim %d", len(s))
		}
	}
}

func TestRandomStateValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		s := RandomState(rng)
		if len(s) != abr.StateDim {
			t.Fatalf("dim %d", len(s))
		}
		if s[abr.FeatBuffer] < 0 || s[abr.FeatBuffer] > 6 {
			t.Fatalf("buffer feature out of range: %v", s[abr.FeatBuffer])
		}
	}
}

func TestAgentSaveLoadRoundtrip(t *testing.T) {
	env := trainEnv()
	a := NewAgent(5, true)
	Pretrain(a, env, 50, 9, 0)
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgent(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Modified {
		t.Fatal("Modified flag lost in roundtrip")
	}
	s := env.Reset(3)
	wantProbs := a.Probs(s)
	gotProbs := back.Probs(s)
	for i := range wantProbs {
		if wantProbs[i] != gotProbs[i] {
			t.Fatalf("loaded agent disagrees: %v vs %v", gotProbs, wantProbs)
		}
	}
	// The loaded agent must remain trainable.
	back.A2C.Train(env, 10, 50, 11)
}

// TestPretrainWorkerInvariant pins the rolled-ahead demonstrations: the
// pretrained agent is byte-identical for every worker count, including
// counts above the look-ahead window's smallest size.
func TestPretrainWorkerInvariant(t *testing.T) {
	env := trainEnv()
	var ref []byte
	for _, workers := range []int{1, 2, 5} {
		a := NewAgent(4, false)
		Pretrain(a, env, 12, 21, workers)
		b, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("Pretrain with %d workers differs from the serial agent", workers)
		}
	}
}

// TestDemonstrationsStopWithConsumer checks that a consumer that gives up
// part way (here by panicking) releases the look-ahead workers: the call
// returns, with the panic, only after they have exited.
func TestDemonstrationsStopWithConsumer(t *testing.T) {
	env := trainEnv()
	seen := 0
	func() {
		defer func() {
			if r := recover(); r != "stop" {
				t.Fatalf("recovered %v, want the consumer's panic", r)
			}
		}()
		forEachDemonstration(env, 40, 3, 3, func([]demoStep) {
			if seen++; seen == 4 {
				panic("stop")
			}
		})
	}()
	if seen != 4 {
		t.Fatalf("consumer saw %d episodes, want 4", seen)
	}
}
