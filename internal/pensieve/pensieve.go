// Package pensieve implements the Pensieve teacher: an actor-critic ABR
// policy trained on the abr environment (Mao et al., SIGCOMM 2017), including
// the §6.2 "modified structure" variant that re-injects the last chunk
// bitrate r_t immediately before the output layer.
package pensieve

import (
	"math/rand"
	"sync"

	"repro/internal/abr"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rl"
)

// HiddenWidth is the hidden-layer width of the teacher networks.
const HiddenWidth = 64

// Agent is a Pensieve ABR policy. It implements rl.Policy.
type Agent struct {
	*rl.A2C
	// Modified reports whether this agent uses the §6.2 redesigned
	// structure (r_t skip connection to the output layer).
	Modified bool
}

// NewAgent builds an untrained Pensieve agent. If modified is true, the
// actor re-injects the last-bitrate feature before the output layer,
// implementing the Figure 10(b) redesign.
func NewAgent(seed int64, modified bool) *Agent {
	a := &Agent{
		A2C:      rl.NewA2C(abr.StateDim, abr.NumBitrates, HiddenWidth, seed),
		Modified: modified,
	}
	if modified {
		a.A2C.Actor = nn.NewNetwork(nn.Config{
			Sizes:      []int{abr.StateDim, HiddenWidth, HiddenWidth, abr.NumBitrates},
			Hidden:     nn.ReLU,
			Output:     nn.SoftmaxAct,
			SkipInputs: []int{abr.FeatLastBitrate},
			Seed:       seed,
		})
	}
	a.A2C.Gamma = 0.9
	a.A2C.EntropyWeight = 0.01
	a.A2C.ActorLR = 1e-4
	a.A2C.CriticLR = 1e-3
	a.A2C.BatchEpisodes = 16
	return a
}

// TrainStandard runs the standard teacher recipe: behavior-cloning pretraining
// followed by A2C fine-tuning, with both phase lengths scaled by scale
// (scale 1 ≈ 300 pretrain episodes + 2000 fine-tune episodes, a few seconds).
// Pretraining rolls its demonstrations out on every core.
func TrainStandard(a *Agent, env *abr.Env, scale float64, seed int64) {
	pre := int(300 * scale)
	ft := int(2000 * scale)
	if pre < 1 {
		pre = 1
	}
	Pretrain(a, env, pre, seed, 0)
	if ft > 0 {
		a.A2C.Train(env, ft, env.Config().Video.NumChunks+2, seed+1)
	}
}

// Clone returns an independent copy of the agent (weights copied, scratch
// state fresh) that can act concurrently with the original.
func (a *Agent) Clone() *Agent {
	return &Agent{A2C: a.A2C.Clone(), Modified: a.Modified}
}

// ClonePolicy implements rl.ClonablePolicy, overriding the embedded A2C
// method so the clone keeps its Pensieve identity.
func (a *Agent) ClonePolicy() rl.Policy { return a.Clone() }

// Act returns the greedy bitrate decision for a flattened ABR state.
func (a *Agent) Act(state []float64) int { return rl.Greedy(a, state) }

// Selector adapts the agent to the abr episode runner.
func (a *Agent) Selector() abr.Selector {
	return abr.PolicySelector(a.Act)
}

// Pretrain behavior-clones the robustMPC heuristic into the actor for the
// given number of episodes. A2C alone needs ~100k episodes (the paper trains
// Pensieve for days on 16 parallel agents); cloning a strong heuristic first
// and fine-tuning with A2C reaches a state-dependent, competitive teacher in
// seconds, which is what the Metis experiments need. The critic is fitted to
// the observed discounted returns at the same time.
//
// The demonstrations do not depend on the agent, so up to workers
// goroutines (0 = GOMAXPROCS, 1 = serial) roll them out ahead of the
// updates on environment clones; the updates consume them in episode
// order, so the trained agent is bit-identical for every worker count.
func Pretrain(a *Agent, env *abr.Env, episodes int, seed int64, workers int) {
	opt := nn.NewAdam(1e-3)
	copt := nn.NewAdam(1e-3)
	forEachDemonstration(env, episodes, seed, parallel.Workers(workers), func(traj []demoStep) {
		// Supervised actor update and Monte-Carlo critic fit.
		a.Actor.ZeroGrad()
		a.Critic.ZeroGrad()
		g := 0.0
		rets := make([]float64, len(traj))
		for i := len(traj) - 1; i >= 0; i-- {
			g = traj[i].reward + a.Gamma*g
			rets[i] = g
		}
		inv := 1.0 / float64(len(traj))
		for i, smp := range traj {
			probs := a.Actor.Forward(smp.state)
			a.Actor.Backward(nn.CrossEntropyGrad(probs, smp.action, inv))
			v := a.Critic.Forward(smp.state)[0]
			a.Critic.Backward([]float64{2 * (v - rets[i]) * inv})
		}
		a.Actor.ClipGrad(5)
		a.Critic.ClipGrad(5)
		opt.Step(a.Actor)
		copt.Step(a.Critic)
	})
}

// demoStep is one robustMPC decision of a demonstration episode.
type demoStep struct {
	state  []float64
	action int
	reward float64
}

// demonstrate rolls robustMPC over the episode env.Reset(seed) selects.
func demonstrate(env *abr.Env, seed int64) []demoStep {
	mpc := &abr.RobustMPC{}
	env.Reset(seed)
	var traj []demoStep
	for {
		st := append([]float64(nil), env.State()...)
		act := mpc.Select(env.Observe())
		_, r, done := env.Step(act)
		traj = append(traj, demoStep{state: st, action: act, reward: r})
		if done {
			return traj
		}
	}
}

// forEachDemonstration calls consume with the demonstration of each episode
// (reset with seed+ep) in episode order, on the caller's goroutine. With
// one worker it rolls each episode out on env just before consuming it.
// Otherwise workers goroutines roll episodes out on clones of env, at most
// 2·workers episodes ahead of consume. It returns once they have all
// exited; a panic in a rollout is re-raised on the caller's goroutine.
func forEachDemonstration(env *abr.Env, episodes int, seed int64, workers int, consume func([]demoStep)) {
	if workers <= 1 || episodes <= 1 {
		for ep := 0; ep < episodes; ep++ {
			consume(demonstrate(env, seed+int64(ep)))
		}
		return
	}
	window := 2 * workers
	ready := make([]chan []demoStep, episodes)
	for i := range ready {
		ready[i] = make(chan []demoStep, 1)
	}
	var (
		mu       sync.Mutex
		advanced = sync.NewCond(&mu)
		consumed int  // episodes handed to consume
		stopped  bool // a rollout panicked or the consumer returned
	)
	stop := func() {
		mu.Lock()
		stopped = true
		mu.Unlock()
		advanced.Broadcast()
	}
	failed := make(chan any, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer func() {
			if r := recover(); r != nil {
				failed <- r
			}
		}()
		envs := parallel.Pool(env.CloneEnv().(*abr.Env), workers, func() *abr.Env { return env.CloneEnv().(*abr.Env) })
		parallel.ForEachWorker(workers, episodes, func(w, ep int) {
			defer func() {
				if r := recover(); r != nil {
					stop()
					panic(r)
				}
			}()
			// Episodes are handed out in order, so the gate never holds
			// back the episode consume waits for.
			mu.Lock()
			for ep >= consumed+window && !stopped {
				advanced.Wait()
			}
			skip := stopped
			mu.Unlock()
			if !skip {
				ready[ep] <- demonstrate(envs[w], seed+int64(ep))
			}
		})
	}()
	defer func() {
		stop()
		<-exited
	}()
	for ep := 0; ep < episodes; ep++ {
		select {
		case traj := <-ready[ep]:
			mu.Lock()
			consumed = ep + 1
			mu.Unlock()
			advanced.Broadcast()
			consume(traj)
		case r := <-failed:
			panic(r)
		}
	}
}

// CurvePoint is one evaluation sample of a training curve.
type CurvePoint struct {
	Episode  int
	TrainQoE float64
	TestQoE  float64
}

// TrainOptions controls Train.
type TrainOptions struct {
	// Episodes is the number of training episodes.
	Episodes int
	// EvalEvery inserts a curve point every this many episodes (0 disables).
	EvalEvery int
	// EvalEpisodes is how many episodes each evaluation averages over.
	EvalEpisodes int
	// TestEnv, if non-nil, is evaluated alongside the training env.
	TestEnv *abr.Env
	// Seed drives all training randomness.
	Seed int64
}

// Train trains the agent on env and returns the evaluation curve (empty if
// EvalEvery is zero).
func Train(a *Agent, env *abr.Env, opts TrainOptions) []CurvePoint {
	if opts.EvalEpisodes == 0 {
		opts.EvalEpisodes = 10
	}
	var curve []CurvePoint
	chunk := opts.EvalEvery
	if chunk <= 0 {
		chunk = opts.Episodes
	}
	for done := 0; done < opts.Episodes; done += chunk {
		n := chunk
		if done+n > opts.Episodes {
			n = opts.Episodes - done
		}
		a.A2C.Train(env, n, env.Config().Video.NumChunks+1, opts.Seed+int64(done))
		if opts.EvalEvery > 0 {
			p := CurvePoint{
				Episode:  done + n,
				TrainQoE: meanQoE(env, a, opts.EvalEpisodes),
			}
			if opts.TestEnv != nil {
				p.TestQoE = meanQoE(opts.TestEnv, a, opts.EvalEpisodes)
			}
			curve = append(curve, p)
		}
	}
	return curve
}

func meanQoE(env *abr.Env, a *Agent, episodes int) float64 {
	qoes := abr.RunTraces(env, a.Selector(), episodes)
	s := 0.0
	for _, q := range qoes {
		s += q
	}
	return s / float64(len(qoes))
}

// SampleTrajectories rolls the greedy agent over n episodes and returns the
// visited (state, action) pairs — the teacher dataset for distillation.
func SampleTrajectories(env *abr.Env, a *Agent, n int) (states [][]float64, actions []int) {
	for ep := 0; ep < n; ep++ {
		s := env.Reset(int64(ep))
		for {
			act := a.Act(s)
			states = append(states, append([]float64(nil), s...))
			actions = append(actions, act)
			next, _, done := env.Step(act)
			if done {
				break
			}
			s = next
		}
	}
	return states, actions
}

// Probs returns the full action distribution at a state (used by the
// debugging deep dive, Fig. 25).
func (a *Agent) Probs(state []float64) []float64 { return a.ActionProbs(state) }

// RandomState draws a plausible random ABR state; used by interpretation
// baselines that need input perturbations.
func RandomState(rng *rand.Rand) []float64 {
	s := make([]float64, abr.StateDim)
	s[abr.FeatLastBitrate] = abr.BitratesKbps[rng.Intn(abr.NumBitrates)] / abr.BitratesKbps[abr.NumBitrates-1]
	s[abr.FeatBuffer] = rng.Float64() * 6 // 0–60 s / 10
	for i := 0; i < abr.HistoryLen; i++ {
		s[abr.FeatThroughput+i] = rng.Float64() * 6   // Mbps
		s[abr.FeatDownloadTime+i] = rng.Float64() * 1 // 0–10 s / 10
	}
	for q := 0; q < abr.NumBitrates; q++ {
		s[abr.FeatChunkSizes+q] = abr.BitratesKbps[q] * 1000 * abr.ChunkSeconds / 8e6
	}
	s[abr.FeatRemain] = rng.Float64()
	return s
}
