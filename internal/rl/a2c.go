package rl

import (
	"math"
	"math/rand"

	"repro/internal/nn"
)

// A2C trains a softmax policy network and a value (critic) network with the
// advantage actor-critic algorithm, the same optimization family used by
// Pensieve and AuTO's long-flow agent in the paper.
type A2C struct {
	Actor  *nn.Network // softmax output over actions
	Critic *nn.Network // scalar value output

	// Gamma is the discount factor (default 0.99 if zero).
	Gamma float64
	// EntropyWeight encourages exploration (default 0.01 if zero).
	EntropyWeight float64
	// ActorLR / CriticLR are learning rates (defaults 1e-3 / 1e-3).
	ActorLR, CriticLR float64
	// BatchEpisodes is how many episodes are accumulated per gradient step.
	BatchEpisodes int

	actorOpt  *nn.Adam
	criticOpt *nn.Adam
}

// NewA2C constructs an A2C trainer for an environment with the given state
// and action dimensions, using hidden layers of the given width.
func NewA2C(stateDim, numActions, hidden int, seed int64) *A2C {
	return &A2C{
		Actor: nn.NewNetwork(nn.Config{
			Sizes:  []int{stateDim, hidden, hidden, numActions},
			Hidden: nn.ReLU, Output: nn.SoftmaxAct, Seed: seed,
		}),
		Critic: nn.NewNetwork(nn.Config{
			Sizes:  []int{stateDim, hidden, hidden, 1},
			Hidden: nn.ReLU, Output: nn.Identity, Seed: seed + 1,
		}),
		Gamma:         0.99,
		EntropyWeight: 0.01,
		ActorLR:       1e-3,
		CriticLR:      1e-3,
		BatchEpisodes: 4,
	}
}

// ActionProbs implements Policy using the actor network.
func (t *A2C) ActionProbs(s []float64) []float64 {
	out := t.Actor.Forward(s)
	probs := make([]float64, len(out))
	copy(probs, out)
	return probs
}

// Value returns the critic's estimate V(s).
func (t *A2C) Value(s []float64) float64 { return t.Critic.Forward(s)[0] }

// Clone returns a deep copy of the trainer with identical weights and
// hyperparameters but fresh optimizer state and scratch buffers, so the copy
// can act concurrently with the original.
func (t *A2C) Clone() *A2C {
	return &A2C{
		Actor:         t.Actor.Clone(),
		Critic:        t.Critic.Clone(),
		Gamma:         t.Gamma,
		EntropyWeight: t.EntropyWeight,
		ActorLR:       t.ActorLR,
		CriticLR:      t.CriticLR,
		BatchEpisodes: t.BatchEpisodes,
	}
}

// ClonePolicy implements ClonablePolicy.
func (t *A2C) ClonePolicy() Policy { return t.Clone() }

// transition is one step of an episode.
type transition struct {
	state  []float64
	action int
	reward float64
}

// Episode rolls one episode in env with stochastic (sampled) actions and
// returns the trajectory and total reward.
func (t *A2C) episode(env Env, seed int64, rng *rand.Rand, maxSteps int) ([]transition, float64) {
	s := env.Reset(seed)
	var traj []transition
	total := 0.0
	for step := 0; step < maxSteps; step++ {
		// Sample reads the actor's output in place; no copy is needed.
		a := nn.Sample(rng, t.Actor.Forward(s))
		next, r, done := env.Step(a)
		traj = append(traj, transition{state: append([]float64(nil), s...), action: a, reward: r})
		total += r
		if done {
			break
		}
		s = next
	}
	return traj, total
}

// TrainResult summarizes one call to Train.
type TrainResult struct {
	// EpisodeRewards holds total reward per training episode, in order.
	EpisodeRewards []float64
}

// Train runs the given number of episodes of on-policy A2C training.
// maxSteps bounds episode length. Training is deterministic given seed.
func (t *A2C) Train(env Env, episodes, maxSteps int, seed int64) TrainResult {
	if t.actorOpt == nil {
		t.actorOpt = nn.NewAdam(t.ActorLR)
		t.criticOpt = nn.NewAdam(t.CriticLR)
	}
	rng := rand.New(rand.NewSource(seed))
	res := TrainResult{}
	batch := t.BatchEpisodes
	if batch <= 0 {
		batch = 1
	}
	for ep := 0; ep < episodes; ep += batch {
		t.Actor.ZeroGrad()
		t.Critic.ZeroGrad()
		n := batch
		if ep+n > episodes {
			n = episodes - ep
		}
		totalSteps := 0
		type labeled struct {
			tr  transition
			ret float64
		}
		var all []labeled
		for b := 0; b < n; b++ {
			traj, total := t.episode(env, seed+int64(ep+b), rng, maxSteps)
			res.EpisodeRewards = append(res.EpisodeRewards, total)
			// Discounted returns.
			g := 0.0
			rets := make([]float64, len(traj))
			for i := len(traj) - 1; i >= 0; i-- {
				g = traj[i].reward + t.Gamma*g
				rets[i] = g
			}
			for i, tr := range traj {
				all = append(all, labeled{tr: tr, ret: rets[i]})
			}
			totalSteps += len(traj)
		}
		if totalSteps == 0 {
			continue
		}
		// Standardize advantages across the batch: with sparse catastrophic
		// rewards (e.g. rebuffering) raw advantages have enormous variance
		// and stall learning.
		inv := 1.0 / float64(totalSteps)
		advs := make([]float64, len(all))
		meanAdv, m2 := 0.0, 0.0
		var dv [1]float64
		for i, l := range all {
			v := t.Critic.Forward(l.tr.state)[0]
			advs[i] = l.ret - v
			meanAdv += advs[i]
			// Critic: MSE toward the Monte-Carlo return. Its gradient
			// needs no batch statistics, so it is taken on this pass.
			dv[0] = 2 * (v - l.ret) * inv
			t.Critic.Backward(dv[:])
		}
		meanAdv /= float64(len(all))
		for _, a := range advs {
			m2 += (a - meanAdv) * (a - meanAdv)
		}
		stdAdv := math.Sqrt(m2/float64(len(all))) + 1e-8
		for i, l := range all {
			adv := (advs[i] - meanAdv) / stdAdv
			// Actor: policy-gradient step plus entropy bonus.
			probs := t.Actor.Forward(l.tr.state)
			grad := nn.CrossEntropyGrad(probs, l.tr.action, adv*inv)
			// d(-H)/dlogit_i = p_i*(log p_i + H); subtract EntropyWeight * dH.
			h := nn.Entropy(probs)
			for i, p := range probs {
				if p > 1e-12 {
					grad[i] += t.EntropyWeight * inv * p * (math.Log(p) + h)
				}
			}
			t.Actor.Backward(grad)
		}
		t.Actor.ClipGrad(5)
		t.Critic.ClipGrad(5)
		t.actorOpt.Step(t.Actor)
		t.criticOpt.Step(t.Critic)
	}
	return res
}

// Evaluate runs greedy episodes and returns the mean total reward.
func Evaluate(p Policy, env Env, episodes, maxSteps int, seed int64) float64 {
	total := 0.0
	for ep := 0; ep < episodes; ep++ {
		s := env.Reset(seed + int64(ep))
		for step := 0; step < maxSteps; step++ {
			a := Greedy(p, s)
			next, r, done := env.Step(a)
			total += r
			if done {
				break
			}
			s = next
		}
	}
	return total / float64(episodes)
}
