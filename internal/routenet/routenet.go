// Package routenet implements the RouteNet* teacher: a path↔link
// message-passing neural model (Rusek et al., SOSR 2019) that predicts
// per-path delay from a topology, traffic demands, and a routing, plus the
// closed-loop optimizer that picks candidate paths by predicted delay. The
// forward pass accepts a per-connection mask so that the Metis
// critical-connection search (§4.2) can weight individual (path, link)
// incidences.
package routenet

import (
	"math"

	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/routing"
	"repro/internal/topo"
)

// EmbedDim is the link/path embedding dimensionality.
const EmbedDim = 8

// Rounds is the number of message-passing iterations.
const Rounds = 3

// Model is the message-passing delay predictor. All blocks are plain dense
// layers; the model is trained with evolution strategies (forward-only), so
// no backpropagation through the unrolled message passing is required.
type Model struct {
	LinkInit *nn.Network // [cap/100] → link embedding
	PathInit *nn.Network // [volume/10] → path embedding
	PathUpd  *nn.Network // [h_p, h_l] → new h_p (sequential over the path)
	Message  *nn.Network // [h_p, h_l] → message to the link
	LinkUpd  *nn.Network // [h_l, Σmsg] → new h_l
	Readout  *nn.Network // h_p → predicted delay (ms, softplus-encoded)
}

// NewModel builds an untrained model.
func NewModel(seed int64) *Model {
	mk := func(in, out int, act nn.Activation, s int64) *nn.Network {
		return nn.NewNetwork(nn.Config{Sizes: []int{in, out}, Hidden: act, Output: act, Seed: s})
	}
	return &Model{
		LinkInit: mk(1, EmbedDim, nn.Tanh, seed),
		PathInit: mk(1, EmbedDim, nn.Tanh, seed+1),
		PathUpd:  mk(2*EmbedDim, EmbedDim, nn.Tanh, seed+2),
		Message:  mk(2*EmbedDim, EmbedDim, nn.Tanh, seed+3),
		LinkUpd:  mk(2*EmbedDim, EmbedDim, nn.Tanh, seed+4),
		Readout:  mk(EmbedDim, 1, nn.Identity, seed+5),
	}
}

// Clone returns a deep copy of the model. Forward passes reuse per-network
// scratch buffers, so concurrent mask evaluations each need their own copy.
func (m *Model) Clone() *Model {
	return &Model{
		LinkInit: m.LinkInit.Clone(),
		PathInit: m.PathInit.Clone(),
		PathUpd:  m.PathUpd.Clone(),
		Message:  m.Message.Clone(),
		LinkUpd:  m.LinkUpd.Clone(),
		Readout:  m.Readout.Clone(),
	}
}

// Params returns all trainable parameters as one flat set.
func (m *Model) Params() []nn.Param {
	var ps []nn.Param
	for _, n := range []*nn.Network{m.LinkInit, m.PathInit, m.PathUpd, m.Message, m.LinkUpd, m.Readout} {
		ps = append(ps, n.Params()...)
	}
	return ps
}

// ConnectionOffsets returns, for each path, the starting index of its
// connections in the flat hyperedge-major connection ordering (the same
// ordering as hypergraph.Connections).
func ConnectionOffsets(paths []topo.Path) []int {
	off := make([]int, len(paths))
	total := 0
	for i, p := range paths {
		off[i] = total
		total += len(p)
	}
	return off
}

// NumConnections returns the total (path, link) incidence count.
func NumConnections(paths []topo.Path) int {
	n := 0
	for _, p := range paths {
		n += len(p)
	}
	return n
}

// PredictDelays runs the message-passing forward pass and returns the
// predicted delay (ms) per path. mask, if non-nil, holds one weight in [0,1]
// per connection in hyperedge-major order; masked connections contribute
// proportionally less to both path updates and link aggregation, which is
// how Metis masks input structure (Equation 9's gating applies upstream).
func (m *Model) PredictDelays(g *topo.Graph, demands []routing.Demand, paths []topo.Path, mask []float64) []float64 {
	numLinks := len(g.Links)
	in := make([]float64, 1)
	hL := make([][]float64, numLinks)
	hLData := make([]float64, numLinks*EmbedDim)
	for i, l := range g.Links {
		in[0] = l.CapMbps / 100
		hL[i] = vec(hLData, i)
		copy(hL[i], m.LinkInit.Forward(in))
	}
	hP := make([][]float64, len(paths))
	hPData := make([]float64, len(paths)*EmbedDim)
	for i := range paths {
		in[0] = demands[i].VolumeMbps / 10
		hP[i] = vec(hPData, i)
		copy(hP[i], m.PathInit.Forward(in))
	}
	off := ConnectionOffsets(paths)
	weight := func(pathIdx, pos int) float64 {
		if mask == nil {
			return 1
		}
		return mask[off[pathIdx]+pos]
	}

	buf := make([]float64, 2*EmbedDim)
	aggData := make([]float64, numLinks*EmbedDim)
	for round := 0; round < Rounds; round++ {
		// Path update: sequentially absorb link states along the path.
		for pi, p := range paths {
			for pos, id := range p {
				copy(buf[:EmbedDim], hP[pi])
				copy(buf[EmbedDim:], hL[id])
				out := m.PathUpd.Forward(buf)
				w := weight(pi, pos)
				for k := range hP[pi] {
					hP[pi][k] = (1-w)*hP[pi][k] + w*out[k]
				}
			}
		}
		if round == Rounds-1 {
			// The readout reads only path states: the last round's
			// messages and link updates would go unread.
			break
		}
		// Link aggregation: sum masked messages from covering paths.
		clear(aggData)
		for pi, p := range paths {
			for pos, id := range p {
				copy(buf[:EmbedDim], hP[pi])
				copy(buf[EmbedDim:], hL[id])
				msg := m.Message.Forward(buf)
				w := weight(pi, pos)
				agg := vec(aggData, id)
				for k := range msg {
					agg[k] += w * msg[k]
				}
			}
		}
		// Link update.
		for i := range hL {
			copy(buf[:EmbedDim], hL[i])
			copy(buf[EmbedDim:], vec(aggData, i))
			out := m.LinkUpd.Forward(buf)
			copy(hL[i], out)
		}
	}
	delays := make([]float64, len(paths))
	conns := int64(NumConnections(paths))
	denseEvals.Add(int64(numLinks+2*len(paths)) + Rounds*conns + (Rounds-1)*(conns+int64(numLinks)))
	for pi := range paths {
		raw := m.Readout.Forward(hP[pi])[0]
		// Softplus keeps predictions positive; scale to milliseconds.
		delays[pi] = 10 * math.Log1p(math.Exp(raw))
	}
	return delays
}

// TrainConfig controls supervised model fitting.
type TrainConfig struct {
	// Demands per training sample (default 20).
	Demands int
	// VolumeLo/Hi bound demand volumes in Mbps (defaults 2/12).
	VolumeLo, VolumeHi float64
	// Samples per evaluation batch (default 6).
	Samples int
	// Generations of ES (default 120).
	Generations int
	// Seed drives everything.
	Seed int64
	// Model is the queueing delay oracle that labels training data.
	Delay routing.DelayModel
}

func (c *TrainConfig) defaults() {
	if c.Demands == 0 {
		c.Demands = 20
	}
	if c.VolumeLo == 0 {
		c.VolumeLo = 2
	}
	if c.VolumeHi == 0 {
		c.VolumeHi = 12
	}
	if c.Samples == 0 {
		c.Samples = 6
	}
	if c.Generations == 0 {
		c.Generations = 120
	}
}

// randomRouting routes each demand on a random candidate path.
func randomRouting(g *topo.Graph, demands []routing.Demand, seed int64) *routing.Routing {
	r := &routing.Routing{Demands: demands, Paths: make([]topo.Path, len(demands))}
	s := uint64(seed)*2654435761 + 1
	for i, d := range demands {
		cands := g.CandidatePaths(d.Src, d.Dst, 1)
		s = s*6364136223846793005 + 1442695040888963407
		r.Paths[i] = cands[int(s>>33)%len(cands)]
	}
	return r
}

// lossSample is one labeled routing: the demands, their paths, and the
// delay oracle's answer as log1p(ms).
type lossSample struct {
	demands  []routing.Demand
	paths    []topo.Path
	logTruth []float64
}

// lossSamples draws and labels the batch Loss scores for a seed. It does
// not depend on the model, so Train builds each seed's batch once.
func lossSamples(g *topo.Graph, cfg TrainConfig, seed int64) []lossSample {
	out := make([]lossSample, cfg.Samples)
	for s := range out {
		demands := routing.RandomDemands(g, cfg.Demands, cfg.VolumeLo, cfg.VolumeHi, seed+int64(s)*977)
		r := randomRouting(g, demands, seed+int64(s))
		truth := cfg.Delay.Evaluate(g, r)
		for i, d := range truth {
			truth[i] = math.Log1p(d)
		}
		out[s] = lossSample{demands: demands, paths: r.Paths, logTruth: truth}
	}
	return out
}

// lossOn returns the model's RMSE in log-delay space over labeled samples.
func (m *Model) lossOn(g *topo.Graph, samples []lossSample) float64 {
	se, n := 0.0, 0
	for _, smp := range samples {
		pred := m.PredictDelays(g, smp.demands, smp.paths, nil)
		for i, lt := range smp.logTruth {
			d := math.Log1p(pred[i]) - lt
			se += d * d
			n++
		}
	}
	return math.Sqrt(se / float64(n))
}

// Loss returns the model's RMSE in log-delay space over a batch of labeled
// random routings; used both for training and for reporting fit quality.
func (m *Model) Loss(g *topo.Graph, cfg TrainConfig, seed int64) float64 {
	cfg.defaults()
	return m.lossOn(g, lossSamples(g, cfg, seed))
}

// Train fits the model with evolution strategies and returns per-generation
// best scores (negative RMSE). ES scores candidates on 17 batches (its
// seed mod 17); each is drawn and labeled once.
func (m *Model) Train(g *topo.Graph, cfg TrainConfig) []float64 {
	cfg.defaults()
	es := rl.NewES()
	es.Population = 20
	es.Sigma = 0.08
	es.LR = 0.1
	es.Evals = 1
	batches := map[int64][]lossSample{}
	eval := func(seed int64) float64 {
		key := seed % 17
		b, ok := batches[key]
		if !ok {
			b = lossSamples(g, cfg, key)
			batches[key] = b
		}
		return -m.lossOn(g, b)
	}
	return es.TrainParams(m.Params(), eval, cfg.Generations, cfg.Seed)
}

// Optimizer is the closed-loop RouteNet*: it sequentially routes demands on
// the candidate whose model-predicted delay is lowest given the tentative
// routing so far.
type Optimizer struct {
	Model *Model
	Graph *topo.Graph
}

// Route produces a complete routing for the demands.
func (o *Optimizer) Route(demands []routing.Demand) *routing.Routing {
	r := &routing.Routing{Demands: demands, Paths: make([]topo.Path, len(demands))}
	// Start everything on shortest paths, then refine sequentially.
	for i, d := range demands {
		r.Paths[i] = o.Graph.CandidatePaths(d.Src, d.Dst, 1)[0]
	}
	for i, d := range demands {
		cands := o.Graph.CandidatePaths(d.Src, d.Dst, 1)
		best, bestDelay := 0, math.Inf(1)
		for ci, cand := range cands {
			r.Paths[i] = cand
			pred := o.Model.PredictDelays(o.Graph, demands, r.Paths, nil)
			if pred[i] < bestDelay {
				bestDelay = pred[i]
				best = ci
			}
		}
		r.Paths[i] = cands[best]
	}
	return r
}

// ChoiceDistribution returns, for demand i under routing r, the softmax
// distribution over its candidate paths implied by masked model predictions.
// temperature controls sharpness (default 1 if ≤0). The mask indexes r's
// connections; the candidate path reuses the mask entries of the links it
// shares with the chosen path and weight 1 elsewhere. It evaluates one
// demand through Choices; use a Choices directly to evaluate every demand
// under many masks.
func (o *Optimizer) ChoiceDistribution(r *routing.Routing, i int, mask []float64, temperature float64) []float64 {
	return NewChoices(o.Model, o.Graph, r).Distribution(i, mask, temperature)
}
