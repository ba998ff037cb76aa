package routenet

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/routing"
	"repro/internal/topo"
)

// denseEvals counts the dense-layer evaluations of every forward pass in the
// package; see DenseEvals.
var denseEvals atomic.Int64

// DenseEvals returns the number of dense-layer evaluations (one LinkInit,
// PathInit, PathUpd, Message, LinkUpd or Readout application each) that
// PredictDelays and Choices have run in this process. Benchmarks difference
// it around a workload to report the forward-pass work it cost.
func DenseEvals() int64 { return denseEvals.Load() }

// Choices computes the closed-loop optimizer's candidate-path choice
// distributions for every demand of a fixed routing under a connection mask:
// for demand i, the softmax over its candidate paths of −delay_i/T, where
// delay_i is the model's prediction for demand i with only its own path
// swapped to the candidate. The candidate path keeps the mask entries of
// the links it shares with the routed path and weight 1 elsewhere.
//
// The result is bit-identical to running PredictDelays once per (demand,
// candidate) with the candidate's mask, at a fraction of the cost:
//
//   - LinkInit and PathInit do not depend on the mask; they run once.
//   - The routed path is one of its own candidates, and its candidate mask
//     is the mask itself, so one recorded base pass over the routing
//     serves every demand's own candidate.
//   - Every other candidate replays against the base pass: a PathUpd or
//     Message evaluation of an unchanged path, or a LinkUpd evaluation,
//     whose 16-float input equals the base pass's input bit for bit reuses
//     the recorded output. Only evaluations whose input changed are
//     recomputed, and link aggregation accumulates in the original order.
//   - The last round's messages and link updates feed nothing the readout
//     reads, so neither pass computes them.
//
// All pass state is preallocated: Distributions allocates nothing. A
// Choices is not safe for concurrent use; give each goroutine its own.
type Choices struct {
	m     *Model
	paths []topo.Path
	off   []int // connection offset of each routed path
	links int   // number of links in the graph
	conns int   // number of routed connections

	cands [][]topo.Path
	// candW[i][c][pos] is the routed connection whose mask entry weights
	// position pos of demand i's candidate c, or −1 for weight 1.
	candW [][][]int
	// own[i] is the candidate of demand i that reproduces the routing
	// (served by the base pass), or −1 if the routed path is not among
	// its candidates.
	own []int

	hL0, hP0 []float64 // LinkInit per link, PathInit per path (×EmbedDim)

	// Base pass record, flat [round][index][EmbedDim].
	baseHL     []float64 // link state at the start of each round
	basePUIn   []float64 // path state entering each connection's PathUpd
	basePUOut  []float64 // PathUpd output per connection
	basePEnd   []float64 // path state after each round's path update
	baseMsgOut []float64 // Message output per connection (rounds 0..Rounds-2)
	baseAgg    []float64 // aggregated messages per link (rounds 0..Rounds-2)
	baseDelay  []float64 // predicted delay per path

	// Replay scratch.
	hL, hP, agg []float64
	in, out     []float64
	scores      []float64
	evals       int64
}

// NewChoices prepares the choice evaluation of routing r (its demands and
// paths) under model m on graph g. The model, graph and routing are read,
// never written; the routing must not change while the Choices is in use.
func NewChoices(m *Model, g *topo.Graph, r *routing.Routing) *Choices {
	L, P := len(g.Links), len(r.Paths)
	c := &Choices{
		m:     m,
		paths: r.Paths,
		off:   ConnectionOffsets(r.Paths),
		links: L,
		conns: NumConnections(r.Paths),
		cands: make([][]topo.Path, P),
		candW: make([][][]int, P),
		own:   make([]int, P),
		hL0:   make([]float64, L*EmbedDim),
		hP0:   make([]float64, P*EmbedDim),
		hL:    make([]float64, L*EmbedDim),
		hP:    make([]float64, P*EmbedDim),
		agg:   make([]float64, L*EmbedDim),
		in:    make([]float64, 2*EmbedDim),
		out:   make([]float64, EmbedDim),
	}
	N := c.conns
	c.baseHL = make([]float64, Rounds*L*EmbedDim)
	c.basePUIn = make([]float64, Rounds*N*EmbedDim)
	c.basePUOut = make([]float64, Rounds*N*EmbedDim)
	c.basePEnd = make([]float64, Rounds*P*EmbedDim)
	c.baseMsgOut = make([]float64, (Rounds-1)*N*EmbedDim)
	c.baseAgg = make([]float64, (Rounds-1)*L*EmbedDim)
	c.baseDelay = make([]float64, P)

	maxCands := 0
	for i, d := range r.Demands {
		cands := g.CandidatePaths(d.Src, d.Dst, 1)
		c.cands[i] = cands
		maxCands = max(maxCands, len(cands))
		c.own[i] = -1
		c.candW[i] = make([][]int, len(cands))
		for ci, cand := range cands {
			w := make([]int, len(cand))
			for pos, id := range cand {
				// The routed connection on the same link; a link listed
				// twice keeps its last position.
				w[pos] = -1
				for rpos, rid := range r.Paths[i] {
					if rid == id {
						w[pos] = c.off[i] + rpos
					}
				}
			}
			c.candW[i][ci] = w
			if c.own[i] < 0 && slices.Equal(cand, r.Paths[i]) {
				c.own[i] = ci
			}
		}
	}
	c.scores = make([]float64, maxCands)

	for i, l := range g.Links {
		c.in[0] = l.CapMbps / 100
		c.dense(m.LinkInit, c.in[:1], c.hL0[i*EmbedDim:(i+1)*EmbedDim])
	}
	for i := range r.Paths {
		c.in[0] = r.Demands[i].VolumeMbps / 10
		c.dense(m.PathInit, c.in[:1], c.hP0[i*EmbedDim:(i+1)*EmbedDim])
	}
	denseEvals.Add(c.evals)
	c.evals = 0
	return c
}

// Len is the length of Distributions' output: the total number of
// candidate paths over all demands.
func (c *Choices) Len() int {
	n := 0
	for _, cands := range c.cands {
		n += len(cands)
	}
	return n
}

// Distributions writes every demand's choice distribution under mask
// (nil means all ones), concatenated in demand order, into out, which must
// have length Len. A temperature ≤ 0 means 1.
func (c *Choices) Distributions(mask []float64, temperature float64, out []float64) {
	c.basePass(mask)
	for i, cands := range c.cands {
		c.distribution(i, mask, temperature, out[:len(cands)])
		out = out[len(cands):]
	}
	denseEvals.Add(c.evals)
	c.evals = 0
}

// Distribution returns demand i's choice distribution under mask.
func (c *Choices) Distribution(i int, mask []float64, temperature float64) []float64 {
	c.basePass(mask)
	out := make([]float64, len(c.cands[i]))
	c.distribution(i, mask, temperature, out)
	denseEvals.Add(c.evals)
	c.evals = 0
	return out
}

// distribution fills out with demand i's choice distribution; the base
// pass for mask must have run.
func (c *Choices) distribution(i int, mask []float64, temperature float64, out []float64) {
	if temperature <= 0 {
		temperature = 1
	}
	scores := c.scores[:len(out)]
	for ci := range scores {
		delay := c.baseDelay[i]
		if ci != c.own[i] {
			delay = c.replay(i, ci, mask)
		}
		scores[ci] = -delay / temperature
	}
	nn.Softmax(scores, out)
}

// weight is the mask entry k, or 1 for k < 0 or no mask.
func weight(mask []float64, k int) float64 {
	if mask == nil || k < 0 {
		return 1
	}
	return mask[k]
}

// vec returns row idx of a flat [..][EmbedDim] array.
func vec(a []float64, idx int) []float64 {
	return a[idx*EmbedDim : (idx+1)*EmbedDim]
}

// basePass runs the forward pass of the routing itself under mask,
// recording every dense evaluation's input and output for replay.
func (c *Choices) basePass(mask []float64) {
	L, N, P := c.links, c.conns, len(c.paths)
	m := c.m
	hL, hP := c.hL, c.hP
	copy(hL, c.hL0)
	copy(hP, c.hP0)
	for round := 0; round < Rounds; round++ {
		copy(c.baseHL[round*L*EmbedDim:], hL)
		puIn := c.basePUIn[round*N*EmbedDim:]
		puOut := c.basePUOut[round*N*EmbedDim:]
		for pi, p := range c.paths {
			h := vec(hP, pi)
			for pos, id := range p {
				k := c.off[pi] + pos
				copy(vec(puIn, k), h)
				out := vec(puOut, k)
				c.eval(m.PathUpd, h, vec(hL, id), out)
				mix(h, out, weight(mask, k))
			}
		}
		copy(c.basePEnd[round*P*EmbedDim:], hP)
		if round == Rounds-1 {
			break
		}
		msgOut := c.baseMsgOut[round*N*EmbedDim:]
		clear(c.agg)
		for pi, p := range c.paths {
			for pos, id := range p {
				k := c.off[pi] + pos
				msg := vec(msgOut, k)
				c.eval(m.Message, vec(hP, pi), vec(hL, id), msg)
				accumulate(vec(c.agg, id), msg, weight(mask, k))
			}
		}
		copy(c.baseAgg[round*L*EmbedDim:], c.agg)
		for l := 0; l < L; l++ {
			h := vec(hL, l)
			c.eval(m.LinkUpd, h, vec(c.agg, l), c.out)
			copy(h, c.out)
		}
	}
	for pi := range c.paths {
		c.baseDelay[pi] = c.readout(vec(hP, pi))
	}
}

// replay returns the predicted delay of demand i with its path swapped to
// candidate ci, replaying the recorded base pass.
func (c *Choices) replay(i, ci int, mask []float64) float64 {
	L, N, P := c.links, c.conns, len(c.paths)
	m := c.m
	cand, candW := c.cands[i][ci], c.candW[i][ci]
	hL, hP := c.hL, c.hP
	copy(hL, c.hL0)
	copy(hP, c.hP0)
	for round := 0; round < Rounds; round++ {
		last := round == Rounds-1
		baseHL := c.baseHL[round*L*EmbedDim:]
		puIn := c.basePUIn[round*N*EmbedDim:]
		puOut := c.basePUOut[round*N*EmbedDim:]
		for pi, p := range c.paths {
			h := vec(hP, pi)
			if pi == i {
				for pos, id := range cand {
					c.eval(m.PathUpd, h, vec(hL, id), c.out)
					mix(h, c.out, weight(mask, candW[pos]))
				}
				continue
			}
			if last {
				// Only demand i's final path state is read out.
				continue
			}
			for pos, id := range p {
				k := c.off[pi] + pos
				out := vec(puOut, k)
				if !sameBits(h, vec(puIn, k)) || !sameBits(vec(hL, id), vec(baseHL, id)) {
					out = c.out
					c.eval(m.PathUpd, h, vec(hL, id), out)
				}
				mix(h, out, weight(mask, k))
			}
		}
		if last {
			break
		}
		pEnd := c.basePEnd[round*P*EmbedDim:]
		msgOut := c.baseMsgOut[round*N*EmbedDim:]
		clear(c.agg)
		for pi, p := range c.paths {
			if pi == i {
				for pos, id := range cand {
					c.eval(m.Message, vec(hP, pi), vec(hL, id), c.out)
					accumulate(vec(c.agg, id), c.out, weight(mask, candW[pos]))
				}
				continue
			}
			h := vec(hP, pi)
			clean := sameBits(h, vec(pEnd, pi))
			for pos, id := range p {
				k := c.off[pi] + pos
				msg := vec(msgOut, k)
				if !clean || !sameBits(vec(hL, id), vec(baseHL, id)) {
					msg = c.out
					c.eval(m.Message, h, vec(hL, id), msg)
				}
				accumulate(vec(c.agg, id), msg, weight(mask, k))
			}
		}
		baseAgg := c.baseAgg[round*L*EmbedDim:]
		nextHL := c.baseHL[(round+1)*L*EmbedDim:]
		for l := 0; l < L; l++ {
			h := vec(hL, l)
			if sameBits(h, vec(baseHL, l)) && sameBits(vec(c.agg, l), vec(baseAgg, l)) {
				copy(h, vec(nextHL, l))
				continue
			}
			c.eval(m.LinkUpd, h, vec(c.agg, l), c.out)
			copy(h, c.out)
		}
	}
	return c.readout(vec(hP, i))
}

// mix folds a path update into the path state with connection weight w,
// exactly as PredictDelays does.
func mix(h, out []float64, w float64) {
	for k := range h {
		h[k] = (1-w)*h[k] + w*out[k]
	}
}

// accumulate adds a weighted message into a link's aggregate, exactly as
// PredictDelays does.
func accumulate(agg, msg []float64, w float64) {
	for k := range msg {
		agg[k] += w * msg[k]
	}
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// eval applies a [h, x] → EmbedDim block to the concatenation of two
// embeddings.
func (c *Choices) eval(n *nn.Network, h, x, out []float64) {
	copy(c.in[:EmbedDim], h)
	copy(c.in[EmbedDim:], x)
	c.dense(n, c.in, out)
}

// readout converts a final path state into a predicted delay, exactly as
// PredictDelays does.
func (c *Choices) readout(h []float64) float64 {
	c.dense(c.m.Readout, h, c.out[:1])
	return 10 * math.Log1p(math.Exp(c.out[0]))
}

// dense evaluates a single-layer network on x into out without touching
// the network's scratch state. It performs the same float operations in
// the same order as nn.Network.Forward, so its output is bit-identical.
func (c *Choices) dense(n *nn.Network, x, out []float64) {
	c.evals++
	l := n.Layers[0]
	for o := range out {
		row := l.W.Data[o*l.In : (o+1)*l.In]
		s := 0.0
		for j, w := range row {
			s += w * x[j]
		}
		out[o] = s + l.B[o]
	}
	switch l.Act {
	case nn.Tanh:
		for o, v := range out {
			out[o] = math.Tanh(v)
		}
	case nn.Identity:
	default:
		panic("routenet: unsupported activation " + l.Act.String())
	}
}
