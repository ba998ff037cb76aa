package abr

import "math"

// Algorithm is an ABR policy operating on baseline observations.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Select returns the bitrate index for the next chunk.
	Select(obs Observation) int
	// Reset clears any per-session state.
	Reset()
}

// harmonicMean returns the harmonic mean of the non-zero tail of xs,
// considering at most the last n entries; 0 if no history exists.
func harmonicMean(xs []float64, n int) float64 {
	cnt := 0
	sum := 0.0
	for i := len(xs) - 1; i >= 0 && cnt < n; i-- {
		if xs[i] <= 0 {
			continue
		}
		sum += 1 / xs[i]
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return float64(cnt) / sum
}

// maxBitrateBelow returns the highest quality whose bitrate is at most kbps,
// or 0 if none fits.
func maxBitrateBelow(kbps float64) int {
	best := 0
	for q, br := range BitratesKbps {
		if br <= kbps {
			best = q
		}
	}
	return best
}

// Fixed always selects the lowest bitrate; it is the resource baseline used
// in the Fig. 17(b) footprint comparison.
type Fixed struct{}

// Name implements Algorithm.
func (Fixed) Name() string { return "Fixed" }

// Select implements Algorithm.
func (Fixed) Select(Observation) int { return 0 }

// Reset implements Algorithm.
func (Fixed) Reset() {}

// BB is the buffer-based algorithm of Huang et al. (SIGCOMM 2014): bitrate is
// a piecewise-linear function of buffer occupancy between a reservoir and a
// cushion.
type BB struct {
	// ReservoirSec (default 5) and CushionSec (default 10) shape the map.
	ReservoirSec, CushionSec float64
}

// Name implements Algorithm.
func (*BB) Name() string { return "BB" }

// Reset implements Algorithm.
func (*BB) Reset() {}

// Select implements Algorithm.
func (b *BB) Select(obs Observation) int {
	r, c := b.ReservoirSec, b.CushionSec
	if r == 0 {
		r = 5
	}
	if c == 0 {
		c = 10
	}
	if obs.BufferSec < r {
		return 0
	}
	if obs.BufferSec >= r+c {
		return NumBitrates - 1
	}
	frac := (obs.BufferSec - r) / c
	return int(frac * float64(NumBitrates-1))
}

// RB is the rate-based algorithm: pick the highest bitrate below the harmonic
// mean of recent throughput.
type RB struct{}

// Name implements Algorithm.
func (*RB) Name() string { return "RB" }

// Reset implements Algorithm.
func (*RB) Reset() {}

// Select implements Algorithm.
func (*RB) Select(obs Observation) int {
	pred := harmonicMean(obs.ThroughputKbps, 5)
	if pred == 0 {
		return 0
	}
	return maxBitrateBelow(pred)
}

// Festive implements the FESTIVE algorithm (Jiang et al., CoNEXT 2012):
// rate-based selection with gradual switching and a stability bias.
type Festive struct {
	target  int
	upCount int
	current int
	started bool
}

// Name implements Algorithm.
func (*Festive) Name() string { return "FESTIVE" }

// Reset implements Algorithm.
func (f *Festive) Reset() { *f = Festive{} }

// Select implements Algorithm.
func (f *Festive) Select(obs Observation) int {
	pred := harmonicMean(obs.ThroughputKbps, 5)
	if !f.started {
		f.started = true
		f.current = 0
		return 0
	}
	// Efficiency: target the highest bitrate under 0.85×predicted bandwidth.
	f.target = maxBitrateBelow(0.85 * pred)
	switch {
	case f.target > f.current:
		// Stability: switch up only after k consecutive suggestions, where k
		// scales with the current level (higher levels are stickier).
		f.upCount++
		if f.upCount > f.current+1 {
			f.current++
			f.upCount = 0
		}
	case f.target < f.current:
		f.current--
		f.upCount = 0
	default:
		f.upCount = 0
	}
	return f.current
}

// BOLA implements BOLA (Spiteri et al., INFOCOM 2016): Lyapunov
// utility-versus-buffer optimization with logarithmic chunk utilities.
type BOLA struct {
	// GammaP is the playback-smoothness weight (default 5).
	GammaP float64
	// BufferTargetSec calibrates the control parameter V (default 25).
	BufferTargetSec float64
}

// Name implements Algorithm.
func (*BOLA) Name() string { return "BOLA" }

// Reset implements Algorithm.
func (*BOLA) Reset() {}

// Select implements Algorithm.
func (b *BOLA) Select(obs Observation) int {
	gp := b.GammaP
	if gp == 0 {
		gp = 5
	}
	tgt := b.BufferTargetSec
	if tgt == 0 {
		tgt = 25
	}
	sMin := obs.NextChunkBits[0]
	uMax := math.Log(obs.NextChunkBits[NumBitrates-1] / sMin)
	// Choose V so the max bitrate is attractive when the buffer reaches tgt.
	v := (tgt/ChunkSeconds - 1) / (uMax + gp)
	bufChunks := obs.BufferSec / ChunkSeconds
	best, bestScore := 0, math.Inf(-1)
	for q := 0; q < NumBitrates; q++ {
		u := math.Log(obs.NextChunkBits[q] / sMin)
		score := (v*(u+gp) - bufChunks) / (obs.NextChunkBits[q] / 1e6)
		if score > bestScore {
			bestScore = score
			best = q
		}
	}
	return best
}

// RobustMPC implements the robust model-predictive-control ABR (Yin et al.,
// SIGCOMM 2015): exact search over a 5-chunk horizon using a
// conservatively discounted throughput prediction. The search prunes
// subtrees that cannot beat the best sequence so far; it returns what an
// exhaustive walk would.
type RobustMPC struct {
	// Horizon is the lookahead in chunks (default 5).
	Horizon int
	// RebufPenalty and SmoothPenalty mirror the environment QoE (defaults
	// 4.3 / 1).
	RebufPenalty, SmoothPenalty float64

	maxErr   float64
	lastPred float64
}

// Name implements Algorithm.
func (*RobustMPC) Name() string { return "rMPC" }

// Reset implements Algorithm.
func (m *RobustMPC) Reset() { m.maxErr, m.lastPred = 0, 0 }

// Select implements Algorithm.
func (m *RobustMPC) Select(obs Observation) int {
	horizon := m.Horizon
	if horizon == 0 {
		horizon = 5
	}
	rp := m.RebufPenalty
	if rp == 0 {
		rp = 4.3
	}
	sp := m.SmoothPenalty
	if sp == 0 {
		sp = 1
	}
	// Track the worst recent prediction error for the robust discount.
	actual := 0.0
	if n := len(obs.ThroughputKbps); n > 0 {
		actual = obs.ThroughputKbps[n-1]
	}
	if m.lastPred > 0 && actual > 0 {
		err := math.Abs(m.lastPred-actual) / actual
		// Exponentially decay the tracked error so old spikes fade.
		m.maxErr = math.Max(err, m.maxErr*0.8)
	}
	pred := harmonicMean(obs.ThroughputKbps, 5)
	m.lastPred = pred
	if pred == 0 {
		return 0
	}
	robust := pred / (1 + m.maxErr)

	if horizon > obs.TotalChunks-obs.ChunkIndex {
		horizon = obs.TotalChunks - obs.ChunkIndex
	}
	if horizon <= 0 {
		return 0
	}
	// Every horizon chunk is approximated by the next chunk's sizes, so a
	// step's download time, bitrate utility and switching penalty depend
	// only on (q, last): compute them once, with the expressions of the
	// per-step QoE, rather than at each of the 6^horizon leaves.
	var dt, rate [NumBitrates]float64
	var smooth [NumBitrates][NumBitrates]float64
	for q := 0; q < NumBitrates; q++ {
		dt[q] = obs.NextChunkBits[q] / (robust * 1000)
		rate[q] = BitratesKbps[q] / 1000
		for last := 0; last < NumBitrates; last++ {
			smooth[q][last] = sp * math.Abs(BitratesKbps[q]-BitratesKbps[last]) / 1000
		}
	}
	// step plays quality q after last with buffer seconds left and returns
	// the new buffer and the running QoE.
	step := func(q, last int, buffer, qoe float64) (float64, float64) {
		reb := 0.0
		if dt[q] > buffer {
			reb = dt[q] - buffer
			buffer = 0
		} else {
			buffer -= dt[q]
		}
		return buffer + ChunkSeconds, qoe + (rate[q] - rp*reb - smooth[q][last])
	}

	// A step's QoE term is rate[q] minus two penalties, each ≥ 0 when the
	// penalty weights are, so it is ≤ rmax; rounding is monotone, so no
	// sequence below a node beats its running QoE with rmax added once per
	// step left. Ties keep the earliest sequence, so a node whose bound is
	// ≤ the best QoE so far cannot change the answer and is skipped.
	// Negative weights void the bound: then every sequence is walked.
	rmax := rate[0]
	for _, r := range rate[1:] {
		rmax = math.Max(rmax, r)
	}
	prune := rp >= 0 && sp >= 0

	// Depth-first enumeration of bitrate sequences over the horizon, in
	// lexicographic order; the first sequence with the strictly highest
	// QoE wins. Frame d holds the state before depth d's choice and the
	// next quality to try there; the last depth is scored inline.
	type frame struct {
		buffer, qoe float64
		last, next  int
	}
	stack := make([]frame, horizon)
	stack[0] = frame{buffer: obs.BufferSec, last: obs.LastAction}
	bestFirst, bestQoE := 0, math.Inf(-1)
	for d := 0; d >= 0; {
		f := &stack[d]
		if d == horizon-1 {
			for q := 0; q < NumBitrates; q++ {
				if _, qoe := step(q, f.last, f.buffer, f.qoe); qoe > bestQoE {
					bestQoE = qoe
					bestFirst = q
					if d > 0 {
						bestFirst = stack[0].next - 1
					}
				}
			}
			d--
			continue
		}
		if f.next == NumBitrates {
			d--
			continue
		}
		q := f.next
		f.next++
		buffer, qoe := step(q, f.last, f.buffer, f.qoe)
		if prune {
			bound := qoe
			for left := horizon - d - 1; left > 0; left-- {
				bound += rmax
			}
			if bound <= bestQoE {
				continue
			}
		}
		d++
		stack[d] = frame{buffer: buffer, qoe: qoe, last: q}
	}
	return bestFirst
}

// Baselines returns fresh instances of the five paper baselines plus Fixed.
func Baselines() []Algorithm {
	return []Algorithm{&BB{}, &RB{}, &Festive{}, &BOLA{}, &RobustMPC{}, Fixed{}}
}
