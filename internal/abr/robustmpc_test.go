package abr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMPC is RobustMPC.Select as a plain recursion that recomputes every
// step's terms at every node: the reference the hoisted, iterative search
// must match bit for bit. ties counts decisions where a later sequence with
// another first quality reached the best QoE exactly.
type refMPC struct {
	Horizon                     int
	RebufPenalty, SmoothPenalty float64

	maxErr, lastPred float64
	ties             int
}

func (m *refMPC) Select(obs Observation) int {
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
	actual := 0.0
	if n := len(obs.ThroughputKbps); n > 0 {
		actual = obs.ThroughputKbps[n-1]
	}
	if m.lastPred > 0 && actual > 0 {
		err := math.Abs(m.lastPred-actual) / actual
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
	bestFirst, bestQoE := 0, math.Inf(-1)
	tied := false
	seq := make([]int, horizon)
	var walk func(depth int, buffer float64, last int, qoe float64)
	walk = func(depth int, buffer float64, last int, qoe float64) {
		if depth == horizon {
			if qoe > bestQoE {
				bestQoE = qoe
				bestFirst = seq[0]
				tied = false
			} else if qoe == bestQoE && seq[0] != bestFirst {
				tied = true
			}
			return
		}
		for q := 0; q < NumBitrates; q++ {
			size := obs.NextChunkBits[q]
			dt := size / (robust * 1000)
			reb := 0.0
			nb := buffer
			if dt > nb {
				reb = dt - nb
				nb = 0
			} else {
				nb -= dt
			}
			nb += ChunkSeconds
			stepQoE := BitratesKbps[q]/1000 - rp*reb - sp*math.Abs(BitratesKbps[q]-BitratesKbps[last])/1000
			seq[depth] = q
			walk(depth+1, nb, q, qoe+stepQoE)
		}
	}
	walk(0, obs.BufferSec, obs.LastAction, 0)
	if tied {
		m.ties++
	}
	return bestFirst
}

// randomObservation draws an observation that reaches every branch of
// Select: empty, all-zero and partial throughput histories, truncated
// horizons at and past the end of the video, chunk sizes that rebuffer or
// not, and (with a full buffer and small chunks) exact QoE ties.
func randomObservation(rng *rand.Rand, hist []float64) Observation {
	obs := Observation{
		LastAction:     rng.Intn(NumBitrates),
		ThroughputKbps: hist,
		NextChunkBits:  make([]float64, NumBitrates),
		TotalChunks:    48,
	}
	switch rng.Intn(4) {
	case 0:
		obs.ChunkIndex = 48 - rng.Intn(8) // 1–7 chunks left, or none
		if rng.Intn(8) == 0 {
			obs.ChunkIndex = 49
		}
	default:
		obs.ChunkIndex = rng.Intn(40)
	}
	scale := 1.0
	switch rng.Intn(3) {
	case 0:
		obs.BufferSec = 60 // no step can rebuffer: ties appear
		scale = 0.01
	case 1:
		obs.BufferSec = 0
	default:
		obs.BufferSec = rng.Float64() * 30
	}
	for q := range obs.NextChunkBits {
		obs.NextChunkBits[q] = BitratesKbps[q] * 1000 * ChunkSeconds * (0.8 + 0.4*rng.Float64()) * scale
	}
	return obs
}

func TestRobustMPCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	decisions, ties, truncated, noHistory := 0, 0, 0, 0
	for session := 0; decisions < 24000; session++ {
		horizon := rng.Intn(8) // 0 keeps the default of 5
		var rp, sp float64
		if rng.Intn(2) == 0 {
			rp = []float64{1, 4.3, 10, 0.5}[rng.Intn(4)]
			sp = []float64{1, 0.5, 2, 3}[rng.Intn(4)]
		}
		got := &RobustMPC{Horizon: horizon, RebufPenalty: rp, SmoothPenalty: sp}
		want := &refMPC{Horizon: horizon, RebufPenalty: rp, SmoothPenalty: sp}
		steps := 40
		if horizon > 6 {
			steps = 1 // 6^7 sequences per decision: keep these sessions short
		}
		var hist []float64
		for i := 0; i < steps; i++ {
			switch r := rng.Intn(10); {
			case r == 0:
				hist = hist[:0]
			case r == 1:
				hist = append(hist, 0)
			case len(hist) < 8:
				hist = append(hist, 200+rng.Float64()*6000)
			default:
				hist = append(hist[1:], 200+rng.Float64()*6000)
			}
			obs := randomObservation(rng, hist)
			if harmonicMean(hist, 5) == 0 {
				noHistory++
			}
			if obs.TotalChunks-obs.ChunkIndex < 5 {
				truncated++
			}
			before := want.ties
			g, w := got.Select(obs), want.Select(obs)
			if want.ties > before {
				ties++
			}
			if g != w {
				t.Fatalf("session %d decision %d: Select = %d, reference %d (obs %+v)", session, i, g, w, obs)
			}
			if math.Float64bits(got.maxErr) != math.Float64bits(want.maxErr) ||
				math.Float64bits(got.lastPred) != math.Float64bits(want.lastPred) {
				t.Fatalf("session %d decision %d: state (%v, %v), reference (%v, %v)",
					session, i, got.maxErr, got.lastPred, want.maxErr, want.lastPred)
			}
			decisions++
		}
	}
	t.Logf("%d decisions: %d with exact ties, %d truncated horizons, %d without history", decisions, ties, truncated, noHistory)
	if ties == 0 || truncated == 0 || noHistory == 0 {
		t.Fatalf("coverage: %d ties, %d truncated horizons, %d without history", ties, truncated, noHistory)
	}
}

// TestRobustMPCPrunedMatchesReference drives RobustMPC through sessions
// where the pruned search skips most subtrees, or must not prune at all,
// and checks every choice and state against the reference's full walk.
func TestRobustMPCPrunedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	penalties := [][2]float64{{0, 0}, {1, 1}, {10, 3}, {0.5, 0.5}}
	negative := [][2]float64{{-1, 1}, {4.3, -0.5}, {-4.3, -1}, {-0.25, 0}}
	cases := []struct {
		name      string
		penalties [][2]float64
		observe   func(obs *Observation, i int) []float64 // returns the history
	}{
		// Throughput collapses mid-session: the robust discount makes
		// every high bitrate rebuffer.
		{"collapse", penalties, func(obs *Observation, i int) []float64 {
			if i < 4 {
				return []float64{4000 + 500*float64(i), 5000, 6000}
			}
			obs.BufferSec = rng.Float64() * 8
			return []float64{5000, 6000, 50 + 100*rng.Float64(), 60 + 10*float64(i)}
		}},
		// A full buffer: no sequence rebuffers, so the bound is tight.
		{"full buffer", penalties, func(obs *Observation, i int) []float64 {
			obs.BufferSec = 60
			return []float64{1500 + 3000*rng.Float64(), 2000 + 3000*rng.Float64()}
		}},
		// The horizon clipped to the last one to three chunks.
		{"last chunk", penalties, func(obs *Observation, i int) []float64 {
			obs.ChunkIndex = obs.TotalChunks - 1 - i%3
			return []float64{500 + 5000*rng.Float64()}
		}},
		// Tiny chunks under a full buffer: sequences tie exactly.
		{"ties", penalties, func(obs *Observation, i int) []float64 {
			obs.BufferSec = 60
			obs.ChunkIndex = obs.TotalChunks - 1 - i%3
			for q := range obs.NextChunkBits {
				obs.NextChunkBits[q] = BitratesKbps[q] * 1000 * ChunkSeconds * 0.01
			}
			return []float64{3000}
		}},
		// Negative penalty weights void the bound: the full walk runs.
		{"negative penalties", negative, func(obs *Observation, i int) []float64 {
			return []float64{200 + 6000*rng.Float64(), 200 + 6000*rng.Float64()}
		}},
	}
	for _, c := range cases {
		caseTies := 0
		for _, pen := range c.penalties {
			for session := 0; session < 12; session++ {
				got := &RobustMPC{RebufPenalty: pen[0], SmoothPenalty: pen[1]}
				want := &refMPC{RebufPenalty: pen[0], SmoothPenalty: pen[1]}
				for i := 0; i < 8; i++ {
					obs := randomObservation(rng, nil)
					if obs.ChunkIndex >= obs.TotalChunks {
						obs.ChunkIndex = 0
					}
					obs.ThroughputKbps = c.observe(&obs, i)
					where := fmt.Sprintf("%s %v session %d decision %d", c.name, pen, session, i)
					if matchMPC(t, got, want, obs, where) {
						caseTies++
					}
				}
			}
		}
		if c.name == "ties" && caseTies == 0 {
			t.Fatal("the ties case produced no exact tie")
		}
	}
}

// matchMPC runs one decision through got and the reference and fails the
// test unless the choice and the tracked state match bit for bit. It
// reports whether the reference saw sequences with different first
// qualities tie exactly.
func matchMPC(t *testing.T, got *RobustMPC, want *refMPC, obs Observation, where string) bool {
	t.Helper()
	before := want.ties
	if g, w := got.Select(obs), want.Select(obs); g != w {
		t.Fatalf("%s: Select = %d, reference %d (obs %+v)", where, g, w, obs)
	}
	if math.Float64bits(got.maxErr) != math.Float64bits(want.maxErr) ||
		math.Float64bits(got.lastPred) != math.Float64bits(want.lastPred) {
		t.Fatalf("%s: state (%v, %v), reference (%v, %v)", where, got.maxErr, got.lastPred, want.maxErr, want.lastPred)
	}
	return want.ties > before
}

// BenchmarkRobustMPCSelect times one default-horizon decision (6^5
// sequences) at the start of a video.
func BenchmarkRobustMPCSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	obs := make([]Observation, 64)
	for i := range obs {
		obs[i] = randomObservation(rng, []float64{1500 + 1000*rng.Float64(), 1500 + 1000*rng.Float64()})
		obs[i].ChunkIndex = 0
	}
	m := &RobustMPC{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Select(obs[i%len(obs)])
	}
}
