package scenarios

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/routenet"
	"repro/internal/routing"
	"repro/internal/topo"
)

// referenceOutput is RouteNetSystem.Output spelled out with one plain
// PredictDelays pass per (demand, candidate): the candidate path keeps the
// mask entry of every link it shares with the routed path (the last one if a
// link repeats) and weight 1 elsewhere; every other path keeps its own mask.
func referenceOutput(m *routenet.Model, g *topo.Graph, r *routing.Routing, mask []float64, temperature float64) []float64 {
	if temperature <= 0 {
		temperature = 1
	}
	off := routenet.ConnectionOffsets(r.Paths)
	var out []float64
	for i, d := range r.Demands {
		chosen := map[int]float64{}
		if mask != nil {
			for pos, id := range r.Paths[i] {
				chosen[id] = mask[off[i]+pos]
			}
		}
		cands := g.CandidatePaths(d.Src, d.Dst, 1)
		scores := make([]float64, len(cands))
		for ci, cand := range cands {
			paths := append([]topo.Path(nil), r.Paths...)
			paths[i] = cand
			var candMask []float64
			if mask != nil {
				noff := routenet.ConnectionOffsets(paths)
				candMask = make([]float64, routenet.NumConnections(paths))
				for pj, p := range paths {
					for pos, id := range p {
						w := 1.0
						if pj != i {
							w = mask[off[pj]+pos]
						} else if mv, ok := chosen[id]; ok {
							w = mv
						}
						candMask[noff[pj]+pos] = w
					}
				}
			}
			scores[ci] = -m.PredictDelays(g, r.Demands, paths, candMask)[i] / temperature
		}
		out = append(out, nn.Softmax(scores, nil)...)
	}
	return out
}

// TestRouteNetOutputMatchesReference pins the incremental evaluation of
// RouteNetSystem.Output, and of a clone, to the plain per-candidate forward
// passes bit for bit, over random, saturated and absent masks, for a
// routing the optimizer chose and for one it did not.
func TestRouteNetOutputMatchesReference(t *testing.T) {
	g := NSFNetGraph()
	model := trainRouteNet(g, 6, 2)
	opt := &routenet.Optimizer{Model: model, Graph: g}
	demands := routing.RandomDemands(g, 7, 3, 9, 917)
	routings := map[string]*routing.Routing{
		"optimized": opt.Route(demands),
		"shortest":  routing.ShortestPathRouting(g, demands),
	}
	for name, rt := range routings {
		sys := &RouteNetSystem{Opt: opt, Routing: rt, Temperature: 0.7}
		clone := sys.CloneSystem()
		n := sys.NumConnections()
		rng := rand.New(rand.NewSource(5))
		masks := [][]float64{nil, make([]float64, n), make([]float64, n)}
		for i := range masks[2] {
			masks[2][i] = 1
		}
		for k := 0; k < 6; k++ {
			m := make([]float64, n)
			for i := range m {
				m[i] = rng.Float64()
				if rng.Intn(5) == 0 {
					m[i] = float64(rng.Intn(2))
				}
			}
			masks = append(masks, m)
		}
		for k, m := range masks {
			want := referenceOutput(model, g, rt, m, 0.7)
			for _, s := range []struct {
				label string
				out   []float64
			}{{"system", sys.Output(m)}, {"clone", clone.Output(m)}} {
				if len(s.out) != len(want) {
					t.Fatalf("%s mask %d %s: %d outputs, want %d", name, k, s.label, len(s.out), len(want))
				}
				for j := range want {
					if math.Float64bits(s.out[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s mask %d %s: output %d = %v, reference %v", name, k, s.label, j, s.out[j], want[j])
					}
				}
			}
		}
	}
}
