package experiments

import (
	"reflect"
	"testing"

	"repro/internal/metis/mask"
	"repro/internal/routenet"
	"repro/internal/routing"
	"repro/internal/scenarios"
	"repro/internal/topo"
)

// TestMaskSearchRouteNetWorkerInvariant exercises the real concurrency added
// by the parallel execution layer — scenarios.RouteNetSystem clones sharing one
// topo.Graph (lock-guarded candidate-path cache) and its Demands/Paths
// slices — rather than a toy system, and must hold under -race. An untrained
// model is used: PredictDelays runs the same forward passes either way, so
// this stays fast while covering the full Output path.
func TestMaskSearchRouteNetWorkerInvariant(t *testing.T) {
	g := topo.NSFNet(10)
	model := routenet.NewModel(41)
	opt := &routenet.Optimizer{Model: model, Graph: g}
	demands := routing.RandomDemands(g, 6, 3, 9, 913)
	rt := opt.Route(demands)

	run := func(workers int) *mask.Result {
		// Fresh graph per run so the candidate-path cache starts cold and
		// the concurrent first-time-fill path is actually exercised.
		gg := topo.NSFNet(10)
		o := &routenet.Optimizer{Model: model.Clone(), Graph: gg}
		r := &routing.Routing{Demands: demands, Paths: append([]topo.Path(nil), rt.Paths...)}
		sys := &scenarios.RouteNetSystem{Opt: o, Routing: r}
		return mask.Search(sys, mask.Options{Iterations: 8, Seed: 3, Workers: workers})
	}

	serial := run(1)
	par := run(4)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("RouteNet mask search differs across worker counts:\nserial W=%v\npar    W=%v",
			serial.W, par.W)
	}
}
