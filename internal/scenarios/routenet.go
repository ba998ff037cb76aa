package scenarios

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/metis/mask"
	"repro/internal/routenet"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// RouteNetSystem adapts the closed-loop RouteNet* optimizer to the
// critical-connection search: the output is the concatenation, over demands,
// of the candidate-path choice distributions under the masked model
// (discrete, compared with KL divergence). Opt and Routing are read on the
// first Output; a system whose routing changes afterwards must be rebuilt.
type RouteNetSystem struct {
	Opt     *routenet.Optimizer
	Routing *routing.Routing
	// Temperature sharpens/softens the choice distributions (default 1).
	Temperature float64

	// choices holds the incremental evaluation state, built on first use.
	choices *routenet.Choices
}

// NumConnections implements mask.System.
func (s *RouteNetSystem) NumConnections() int {
	return routenet.NumConnections(s.Routing.Paths)
}

// Discrete implements mask.System.
func (s *RouteNetSystem) Discrete() bool { return true }

// Output implements mask.System: one recorded base pass under the mask plus
// one incremental replay per alternative candidate (see routenet.Choices).
func (s *RouteNetSystem) Output(m []float64) []float64 {
	if s.choices == nil {
		s.choices = routenet.NewChoices(s.Opt.Model, s.Opt.Graph, s.Routing)
	}
	out := make([]float64, s.choices.Len())
	s.choices.Distributions(m, s.Temperature, out)
	return out
}

// CloneSystem implements mask.ClonableSystem so the SPSA perturbation pairs
// of the critical-connection search can be evaluated concurrently. The clone
// gets its own model copy and its own evaluation scratch; the routing is
// only read, so it is shared, and so is the graph — its candidate-path cache
// is lock-guarded.
func (s *RouteNetSystem) CloneSystem() mask.System {
	return &RouteNetSystem{
		Opt:         &routenet.Optimizer{Model: s.Opt.Model.Clone(), Graph: s.Opt.Graph},
		Routing:     s.Routing,
		Temperature: s.Temperature,
	}
}

// Hypergraph returns the scenario-#1 hypergraph of the routing.
func (s *RouteNetSystem) Hypergraph(g *topo.Graph) *hypergraph.Hypergraph {
	vols := make([]float64, len(s.Routing.Demands))
	for i, d := range s.Routing.Demands {
		vols[i] = d.VolumeMbps
	}
	return hypergraph.FromRouting(g, s.Routing.Paths, vols)
}

// RouteNetParams are the per-scale knobs of the routenet scenario. The
// figure harnesses size their traffic samples and mask searches with its
// Demands and MaskIterations.
type RouteNetParams struct {
	Demands, Generations, MaskIterations int
}

var routenetScales = map[string]RouteNetParams{
	scenario.ScaleTiny: {Demands: 6, Generations: 8, MaskIterations: 30},
	scenario.ScaleTest: {Demands: 10, Generations: 30, MaskIterations: 60},
	scenario.ScaleFull: {Demands: 20, Generations: 150, MaskIterations: 150},
}

// RouteNetScale returns the routenet scenario's knobs at the named scale
// (the zero value for an unknown scale).
func RouteNetScale(scale string) RouteNetParams { return routenetScales[scale] }

// seedRouteDemands is the canonical demand-sample seed (the same sample the
// figure harness interprets first).
const seedRouteDemands = 900

// routenetTeacher is the trained delay predictor plus the canonical routed
// traffic sample it is interrogated on.
type routenetTeacher struct {
	graph *topo.Graph
	model *routenet.Model
	sys   *RouteNetSystem
}

// Query implements scenario.Teacher: the choice distributions of the routed
// sample under a connection mask.
func (t *routenetTeacher) Query(in []float64) []float64 { return t.sys.Output(in) }

// Clone implements scenario.Teacher.
func (t *routenetTeacher) Clone() scenario.Teacher {
	sys := t.sys.CloneSystem().(*RouteNetSystem)
	return &routenetTeacher{graph: t.graph, model: sys.Opt.Model, sys: sys}
}

// Model implements scenario.Teacher.
func (t *routenetTeacher) Model() any { return t.model }

// routenetScenario is the global-system scenario of the paper's main
// evaluation: RouteNet*-optimized SDN routing, interpreted through the
// critical-connection mask.
type routenetScenario struct{}

func (routenetScenario) Name() string { return "routenet" }

func (routenetScenario) Describe() string {
	return "RouteNet* delay predictor routing NSFNet traffic; Metis masks the critical (path, link) connections"
}

func (routenetScenario) Fingerprint(cfg scenario.Config) string {
	p := routenetScales[cfg.Scale]
	return fmt.Sprintf("routenet/%s/%+v", cfg.Scale, p)
}

func (sc routenetScenario) Train(cfg scenario.Config) (scenario.Teacher, error) {
	p, ok := routenetScales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("routenet: unknown scale %q", cfg.Scale)
	}
	g := NSFNetGraph()
	model := new(routenet.Model)
	if !cfg.LoadCachedTeacher("routenet", sc.Fingerprint(cfg), model) {
		model = trainRouteNet(g, p.Demands, p.Generations)
		if err := cfg.SaveCachedTeacher("routenet", sc.Fingerprint(cfg), model); err != nil {
			return nil, err
		}
	}
	opt := &routenet.Optimizer{Model: model, Graph: g}
	demands := routing.RandomDemands(g, p.Demands, 3, 9, seedRouteDemands)
	rt := opt.Route(demands)
	return &routenetTeacher{graph: g, model: model, sys: &RouteNetSystem{Opt: opt, Routing: rt}}, nil
}

func (routenetScenario) Distill(cfg scenario.Config, t scenario.Teacher) (scenario.Student, error) {
	rt, ok := t.(*routenetTeacher)
	if !ok {
		return nil, fmt.Errorf("routenet: teacher is %T, not a routenet teacher", t)
	}
	p := routenetScales[cfg.Scale]
	res := mask.Search(rt.sys, mask.Options{
		Lambda1: 0.25, Lambda2: 1, // Table 4 hyperparameters
		Iterations: p.MaskIterations,
		Seed:       1000,
		Workers:    cfg.Workers,
	})
	g, paths := rt.graph, rt.sys.Routing.Paths
	off := routenet.ConnectionOffsets(paths)
	label := func(ci int) string {
		di, pos := 0, ci
		for i := len(off) - 1; i >= 0; i-- {
			if ci >= off[i] {
				di, pos = i, ci-off[i]
				break
			}
		}
		link := g.Links[paths[di][pos]]
		return fmt.Sprintf("path %s link %d→%d", paths[di].String(g), link.Src, link.Dst)
	}
	return &maskStudent{res: res, header: "critical (path, link) connections", label: label, topK: 5}, nil
}

func (routenetScenario) Evaluate(cfg scenario.Config, t scenario.Teacher, s scenario.Student) ([]scenario.Metric, error) {
	rt, ok := t.(*routenetTeacher)
	if !ok {
		return nil, fmt.Errorf("routenet: teacher is %T, not a routenet teacher", t)
	}
	ms, ok := s.(*maskStudent)
	if !ok {
		return nil, fmt.Errorf("routenet: student is %T, not a mask student", s)
	}
	p := routenetScales[cfg.Scale]
	rmse := rt.model.Loss(rt.graph, routenet.TrainConfig{Demands: p.Demands}, 999)
	return []scenario.Metric{
		{Name: "model_rmse_logdelay", Value: rmse},
		{Name: "connections", Value: float64(len(ms.res.W))},
		{Name: "mask_divergence", Value: ms.res.Divergence},
		{Name: "mask_norm", Value: ms.res.Norm},
		{Name: "mask_entropy", Value: ms.res.Entropy},
		{Name: "mask_extreme_frac", Value: maskExtremeFraction(ms.res)},
	}, nil
}
