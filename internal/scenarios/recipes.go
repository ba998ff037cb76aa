// Package scenarios holds the concrete scenario.Scenario implementations —
// every domain the reproduction can push through the one teacher→student
// pipeline: Pensieve/ABR bitrate selection, AuTO flow scheduling (lRLA and
// sRLA), RouteNet*-driven SDN routing, and the three appendix hypergraph
// scenarios (cluster job scheduling, NFV placement, ultra-dense cellular
// association). All register themselves at init time; drive them through
// scenario.Pipeline (cmd/metis-exp -scenario, metis.RunScenario).
//
// The figure harnesses (experiments.Fixture) take their teachers and AuTO
// trees from these scenarios, so a figure and a pipeline run at one scale
// read the same models from the same cache.
package scenarios

import (
	"errors"

	"repro/internal/abr"
	"repro/internal/auto"
	"repro/internal/dataset"
	"repro/internal/dcn"
	"repro/internal/metis/dtree"
	"repro/internal/pensieve"
	"repro/internal/routenet"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Canonical seeds of the reproduction, fixed so every run trains the same
// teachers (the values are historical — they match the seed state's
// hand-written fixtures).
const (
	seedHSDPATrain    = 7
	seedFCC           = 11
	seedHSDPAHeldout  = 1013
	seedPensieveAgent = 2
	seedPretrain      = 5
	seedFinetune      = 6
	seedDistill       = 3
	seedLRLAAgent     = 21
	seedLRLATrain     = 23
	seedSRLAAgent     = 25
	seedSRLATrain     = 27
	seedLRLADataset   = 31
	seedSRLADataset   = 33
	seedRouteNetModel = 41
	seedRouteNetTrain = 43
)

// abrTrainEnv builds the canonical HSDPA-like training environment.
func abrTrainEnv(p ABRParams) *abr.Env {
	return abr.NewEnv(abr.Config{
		Video:  abr.StandardVideo(p.VideoChunks, 1),
		Traces: trace.HSDPA(p.NumTraces, p.TraceSeconds, seedHSDPATrain),
	})
}

// abrHeldoutEnv builds the canonical held-out HSDPA-like test environment.
func abrHeldoutEnv(p ABRParams) *abr.Env {
	return abr.NewEnv(abr.Config{
		Video:  abr.StandardVideo(p.VideoChunks, 1),
		Traces: trace.HSDPA(p.NumTraces, p.TraceSeconds, seedHSDPAHeldout),
	})
}

// ABREnvs builds the canonical ABR environments: the HSDPA-like training
// set, the FCC-like set, and a held-out HSDPA-like test set.
func ABREnvs(p ABRParams) (train, fcc, heldout *abr.Env) {
	train = abrTrainEnv(p)
	fcc = abr.NewEnv(abr.Config{
		Video:  abr.StandardVideo(p.VideoChunks, 1),
		Traces: trace.FCC(p.NumTraces, p.TraceSeconds, seedFCC),
	})
	return train, fcc, abrHeldoutEnv(p)
}

// trainPensieve trains the Pensieve teacher with the canonical recipe:
// supervised pretraining toward a robust-MPC-like target, then A2C
// fine-tuning on the same environment. workers bounds the goroutines that
// roll the pretraining demonstrations out; the agent is the same for any
// count.
func trainPensieve(env *abr.Env, pretrainEps, finetuneEps, maxSteps, workers int) *pensieve.Agent {
	agent := pensieve.NewAgent(seedPensieveAgent, false)
	pensieve.Pretrain(agent, env, pretrainEps, seedPretrain, workers)
	agent.A2C.Train(env, finetuneEps, maxSteps, seedFinetune)
	return agent
}

// PensieveDistillConfig is the canonical §3.2 distillation configuration for
// the Pensieve teacher (DAgger + Equation 1 resampling + CCP pruning) with
// the abr knobs p. The figure ablations start from it and change only the
// field they ablate.
func PensieveDistillConfig(p ABRParams, workers int) dtree.DistillConfig {
	return dtree.DistillConfig{
		MaxLeaves:       p.TreeLeaves,
		Iterations:      p.DistillIters,
		EpisodesPerIter: p.DistillEps,
		MaxSteps:        p.VideoChunks + 2,
		Resample:        true,
		QHorizon:        5,
		FeatureNames:    abr.FeatureNames(),
		Seed:            seedDistill,
		Workers:         workers,
	}
}

// trainAuTOLRLA trains the AuTO long-flow agent on the web-search workload
// with the canonical seeds.
func trainAuTOLRLA(flowsPerRun, generations int) *auto.LRLA {
	l := auto.NewLRLA(seedLRLAAgent)
	auto.TrainLRLA(l, auto.TrainConfig{Workload: dcn.WebSearch, FlowsPerRun: flowsPerRun, Generations: generations, Seed: seedLRLATrain})
	return l
}

// trainAuTOSRLA trains the AuTO short-flow (threshold) agent on the
// web-search workload with the canonical seeds.
func trainAuTOSRLA(flowsPerRun, generations int) *auto.SRLA {
	s := auto.NewSRLA(seedSRLAAgent)
	auto.TrainSRLA(s, auto.TrainConfig{Workload: dcn.WebSearch, FlowsPerRun: flowsPerRun, Generations: generations, Seed: seedSRLATrain})
	return s
}

// distillLRLATree collects lRLA decisions over fabric runs and fits the
// classification student, returning the tree and the columnar table it was
// fitted on.
func distillLRLATree(l *auto.LRLA, runs, maxLeaves, workers int) (*dtree.Tree, *dataset.Table, error) {
	states, actions := auto.CollectLRLADataset(l, dcn.WebSearch, runs, seedLRLADataset)
	if len(states) == 0 {
		return nil, nil, errors.New("scenarios: no lRLA decisions collected")
	}
	ds, err := dataset.FromRows(states, actions, nil)
	if err != nil {
		return nil, nil, err
	}
	tr, err := dtree.FitTable(ds, dtree.DistillConfig{
		MaxLeaves: maxLeaves, FeatureNames: auto.LongFlowStateNames(), Workers: workers,
	})
	if err != nil {
		return nil, nil, err
	}
	return tr, ds, nil
}

// distillSRLATree samples sRLA threshold outputs and fits the regression
// student, returning the tree and the columnar table it was fitted on.
func distillSRLATree(s *auto.SRLA, samples, maxLeaves, workers int) (*dtree.Tree, *dataset.Table, error) {
	states, targets := auto.CollectSRLADataset(s, dcn.WebSearch, samples, seedSRLADataset)
	ds, err := dataset.FromRegRows(states, targets, nil)
	if err != nil {
		return nil, nil, err
	}
	tr, err := dtree.FitTable(ds, dtree.DistillConfig{MaxLeaves: maxLeaves, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	return tr, ds, nil
}

// NSFNetGraph is the canonical routing substrate (NSFNet at 10 Mbps base
// capacity).
func NSFNetGraph() *topo.Graph { return topo.NSFNet(10) }

// trainRouteNet trains the RouteNet* delay predictor on g with the
// canonical seeds.
func trainRouteNet(g *topo.Graph, demands, generations int) *routenet.Model {
	m := routenet.NewModel(seedRouteNetModel)
	m.Train(g, routenet.TrainConfig{Demands: demands, Generations: generations, Seed: seedRouteNetTrain})
	return m
}
