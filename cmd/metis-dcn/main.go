// Command metis-dcn demonstrates the AuTO pipeline: train the long-flow
// agent on the fabric simulator, distill it, and compare flow completion
// times and decision latencies between the DNN and the tree. Tree decision
// latency is measured on the quantized (flattened, allocation-free)
// representation — the form metis-serve deploys.
//
// -save writes the distilled tree as a versioned artifact; -load skips
// training and distillation and evaluates a previously saved tree.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/auto"
	"repro/internal/cliutil"
	"repro/internal/dcn"
	"repro/internal/metis/dtree"
)

func main() {
	flows := flag.Int("flows", 400, "flows per fabric run")
	gens := flag.Int("gens", 10, "ES training generations")
	saveLoad := cliutil.SaveLoadFlags("distilled tree")
	workers := cliutil.WorkersFlag()
	flag.Parse()
	save, load := saveLoad.Parsed()
	w := cliutil.Workers(*workers)

	var tree *dtree.Tree
	var lrla *auto.LRLA
	if load != "" {
		tree = cliutil.LoadClassifierTree(load, dcn.LongFlowStateDim, "DCN long-flow states")
		fmt.Printf("loaded tree artifact %s: %d leaves\n", load, tree.NumLeaves())
	} else {
		fmt.Println("training AuTO lRLA on the web-search workload…")
		lrla = auto.NewLRLA(21)
		auto.TrainLRLA(lrla, auto.TrainConfig{Workload: dcn.WebSearch, FlowsPerRun: *flows, Generations: *gens, Seed: 23})

		fmt.Println("collecting decisions and distilling…")
		states, actions := auto.CollectLRLADataset(lrla, dcn.WebSearch, 4, 31)
		var err error
		tree, err = dtree.FitDataset(&dtree.Dataset{X: states, Y: actions}, dtree.DistillConfig{
			MaxLeaves: 2000, FeatureNames: auto.LongFlowStateNames(), Workers: w,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("tree: %d leaves from %d decisions\n", tree.NumLeaves(), len(states))
		if save != "" {
			cliutil.MustSaveModel(save, tree, map[string]string{"name": "dcn", "system": "auto-lrla"}, "tree")
		}
	}

	run := func(name string, agent dcn.Agent) {
		fl := dcn.GenerateFlows(dcn.WebSearch, *flows, 16, dcn.DefaultCapBps, 0.6, 99)
		fab := dcn.NewFabric(dcn.Config{LongFlowAgent: agent})
		fab.Run(fl)
		s := dcn.ComputeFCTStats(fl)
		fmt.Printf("  %-12s avg FCT %.3fms  p99 %.3fms  (%d agent decisions)\n",
			name, 1000*s.Mean, 1000*s.P99, fab.Decisions)
	}
	fmt.Println("fabric runs (identical workload):")
	if lrla != nil {
		run("AuTO", lrla)
	}
	run("Metis+AuTO", agentFunc(tree.Predict))

	// Decision latency on the deployment hot path: the quantized tree.
	quantized, err := tree.Quantize()
	if err != nil {
		panic(err)
	}
	state := make([]float64, dcn.LongFlowStateDim)
	state[0], state[1] = 6, 7
	timeIt := func(decide func([]float64) int) time.Duration {
		t0 := time.Now()
		for i := 0; i < 10000; i++ {
			decide(state)
		}
		return time.Since(t0) / 10000
	}
	tr := timeIt(quantized.Predict)
	if lrla != nil {
		dnn := timeIt(lrla.Decide)
		fmt.Printf("decision latency: DNN %v vs quantized tree %v (%.0f× faster; paper: 26.8×)\n",
			dnn, tr, float64(dnn)/float64(tr))
	} else {
		fmt.Printf("decision latency: quantized tree %v\n", tr)
	}
}

// agentFunc adapts a function to dcn.Agent.
type agentFunc func([]float64) int

// Decide implements dcn.Agent.
func (f agentFunc) Decide(state []float64) int { return f(state) }
