// Command metis-abr demonstrates the local-system pipeline end to end:
// train a Pensieve teacher on synthetic HSDPA-like traces, distill it into a
// decision tree with Metis, print the interpretable rules, and compare QoE
// against the classic ABR heuristics.
//
// -save writes the distilled tree as a versioned artifact (servable by
// metis-serve); -load skips teacher training and distillation entirely and
// evaluates a previously saved tree instead.
package main

import (
	"flag"
	"fmt"

	"repro/internal/abr"
	"repro/internal/cliutil"
	"repro/internal/metis/dtree"
	"repro/internal/pensieve"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	traces := flag.Int("traces", 16, "number of synthetic traces")
	episodes := flag.Int("train", 300, "teacher pretraining episodes")
	leaves := flag.Int("leaves", 120, "decision tree leaf budget")
	saveLoad := cliutil.SaveLoadFlags("distilled tree")
	workers := cliutil.WorkersFlag()
	flag.Parse()
	save, load := saveLoad.Parsed()
	w := cliutil.Workers(*workers)

	env := abr.NewEnv(abr.Config{
		Video:  abr.StandardVideo(48, 1),
		Traces: trace.HSDPA(*traces, 400, 7),
	})

	var tree *dtree.Tree
	var agent *pensieve.Agent
	if load != "" {
		tree = cliutil.LoadClassifierTree(load, abr.StateDim, "ABR states")
		fmt.Printf("loaded tree artifact %s: %d leaves, depth %d\n", load, tree.NumLeaves(), tree.Depth())
	} else {
		fmt.Println("training Pensieve teacher…")
		agent = pensieve.NewAgent(2, false)
		pensieve.Pretrain(agent, env, *episodes, 5, w)
		agent.A2C.Train(env, 2*(*episodes), 50, 6)

		fmt.Println("distilling with Metis (DAgger + Equation 1 resampling + CCP)…")
		res, err := dtree.DistillPolicy(env, agent, dtree.DistillConfig{
			MaxLeaves:       *leaves,
			Iterations:      2,
			EpisodesPerIter: 10,
			MaxSteps:        50,
			Resample:        true,
			QHorizon:        5,
			FeatureNames:    abr.FeatureNames(),
			Seed:            3,
			Workers:         w,
		})
		if err != nil {
			panic(err)
		}
		tree = res.Tree
		fmt.Printf("tree: %d leaves, depth %d, fidelity %.1f%%, %d bytes\n",
			tree.NumLeaves(), tree.Depth(), 100*res.Fidelity, tree.SizeBytes())
		if save != "" {
			cliutil.MustSaveModel(save, tree, map[string]string{"name": "abr", "system": "pensieve"}, "tree")
		}
	}

	fmt.Println("\ntop 4 layers (Figure 7 analogue):")
	fmt.Println(tree.Rules(4))

	fmt.Println("mean QoE per chunk over the trace set:")
	for _, alg := range abr.Baselines() {
		alg.Reset()
		q := stats.Mean(abr.RunTraces(env, abr.AlgorithmSelector(alg), *traces))
		fmt.Printf("  %-16s %8.3f\n", alg.Name(), q)
	}
	fmt.Printf("  %-16s %8.3f\n", "Metis+Pensieve", stats.Mean(abr.RunTraces(env, abr.PolicySelector(tree.Predict), *traces)))
	if agent != nil {
		fmt.Printf("  %-16s %8.3f\n", "Pensieve", stats.Mean(abr.RunTraces(env, agent.Selector(), *traces)))
	}
}
