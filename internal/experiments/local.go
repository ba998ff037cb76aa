package experiments

import (
	"fmt"
	"strings"

	"repro/internal/abr"
	"repro/internal/metis/dtree"
	"repro/internal/pensieve"
	"repro/internal/scenarios"
	"repro/internal/stats"
)

// Fig07Result is the decision-tree interpretation of Metis+Pensieve
// (Figure 7): the top layers of the tree with per-node decision frequencies.
type Fig07Result struct {
	// Rules is the rendered top of the tree.
	Rules string
	// RootFeature is the feature name split on at the root.
	RootFeature string
	// TopFeatures are the distinct features used in the top 4 layers.
	TopFeatures []string
	// Fidelity is the tree/teacher agreement on the distillation set.
	Fidelity float64
	// Leaves is the pruned leaf count.
	Leaves int
}

// String renders the result.
func (r *Fig07Result) String() string {
	return fmt.Sprintf("Fig 7 — Metis+Pensieve decision tree (top 4 layers, %d leaves, fidelity %.1f%%)\nroot splits on %s; top-layer features: %s\n%s",
		r.Leaves, 100*r.Fidelity, r.RootFeature, strings.Join(r.TopFeatures, ", "), r.Rules)
}

// Fig07 distills Pensieve and reports the top of the tree.
func Fig07(f *Fixture) *Fig07Result {
	res := f.PensieveTree()
	t := res.Tree
	names := abr.FeatureNames()
	seen := map[string]bool{}
	var features []string
	var walk func(n *dtree.Node, depth int)
	walk = func(n *dtree.Node, depth int) {
		if n == nil || n.IsLeaf() || depth >= 4 {
			return
		}
		name := names[n.Feature]
		// Collapse history lags into their family for reporting.
		switch {
		case strings.HasPrefix(name, "θ"):
			name = "θ_t"
		case strings.HasPrefix(name, "T"):
			name = "T_t"
		case strings.HasPrefix(name, "size"):
			name = "chunk sizes"
		}
		if !seen[name] {
			seen[name] = true
			features = append(features, name)
		}
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(t.Root, 0)
	return &Fig07Result{
		Rules:       t.Rules(4),
		RootFeature: names[t.Root.Feature],
		TopFeatures: features,
		Fidelity:    res.Fidelity,
		Leaves:      t.NumLeaves(),
	}
}

// Fig11Result compares the original and §6.2-modified Pensieve structures
// (Figure 11): QoE learning curves on train and test sets.
type Fig11Result struct {
	Episodes []int
	Original []float64 // test QoE per curve point
	Modified []float64
	// FinalGainPct is the modified structure's final test-QoE advantage.
	FinalGainPct float64
}

// String renders the result.
func (r *Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11 — DNN redesign (r_t skip connection): test QoE by episode\n")
	fmt.Fprintf(&b, "%10s %10s %10s\n", "episode", "original", "modified")
	for i := range r.Episodes {
		fmt.Fprintf(&b, "%10d %10.3f %10.3f\n", r.Episodes[i], r.Original[i], r.Modified[i])
	}
	fmt.Fprintf(&b, "final modified-vs-original gain: %+.1f%% (paper: +5.1%% on average)\n", r.FinalGainPct)
	return b.String()
}

// Fig11 retrains both structures with an identical recipe and compares.
func Fig11(f *Fixture) *Fig11Result {
	s := scenarios.ABRScale(f.Scale)
	train := f.EnvHSDPA()
	test := f.EnvHSDPATest()
	run := func(modified bool) []pensieve.CurvePoint {
		a := pensieve.NewAgent(2, modified)
		pensieve.Pretrain(a, train, s.PretrainEps/2, 5, f.Workers)
		return pensieve.Train(a, train, pensieve.TrainOptions{
			Episodes:     s.FinetuneEps,
			EvalEvery:    s.FinetuneEps / 4,
			EvalEpisodes: s.EvalTraces / 2,
			TestEnv:      test,
			Seed:         6,
		})
	}
	orig := run(false)
	mod := run(true)
	r := &Fig11Result{}
	for i := range orig {
		r.Episodes = append(r.Episodes, orig[i].Episode)
		r.Original = append(r.Original, orig[i].TestQoE)
		r.Modified = append(r.Modified, mod[i].TestQoE)
	}
	last := len(orig) - 1
	if orig[last].TestQoE != 0 {
		r.FinalGainPct = 100 * (mod[last].TestQoE - orig[last].TestQoE) / absf(orig[last].TestQoE)
	}
	return r
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Fig12Result reports bitrate selection frequencies per algorithm
// (Figures 12a/12b): Pensieve rarely selects 1200 and 2850 kbps.
type Fig12Result struct {
	TraceFamily string
	Algorithms  []string
	// Freq[i][q] is algorithm i's selection frequency of bitrate q.
	Freq [][]float64
	// PensieveRare lists the frequencies of 1200/2850 kbps under Pensieve.
	PensieveRare [2]float64
}

// String renders the result.
func (r *Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12 (%s) — bitrate selection frequency\n%-16s", r.TraceFamily, "algorithm")
	for _, br := range abr.BitratesKbps {
		fmt.Fprintf(&b, "%9.0fk", br)
	}
	b.WriteByte('\n')
	for i, alg := range r.Algorithms {
		fmt.Fprintf(&b, "%-16s", alg)
		for _, v := range r.Freq[i] {
			fmt.Fprintf(&b, "%9.1f%%", 100*v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "Pensieve frequency of 1200kbps: %.2f%%, 2850kbps: %.2f%% (paper: ≈0.1%%, ≈0.0%%)\n",
		100*r.PensieveRare[0], 100*r.PensieveRare[1])
	return b.String()
}

// Fig12 measures selection frequencies on one trace family.
func Fig12(f *Fixture, family string) *Fig12Result {
	env := f.EnvHSDPA()
	if family == "FCC" {
		env = f.EnvFCC()
	}
	agent := f.Pensieve()
	tree := f.PensieveTree().Tree

	r := &Fig12Result{TraceFamily: family}
	add := func(name string, sel abr.Selector) {
		freq := make([]float64, abr.NumBitrates)
		total := 0.0
		for ep := 0; ep < scenarios.ABRScale(f.Scale).EvalTraces; ep++ {
			res := abr.RunEpisode(env, sel, int64(ep))
			for _, c := range res.Chunks {
				freq[c.Action]++
				total++
			}
		}
		for q := range freq {
			freq[q] /= total
		}
		r.Algorithms = append(r.Algorithms, name)
		r.Freq = append(r.Freq, freq)
	}
	for _, alg := range abr.Baselines() {
		if alg.Name() == "Fixed" {
			continue
		}
		add(alg.Name(), abr.AlgorithmSelector(alg))
	}
	add("Metis+Pensieve", abr.PolicySelector(tree.Predict))
	add("Pensieve", agent.Selector())
	pf := r.Freq[len(r.Freq)-1]
	r.PensieveRare = [2]float64{pf[2], pf[4]} // 1200 and 2850 kbps
	return r
}

// Fig12cResult is the fixed-bandwidth sweep (Figure 12c).
type Fig12cResult struct {
	BandwidthsKbps []float64
	// Freq[b][q] is Pensieve's selection frequency of bitrate q at
	// bandwidth b.
	Freq [][]float64
}

// String renders the result.
func (r *Fig12cResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12(c) — Pensieve on fixed-bandwidth links\n%-10s", "bw (kbps)")
	for _, br := range abr.BitratesKbps {
		fmt.Fprintf(&b, "%9.0fk", br)
	}
	b.WriteByte('\n')
	for i, bw := range r.BandwidthsKbps {
		fmt.Fprintf(&b, "%-10.0f", bw)
		for _, v := range r.Freq[i] {
			fmt.Fprintf(&b, "%9.1f%%", 100*v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig12c sweeps fixed-bandwidth links.
func Fig12c(f *Fixture) *Fig12cResult {
	agent := f.Pensieve()
	r := &Fig12cResult{}
	for _, bw := range []float64{300, 750, 1200, 1850, 2850, 4300} {
		env := f.FixedEnv(bw*1.05, scenarios.ABRScale(f.Scale).VideoChunks)
		res := abr.RunEpisode(env, agent.Selector(), 0)
		r.BandwidthsKbps = append(r.BandwidthsKbps, bw)
		r.Freq = append(r.Freq, res.ActionFrequencies())
	}
	return r
}

// Fig13Result is the 3000 kbps debugging study (Figure 13 + Appendix D):
// per-algorithm QoE and oscillation behaviour on a fixed link.
type Fig13Result struct {
	LinkKbps   float64
	Algorithms []string
	MeanQoE    []float64
	// Switches counts bitrate changes over the session (oscillation).
	Switches []int
	// PensieveConfidence is the mean max action probability of the DNN
	// along its trajectory (Fig. 25: low confidence → oscillation).
	PensieveConfidence float64
}

// String renders the result.
func (r *Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13 — fixed %.0f kbps link\n%-16s %10s %10s\n", r.LinkKbps, "algorithm", "QoE/chunk", "switches")
	for i := range r.Algorithms {
		fmt.Fprintf(&b, "%-16s %10.3f %10d\n", r.Algorithms[i], r.MeanQoE[i], r.Switches[i])
	}
	fmt.Fprintf(&b, "Pensieve mean decision confidence: %.3f (paper: low confidence drives 1850↔4300 oscillation)\n", r.PensieveConfidence)
	return b.String()
}

// Fig13 runs the fixed-link study at the given bandwidth (3000 in Fig. 13,
// 1300 for Table 5).
func Fig13(f *Fixture, kbps float64) *Fig13Result {
	env := f.FixedEnv(kbps, 250) // a long video, mirroring the 1000 s session
	agent := f.Pensieve()
	tree := f.PensieveTree().Tree
	r := &Fig13Result{LinkKbps: kbps}

	run := func(name string, sel abr.Selector) abr.EpisodeResult {
		res := abr.RunEpisode(env, sel, 0)
		sw := 0
		for i := 1; i < len(res.Chunks); i++ {
			if res.Chunks[i].Action != res.Chunks[i-1].Action {
				sw++
			}
		}
		r.Algorithms = append(r.Algorithms, name)
		r.MeanQoE = append(r.MeanQoE, res.MeanQoE())
		r.Switches = append(r.Switches, sw)
		return res
	}
	for _, alg := range []abr.Algorithm{&abr.BB{}, &abr.RB{}, &abr.RobustMPC{}} {
		alg.Reset()
		run(alg.Name(), abr.AlgorithmSelector(alg))
	}
	run("Metis+Pensieve", abr.PolicySelector(tree.Predict))
	run("Pensieve", agent.Selector())

	// Confidence along the Pensieve trajectory.
	env.Reset(0)
	conf, n := 0.0, 0
	s := env.State()
	for {
		probs := agent.Probs(s)
		best := 0.0
		for _, p := range probs {
			if p > best {
				best = p
			}
		}
		conf += best
		n++
		a := agent.Act(s)
		next, _, done := env.Step(a)
		if done {
			break
		}
		s = next
	}
	r.PensieveConfidence = conf / float64(n)
	return r
}

// Fig14Result is the oversampling debug fix (Figure 14): the oversampled
// tree versus the teacher DNN, normalized QoE.
type Fig14Result struct {
	TraceFamily                  string
	P25, Avg, P75                float64 // Metis+Pensieve-O normalized by Pensieve
	PlainP25, PlainAvg, PlainP75 float64 // plain Metis+Pensieve
}

// String renders the result.
func (r *Fig14Result) String() string {
	return fmt.Sprintf("Fig 14 (%s) — QoE normalized by Pensieve\n%-22s %8s %8s %8s\n%-22s %8.1f%% %8.1f%% %8.1f%%\n%-22s %8.1f%% %8.1f%% %8.1f%%\n(paper: oversampled tree ≈ +1%% avg, +4%% p75 on HSDPA)",
		r.TraceFamily, "variant", "p25", "avg", "p75",
		"Metis+Pensieve", 100*r.PlainP25, 100*r.PlainAvg, 100*r.PlainP75,
		"Metis+Pensieve-O", 100*r.P25, 100*r.Avg, 100*r.P75)
}

// Fig14 distills with the §6.3 oversampling fix and compares.
func Fig14(f *Fixture) *Fig14Result {
	env := f.EnvHSDPA()
	agent := f.Pensieve()
	plain := f.PensieveTree().Tree

	cfg := scenarios.PensieveDistillConfig(scenarios.ABRScale(f.Scale), f.Workers)
	cfg.Oversample = map[int]float64{2: 0.01, 4: 0.01} // 1200 and 2850 kbps to ≈1%
	over, err := dtree.DistillPolicy(env, agent, cfg)
	if err != nil {
		panic("experiments: fig14 distill: " + err.Error())
	}

	n := scenarios.ABRScale(f.Scale).EvalTraces
	teacher := abr.RunTraces(env, agent.Selector(), n)
	plainQ := abr.RunTraces(env, abr.PolicySelector(plain.Predict), n)
	overQ := abr.RunTraces(env, abr.PolicySelector(over.Tree.Predict), n)

	ratio := func(x, y []float64) (p25, avg, p75 float64) {
		var rs []float64
		for i := range x {
			if absf(y[i]) > 1e-9 {
				rs = append(rs, x[i]/y[i])
			}
		}
		return stats.Percentile(rs, 0.25), stats.Mean(rs), stats.Percentile(rs, 0.75)
	}
	r := &Fig14Result{TraceFamily: "HSDPA"}
	r.P25, r.Avg, r.P75 = ratio(overQ, teacher)
	r.PlainP25, r.PlainAvg, r.PlainP75 = ratio(plainQ, teacher)
	return r
}

// Fig15aResult compares QoE of the tree, the DNN, and the heuristics
// (Figure 15a): the tree stays within a fraction of a percent of the DNN.
type Fig15aResult struct {
	Families   []string
	Algorithms []string
	// QoE[f][a] is mean QoE per chunk for family f, algorithm a.
	QoE [][]float64
	// TreeGapPct[f] is (tree−DNN)/|DNN| per family.
	TreeGapPct []float64
}

// String renders the result.
func (r *Fig15aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15(a) — mean QoE per chunk\n%-16s", "algorithm")
	for _, fam := range r.Families {
		fmt.Fprintf(&b, "%10s", fam)
	}
	b.WriteByte('\n')
	for ai, alg := range r.Algorithms {
		fmt.Fprintf(&b, "%-16s", alg)
		for fi := range r.Families {
			fmt.Fprintf(&b, "%10.3f", r.QoE[fi][ai])
		}
		b.WriteByte('\n')
	}
	for fi, fam := range r.Families {
		fmt.Fprintf(&b, "tree-vs-DNN gap on %s: %+.2f%% (paper: within ±0.6%%)\n", fam, r.TreeGapPct[fi])
	}
	return b.String()
}

// Fig15a runs the QoE parity comparison.
func Fig15a(f *Fixture) *Fig15aResult {
	agent := f.Pensieve()
	tree := f.PensieveTree().Tree
	r := &Fig15aResult{Families: []string{"HSDPA", "FCC"}}
	for _, alg := range abr.Baselines() {
		if alg.Name() == "Fixed" {
			continue
		}
		r.Algorithms = append(r.Algorithms, alg.Name())
	}
	r.Algorithms = append(r.Algorithms, "Metis+Pensieve", "Pensieve")

	n := scenarios.ABRScale(f.Scale).EvalTraces
	for _, env := range []*abr.Env{f.EnvHSDPA(), f.EnvFCC()} {
		var row []float64
		for _, alg := range abr.Baselines() {
			if alg.Name() == "Fixed" {
				continue
			}
			alg.Reset()
			row = append(row, stats.Mean(abr.RunTraces(env, abr.AlgorithmSelector(alg), n)))
		}
		treeQ := stats.Mean(abr.RunTraces(env, abr.PolicySelector(tree.Predict), n))
		dnnQ := stats.Mean(abr.RunTraces(env, agent.Selector(), n))
		row = append(row, treeQ, dnnQ)
		r.QoE = append(r.QoE, row)
		r.TreeGapPct = append(r.TreeGapPct, 100*(treeQ-dnnQ)/absf(dnnQ))
	}
	return r
}

// Fig20Result is the Appendix A resampling ablation: distribution of QoE
// improvement from the Equation 1 resampling step.
type Fig20Result struct {
	// ImprovedFrac is the fraction of traces where resampling helped.
	ImprovedFrac float64
	// MedianImprovementPct is the median per-trace improvement.
	MedianImprovementPct float64
	// Improvements holds the per-trace relative improvements.
	Improvements []float64
}

// String renders the result.
func (r *Fig20Result) String() string {
	return fmt.Sprintf("Fig 20 — Equation 1 resampling ablation: improved on %.0f%% of traces, median %+.1f%% (paper: 73%%, +1.5%%)",
		100*r.ImprovedFrac, r.MedianImprovementPct)
}

// Fig20 distills with and without resampling and compares per-trace QoE.
func Fig20(f *Fixture) *Fig20Result {
	env := f.EnvHSDPA()
	agent := f.Pensieve()
	with := f.PensieveTree().Tree

	cfg := scenarios.PensieveDistillConfig(scenarios.ABRScale(f.Scale), f.Workers)
	cfg.Resample = false
	without, err := dtree.DistillPolicy(env, agent, cfg)
	if err != nil {
		panic("experiments: fig20 distill: " + err.Error())
	}
	n := scenarios.ABRScale(f.Scale).EvalTraces
	qWith := abr.RunTraces(env, abr.PolicySelector(with.Predict), n)
	qWithout := abr.RunTraces(env, abr.PolicySelector(without.Tree.Predict), n)
	r := &Fig20Result{}
	improved := 0
	for i := range qWith {
		diff := qWith[i] - qWithout[i]
		rel := diff
		if absf(qWithout[i]) > 1e-9 {
			rel = 100 * diff / absf(qWithout[i])
		}
		r.Improvements = append(r.Improvements, rel)
		if diff > 0 {
			improved++
		}
	}
	r.ImprovedFrac = float64(improved) / float64(len(qWith))
	r.MedianImprovementPct = stats.Percentile(r.Improvements, 0.5)
	return r
}
