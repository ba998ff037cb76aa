package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/interp/cluster"
	"repro/internal/interp/lemna"
	"repro/internal/interp/lime"
	"repro/internal/metis/dtree"
	"repro/internal/metis/mask"
	"repro/internal/parallel"
	"repro/internal/rl"
	"repro/internal/routenet"
	"repro/internal/routing"
	"repro/internal/scenarios"
)

// Fig27Result compares Metis's decision tree against LIME and LEMNA
// (Appendix E): accuracy of the mimicked action and RMSE of the mimicked
// action distribution versus the teacher DNN.
type Fig27Result struct {
	System   string
	Clusters []int
	// Acc / RMSE indexed [method][clusterSetting]; methods are LIME, LEMNA.
	LimeAcc, LemnaAcc   []float64
	LimeRMSE, LemnaRMSE []float64
	// TreeAcc / TreeRMSE are constants (the tree does not use clustering).
	TreeAcc, TreeRMSE float64
}

// String renders the result.
func (r *Fig27Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 27 (%s) — interpretation fidelity vs teacher\n", r.System)
	fmt.Fprintf(&b, "Metis tree: accuracy %.3f, RMSE %.3f\n", r.TreeAcc, r.TreeRMSE)
	fmt.Fprintf(&b, "%-9s %12s %12s %12s %12s\n", "clusters", "LIME acc", "LIME rmse", "LEMNA acc", "LEMNA rmse")
	for i, k := range r.Clusters {
		fmt.Fprintf(&b, "%-9d %12.3f %12.3f %12.3f %12.3f\n", k, r.LimeAcc[i], r.LimeRMSE[i], r.LemnaAcc[i], r.LemnaRMSE[i])
	}
	b.WriteString("(paper: the decision tree beats both baselines on accuracy and RMSE)\n")
	return b.String()
}

// blackboxPool adapts a policy into per-worker blackbox instances for the
// baselines' perturbed-input batches: slot 0 queries the original, extra
// slots query independent clones (none when the policy is not clonable, in
// which case evaluation stays serial).
func blackboxPool(p rl.Policy, workers int) []func([]float64) []float64 {
	cp, ok := p.(rl.ClonablePolicy)
	if !ok {
		return []func([]float64) []float64{p.ActionProbs}
	}
	return parallel.Pool(p.ActionProbs, workers, func() func([]float64) []float64 {
		return cp.ClonePolicy().ActionProbs
	})
}

// Fig27 runs the Appendix E comparison on the Pensieve teacher.
func Fig27(f *Fixture, clusterSettings []int) *Fig27Result {
	agent := f.Pensieve()
	res := f.PensieveTree()
	ds := res.Data

	// Split into train/eval halves. The baselines are row-oriented
	// consumers (clustering, per-sample blackbox queries), so the halves
	// are materialized as rows once here.
	half := ds.Len() / 2
	trainX := ds.Slice(0, half).Rows()
	evalX := ds.Slice(half, ds.Len()).Rows()
	teacherPool := blackboxPool(agent, parallel.Workers(f.Workers))
	teacherProbs := teacherPool[0]

	// Teacher labels for evaluation.
	evalY := make([][]float64, len(evalX))
	evalA := make([]int, len(evalX))
	for i, x := range evalX {
		p := teacherProbs(x)
		evalY[i] = append([]float64(nil), p...)
		evalA[i] = argmax(p)
	}

	r := &Fig27Result{System: "Pensieve", Clusters: clusterSettings}

	// Tree fidelity (accuracy + RMSE of leaf distributions).
	agree, se, n := 0, 0.0, 0
	for i, x := range evalX {
		if res.Tree.Predict(x) == evalA[i] {
			agree++
		}
		leafDist := normalizedDist(res.Tree, x)
		for k := range leafDist {
			d := leafDist[k] - evalY[i][k]
			se += d * d
			n++
		}
	}
	r.TreeAcc = float64(agree) / float64(len(evalX))
	r.TreeRMSE = sqrt(se / float64(n))

	for _, k := range clusterSettings {
		km, assign := cluster.Fit(trainX, k, 30, 55)

		// LIME: one local linear model per cluster, anchored at centroids.
		limeModels := make([]*lime.Model, k)
		for ci := 0; ci < len(km.Centroids); ci++ {
			m, err := lime.ExplainWith(teacherPool, km.Centroids[ci], nil, lime.Config{Samples: 150, Seed: int64(ci), Workers: f.Workers})
			if err == nil {
				limeModels[ci] = m
			}
		}
		// LEMNA: per-cluster, per-output mixture regressions.
		lemnaModels := make([][]*lemna.Model, k)
		for ci := 0; ci < k; ci++ {
			var X [][]float64
			for i := range trainX {
				if assign[i] == ci {
					X = append(X, trainX[i])
				}
			}
			if len(X) < 8 {
				continue
			}
			dims := len(evalY[0])
			lemnaModels[ci] = make([]*lemna.Model, dims)
			for d := 0; d < dims; d++ {
				y := make([]float64, len(X))
				for i, x := range X {
					y[i] = teacherProbs(x)[d]
				}
				m, err := lemna.Fit(X, y, lemna.Config{Components: 2, Iterations: 10, Seed: int64(ci*10 + d), Workers: f.Workers})
				if err == nil {
					lemnaModels[ci][d] = m
				}
			}
		}

		evalMethod := func(predict func(ci int, x []float64) []float64) (acc, rmse float64) {
			agree, se, n := 0, 0.0, 0
			for i, x := range evalX {
				ci := km.Predict(x)
				pred := predict(ci, x)
				if pred == nil {
					pred = make([]float64, len(evalY[i]))
				}
				if argmax(pred) == evalA[i] {
					agree++
				}
				for d := range pred {
					dv := pred[d] - evalY[i][d]
					se += dv * dv
					n++
				}
			}
			return float64(agree) / float64(len(evalX)), sqrt(se / float64(n))
		}

		la, lr := evalMethod(func(ci int, x []float64) []float64 {
			if ci >= len(limeModels) || limeModels[ci] == nil {
				return nil
			}
			return limeModels[ci].Predict(x)
		})
		ma, mr := evalMethod(func(ci int, x []float64) []float64 {
			if ci >= len(lemnaModels) || lemnaModels[ci] == nil {
				return nil
			}
			out := make([]float64, len(evalY[0]))
			for d, m := range lemnaModels[ci] {
				if m != nil {
					out[d] = m.Predict(x)
				}
			}
			return out
		})
		r.LimeAcc = append(r.LimeAcc, la)
		r.LimeRMSE = append(r.LimeRMSE, lr)
		r.LemnaAcc = append(r.LemnaAcc, ma)
		r.LemnaRMSE = append(r.LemnaRMSE, mr)
	}
	return r
}

func normalizedDist(t *dtree.Tree, x []float64) []float64 {
	path := t.Path(x)
	leaf := path[len(path)-1]
	out := make([]float64, len(leaf.ClassDist))
	total := 0.0
	for _, v := range leaf.ClassDist {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range leaf.ClassDist {
		out[i] = v / total
	}
	return out
}

func argmax(xs []float64) int {
	b := 0
	for i, v := range xs {
		if v > xs[b] {
			b = i
		}
	}
	return b
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Fig28Result is the leaf-count sensitivity study (Appendix F.1).
type Fig28Result struct {
	Leaves []int
	Acc    []float64
	RMSE   []float64
}

// String renders the result.
func (r *Fig28Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 28 — leaf-count sensitivity (Metis+Pensieve)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s\n", "leaves", "accuracy", "rmse")
	for i := range r.Leaves {
		fmt.Fprintf(&b, "%-8d %10.3f %10.3f\n", r.Leaves[i], r.Acc[i], r.RMSE[i])
	}
	b.WriteString("(paper: a wide range of leaf counts performs within 10%)\n")
	return b.String()
}

// Fig28 sweeps the leaf budget on the cached distillation dataset.
func Fig28(f *Fixture, leafSettings []int) *Fig28Result {
	agent := f.Pensieve()
	ds := f.PensieveTree().Data
	half := ds.Len() / 2
	// Zero-copy halves: Slice re-slices the feature/label/weight columns.
	train := ds.Slice(0, half)
	eval := ds.Slice(half, ds.Len())

	r := &Fig28Result{}
	buf := make([]float64, ds.NumFeatures())
	for _, leaves := range leafSettings {
		tree, err := dtree.FitTable(train, dtree.DistillConfig{MaxLeaves: leaves, Workers: f.Workers})
		if err != nil {
			panic("experiments: fig28: " + err.Error())
		}
		agree, se, n := 0, 0.0, 0
		for i := 0; i < eval.Len(); i++ {
			x := eval.Row(i, buf)
			if tree.Predict(x) == eval.Label(i) {
				agree++
			}
			dist := normalizedDist(tree, x)
			probs := agent.Probs(x)
			for k := range dist {
				d := dist[k] - probs[k]
				se += d * d
				n++
			}
		}
		r.Leaves = append(r.Leaves, leaves)
		r.Acc = append(r.Acc, float64(agree)/float64(eval.Len()))
		r.RMSE = append(r.RMSE, sqrt(se/float64(n)))
	}
	return r
}

// Fig31Result measures Metis's offline computation overhead (Appendix G).
type Fig31Result struct {
	Leaves    []int
	TreeTimes []time.Duration
	// MaskTime is one critical-connection search on a routing sample.
	MaskTime time.Duration
}

// String renders the result.
func (r *Fig31Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 31 — offline computation overhead\n")
	for i := range r.Leaves {
		fmt.Fprintf(&b, "tree extraction @%d leaves: %v\n", r.Leaves[i], r.TreeTimes[i])
	}
	fmt.Fprintf(&b, "mask optimization (one traffic sample): %v\n", r.MaskTime)
	b.WriteString("(paper: <40 s for trees, ~80 s per mask; both negligible vs DNN training)\n")
	return b.String()
}

// Fig31 times tree fitting at several leaf budgets plus one mask search.
func Fig31(f *Fixture, leafSettings []int) *Fig31Result {
	ds := f.PensieveTree().Data
	r := &Fig31Result{}
	for _, leaves := range leafSettings {
		start := time.Now()
		if _, err := dtree.FitTable(ds, dtree.DistillConfig{MaxLeaves: leaves, Workers: f.Workers}); err != nil {
			panic("experiments: fig31: " + err.Error())
		}
		r.Leaves = append(r.Leaves, leaves)
		r.TreeTimes = append(r.TreeTimes, time.Since(start))
	}
	g, model := f.RouteNet()
	opt := &routenet.Optimizer{Model: model, Graph: g}
	p := scenarios.RouteNetScale(f.Scale)
	demands := routing.RandomDemands(g, p.Demands, 3, 9, 905)
	rt := opt.Route(demands)
	start := time.Now()
	mask.Search(&scenarios.RouteNetSystem{Opt: opt, Routing: rt}, mask.Options{Iterations: p.MaskIterations, Seed: 9, Workers: f.Workers})
	r.MaskTime = time.Since(start)
	return r
}

// Table5Result is the 1300 kbps fixed-link QoE comparison (Appendix D).
type Table5Result struct {
	Algorithms []string
	QoE        []float64
}

// String renders the result.
func (r *Table5Result) String() string {
	var b strings.Builder
	b.WriteString("Table 5 — QoE on a 1300 kbps link\n")
	for i := range r.Algorithms {
		fmt.Fprintf(&b, "%-16s %8.3f\n", r.Algorithms[i], r.QoE[i])
	}
	b.WriteString("(paper: BB 1.050, RB 0.904, rMPC 0.803, Metis+P 0.986, Pensieve 0.983)\n")
	return b.String()
}

// Table5 reuses the Fig13 harness at 1300 kbps.
func Table5(f *Fixture) *Table5Result {
	fig := Fig13(f, 1300)
	return &Table5Result{Algorithms: fig.Algorithms, QoE: fig.MeanQoE}
}
