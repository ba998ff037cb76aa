package scenarios

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metis/dtree"
	"repro/internal/scenario"
)

// TestQuantizedParityAcrossScenarios is the serving-form property test: for
// every registered scenario whose student is a tree, the quantized serving
// form must predict bit-identically to the tree itself — on random inputs,
// on every threshold of the tree (and one ulp to either side), and on NaN
// and infinite inputs, for any worker count. Classifiers compare decisions;
// regression students compare every output bit for bit. This is the
// contract that lets the daemon serve every tree from its quantized form
// without any scenario noticing.
func TestQuantizedParityAcrossScenarios(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			sc, _ := scenario.Get(name)
			cfg := scenario.Config{Scale: scenario.ScaleTiny, Workers: 0}
			teacher, err := sc.Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			student, err := sc.Distill(cfg, teacher)
			if err != nil {
				t.Fatal(err)
			}
			if student.Kind() != "tree" {
				t.Skipf("%s distills a %q student; quantization applies to trees", name, student.Kind())
			}
			tree, ok := student.Model().(*dtree.Tree)
			if !ok {
				t.Fatalf("tree student carries a %T model", student.Model())
			}
			q, err := tree.Quantize()
			if err != nil {
				t.Fatal(err)
			}
			if q.IsRegression() != tree.IsRegression() {
				t.Fatalf("quantized regression=%v, tree regression=%v", q.IsRegression(), tree.IsRegression())
			}

			X := parityInputs(q)
			for _, workers := range []int{1, 3, 0} {
				if tree.IsRegression() {
					got := q.PredictRegBatch(X, workers)
					for i, x := range X {
						want := tree.PredictReg(x)
						if len(got[i]) != len(want) {
							t.Fatalf("workers=%d row %d: %d outputs, tree has %d", workers, i, len(got[i]), len(want))
						}
						for k := range want {
							if math.Float64bits(got[i][k]) != math.Float64bits(want[k]) {
								t.Fatalf("workers=%d row %d (%v): quantized %v, tree %v",
									workers, i, x, got[i], want)
							}
						}
					}
					continue
				}
				got := q.PredictBatch(X, workers)
				for i, x := range X {
					if want := tree.Predict(x); got[i] != want {
						t.Fatalf("workers=%d row %d (%v): quantized %d, tree %d",
							workers, i, x, got[i], want)
					}
				}
			}
		})
	}
}

// parityInputs builds the probe batch: rows pinned to each threshold (exact,
// ±1 ulp), NaN and ±Inf in every feature position, and a few hundred random
// rows spanning the thresholds' range.
func parityInputs(q *dtree.Quantized) [][]float64 {
	nf := q.NumFeatures
	lo, hi := math.Inf(1), math.Inf(-1)
	var X [][]float64
	probe := func(f int, v float64) {
		x := make([]float64, nf)
		for k := range x {
			x[k] = 0.5
		}
		x[f] = v
		X = append(X, x)
	}
	// Every edge is a threshold of the tree, and every threshold an edge.
	for f, edges := range q.Edges {
		for _, th := range edges {
			lo, hi = math.Min(lo, th), math.Max(hi, th)
			probe(f, th)
			probe(f, math.Nextafter(th, math.Inf(-1)))
			probe(f, math.Nextafter(th, math.Inf(1)))
		}
	}
	for f := 0; f < nf; f++ {
		probe(f, math.NaN())
		probe(f, math.Inf(1))
		probe(f, math.Inf(-1))
	}
	if math.IsInf(lo, 1) { // single-leaf tree: no thresholds
		lo, hi = 0, 1
	}
	span := hi - lo
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 400; i++ {
		x := make([]float64, nf)
		for k := range x {
			x[k] = lo - 0.1*span + rng.Float64()*1.2*(span+1)
		}
		X = append(X, x)
	}
	return X
}
