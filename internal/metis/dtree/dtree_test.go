package dtree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// axisDataset builds a dataset whose label is 0/1 depending on x[0] < 0.5,
// with a second irrelevant feature.
func axisDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := 0
		if x[0] >= 0.5 {
			y = 1
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

func TestBuildLearnsAxisSplit(t *testing.T) {
	d := axisDataset(500, 1)
	tree, err := Build(d, BuildOptions{MaxLeaves: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Feature != 0 {
		t.Fatalf("root split on feature %d, want 0", tree.Root.Feature)
	}
	if math.Abs(tree.Root.Threshold-0.5) > 0.05 {
		t.Fatalf("root threshold %.3f, want ≈0.5", tree.Root.Threshold)
	}
	for i, x := range d.X {
		if tree.Predict(x) != d.Y[i] {
			t.Fatalf("misclassified %v", x)
		}
	}
}

func TestBuildRespectsMaxLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := &Dataset{}
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		d.X = append(d.X, x)
		d.Y = append(d.Y, rng.Intn(4)) // random labels force deep trees
	}
	for _, maxLeaves := range []int{1, 2, 5, 17, 50} {
		tree, err := Build(d, BuildOptions{MaxLeaves: maxLeaves})
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.NumLeaves(); got > maxLeaves {
			t.Fatalf("MaxLeaves=%d but got %d leaves", maxLeaves, got)
		}
	}
}

func TestRegressionTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := &Dataset{}
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64() * 10}
		// Two-output step function of x.
		var y []float64
		if x[0] < 5 {
			y = []float64{1, -1}
		} else {
			y = []float64{3, 2}
		}
		d.X = append(d.X, x)
		d.YReg = append(d.YReg, y)
	}
	tree, err := Build(d, BuildOptions{MaxLeaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	lo := tree.PredictReg([]float64{1})
	hi := tree.PredictReg([]float64{9})
	if math.Abs(lo[0]-1) > 0.1 || math.Abs(lo[1]+1) > 0.1 {
		t.Fatalf("low prediction %v, want [1 -1]", lo)
	}
	if math.Abs(hi[0]-3) > 0.1 || math.Abs(hi[1]-2) > 0.1 {
		t.Fatalf("high prediction %v, want [3 2]", hi)
	}
}

func TestWeightedSamplesShiftSplit(t *testing.T) {
	// Identical X, but weights make the minority class dominate.
	d := &Dataset{
		X: [][]float64{{0}, {1}, {2}, {3}},
		Y: []int{0, 0, 0, 1},
		W: []float64{1, 1, 1, 100},
	}
	tree, err := Build(d, BuildOptions{MaxLeaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Class != 1 {
		t.Fatalf("weighted majority class = %d, want 1", tree.Root.Class)
	}
}

func TestPruneToLeavesMonotone(t *testing.T) {
	d := axisDataset(800, 4)
	// Add label noise so the full tree is large.
	rng := rand.New(rand.NewSource(5))
	for i := range d.Y {
		if rng.Float64() < 0.15 {
			d.Y[i] = 1 - d.Y[i]
		}
	}
	tree, err := Build(d, BuildOptions{MaxLeaves: 200})
	if err != nil {
		t.Fatal(err)
	}
	full := tree.NumLeaves()
	if full < 20 {
		t.Fatalf("expected a large noisy tree, got %d leaves", full)
	}
	prev := full
	for _, target := range []int{64, 16, 4, 1} {
		p := tree.PruneToLeaves(target)
		got := p.NumLeaves()
		if got > target {
			t.Fatalf("pruned to %d leaves, want ≤%d", got, target)
		}
		if got > prev {
			t.Fatalf("leaf count increased while pruning: %d > %d", got, prev)
		}
		prev = got
		// Pruning must not mutate the original.
		if tree.NumLeaves() != full {
			t.Fatal("PruneToLeaves mutated the original tree")
		}
	}
}

func TestPrunedTreeStillAccurate(t *testing.T) {
	d := axisDataset(500, 6)
	tree, err := Build(d, BuildOptions{MaxLeaves: 100})
	if err != nil {
		t.Fatal(err)
	}
	p := tree.PruneToLeaves(2)
	errs := 0
	for i, x := range d.X {
		if p.Predict(x) != d.Y[i] {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(d.X)); frac > 0.05 {
		t.Fatalf("2-leaf pruned tree error rate %.3f on a 1-split problem", frac)
	}
}

func TestRulesRendering(t *testing.T) {
	d := axisDataset(200, 7)
	tree, err := Build(d, BuildOptions{MaxLeaves: 4, FeatureNames: []string{"buffer", "tput"}})
	if err != nil {
		t.Fatal(err)
	}
	rules := tree.Rules(2)
	if !strings.Contains(rules, "buffer") {
		t.Fatalf("rules missing feature name:\n%s", rules)
	}
	if !strings.Contains(rules, "class=") {
		t.Fatalf("rules missing leaf classes:\n%s", rules)
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	d := axisDataset(300, 8)
	tree, err := Build(d, BuildOptions{MaxLeaves: 8})
	if err != nil {
		t.Fatal(err)
	}
	data, err := tree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, x := range d.X {
		if back.Predict(x) != tree.Predict(x) {
			t.Fatal("roundtripped tree disagrees with original")
		}
	}
	if tree.SizeBytes() == 0 {
		t.Fatal("SizeBytes = 0")
	}
}

func TestPathConsistentWithPredict(t *testing.T) {
	d := axisDataset(300, 9)
	tree, _ := Build(d, BuildOptions{MaxLeaves: 16})
	f := func(a, b float64) bool {
		x := []float64{math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))}
		path := tree.Path(x)
		leaf := path[len(path)-1]
		return leaf.IsLeaf() && leaf.Class == tree.Predict(x) && path[0] == tree.Root
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetValidation(t *testing.T) {
	if _, err := Build(&Dataset{}, BuildOptions{}); err == nil {
		t.Fatal("empty dataset should error")
	}
	bad := &Dataset{X: [][]float64{{1}}, Y: []int{0}, YReg: [][]float64{{1}}}
	if _, err := Build(bad, BuildOptions{}); err == nil {
		t.Fatal("both Y and YReg set should error")
	}
	neg := &Dataset{X: [][]float64{{1}, {2}}, Y: []int{0, -1}}
	if _, err := Build(neg, BuildOptions{}); err == nil {
		t.Fatal("negative label should error")
	}
	nan := &Dataset{X: [][]float64{{1, 0}, {2, math.NaN()}}, Y: []int{0, 1}}
	if _, err := Build(nan, BuildOptions{}); err == nil {
		t.Fatal("a NaN feature should error: the split search cannot order it")
	}
}

func TestOversampleBoostsRareClass(t *testing.T) {
	y := []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	w := applyOversample(nil, y, map[int]float64{1: 0.3})
	total, cls1 := 0.0, 0.0
	for i, wi := range w {
		total += wi
		if y[i] == 1 {
			cls1 += wi
		}
	}
	if frac := cls1 / total; frac < 0.25 {
		t.Fatalf("oversampled class frequency %.3f, want ≥0.25", frac)
	}
}

func TestAlphaSequenceNonNegativeTail(t *testing.T) {
	d := axisDataset(400, 10)
	tree, _ := Build(d, BuildOptions{MaxLeaves: 50})
	alphas := tree.AlphaSequence()
	if len(alphas) == 0 {
		t.Fatal("no alphas returned")
	}
	// Effective alphas must be finite.
	for _, a := range alphas {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("invalid alpha %v", a)
		}
	}
}

func TestMinSamplesLeafRespected(t *testing.T) {
	d := axisDataset(200, 11)
	tree, err := Build(d, BuildOptions{MaxLeaves: 64, MinSamplesLeaf: 20})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() && n.Samples < 20 {
			t.Fatalf("leaf with %v samples < MinSamplesLeaf 20", n.Samples)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
}

func TestClassDistRetainedOnInternalNodes(t *testing.T) {
	d := axisDataset(300, 12)
	tree, _ := Build(d, BuildOptions{MaxLeaves: 8})
	if tree.Root.IsLeaf() {
		t.Skip("degenerate tree")
	}
	if tree.Root.ClassDist == nil {
		t.Fatal("internal node lost its class distribution (needed for Fig. 7 coloring)")
	}
	sum := 0.0
	for _, v := range tree.Root.ClassDist {
		sum += v
	}
	if math.Abs(sum-float64(len(d.X))) > 1e-9 {
		t.Fatalf("root class mass %.1f, want %d", sum, len(d.X))
	}
}
