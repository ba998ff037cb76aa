package dtree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// quantizedFixture fits a noisy two-feature classification tree and
// quantizes it.
func quantizedFixture(t testing.TB) (*Tree, *Quantized) {
	t.Helper()
	d := axisDataset(600, 21)
	rng := rand.New(rand.NewSource(22))
	for i := range d.Y {
		if rng.Float64() < 0.1 {
			d.Y[i] = 1 - d.Y[i]
		}
	}
	tree, err := Build(d, BuildOptions{MaxLeaves: 40})
	if err != nil {
		t.Fatal(err)
	}
	return tree, mustQuantize(t, tree)
}

// regressionFixture fits a small 2-output regression tree and quantizes it.
func regressionFixture(t testing.TB) (*Tree, *Quantized) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	d := &Dataset{}
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		d.X = append(d.X, x)
		d.YReg = append(d.YReg, []float64{3*x[0] - x[1], x[2] * x[2]})
	}
	tree, err := Build(d, BuildOptions{MaxLeaves: 50})
	if err != nil {
		t.Fatal(err)
	}
	return tree, mustQuantize(t, tree)
}

func mustQuantize(t testing.TB, tree *Tree) *Quantized {
	t.Helper()
	q, err := tree.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q
}

// adversarialInputs builds probe rows exercising every routing edge case:
// values exactly on thresholds, one ulp around them, infinities, and NaN in
// every position.
func adversarialInputs(q *Quantized) [][]float64 {
	features := q.NumFeatures
	var rows [][]float64
	add := func(v float64) {
		for f := 0; f < features; f++ {
			x := make([]float64, features)
			for k := range x {
				x[k] = 0.5
			}
			x[f] = v
			rows = append(rows, x)
		}
	}
	for i, f := range q.Feature {
		if f < 0 {
			continue
		}
		th := q.thr[i]
		add(th)
		add(math.Nextafter(th, math.Inf(-1)))
		add(math.Nextafter(th, math.Inf(1)))
	}
	add(math.NaN())
	add(math.Inf(1))
	add(math.Inf(-1))
	all := make([]float64, features)
	for k := range all {
		all[k] = math.NaN()
	}
	rows = append(rows, all)
	return rows
}

// TestCompiledMatchesTree: the flat quantized form decides exactly as the
// pointer tree it was built from, on random rows.
func TestCompiledMatchesTree(t *testing.T) {
	tree, q := quantizedFixture(t)
	f := func(a, b float64) bool {
		x := []float64{math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))}
		return q.Predict(x) == tree.Predict(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// decodedCopy round-trips q through its wire form, so the copy's float
// thresholds are resolved by UnmarshalBinary rather than by Quantize.
func decodedCopy(t testing.TB, q *Quantized) *Quantized {
	t.Helper()
	b, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Quantized
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	return &d
}

// TestQuantizedMatchesCompiled: the quantized walk decides exactly as the
// tree it was compiled from on every threshold, one ulp around it, ±Inf and
// NaN, both as built by Quantize and as decoded from the dtree/quantized
// wire form.
func TestQuantizedMatchesCompiled(t *testing.T) {
	tree, q := quantizedFixture(t)
	dq := decodedCopy(t, q)
	rng := rand.New(rand.NewSource(41))
	X := adversarialInputs(q)
	for i := 0; i < 2000; i++ {
		X = append(X, []float64{rng.Float64() * 2, rng.Float64() * 2})
	}
	for _, x := range X {
		want := tree.Predict(x)
		if got := q.Predict(x); got != want {
			t.Fatalf("Predict(%v) = %d, tree says %d", x, got, want)
		}
		if got := dq.Predict(x); got != want {
			t.Fatalf("decoded Predict(%v) = %d, tree says %d", x, got, want)
		}
	}
}

func TestCompiledNodeCount(t *testing.T) {
	tree, q := quantizedFixture(t)
	if q.NumNodes() != tree.NumNodes() {
		t.Fatalf("quantized %d nodes, tree %d", q.NumNodes(), tree.NumNodes())
	}
}

// TestCompiledRegressionMatchesTree is TestCompiledMatchesTree for a
// regression tree, bit for bit.
func TestCompiledRegressionMatchesTree(t *testing.T) {
	tree, q := regressionFixture(t)
	if !q.IsRegression() || q.OutDim != 2 {
		t.Fatalf("OutDim = %d, want 2", q.OutDim)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		want := tree.PredictReg(x)
		got := q.PredictReg(x)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("PredictReg(%v) = %v, tree says %v", x, got, want)
			}
		}
	}
}

// TestQuantizedRegressionMatchesCompiled is TestQuantizedMatchesCompiled for
// a regression tree, bit for bit, through the batch path on several workers.
func TestQuantizedRegressionMatchesCompiled(t *testing.T) {
	tree, q := regressionFixture(t)
	dq := decodedCopy(t, q)
	rng := rand.New(rand.NewSource(47))
	X := adversarialInputs(q)
	for i := 0; i < 1000; i++ {
		X = append(X, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	got := q.PredictRegBatch(X, 3)
	gotDecoded := dq.PredictRegBatch(X, 3)
	for i, x := range X {
		want := tree.PredictReg(x)
		for k := range want {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[k]) {
				t.Fatalf("PredictReg(%v) = %v, tree says %v", x, got[i], want)
			}
			if math.Float64bits(gotDecoded[i][k]) != math.Float64bits(want[k]) {
				t.Fatalf("decoded PredictReg(%v) = %v, tree says %v", x, gotDecoded[i], want)
			}
		}
	}
}

func TestPredictBatchMatchesSerial(t *testing.T) {
	tree, q := quantizedFixture(t)
	rng := rand.New(rand.NewSource(77))
	X := make([][]float64, 3000)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
	}
	serial := q.PredictBatch(X, 1)
	par := q.PredictBatch(X, 0)
	for i := range X {
		if serial[i] != par[i] || serial[i] != tree.Predict(X[i]) {
			t.Fatalf("batch mismatch at %d: serial %d parallel %d tree %d",
				i, serial[i], par[i], tree.Predict(X[i]))
		}
	}
}

func TestPredictRegBatchMatchesSerial(t *testing.T) {
	_, q := regressionFixture(t)
	rng := rand.New(rand.NewSource(78))
	X := make([][]float64, 1500)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	serial := q.PredictRegBatch(X, 1)
	par := q.PredictRegBatch(X, 4)
	for i := range X {
		want := q.PredictReg(X[i])
		for k := range want {
			if serial[i][k] != want[k] || par[i][k] != want[k] {
				t.Fatalf("reg batch mismatch at %d", i)
			}
		}
	}
}

// TestCompiledValidate: Validate accepts what Quantize builds and rejects
// hand-built node arrays that would panic or loop the walk.
func TestCompiledValidate(t *testing.T) {
	for name, bad := range map[string]*Quantized{
		"empty": {},
		"self-loop": {Feature: []int32{0}, BinThreshold: []uint16{1},
			Left: []int32{0}, Right: []int32{0}, Out: []int32{0}, NumFeatures: 1, Edges: [][]float64{{0}}},
		"feature-oob": {Feature: []int32{5, -1, -1}, BinThreshold: []uint16{1, 0, 0},
			Left: []int32{1, 0, 0}, Right: []int32{2, 0, 0}, Out: []int32{0, 0, 1}, NumFeatures: 2, Edges: [][]float64{{0}, {0}}},
		"child-oob": {Feature: []int32{0, -1}, BinThreshold: []uint16{1, 0},
			Left: []int32{1, 0}, Right: []int32{9, 0}, Out: []int32{0, 0}, NumFeatures: 1, Edges: [][]float64{{0}}},
		"ragged": {Feature: []int32{-1}, BinThreshold: nil,
			Left: []int32{0}, Right: []int32{0}, Out: []int32{0}, NumFeatures: 1, Edges: [][]float64{nil}},
		"value-short": {Feature: []int32{-1}, BinThreshold: []uint16{0},
			Left: []int32{0}, Right: []int32{0}, Out: []int32{0}, OutDim: 2, Value: []float64{1}, NumFeatures: 1, Edges: [][]float64{nil}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s quantized tree accepted", name)
		}
	}
}

func TestGenerateCRejectsRegression(t *testing.T) {
	_, q := regressionFixture(t)
	if _, err := q.GenerateC("f", 1e4); err == nil {
		t.Fatal("expected error for regression tree")
	}
}

// TestCompiledRoundTrip: both tree flavors survive the wire form with every
// decision intact.
func TestCompiledRoundTrip(t *testing.T) {
	for _, mk := range []func(testing.TB) (*Tree, *Quantized){quantizedFixture, regressionFixture} {
		_, q := mk(t)
		data, err := q.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Quantized
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 200; i++ {
			x := make([]float64, q.NumFeatures)
			for k := range x {
				x[k] = rng.Float64()
			}
			if q.IsRegression() {
				want, got := q.PredictReg(x), back.PredictReg(x)
				for k := range want {
					if want[k] != got[k] {
						t.Fatalf("round-trip PredictReg mismatch")
					}
				}
			} else if back.Predict(x) != q.Predict(x) {
				t.Fatalf("round-trip Predict mismatch")
			}
		}
	}
}

func TestGenerateC(t *testing.T) {
	_, q := quantizedFixture(t)
	src, err := q.GenerateC("metis_decide", 1e4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"int metis_decide(", "if (x[", "return"} {
		if !strings.Contains(src, want) {
			t.Fatalf("generated C missing %q:\n%s", want, src[:200])
		}
	}
	// Branch-only: the body must not contain arithmetic on features.
	for _, forbidden := range []string{"*", "/", "+ x", "float", "double"} {
		body := src[strings.Index(src, "{"):]
		if strings.Contains(body, forbidden) {
			t.Fatalf("generated C contains non-branch construct %q", forbidden)
		}
	}
}

func TestPredictScaledMatchesFloat(t *testing.T) {
	tree, q := quantizedFixture(t)
	const scale = 1e6
	rng := rand.New(rand.NewSource(23))
	mismatches := 0
	for i := 0; i < 1000; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xi := []int64{int64(x[0] * scale), int64(x[1] * scale)}
		if q.PredictScaled(xi, scale) != tree.Predict(x) {
			mismatches++
		}
	}
	// Quantization can flip points exactly on a threshold; allow a sliver.
	if mismatches > 5 {
		t.Fatalf("%d/1000 integer-space mismatches", mismatches)
	}
}

func TestQuantizedBatchWorkerInvariant(t *testing.T) {
	tree, q := quantizedFixture(t)
	rng := rand.New(rand.NewSource(43))
	X := adversarialInputs(q)
	for i := 0; i < 3000; i++ {
		X = append(X, []float64{rng.Float64() * 2, rng.Float64() * 2})
	}
	for _, workers := range []int{1, 2, 3, 7, 0} {
		got := q.PredictBatch(X, workers)
		for i, x := range X {
			if want := tree.Predict(x); got[i] != want {
				t.Fatalf("workers=%d: row %d = %d, tree says %d", workers, i, got[i], want)
			}
		}
	}
}

func TestPredictBatchIntoIsZeroAlloc(t *testing.T) {
	_, q := quantizedFixture(t)
	X := make([][]float64, 256)
	rng := rand.New(rand.NewSource(53))
	for i := range X {
		X[i] = []float64{rng.Float64() * 2, rng.Float64() * 2}
	}
	out := make([]int, len(X))
	allocs := testing.AllocsPerRun(50, func() {
		q.PredictBatchInto(X, out, 1)
	})
	if allocs != 0 {
		t.Fatalf("PredictBatchInto allocated %.1f times per run, want 0", allocs)
	}
}

func TestQuantizedRoundTrip(t *testing.T) {
	_, q := quantizedFixture(t)
	raw, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Quantized
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	// The resolved thresholds are derived, not serialized: decoding rebuilds
	// them bit for bit, and re-encoding yields the same bytes.
	for i := range q.thr {
		if math.Float64bits(back.thr[i]) != math.Float64bits(q.thr[i]) {
			t.Fatalf("node %d: decoded threshold %v, built %v", i, back.thr[i], q.thr[i])
		}
	}
	if again, err := back.MarshalBinary(); err != nil || string(again) != string(raw) {
		t.Fatalf("re-encoding changed the wire bytes (err %v)", err)
	}
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64() * 2, rng.Float64() * 2}
		if back.Predict(x) != q.Predict(x) {
			t.Fatalf("round-tripped tree disagrees on %v", x)
		}
	}
}

func TestQuantizedValidateRejectsCorruption(t *testing.T) {
	corrupt := []struct {
		name string
		mut  func(q *Quantized)
	}{
		{"no nodes", func(q *Quantized) { q.Feature = nil; q.BinThreshold = nil; q.Left = nil; q.Right = nil; q.Out = nil }},
		{"array mismatch", func(q *Quantized) { q.Left = q.Left[:1] }},
		{"feature out of range", func(q *Quantized) { q.Feature[0] = int32(q.NumFeatures) }},
		{"bin threshold zero", func(q *Quantized) {
			for i, f := range q.Feature {
				if f >= 0 {
					q.BinThreshold[i] = 0
					break
				}
			}
		}},
		{"bin threshold past edges", func(q *Quantized) {
			for i, f := range q.Feature {
				if f >= 0 {
					q.BinThreshold[i] = uint16(len(q.Edges[f]) + 1)
					break
				}
			}
		}},
		{"child cycle", func(q *Quantized) {
			for i, f := range q.Feature {
				if f >= 0 {
					q.Left[i] = int32(i)
					break
				}
			}
		}},
		{"NaN edge", func(q *Quantized) { q.Edges[0][0] = math.NaN() }},
		{"unsorted edges", func(q *Quantized) {
			for f := range q.Edges {
				if len(q.Edges[f]) >= 2 {
					q.Edges[f][0], q.Edges[f][1] = q.Edges[f][1], q.Edges[f][0]
					return
				}
			}
			panic("fixture has no feature with 2+ edges")
		}},
		{"class out of range", func(q *Quantized) { q.Out[len(q.Out)-1] = int32(q.NumClasses) }},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			_, q := quantizedFixture(t)
			tc.mut(q)
			if err := q.Validate(); err == nil {
				t.Fatal("corruption passed Validate")
			}
		})
	}
}

// chainTree builds a degenerate left-leaning chain of the given depth: every
// internal node tests feature 0 against a descending threshold and sends the
// walk left.
func chainTree(depth int) *Tree {
	leaf := &Node{Feature: -1, Class: 1, ClassDist: []float64{0, 1}}
	root := leaf
	for d := 0; d < depth; d++ {
		root = &Node{
			Feature: 0,
			// Cycle through 1000 distinct thresholds: deep, but within the
			// uint16 bin budget a quantized feature can hold.
			Threshold: float64(d % 1000),
			Left:      root,
			Right:     &Node{Feature: -1, Class: 0, ClassDist: []float64{1, 0}},
		}
	}
	return &Tree{Root: root, NumFeatures: 1, NumClasses: 2}
}

// TestDeepTreeCompile is the recursion regression test: Quantize,
// GenerateC and Predict on a chain tree hundreds of thousands of levels deep
// must run in constant goroutine-stack space (recursive walks overflow on
// such trees long before the arrays get large).
func TestDeepTreeCompile(t *testing.T) {
	const depth = 300_000
	tree := chainTree(depth)
	q, err := tree.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 2*depth+1 {
		t.Fatalf("quantized %d nodes, want %d", q.NumNodes(), 2*depth+1)
	}
	// The chain sends x = -1 left at every level, down to the depth-most leaf.
	if got := q.Predict([]float64{-1}); got != 1 {
		t.Fatalf("deep quantized chain predicted %d, want 1", got)
	}
	src, err := q.GenerateC("deep", 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(src, "if ("); got != depth {
		t.Fatalf("emitted %d branches, want %d", got, depth)
	}
}

// TestGenerateCDeepIndentCapped pins the linear-output property: the emitted
// source for a deep chain must not grow quadratically through indentation.
func TestGenerateCDeepIndentCapped(t *testing.T) {
	q, err := chainTree(5_000).Quantize()
	if err != nil {
		t.Fatal(err)
	}
	src, err := q.GenerateC("deep", 10)
	if err != nil {
		t.Fatal(err)
	}
	maxLine := 0
	for _, line := range strings.Split(src, "\n") {
		if len(line) > maxLine {
			maxLine = len(line)
		}
	}
	if maxLine > 4*(maxCIndentDepth+1)+64 {
		t.Fatalf("longest emitted line is %d bytes; indentation is not capped", maxLine)
	}
}

func BenchmarkQuantizedPredict(b *testing.B) {
	_, q := quantizedFixture(b)
	x := []float64{0.4, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Predict(x)
	}
}
