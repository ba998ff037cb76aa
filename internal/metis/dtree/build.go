package dtree

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// Dataset is a weighted supervised dataset in row-major convenience form.
// Exactly one of Y (classification labels) or YReg (regression targets,
// possibly multi-output) must be set. W are per-sample weights; nil means
// uniform.
//
// Dataset is the literal-friendly construction surface; the training stack
// itself runs on the columnar dataset.Table (Build columnarizes once, and
// BuildTable skips even that). Callers that accumulate samples
// incrementally should append into a dataset.Table directly.
type Dataset struct {
	X    [][]float64
	Y    []int
	YReg [][]float64
	W    []float64
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

func (d *Dataset) validate() error {
	if len(d.X) == 0 {
		return fmt.Errorf("dtree: empty dataset")
	}
	if (d.Y == nil) == (d.YReg == nil) {
		return fmt.Errorf("dtree: exactly one of Y and YReg must be set")
	}
	if d.Y != nil && len(d.Y) != len(d.X) {
		return fmt.Errorf("dtree: len(Y)=%d != len(X)=%d", len(d.Y), len(d.X))
	}
	if d.YReg != nil && len(d.YReg) != len(d.X) {
		return fmt.Errorf("dtree: len(YReg)=%d != len(X)=%d", len(d.YReg), len(d.X))
	}
	if d.W != nil && len(d.W) != len(d.X) {
		return fmt.Errorf("dtree: len(W)=%d != len(X)=%d", len(d.W), len(d.X))
	}
	return nil
}

// Table columnarizes the dataset into its training representation.
func (d *Dataset) Table() (*dataset.Table, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	if d.YReg != nil {
		return dataset.FromRegRows(d.X, d.YReg, d.W)
	}
	return dataset.FromRows(d.X, d.Y, d.W)
}

// BuildOptions configures tree growth.
type BuildOptions struct {
	// MaxLeaves bounds the number of leaves grown (best-first). ≤0 means
	// unlimited.
	MaxLeaves int
	// MinSamplesLeaf is the minimum weighted samples per leaf (default 1).
	MinSamplesLeaf float64
	// MinImpurityDecrease skips splits that improve impurity by less.
	MinImpurityDecrease float64
	// FeatureNames optionally labels features on the resulting tree.
	FeatureNames []string
	// Workers bounds the goroutines used for the split search (0 =
	// GOMAXPROCS, 1 = serial). Results are bit-identical for every worker
	// count: per-feature tasks are independent and the cross-feature
	// reduction always runs in feature order.
	Workers int
}

// nodeStats summarizes the label statistics of an index set.
type nodeStats struct {
	weight   float64
	dist     []float64 // classification: per-class weight
	mean     []float64 // regression: weighted mean target
	impurity float64
}

func classStats(t *dataset.Table, idx []int, numClasses int) nodeStats {
	s := nodeStats{dist: make([]float64, numClasses)}
	y, w := t.Labels(), t.Weights()
	if w == nil {
		for _, i := range idx {
			s.dist[y[i]]++
		}
		s.weight = float64(len(idx))
	} else {
		for _, i := range idx {
			s.weight += w[i]
			s.dist[y[i]] += w[i]
		}
	}
	s.impurity = gini(s.dist, s.weight)
	return s
}

func gini(dist []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, v := range dist {
		p := v / total
		g -= p * p
	}
	return g
}

func regStats(t *dataset.Table, idx []int, dims int) nodeStats {
	s := nodeStats{mean: make([]float64, dims)}
	for _, i := range idx {
		w := t.Weight(i)
		s.weight += w
		for k := 0; k < dims; k++ {
			s.mean[k] += w * t.Target(k)[i]
		}
	}
	if s.weight > 0 {
		for k := range s.mean {
			s.mean[k] /= s.weight
		}
	}
	// Impurity is the summed per-output weighted variance.
	for _, i := range idx {
		w := t.Weight(i)
		for k := 0; k < dims; k++ {
			dv := t.Target(k)[i] - s.mean[k]
			s.impurity += w * dv * dv
		}
	}
	if s.weight > 0 {
		s.impurity /= s.weight
	}
	return s
}

// splitCandidate is the best split found for a node.
type splitCandidate struct {
	feature   int
	threshold float64
	decrease  float64 // weighted impurity decrease (scaled by node weight)
}

// nodeSamples is one node's sample view: idx lists the members in ascending
// index order (the order statistics are accumulated in), and orders[f] lists
// the same members presorted by (col[f][i], i). The root view is sorted
// once; children inherit sortedness by an O(n) stable partition of the
// parent's orders, removing the per-node, per-feature sort.Slice the
// original implementation paid.
type nodeSamples struct {
	idx    []int
	orders [][]int
}

// smallNode is the node size under which the per-feature fan-out is not
// worth the goroutine handoff; such nodes are scanned serially. The choice
// only affects scheduling, never results.
const smallNode = 256

// effectiveWorkers caps the pool for per-feature work on a node of n samples.
func effectiveWorkers(workers, n int) int {
	if n < smallNode {
		return 1
	}
	return workers
}

// rootSamples builds the presorted column-major view of the full table.
func rootSamples(t *dataset.Table, workers int) *nodeSamples {
	n := t.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	numFeatures := t.NumFeatures()
	ns := &nodeSamples{idx: idx, orders: make([][]int, numFeatures)}
	parallel.ForEach(effectiveWorkers(workers, n), numFeatures, func(f int) {
		col := t.Col(f)
		ord := make([]int, n)
		copy(ord, idx)
		sort.Slice(ord, func(a, b int) bool {
			xa, xb := col[ord[a]], col[ord[b]]
			if xa != xb {
				return xa < xb
			}
			return ord[a] < ord[b]
		})
		ns.orders[f] = ord
	})
	return ns
}

// split partitions the view by col[feature] < threshold. The index list and
// every per-feature order are stable-partitioned, so children remain
// presorted without re-sorting. goesLeft is a dataset-sized scratch buffer
// (owned by the build loop, reused across splits) so the predicate is
// evaluated once per sample rather than once per feature; the concurrent
// order partitions only read it.
func (ns *nodeSamples) split(t *dataset.Table, feature int, threshold float64, goesLeft []bool, workers int) (left, right *nodeSamples) {
	col := t.Col(feature)
	nl := 0
	for _, i := range ns.idx {
		goesLeft[i] = col[i] < threshold
		if goesLeft[i] {
			nl++
		}
	}
	nr := len(ns.idx) - nl
	left = &nodeSamples{idx: make([]int, 0, nl)}
	right = &nodeSamples{idx: make([]int, 0, nr)}
	for _, i := range ns.idx {
		if goesLeft[i] {
			left.idx = append(left.idx, i)
		} else {
			right.idx = append(right.idx, i)
		}
	}
	left.orders = make([][]int, len(ns.orders))
	right.orders = make([][]int, len(ns.orders))
	parallel.ForEach(effectiveWorkers(workers, len(ns.idx)), len(ns.orders), func(f int) {
		lo := make([]int, 0, nl)
		ro := make([]int, 0, nr)
		for _, i := range ns.orders[f] {
			if goesLeft[i] {
				lo = append(lo, i)
			} else {
				ro = append(ro, i)
			}
		}
		left.orders[f] = lo
		right.orders[f] = ro
	})
	return left, right
}

// growItem is a heap entry for best-first expansion.
type growItem struct {
	node    *Node
	samples *nodeSamples
	cand    *splitCandidate
	index   int
}

type growHeap []*growItem

func (h growHeap) Len() int           { return len(h) }
func (h growHeap) Less(i, j int) bool { return h[i].cand.decrease > h[j].cand.decrease }
func (h growHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *growHeap) Push(x any) {
	it := x.(*growItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *growHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Build fits a CART tree on a row-major dataset: the data is columnarized
// once and handed to BuildTable.
func Build(d *Dataset, opts BuildOptions) (*Tree, error) {
	t, err := d.Table()
	if err != nil {
		return nil, err
	}
	return BuildTable(t, opts)
}

// BuildTable fits a CART tree on a columnar table with best-first growth:
// the split with the largest impurity decrease anywhere in the frontier is
// applied first, so a MaxLeaves budget keeps the globally most valuable
// splits. The search scans presorted columns exactly and is bit-identical
// at any worker count.
func BuildTable(t *dataset.Table, opts BuildOptions) (*Tree, error) {
	if err := validateTable(t); err != nil {
		return nil, err
	}
	if opts.MinSamplesLeaf <= 0 {
		opts.MinSamplesLeaf = 1
	}
	workers := parallel.Workers(opts.Workers)
	numClasses := 0
	dims := 0
	if t.IsRegression() {
		dims = t.Outputs()
	} else {
		for _, y := range t.Labels() {
			if y+1 > numClasses {
				numClasses = y + 1
			}
		}
	}
	tree := &Tree{
		NumFeatures:  t.NumFeatures(),
		NumClasses:   numClasses,
		FeatureNames: opts.FeatureNames,
	}
	root := rootSamples(t, workers)
	tree.Root = makeLeaf(t, root.idx, numClasses, dims)

	h := &growHeap{}
	if cand := bestSplit(t, root, numClasses, dims, opts, workers); cand != nil {
		heap.Push(h, &growItem{node: tree.Root, samples: root, cand: cand})
	}
	leaves := 1
	goesLeft := make([]bool, t.Len())
	for h.Len() > 0 && (opts.MaxLeaves <= 0 || leaves < opts.MaxLeaves) {
		it := heap.Pop(h).(*growItem)
		n, cand := it.node, it.cand
		left, right := it.samples.split(t, cand.feature, cand.threshold, goesLeft, workers)
		n.Feature = cand.feature
		n.Threshold = cand.threshold
		n.Left = makeLeaf(t, left.idx, numClasses, dims)
		n.Right = makeLeaf(t, right.idx, numClasses, dims)
		leaves++
		if lc := bestSplit(t, left, numClasses, dims, opts, workers); lc != nil {
			heap.Push(h, &growItem{node: n.Left, samples: left, cand: lc})
		}
		if rc := bestSplit(t, right, numClasses, dims, opts, workers); rc != nil {
			heap.Push(h, &growItem{node: n.Right, samples: right, cand: rc})
		}
	}
	return tree, nil
}

// validateTable checks the table invariants Build relies on, including that
// no feature value is NaN: a comparison sort cannot order NaN
// deterministically.
func validateTable(t *dataset.Table) error {
	if t.Len() == 0 {
		return fmt.Errorf("dtree: empty dataset")
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if !t.IsRegression() {
		for _, y := range t.Labels() {
			if y < 0 {
				return fmt.Errorf("dtree: negative class label %d", y)
			}
		}
	}
	for f := 0; f < t.NumFeatures(); f++ {
		for _, v := range t.Col(f) {
			if math.IsNaN(v) {
				return fmt.Errorf("dtree: NaN in feature %d; the split search cannot order NaN", f)
			}
		}
	}
	return nil
}

// makeLeaf builds a leaf node from an index set.
func makeLeaf(t *dataset.Table, idx []int, numClasses, dims int) *Node {
	n := &Node{Feature: -1}
	if t.IsRegression() {
		s := regStats(t, idx, dims)
		n.Value = s.mean
		n.Samples = s.weight
		n.Impurity = s.impurity
	} else {
		s := classStats(t, idx, numClasses)
		n.ClassDist = s.dist
		n.Samples = s.weight
		n.Impurity = s.impurity
		best := 0
		for c, w := range s.dist {
			if w > s.dist[best] {
				best = c
			}
		}
		n.Class = best
	}
	return n
}

// bestSplit searches all features for the split with maximum weighted
// impurity decrease, or nil if no admissible split exists. Features are
// scanned concurrently (each over its presorted order); the winner is
// reduced in feature order with a strict comparison, matching the serial
// scan's tie-breaking exactly.
func bestSplit(t *dataset.Table, ns *nodeSamples, numClasses, dims int, opts BuildOptions, workers int) *splitCandidate {
	if len(ns.idx) < 2 {
		return nil
	}
	var parent nodeStats
	if t.IsRegression() {
		parent = regStats(t, ns.idx, dims)
	} else {
		parent = classStats(t, ns.idx, numClasses)
	}
	if parent.impurity <= 1e-12 {
		return nil
	}
	cands := make([]*splitCandidate, len(ns.orders))
	parallel.ForEach(effectiveWorkers(workers, len(ns.idx)), len(ns.orders), func(f int) {
		var best *splitCandidate
		if t.IsRegression() {
			scanRegression(t, ns.orders[f], f, dims, parent, opts, &best)
		} else {
			scanClassification(t, ns.orders[f], f, numClasses, parent, opts, &best)
		}
		cands[f] = best
	})
	var best *splitCandidate
	for _, c := range cands {
		if c != nil && (best == nil || c.decrease > best.decrease) {
			best = c
		}
	}
	return best
}

func scanClassification(t *dataset.Table, order []int, f, numClasses int, parent nodeStats, opts BuildOptions, best **splitCandidate) {
	col, y := t.Col(f), t.Labels()
	leftDist := make([]float64, numClasses)
	rightDist := make([]float64, numClasses)
	leftW := 0.0
	for pos := 0; pos < len(order)-1; pos++ {
		i := order[pos]
		w := t.Weight(i)
		leftW += w
		leftDist[y[i]] += w
		xi, xj := col[i], col[order[pos+1]]
		if xi == xj {
			continue
		}
		rightW := parent.weight - leftW
		if leftW < opts.MinSamplesLeaf || rightW < opts.MinSamplesLeaf {
			continue
		}
		for c := range rightDist {
			rightDist[c] = parent.dist[c] - leftDist[c]
		}
		children := (leftW*gini(leftDist, leftW) + rightW*gini(rightDist, rightW)) / parent.weight
		dec := (parent.impurity - children) * parent.weight
		if dec > opts.MinImpurityDecrease && (*best == nil || dec > (*best).decrease) {
			*best = &splitCandidate{feature: f, threshold: (xi + xj) / 2, decrease: dec}
		}
	}
}

func scanRegression(t *dataset.Table, order []int, f, dims int, parent nodeStats, opts BuildOptions, best **splitCandidate) {
	// Incremental weighted sums for variance computation:
	// Var = Σw·y² /W − (Σw·y /W)².
	col := t.Col(f)
	leftW := 0.0
	leftSum := make([]float64, dims)
	leftSq := make([]float64, dims)
	totSum := make([]float64, dims)
	totSq := make([]float64, dims)
	rightSum := make([]float64, dims)
	rightSq := make([]float64, dims)
	for _, i := range order {
		w := t.Weight(i)
		for k := 0; k < dims; k++ {
			v := t.Target(k)[i]
			totSum[k] += w * v
			totSq[k] += w * v * v
		}
	}
	impurityOf := func(sum, sq []float64, w float64) float64 {
		if w <= 0 {
			return 0
		}
		imp := 0.0
		for k := range sum {
			m := sum[k] / w
			imp += sq[k]/w - m*m
		}
		return imp
	}
	for pos := 0; pos < len(order)-1; pos++ {
		i := order[pos]
		w := t.Weight(i)
		leftW += w
		for k := 0; k < dims; k++ {
			v := t.Target(k)[i]
			leftSum[k] += w * v
			leftSq[k] += w * v * v
		}
		xi, xj := col[i], col[order[pos+1]]
		if xi == xj {
			continue
		}
		rightW := parent.weight - leftW
		if leftW < opts.MinSamplesLeaf || rightW < opts.MinSamplesLeaf {
			continue
		}
		for k := range rightSum {
			rightSum[k] = totSum[k] - leftSum[k]
			rightSq[k] = totSq[k] - leftSq[k]
		}
		children := (leftW*impurityOf(leftSum, leftSq, leftW) + rightW*impurityOf(rightSum, rightSq, rightW)) / parent.weight
		dec := (parent.impurity - children) * parent.weight
		if dec > opts.MinImpurityDecrease && (*best == nil || dec > (*best).decrease) {
			*best = &splitCandidate{feature: f, threshold: (xi + xj) / 2, decrease: dec}
		}
	}
}
