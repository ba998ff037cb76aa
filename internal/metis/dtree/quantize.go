package dtree

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/parallel"
)

// Quantized is the flat serving form of a decision tree: evaluation is an
// iterative walk over parallel arrays with comparisons and branches only —
// no floating-point arithmetic, no allocation, no pointer chasing. It is the
// representation internal/serve deploys and the one the paper offloads to a
// Netronome SmartNIC in ~1,000 lines of C (§6.4); GenerateC emits equivalent
// source. Evaluation touches only immutable arrays, so any number of
// goroutines can predict concurrently without locks.
//
// The thresholds of each feature are factored into a shared ascending edge
// list, and each node stores a bin index into it: node i routes left when
// bin(x[Feature[i]]) < BinThreshold[i], where bin(v) counts the edges ≤ v.
// Because every edge is an exact threshold of the source tree, evaluation is
// bit-identical to the Tree it came from — quantization changes the layout,
// never the decision function.
//
// Nodes are laid out breadth-first in flat parallel arrays
// (Feature/BinThreshold/Left/Right), so the top levels of the tree — the
// ones every prediction visits — are packed into a few cache lines: the
// compact integer form a data-plane offload wants.
//
// A Quantized is built by Tree.Quantize or UnmarshalBinary; its exported
// fields are read-only after that.
type Quantized struct {
	// Feature[i] is the feature tested at node i, or -1 for a leaf.
	Feature []int32
	// BinThreshold[i] is the quantized split: route left when
	// bin(x[Feature[i]]) < BinThreshold[i]. Internal nodes always carry a
	// value in [1, len(Edges[f])]; the real-valued threshold is
	// Edges[f][BinThreshold[i]-1].
	BinThreshold []uint16
	// Left[i] and Right[i] are child node indices (breadth-first, so always
	// greater than i).
	Left, Right []int32
	// Out[i] is the class decision at node i (classification only).
	Out []int32
	// Value holds the regression output of every node, flattened OutDim per
	// node (regression trees only; nil for classification).
	Value []float64
	// OutDim is the regression output dimensionality (0 for classification).
	OutDim int
	// NumFeatures is the input dimensionality expected by Predict.
	NumFeatures int
	// NumClasses is the action count of a classification tree (0 for
	// regression).
	NumClasses int
	// Edges[f] is feature f's ascending quantization edge list; bin(v) is
	// the number of edges ≤ v, with NaN in the last bin. Features the tree
	// never tests may have an empty list.
	Edges [][]float64

	// thr[i] is internal node i's real-valued threshold,
	// Edges[Feature[i]][BinThreshold[i]-1], resolved once so the walk reads
	// it with one load instead of two dependent ones. It is derived, not
	// serialized.
	thr []float64
}

// IsRegression reports whether the quantized tree predicts continuous values.
func (q *Quantized) IsRegression() bool { return q.OutDim > 0 }

// NumNodes returns the flattened node count.
func (q *Quantized) NumNodes() int { return len(q.Feature) }

// Quantize flattens the tree — classification or regression — into its
// quantized serving form, deriving each feature's edge list from the tree's
// own thresholds. The result predicts bit-identically to t on every input
// (including NaN, which routes right at every split in both forms).
func (t *Tree) Quantize() (*Quantized, error) {
	if t.Root == nil {
		return nil, fmt.Errorf("dtree: quantize: empty tree")
	}
	if t.NumFeatures < 0 || t.NumFeatures > maxFeatures {
		return nil, fmt.Errorf("dtree: quantize: tree declares %d features, max is %d", t.NumFeatures, maxFeatures)
	}
	q := &Quantized{NumFeatures: t.NumFeatures, NumClasses: t.NumClasses}
	if t.IsRegression() {
		if q.OutDim = len(t.Root.Value); q.OutDim == 0 {
			return nil, fmt.Errorf("dtree: quantize: regression tree has no value vector")
		}
	}

	// Breadth-first layout straight from the pointer tree. The walk is a
	// queue, not recursion, so a degenerate chain tree (depth = node count)
	// cannot overflow the goroutine stack; an internal node's children land
	// in the next two free slots.
	nodes := []*Node{t.Root}
	for i := 0; i < len(nodes); i++ {
		if n := nodes[i]; !n.IsLeaf() {
			nodes = append(nodes, n.Left, n.Right)
		}
	}
	n := len(nodes)
	q.Feature = make([]int32, n)
	q.BinThreshold = make([]uint16, n)
	q.Left = make([]int32, n)
	q.Right = make([]int32, n)
	q.Out = make([]int32, n)
	q.thr = make([]float64, n)
	if q.OutDim > 0 {
		q.Value = make([]float64, n*q.OutDim)
	}
	perFeature := make([][]float64, t.NumFeatures)
	next := int32(1)
	for i, nd := range nodes {
		q.Out[i] = int32(nd.Class)
		if q.OutDim > 0 {
			if len(nd.Value) != q.OutDim {
				return nil, fmt.Errorf("dtree: quantize: node value dim %d, tree declares %d", len(nd.Value), q.OutDim)
			}
			copy(q.Value[i*q.OutDim:], nd.Value)
		}
		if nd.IsLeaf() {
			q.Feature[i] = -1
			continue
		}
		f := nd.Feature
		if f < 0 || f >= t.NumFeatures {
			return nil, fmt.Errorf("dtree: quantize: node %d tests feature %d, tree declares %d features", i, f, t.NumFeatures)
		}
		if math.IsNaN(nd.Threshold) {
			return nil, fmt.Errorf("dtree: quantize: node %d has NaN threshold", i)
		}
		q.Feature[i] = int32(f)
		q.thr[i] = nd.Threshold
		q.Left[i], q.Right[i] = next, next+1
		next += 2
		perFeature[f] = append(perFeature[f], nd.Threshold)
	}

	// Edge lists: the sorted distinct thresholds per feature.
	q.Edges = make([][]float64, t.NumFeatures)
	for f, ts := range perFeature {
		slices.Sort(ts)
		q.Edges[f] = slices.Compact(ts)
	}

	for i, f := range q.Feature {
		if f < 0 {
			continue
		}
		// Always found: e holds every threshold of feature f.
		e := q.Edges[f]
		k, _ := slices.BinarySearch(e, q.thr[i])
		if k+1 > math.MaxUint16 {
			return nil, fmt.Errorf("dtree: quantize: feature %d needs bin index %d, max is %d", f, k+1, math.MaxUint16)
		}
		q.BinThreshold[i] = uint16(k + 1)
		q.thr[i] = e[k]
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("dtree: quantize: %w", err)
	}
	return q, nil
}

// maxFeatures bounds the declared input width of a tree built or decoded
// into the flat form, which allocates an edge list per feature. It matches
// the serving codec's row-width limit: no wider row reaches a served tree.
const maxFeatures = 1 << 20

// resolveThresholds fills thr from the edge lists. q must have passed
// Validate, which guarantees every bin threshold names a real edge.
func (q *Quantized) resolveThresholds() {
	q.thr = make([]float64, len(q.Feature))
	for i, f := range q.Feature {
		if f >= 0 {
			q.thr[i] = q.Edges[f][q.BinThreshold[i]-1]
		}
	}
}

// leaf returns the index of the leaf reached by x. The comparison is against
// the exact real-valued edge behind the node's bin threshold, so the routing
// decision is bit-identical to the source tree's "x < threshold" — NaN fails
// the comparison and routes right, as everywhere else.
func (q *Quantized) leaf(x []float64) int32 {
	// Slicing the node arrays to one length lets the compiler drop their
	// bounds checks after the one on feature.
	feature := q.Feature
	thr, left, right := q.thr[:len(feature)], q.Left[:len(feature)], q.Right[:len(feature)]
	i := int32(0)
	for feature[i] >= 0 {
		if x[feature[i]] < thr[i] {
			i = left[i]
		} else {
			i = right[i]
		}
	}
	return i
}

// Predict evaluates the quantized tree (classification; regression trees
// must use PredictReg). It performs no allocation and is safe for concurrent
// use.
func (q *Quantized) Predict(x []float64) int { return int(q.Out[q.leaf(x)]) }

// PredictReg evaluates a quantized regression tree. The returned slice
// aliases the tree's immutable value array; callers must not modify it.
func (q *Quantized) PredictReg(x []float64) []float64 {
	i := int(q.leaf(x))
	return q.Value[i*q.OutDim : (i+1)*q.OutDim : (i+1)*q.OutDim]
}

// batchChunk is the per-task granularity of the batch predictors: single
// predictions cost nanoseconds, so work is handed to the pool in blocks large
// enough to amortize scheduling.
const batchChunk = 512

// forEachChunk splits [0, n) into batchChunk-sized blocks and runs them
// with parallel.ForEach. Goroutines are spawned per call (bounded by
// workers), not drawn from a process-wide pool — callers that fan out many
// concurrent batches should bound their own concurrency.
func forEachChunk(workers, n int, fn func(lo, hi int)) {
	tasks := (n + batchChunk - 1) / batchChunk
	parallel.ForEach(workers, tasks, func(t int) {
		lo := t * batchChunk
		hi := lo + batchChunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// PredictBatchInto evaluates the quantized tree over a batch, writing the
// decision for X[i] into out[i]. The hot loop allocates nothing — out is
// caller-owned, so a serving loop reuses one buffer across requests. out
// must have len(X) entries.
func (q *Quantized) PredictBatchInto(X [][]float64, out []int, workers int) {
	if len(out) != len(X) {
		panic(fmt.Sprintf("dtree: PredictBatchInto: %d outputs for %d inputs", len(out), len(X)))
	}
	// Serial runs skip the pool entirely: no closure escapes, no goroutine
	// bookkeeping — the loop below is allocation-free.
	if parallel.Workers(workers) == 1 || len(X) <= batchChunk {
		for i := range X {
			out[i] = int(q.Out[q.leaf(X[i])])
		}
		return
	}
	forEachChunk(workers, len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = int(q.Out[q.leaf(X[i])])
		}
	})
}

// PredictBatch evaluates the quantized tree over a batch of inputs, fanning
// the work out over at most workers goroutines (0 = GOMAXPROCS, 1 = serial).
// Output slot i holds the decision for X[i] regardless of worker count.
func (q *Quantized) PredictBatch(X [][]float64, workers int) []int {
	out := make([]int, len(X))
	q.PredictBatchInto(X, out, workers)
	return out
}

// PredictRegBatchInto evaluates a quantized regression tree over a batch
// into caller-owned storage. The written rows alias the tree's value array;
// callers must not modify them. out must have len(X) entries.
func (q *Quantized) PredictRegBatchInto(X [][]float64, out [][]float64, workers int) {
	if len(out) != len(X) {
		panic(fmt.Sprintf("dtree: PredictRegBatchInto: %d outputs for %d inputs", len(out), len(X)))
	}
	if parallel.Workers(workers) == 1 || len(X) <= batchChunk {
		q.predictRegRange(X, out)
		return
	}
	forEachChunk(workers, len(X), func(lo, hi int) { q.predictRegRange(X[lo:hi], out[lo:hi]) })
}

// predictRegRange is PredictReg over X into out, with the walk inlined:
// PredictReg itself is too large for the compiler to inline into a loop.
func (q *Quantized) predictRegRange(X, out [][]float64) {
	for i, x := range X {
		j := int(q.leaf(x))
		out[i] = q.Value[j*q.OutDim : (j+1)*q.OutDim : (j+1)*q.OutDim]
	}
}

// PredictRegBatch evaluates a quantized regression tree over a batch. The
// returned rows alias the tree's value array; callers must not modify them.
func (q *Quantized) PredictRegBatch(X [][]float64, workers int) [][]float64 {
	out := make([][]float64, len(X))
	q.PredictRegBatchInto(X, out, workers)
	return out
}

// Validate checks the structural invariants evaluation relies on: parallel
// arrays of equal length, ascending NaN-free edge lists, feature and child
// indices in range, bin thresholds pointing at a real edge, and children at
// strictly higher indices than their parent (the breadth-first layout, which
// guarantees every walk terminates). Deserialized quantized trees must be
// validated before serving — a checksum protects bytes, not invariants.
func (q *Quantized) Validate() error {
	n := len(q.Feature)
	if n == 0 {
		return fmt.Errorf("dtree: quantized tree has no nodes")
	}
	if len(q.BinThreshold) != n || len(q.Left) != n || len(q.Right) != n || len(q.Out) != n {
		return fmt.Errorf("dtree: quantized tree arrays disagree: feature=%d binthreshold=%d left=%d right=%d out=%d",
			n, len(q.BinThreshold), len(q.Left), len(q.Right), len(q.Out))
	}
	if q.OutDim < 0 || q.NumFeatures < 0 {
		return fmt.Errorf("dtree: negative OutDim or NumFeatures")
	}
	if q.OutDim > 0 && len(q.Value) != n*q.OutDim {
		return fmt.Errorf("dtree: value array has %d entries, want %d nodes × %d outputs", len(q.Value), n, q.OutDim)
	}
	if len(q.Edges) != q.NumFeatures {
		return fmt.Errorf("dtree: %d edge lists for %d features", len(q.Edges), q.NumFeatures)
	}
	for f, e := range q.Edges {
		for i, v := range e {
			if math.IsNaN(v) {
				return fmt.Errorf("dtree: feature %d has a NaN edge", f)
			}
			if i > 0 && e[i-1] >= v {
				return fmt.Errorf("dtree: feature %d edges are not strictly ascending at %d", f, i)
			}
		}
	}
	if q.OutDim == 0 && q.NumClasses > 0 {
		for i, out := range q.Out {
			if out < 0 || int(out) >= q.NumClasses {
				return fmt.Errorf("dtree: node %d decides class %d, tree declares %d classes", i, out, q.NumClasses)
			}
		}
	}
	for i := 0; i < n; i++ {
		f := q.Feature[i]
		if f < 0 {
			continue // leaf
		}
		if int(f) >= q.NumFeatures {
			return fmt.Errorf("dtree: node %d tests feature %d, tree declares %d features", i, f, q.NumFeatures)
		}
		if bt := q.BinThreshold[i]; bt < 1 || int(bt) > len(q.Edges[f]) {
			return fmt.Errorf("dtree: node %d has bin threshold %d, feature %d has %d edges", i, bt, f, len(q.Edges[f]))
		}
		l, r := q.Left[i], q.Right[i]
		if l <= int32(i) || int(l) >= n || r <= int32(i) || int(r) >= n {
			return fmt.Errorf("dtree: node %d has out-of-order children %d/%d (want in (%d, %d))", i, l, r, i, n)
		}
	}
	return nil
}

// quantizedWire is the gob wire format: a distinct type keeps gob from
// re-entering MarshalBinary through its BinaryMarshaler support, and gob
// sends exported fields only, so the derived thresholds never reach the
// wire.
type quantizedWire Quantized

// MarshalBinary implements encoding.BinaryMarshaler via gob.
func (q *Quantized) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	w := quantizedWire(*q)
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("dtree: encode quantized tree: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decoded tree is
// validated before the receiver is touched, so no deserialization path can
// yield a quantized tree whose evaluation would panic or loop.
func (q *Quantized) UnmarshalBinary(data []byte) error {
	var w quantizedWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("dtree: decode quantized tree: %w", err)
	}
	loaded := Quantized(w)
	// gob collapses empty slices to nil; restore the edges-per-feature
	// invariant for trees that never split (a single-leaf tree has
	// NumFeatures edge lists, all empty).
	if loaded.Edges == nil && loaded.NumFeatures > 0 && loaded.NumFeatures <= maxFeatures {
		loaded.Edges = make([][]float64, loaded.NumFeatures)
	}
	if err := loaded.Validate(); err != nil {
		return fmt.Errorf("dtree: decode quantized tree: %w", err)
	}
	loaded.resolveThresholds()
	*q = loaded
	return nil
}

// GenerateC emits a self-contained C function evaluating the tree with
// branching clauses only — the form deployable on data-plane devices that
// lack floating-point units (thresholds are scaled to integers). Only
// classification trees are supported: the emitted function returns the
// class decision as an int.
//
// scale multiplies features and thresholds into integer space (e.g. 1e4).
func (q *Quantized) GenerateC(funcName string, scale float64) (string, error) {
	if q.IsRegression() {
		return "", fmt.Errorf("dtree: GenerateC supports classification trees only")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "/* Auto-generated by Metis: decision tree with %d nodes. */\n", q.NumNodes())
	fmt.Fprintf(&b, "int %s(const long long *x /* features pre-scaled by %g */) {\n", funcName, scale)
	// Explicit-stack emission: each frame is either a node to render or a
	// literal closer ("} else {" / "}") to splice between the subtrees. This
	// keeps degenerate deep trees from overflowing the goroutine stack;
	// indentation is additionally capped so a chain tree's output stays
	// linear in its node count rather than quadratic.
	type emitFrame struct {
		i       int32
		depth   int
		literal string // emitted verbatim when non-empty; i is ignored
	}
	indent := func(depth int) string {
		return strings.Repeat("    ", min(depth, maxCIndentDepth)+1)
	}
	stack := []emitFrame{{i: 0}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.literal != "" {
			b.WriteString(fr.literal)
			continue
		}
		ind := indent(fr.depth)
		if q.Feature[fr.i] < 0 {
			fmt.Fprintf(&b, "%sreturn %d;\n", ind, q.Out[fr.i])
			continue
		}
		fmt.Fprintf(&b, "%sif (x[%d] < %dLL) {\n", ind, q.Feature[fr.i], int64(q.thr[fr.i]*scale))
		stack = append(stack,
			emitFrame{literal: ind + "}\n"},
			emitFrame{i: q.Right[fr.i], depth: fr.depth + 1},
			emitFrame{literal: ind + "} else {\n"},
			emitFrame{i: q.Left[fr.i], depth: fr.depth + 1},
		)
	}
	b.WriteString("}\n")
	return b.String(), nil
}

// maxCIndentDepth caps GenerateC's indentation: nesting deeper than this
// renders at a fixed indent, keeping the emitted source linear in the node
// count for degenerate chain trees (unbounded indentation would make a
// d-deep tree emit O(d²) whitespace).
const maxCIndentDepth = 40

// PredictScaled mirrors the integer-space evaluation performed by the
// generated C code, for host-side verification of the offloaded model. Like
// GenerateC it is classification-only, and panics on a regression tree (the
// class slot is meaningless there).
func (q *Quantized) PredictScaled(x []int64, scale float64) int {
	if q.IsRegression() {
		panic("dtree: PredictScaled on a regression tree")
	}
	i := int32(0)
	for q.Feature[i] >= 0 {
		if x[q.Feature[i]] < int64(q.thr[i]*scale) {
			i = q.Left[i]
		} else {
			i = q.Right[i]
		}
	}
	return int(q.Out[i])
}
