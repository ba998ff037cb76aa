// Package dataset is the shared columnar data layer of the training stack.
// Every package that feeds samples into CART fitting, DAgger aggregation, or
// perturbation-based interpretation (dtree, rl distillation, mask, lime,
// lemna, the scenario engine) moves data through the two types here instead
// of shuffling [][]float64 row slices:
//
//   - Table is a column-major supervised dataset: one contiguous []float64
//     per feature, plus label/target/weight columns. Column access — the
//     layout the CART split search wants — is a plain slice index,
//     row-major copies are never materialized on the training path, and
//     node splits operate on zero-copy index views. Tables gob-encode, so
//     the artifact layer can persist a distillation corpus next to the
//     teacher that produced it.
//
//   - Batch is a row-major matrix backed by one flat allocation: the shape
//     perturbation generators (SPSA mask search, LIME/LEMNA sampling) and
//     blackbox evaluators want. A Batch is reused across iterations, so the
//     per-perturbation allocations of the row-slice era disappear.
//
// Both types are plain data with deterministic operations: subsampling
// depends only on its inputs and an explicit seed, never on scheduling,
// which keeps the repo-wide "bit-identical at any worker count" contract
// intact.
package dataset

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Table is a column-major weighted supervised dataset. Exactly one of the
// label column (classification) or the target columns (regression) is set.
// The zero value is not usable; build Tables with New, NewRegression,
// FromRows, or FromRegRows.
type Table struct {
	cols [][]float64 // features × n
	y    []int       // classification labels (nil for regression)
	yreg [][]float64 // outputs × n regression targets (nil for classification)
	w    []float64   // per-sample weights; nil means uniform
	n    int
}

// New returns an empty classification table with the given feature count.
func New(features int) *Table {
	return &Table{cols: make([][]float64, features), y: []int{}}
}

// NewRegression returns an empty regression table with the given feature and
// output counts.
func NewRegression(features, outputs int) *Table {
	return &Table{cols: make([][]float64, features), yreg: make([][]float64, outputs)}
}

// FromRows columnarizes a row-major classification dataset. w may be nil
// (uniform weights). The rows are copied; the table does not alias X.
func FromRows(X [][]float64, y []int, w []float64) (*Table, error) {
	if len(X) != len(y) {
		return nil, fmt.Errorf("dataset: %d rows but %d labels", len(X), len(y))
	}
	t, err := columnarize(X, w)
	if err != nil {
		return nil, err
	}
	t.y = append(make([]int, 0, len(y)), y...)
	return t, nil
}

// FromRegRows columnarizes a row-major regression dataset (targets are rows
// of equal width). w may be nil.
func FromRegRows(X [][]float64, targets [][]float64, w []float64) (*Table, error) {
	if len(X) != len(targets) {
		return nil, fmt.Errorf("dataset: %d rows but %d target rows", len(X), len(targets))
	}
	t, err := columnarize(X, w)
	if err != nil {
		return nil, err
	}
	outs := 0
	if len(targets) > 0 {
		outs = len(targets[0])
	}
	t.yreg = make([][]float64, outs)
	for k := range t.yreg {
		col := make([]float64, len(targets))
		for i, row := range targets {
			if len(row) != outs {
				return nil, fmt.Errorf("dataset: target row %d has %d outputs, row 0 has %d", i, len(row), outs)
			}
			col[i] = row[k]
		}
		t.yreg[k] = col
	}
	return t, nil
}

func columnarize(X [][]float64, w []float64) (*Table, error) {
	if w != nil && len(w) != len(X) {
		return nil, fmt.Errorf("dataset: %d rows but %d weights", len(X), len(w))
	}
	features := 0
	if len(X) > 0 {
		features = len(X[0])
	}
	t := &Table{cols: make([][]float64, features), n: len(X)}
	flat := make([]float64, features*len(X))
	for f := range t.cols {
		col := flat[f*len(X) : (f+1)*len(X) : (f+1)*len(X)]
		for i, row := range X {
			if len(row) != features {
				return nil, fmt.Errorf("dataset: row %d has %d features, row 0 has %d", i, len(row), features)
			}
			col[i] = row[f]
		}
		t.cols[f] = col
	}
	if w != nil {
		t.w = append([]float64(nil), w...)
	}
	return t, nil
}

// Len returns the number of samples.
func (t *Table) Len() int { return t.n }

// NumFeatures returns the feature count.
func (t *Table) NumFeatures() int { return len(t.cols) }

// Outputs returns the regression output count (0 for classification tables).
func (t *Table) Outputs() int { return len(t.yreg) }

// IsRegression reports whether the table carries continuous targets.
func (t *Table) IsRegression() bool { return t.yreg != nil }

// Col returns feature f's column (zero-copy; callers must not mutate).
func (t *Table) Col(f int) []float64 { return t.cols[f] }

// Labels returns the classification label column (zero-copy; nil for
// regression tables).
func (t *Table) Labels() []int { return t.y }

// Label returns sample i's class label.
func (t *Table) Label(i int) int { return t.y[i] }

// Target returns output k's regression target column (zero-copy).
func (t *Table) Target(k int) []float64 { return t.yreg[k] }

// Weights returns the weight column (zero-copy; nil means uniform).
func (t *Table) Weights() []float64 { return t.w }

// Weight returns sample i's weight (1 when weights are uniform).
func (t *Table) Weight(i int) float64 {
	if t.w == nil {
		return 1
	}
	return t.w[i]
}

// Row gathers sample i's feature vector into dst (allocating when dst is too
// small) and returns it.
func (t *Table) Row(i int, dst []float64) []float64 {
	if cap(dst) < len(t.cols) {
		dst = make([]float64, len(t.cols))
	}
	dst = dst[:len(t.cols)]
	for f, col := range t.cols {
		dst[f] = col[i]
	}
	return dst
}

// Rows materializes the features as row slices — a deliberate copy for
// row-oriented consumers (serving codecs, plotting); the training path never
// calls it.
func (t *Table) Rows() [][]float64 {
	X := make([][]float64, t.n)
	flat := make([]float64, t.n*len(t.cols))
	for i := range X {
		row := flat[i*len(t.cols) : (i+1)*len(t.cols) : (i+1)*len(t.cols)]
		for f, col := range t.cols {
			row[f] = col[i]
		}
		X[i] = row
	}
	return X
}

// AppendRow appends one classification sample. Weight columns materialize
// lazily: a table whose appended weights are all 1 keeps a nil weight column
// (the uniform fast path).
func (t *Table) AppendRow(x []float64, label int, weight float64) {
	t.appendFeatures(x)
	t.y = append(t.y, label)
	t.appendWeight(weight)
	t.n++
}

// AppendRegRow appends one regression sample.
func (t *Table) AppendRegRow(x []float64, target []float64, weight float64) {
	t.appendFeatures(x)
	if len(target) != len(t.yreg) {
		panic(fmt.Sprintf("dataset: target has %d outputs, table has %d", len(target), len(t.yreg)))
	}
	for k, v := range target {
		t.yreg[k] = append(t.yreg[k], v)
	}
	t.appendWeight(weight)
	t.n++
}

func (t *Table) appendFeatures(x []float64) {
	if len(x) != len(t.cols) {
		panic(fmt.Sprintf("dataset: row has %d features, table has %d", len(x), len(t.cols)))
	}
	for f, v := range x {
		t.cols[f] = append(t.cols[f], v)
	}
}

func (t *Table) appendWeight(weight float64) {
	if t.w == nil {
		if weight == 1 {
			return
		}
		t.w = make([]float64, t.n, t.n+1)
		for i := range t.w {
			t.w[i] = 1
		}
	}
	t.w = append(t.w, weight)
}

// AppendTable appends every sample of o (which must have the same shape:
// feature count, and classification vs regression arity). Appending is
// column-wise — no per-row allocation.
func (t *Table) AppendTable(o *Table) {
	if len(o.cols) != len(t.cols) || len(o.yreg) != len(t.yreg) || (o.y == nil) != (t.y == nil) {
		panic(fmt.Sprintf("dataset: appending %d-feature/%d-output table to %d/%d", len(o.cols), len(o.yreg), len(t.cols), len(t.yreg)))
	}
	for f := range t.cols {
		t.cols[f] = append(t.cols[f], o.cols[f]...)
	}
	t.y = append(t.y, o.y...)
	for k := range t.yreg {
		t.yreg[k] = append(t.yreg[k], o.yreg[k]...)
	}
	switch {
	case o.w == nil && t.w == nil:
		// Both uniform: stay nil.
	default:
		if t.w == nil {
			t.w = ones(t.n)
		}
		if o.w == nil {
			t.w = append(t.w, ones(o.n)...)
		} else {
			t.w = append(t.w, o.w...)
		}
	}
	t.n += o.n
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Slice returns the zero-copy sub-table of samples [lo, hi) — columns are
// re-sliced, never copied, so slicing a Table for a train/eval split is
// free. Capacities are capped at the view bounds, so appending to the view
// reallocates instead of silently overwriting the parent's rows.
func (t *Table) Slice(lo, hi int) *Table {
	s := &Table{cols: make([][]float64, len(t.cols)), n: hi - lo}
	for f, col := range t.cols {
		s.cols[f] = col[lo:hi:hi]
	}
	if t.y != nil {
		s.y = t.y[lo:hi:hi]
	}
	if t.yreg != nil {
		s.yreg = make([][]float64, len(t.yreg))
		for k, col := range t.yreg {
			s.yreg[k] = col[lo:hi:hi]
		}
	}
	if t.w != nil {
		s.w = t.w[lo:hi:hi]
	}
	return s
}

// Gather returns a new table holding the given samples in idx order (a copy;
// the source is untouched).
func (t *Table) Gather(idx []int) *Table {
	g := &Table{cols: make([][]float64, len(t.cols)), n: len(idx)}
	for f, col := range t.cols {
		gc := make([]float64, len(idx))
		for j, i := range idx {
			gc[j] = col[i]
		}
		g.cols[f] = gc
	}
	if t.y != nil {
		g.y = make([]int, len(idx))
		for j, i := range idx {
			g.y[j] = t.y[i]
		}
	}
	if t.yreg != nil {
		g.yreg = make([][]float64, len(t.yreg))
		for k, col := range t.yreg {
			gc := make([]float64, len(idx))
			for j, i := range idx {
				gc[j] = col[i]
			}
			g.yreg[k] = gc
		}
	}
	if t.w != nil {
		g.w = make([]float64, len(idx))
		for j, i := range idx {
			g.w[j] = t.w[i]
		}
	}
	return g
}

// WithWeights returns a table sharing every column with t except the weight
// column, which is replaced by w (not copied). It is the zero-copy analogue
// of "same data, different sample weighting" — the distillation loop uses it
// to fit on normalized/oversampled weights while keeping the raw advantage
// weights untouched.
func (t *Table) WithWeights(w []float64) *Table {
	c := *t
	c.w = w
	return &c
}

// Validate checks the cross-column invariants. It is cheap (no data scan)
// and called by consumers that accept externally built tables.
func (t *Table) Validate() error {
	if (t.y == nil) == (t.yreg == nil) {
		return fmt.Errorf("dataset: exactly one of labels and targets must be set")
	}
	if t.n < 0 {
		return fmt.Errorf("dataset: negative sample count %d", t.n)
	}
	// A count no column holds would make every consumer size its buffers
	// from a number the data never backs.
	if t.n > 0 && len(t.cols) == 0 && t.y == nil && len(t.yreg) == 0 {
		return fmt.Errorf("dataset: %d samples but no feature, label or target column", t.n)
	}
	for f, col := range t.cols {
		if len(col) != t.n {
			return fmt.Errorf("dataset: feature %d has %d values, table has %d samples", f, len(col), t.n)
		}
	}
	if t.y != nil && len(t.y) != t.n {
		return fmt.Errorf("dataset: %d labels for %d samples", len(t.y), t.n)
	}
	for k, col := range t.yreg {
		if len(col) != t.n {
			return fmt.Errorf("dataset: output %d has %d values, table has %d samples", k, len(col), t.n)
		}
	}
	if t.w != nil && len(t.w) != t.n {
		return fmt.Errorf("dataset: %d weights for %d samples", len(t.w), t.n)
	}
	return nil
}

// Sample returns k samples drawn without replacement using a deterministic
// seeded partial Fisher-Yates shuffle: the result depends only on (t, seed,
// k), never on scheduling. k ≥ Len returns a full copy in original order.
func (t *Table) Sample(seed int64, k int) *Table {
	if k >= t.n {
		idx := make([]int, t.n)
		for i := range idx {
			idx[i] = i
		}
		return t.Gather(idx)
	}
	idx := make([]int, t.n)
	for i := range idx {
		idx[i] = i
	}
	state := uint64(seed)
	for i := 0; i < k; i++ {
		// SplitMix64 step, reduced to [i, n): deterministic and seed-driven.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		j := i + int(z%uint64(t.n-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return t.Gather(idx[:k])
}

// tableWire is the gob wire format (a distinct type so encoding cannot
// re-enter MarshalBinary).
type tableWire struct {
	Cols [][]float64
	Y    []int
	YReg [][]float64
	W    []float64
	N    int
	// Reg distinguishes an empty regression table from an empty
	// classification one (gob collapses empty slices to nil).
	Reg bool
}

// MarshalBinary implements encoding.BinaryMarshaler, making Tables storable
// as versioned artifacts (kind "dataset/table").
func (t *Table) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	w := tableWire{Cols: t.cols, Y: t.y, YReg: t.yreg, W: t.w, N: t.n, Reg: t.IsRegression()}
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("dataset: encode table: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decoded table
// is validated before the receiver is touched.
func (t *Table) UnmarshalBinary(data []byte) error {
	var w tableWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("dataset: decode table: %w", err)
	}
	loaded := Table{cols: w.Cols, y: w.Y, yreg: w.YReg, w: w.W, n: w.N}
	if loaded.cols == nil {
		loaded.cols = [][]float64{}
	}
	if w.Reg && loaded.yreg == nil {
		loaded.yreg = [][]float64{}
	}
	if !w.Reg && loaded.y == nil {
		loaded.y = []int{}
	}
	if err := loaded.Validate(); err != nil {
		return fmt.Errorf("dataset: decode table: %w", err)
	}
	*t = loaded
	return nil
}
