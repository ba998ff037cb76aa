package dataset

import (
	"math"
	"sort"

	"repro/internal/parallel"
)

// Bin-count bounds for quantile binning. Up to 256 bins the indices pack
// into uint8 columns; beyond that (≤ 65536) they widen to uint16.
const (
	// DefaultBins is the histogram-mode default (the standard GBDT choice:
	// 255 boundaries resolve splits to ~0.4% quantiles).
	DefaultBins = 256
	// MaxBins is the widest supported binning.
	MaxBins = 1 << 16
)

// Binned is a quantile-binned view of a Table's feature columns: per
// feature, an ascending list of real-valued edges and a packed bin-index
// column (uint8 when the bin budget fits a byte, uint16 otherwise). Binning
// is deterministic — edges depend only on the column values and the bin
// budget — and NaN values land in the last bin, which matches the serving
// semantics of "x < threshold" routing NaN right at every split.
type Binned struct {
	table *Table
	n     int         // sample count at bin time (cache validity check)
	edges [][]float64 // per feature; len(edges[f]) = NumBins(f)-1
	b8    [][]uint8   // set when the bin budget ≤ 256
	b16   [][]uint16  // set otherwise
}

// Table returns the source table.
func (b *Binned) Table() *Table { return b.table }

// NumBins returns feature f's bin count (≥ 1).
func (b *Binned) NumBins(f int) int { return len(b.edges[f]) + 1 }

// Edge returns the real-valued threshold between bins e and e+1 of feature
// f: a split "keep bins ≤ e left" is exactly "x < Edge(f, e)".
func (b *Binned) Edge(f, e int) float64 { return b.edges[f][e] }

// Bins8 returns feature f's packed uint8 bin column, or nil when the
// binning is 16-bit. Exactly one of Bins8/Bins16 is non-nil per Binned.
func (b *Binned) Bins8(f int) []uint8 {
	if b.b8 == nil {
		return nil
	}
	return b.b8[f]
}

// Bins16 returns feature f's packed uint16 bin column, or nil when the
// binning is 8-bit.
func (b *Binned) Bins16(f int) []uint16 {
	if b.b16 == nil {
		return nil
	}
	return b.b16[f]
}

// Bin quantile-bins every feature column into at most maxBins bins
// (clamped to [2, MaxBins]; ≤ 0 selects DefaultBins), fanning the
// independent per-feature work across workers. Low-cardinality columns get
// one bin per distinct value with edges at the midpoints between adjacent
// values — identical to the candidate thresholds of the exact split scan —
// so binning is lossless for them. Constant (or all-NaN) columns collapse
// to a single bin and can never be split on.
//
// Binnings are memoized on the table per bin budget: repeated fits on one
// corpus (DAgger rounds, leaf-budget sweeps, benchmarks) pay the quantile
// computation once. The memo is validated against the sample count, so
// appending more rows transparently rebins on next use. Binning is
// bit-deterministic in the worker count, so a cached result is identical
// to a recomputed one.
func (t *Table) Bin(maxBins, workers int) *Binned {
	if maxBins <= 0 {
		maxBins = DefaultBins
	}
	if maxBins < 2 {
		maxBins = 2
	}
	if maxBins > MaxBins {
		maxBins = MaxBins
	}
	if cached := t.bins.lookup(maxBins, t.n); cached != nil {
		return cached
	}
	b := &Binned{table: t, n: t.n, edges: make([][]float64, len(t.cols))}
	if maxBins <= 256 {
		b.b8 = make([][]uint8, len(t.cols))
	} else {
		b.b16 = make([][]uint16, len(t.cols))
	}
	parallel.ForEach(workers, len(t.cols), func(f int) {
		edges := quantileEdges(t.cols[f], maxBins)
		b.edges[f] = edges
		if b.b8 != nil {
			col := make([]uint8, t.n)
			for i, v := range t.cols[f] {
				col[i] = uint8(binOf(edges, v))
			}
			b.b8[f] = col
		} else {
			col := make([]uint16, t.n)
			for i, v := range t.cols[f] {
				col[i] = uint16(binOf(edges, v))
			}
			b.b16[f] = col
		}
	})
	t.bins.store(maxBins, b)
	return b
}

// Binner is the quantization map of a Binned view detached from its bin
// columns: the per-feature edge lists alone. It is the piece of a binning
// that serving shares with training — dtree.QuantizeBinned rides a Binner to
// turn a tree's thresholds into bin indices, so a quantized tree and the
// histogram fit that produced it agree on one columnar layout. A Binner is
// immutable; callers must not modify the returned edge slices.
type Binner struct {
	edges [][]float64
}

// Binner returns the quantization map behind the binning (zero-copy).
func (b *Binned) Binner() *Binner { return &Binner{edges: b.edges} }

// NewBinner builds a quantization map from explicit per-feature edge lists
// (each ascending). The slices are not copied.
func NewBinner(edges [][]float64) *Binner { return &Binner{edges: edges} }

// NumFeatures returns the feature count the binner quantizes.
func (b *Binner) NumFeatures() int { return len(b.edges) }

// Edges returns feature f's ascending edge list (zero-copy; do not modify).
func (b *Binner) Edges(f int) []float64 { return b.edges[f] }

// Bin quantizes one value of feature f: the number of edges ≤ v, with NaN in
// the last bin — identical to the bin indices packed by Table.Bin.
func (b *Binner) Bin(f int, v float64) int { return binOf(b.edges[f], v) }

// binOf returns the bin index of v: the number of edges ≤ v (so bin b holds
// values in [edges[b-1], edges[b])). NaN maps to the last bin, mirroring
// "NaN < threshold is false" at prediction time.
func binOf(edges []float64, v float64) int {
	if math.IsNaN(v) {
		return len(edges)
	}
	// First edge strictly greater than v.
	return sort.Search(len(edges), func(i int) bool { return edges[i] > v })
}

// quantileEdges computes at most maxBins-1 ascending thresholds for one
// column. NaNs are excluded from the quantile computation (they bin last
// regardless).
func quantileEdges(col []float64, maxBins int) []float64 {
	vals := make([]float64, 0, len(col))
	for _, v := range col {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)

	// Count distinct values up to maxBins: if they fit, place one edge
	// between every adjacent distinct pair (lossless binning).
	distinct := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			distinct++
			if distinct > maxBins {
				break
			}
		}
	}
	var edges []float64
	if distinct <= maxBins {
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[i-1] {
				edges = append(edges, boundary(vals[i-1], vals[i]))
			}
		}
		return edges
	}
	// High-cardinality column: edges at evenly spaced quantile ranks,
	// deduplicated so every bin boundary separates distinct values.
	prev := math.Inf(-1)
	for b := 1; b < maxBins; b++ {
		r := b * len(vals) / maxBins
		if r < 1 {
			continue
		}
		lo, hi := vals[r-1], vals[r]
		if hi <= lo {
			continue
		}
		e := boundary(lo, hi)
		if e <= prev {
			continue
		}
		edges = append(edges, e)
		prev = e
	}
	return edges
}

// boundary is the split threshold between two adjacent distinct values: the
// midpoint, nudged up to hi when rounding collapses it onto lo (the
// invariant is lo < boundary ≤ hi, so "x < boundary" separates the two).
func boundary(lo, hi float64) float64 {
	e := lo + (hi-lo)/2
	if e <= lo || math.IsInf(e, 0) {
		return hi
	}
	return e
}
