// Package histo is a fixed-footprint HDR-style latency histogram: log-linear
// buckets (32 linear sub-buckets per power of two) give a bounded ~3.2%
// relative error across the full int64 range with no per-record allocation
// and no locks — Record is one atomic increment, so request paths (the
// serving engine, metis-loadgen's collector workers) share one implementation
// and their histograms merge losslessly.
//
// Values are unitless int64s; callers pick the unit (the serving stack
// records nanoseconds) and convert on display.
package histo

import (
	"math/bits"
	"sync/atomic"
)

// subBits sets the linear resolution inside one octave: 1<<subBits
// sub-buckets per power of two, bounding the relative quantile error at
// 1/2^subBits (~3.2%). Values below 1<<subBits are recorded exactly.
const subBits = 5

const (
	subCount = 1 << subBits
	// numBuckets covers the full non-negative int64 range: the exact linear
	// range plus subCount/2 buckets for each remaining octave.
	numBuckets = subCount + (63-subBits)*(subCount/2)
)

// Histogram is a concurrent-safe value recorder. The zero value is NOT
// ready; use New. All methods may be called concurrently with Record;
// readers see a live (slightly racy) view, which is the intended use for
// operational stats.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	k := bits.Len64(uint64(v)) // > subBits here
	return subCount + (k-1-subBits)*(subCount/2) + int(v>>(k-subBits)) - subCount/2
}

// bucketUpper returns the largest value the bucket holds.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	rel := idx - subCount
	oct := rel / (subCount / 2)
	pos := rel%(subCount/2) + subCount/2
	return (int64(pos+1) << (oct + 1)) - 1
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean of the recorded values (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (q clamped to [0, 1])
// of the recorded values, within the histogram's relative error. The bound
// is additionally clamped to the exact observed maximum, so high quantiles
// never report above Max. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	upper := bucketUpper(numBuckets - 1)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			upper = bucketUpper(i)
			break
		}
	}
	return min(upper, h.max.Load())
}

// Merge adds o's observations into h. o keeps its contents; the two may be
// recorded into concurrently (the merge is then a live snapshot of o).
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			return
		}
	}
}

// Bucket is one non-empty histogram cell: Count observations ≤ Le (and
// above the previous bucket's Le).
type Bucket struct {
	Le    int64
	Count uint64
}

// Buckets returns the non-empty buckets in ascending value order — the
// render-ready shape for a latency table.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			out = append(out, Bucket{Le: bucketUpper(i), Count: c})
		}
	}
	return out
}
