package dtree

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSeedTrees returns a two-leaf classification tree and a two-leaf
// regression tree, the seeds of the decoder fuzz targets.
func fuzzSeedTrees() (cls, reg *Tree) {
	cls = &Tree{
		Root: &Node{
			Feature: 0, Threshold: 0.5,
			Left:  &Node{Feature: -1, Class: 0, ClassDist: []float64{1, 0}},
			Right: &Node{Feature: -1, Class: 1, ClassDist: []float64{0, 1}},
		},
		NumFeatures: 2, NumClasses: 2,
	}
	reg = &Tree{
		Root: &Node{
			Feature: 1, Threshold: -3, Value: []float64{2, 3},
			Left:  &Node{Feature: -1, Value: []float64{1, 2}},
			Right: &Node{Feature: -1, Value: []float64{3, 4}},
		},
		NumFeatures: 3,
	}
	return cls, reg
}

// FuzzUnmarshalQuantized drives the quantized wire decoder with arbitrary
// bytes: corrupted gob streams and structurally invalid trees (cycles,
// out-of-range features, bin thresholds past the edge lists) must surface as
// errors, never as panics — and any tree that decodes must evaluate without
// panicking or looping, since Validate gates the receiver.
func FuzzUnmarshalQuantized(f *testing.F) {
	// Seed corpus: valid classification and regression trees, plus a
	// truncation of each.
	leafy, reg := fuzzSeedTrees()
	q, err := leafy.Quantize()
	if err != nil {
		f.Fatal(err)
	}
	raw, err := q.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	if rq, err := reg.Quantize(); err == nil {
		if rraw, err := rq.MarshalBinary(); err == nil {
			f.Add(rraw)
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// A single leaf declaring 2^40 features and no edge lists: decoding must
	// not size an allocation from that field.
	wide, err := (&Quantized{Feature: []int32{-1}, BinThreshold: []uint16{0}, Left: []int32{0},
		Right: []int32{0}, Out: []int32{0}, NumFeatures: 1 << 40}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wide)

	f.Fuzz(func(t *testing.T, data []byte) {
		var got Quantized
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		// Whatever decoded passed Validate: evaluation must terminate for
		// both prediction flavors on an all-zero input.
		x := make([]float64, got.NumFeatures)
		if got.IsRegression() {
			got.PredictReg(x)
		} else {
			got.Predict(x)
		}
		// And it must re-encode.
		if _, err := got.MarshalBinary(); err != nil {
			t.Fatalf("decoded tree does not re-encode: %v", err)
		}
	})
}

// FuzzQuantizeTree drives the path a dtree/tree artifact takes to the
// predict loop: arbitrary bytes through Tree.UnmarshalBinary, then Quantize,
// then a walk on an all-zero and an all-NaN row. Decode and quantize errors
// are fine; a panic or a walk that never ends is not.
func FuzzQuantizeTree(f *testing.F) {
	leafy, reg := fuzzSeedTrees()
	for _, tree := range []*Tree{leafy, reg} {
		raw, err := tree.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	// A valid tree declaring 2^40 features: Quantize must refuse it rather
	// than allocate an edge list per feature.
	wide, err := (&Tree{Root: &Node{Feature: -1}, NumFeatures: 1 << 40, NumClasses: 1}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tree Tree
		if err := tree.UnmarshalBinary(data); err != nil {
			return
		}
		q, err := tree.Quantize()
		if err != nil {
			return
		}
		zero, nan := make([]float64, q.NumFeatures), make([]float64, q.NumFeatures)
		for k := range nan {
			nan[k] = math.NaN()
		}
		for _, x := range [][]float64{zero, nan} {
			if q.IsRegression() {
				q.PredictReg(x)
			} else {
				q.Predict(x)
			}
		}
	})
}
