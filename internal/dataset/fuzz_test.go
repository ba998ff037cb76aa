package dataset

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// encodeWire gob-encodes a raw wire value, bypassing the invariants
// MarshalBinary would carry over from a real Table.
func encodeWire(tb testing.TB, w tableWire) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzUnmarshalTable drives the corpus decoder (artifact kind
// "dataset/table", which the shadow refit and the experiment cache read back
// from disk) with arbitrary bytes. Corrupt gob streams and tables whose
// declared sample count disagrees with their columns must surface as
// errors; any table that decodes must have a non-negative length and keep
// Row, Sample and Gather in bounds.
func FuzzUnmarshalTable(f *testing.F) {
	tab, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}, []int{0, 1, 0}, []float64{1, 2, 3})
	if err != nil {
		f.Fatal(err)
	}
	raw, err := tab.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	reg := NewRegression(1, 2)
	reg.AppendRegRow([]float64{7}, []float64{1, 2}, 1)
	if rraw, err := reg.MarshalBinary(); err == nil {
		f.Add(rraw)
	}
	// A regression table declaring five fewer than zero samples.
	f.Add(encodeWire(f, tableWire{YReg: [][]float64{}, N: -5, Reg: true}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got Table
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		n := got.Len()
		if n < 0 {
			t.Fatalf("decoded table has Len() = %d", n)
		}
		if n > 0 {
			got.Row(0, nil)
			got.Row(n-1, nil)
		}
		for _, k := range []int{0, n / 2, n + 1} {
			if s := got.Sample(1, k); s.Len() != min(k, n) {
				t.Fatalf("Sample(%d) of %d samples has %d", k, n, s.Len())
			}
		}
		idx := []int{}
		if n > 0 {
			idx = []int{n - 1, 0}
		}
		if err := got.Gather(idx).Validate(); err != nil {
			t.Fatalf("gathered table is invalid: %v", err)
		}
	})
}
