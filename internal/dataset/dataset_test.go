package dataset

import (
	"reflect"
	"testing"
)

func TestFromRowsRoundtrip(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []int{0, 1, 0}
	w := []float64{1, 2, 3}
	tab, err := FromRows(X, y, w)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 || tab.NumFeatures() != 2 || tab.IsRegression() {
		t.Fatalf("shape: len=%d features=%d reg=%v", tab.Len(), tab.NumFeatures(), tab.IsRegression())
	}
	if got := tab.Col(1); !reflect.DeepEqual(got, []float64{2, 4, 6}) {
		t.Fatalf("column 1 = %v", got)
	}
	if !reflect.DeepEqual(tab.Rows(), X) {
		t.Fatalf("Rows() = %v", tab.Rows())
	}
	if tab.Label(1) != 1 || tab.Weight(2) != 3 {
		t.Fatal("label/weight accessors wrong")
	}
	row := tab.Row(1, nil)
	if !reflect.DeepEqual(row, []float64{3, 4}) {
		t.Fatalf("Row(1) = %v", row)
	}
}

func TestFromRowsValidation(t *testing.T) {
	if _, err := FromRows([][]float64{{1}, {2, 3}}, []int{0, 1}, nil); err == nil {
		t.Fatal("ragged rows should error")
	}
	if _, err := FromRows([][]float64{{1}}, []int{0, 1}, nil); err == nil {
		t.Fatal("label length mismatch should error")
	}
	if _, err := FromRows([][]float64{{1}}, []int{0}, []float64{1, 2}); err == nil {
		t.Fatal("weight length mismatch should error")
	}
	if _, err := FromRegRows([][]float64{{1}, {2}}, [][]float64{{1, 2}, {3}}, nil); err == nil {
		t.Fatal("ragged targets should error")
	}
}

func TestAppendLazyWeights(t *testing.T) {
	tab := New(2)
	tab.AppendRow([]float64{1, 2}, 0, 1)
	tab.AppendRow([]float64{3, 4}, 1, 1)
	if tab.Weights() != nil {
		t.Fatal("all-1 weights should stay nil (uniform fast path)")
	}
	tab.AppendRow([]float64{5, 6}, 0, 2.5)
	if got := tab.Weights(); !reflect.DeepEqual(got, []float64{1, 1, 2.5}) {
		t.Fatalf("weights = %v", got)
	}
	if tab.Weight(0) != 1 || tab.Weight(2) != 2.5 {
		t.Fatal("Weight accessor wrong after materialization")
	}
}

func TestAppendTable(t *testing.T) {
	a := New(1)
	a.AppendRow([]float64{1}, 0, 1)
	b := New(1)
	b.AppendRow([]float64{2}, 1, 3)
	a.AppendTable(b)
	if a.Len() != 2 || a.Label(1) != 1 || a.Weight(0) != 1 || a.Weight(1) != 3 {
		t.Fatalf("after append: len=%d labels=%v weights=%v", a.Len(), a.Labels(), a.Weights())
	}
}

func TestRegressionTable(t *testing.T) {
	tab := NewRegression(1, 2)
	tab.AppendRegRow([]float64{1}, []float64{10, -10}, 1)
	tab.AppendRegRow([]float64{2}, []float64{20, -20}, 1)
	if !tab.IsRegression() || tab.Outputs() != 2 {
		t.Fatal("regression shape wrong")
	}
	if got := tab.Target(1); !reflect.DeepEqual(got, []float64{-10, -20}) {
		t.Fatalf("target column 1 = %v", got)
	}
}

func TestSliceIsZeroCopyView(t *testing.T) {
	tab, _ := FromRows([][]float64{{1}, {2}, {3}, {4}}, []int{0, 0, 1, 1}, nil)
	s := tab.Slice(1, 3)
	if s.Len() != 2 || s.Col(0)[0] != 2 || s.Label(1) != 1 {
		t.Fatalf("slice contents wrong: %v %v", s.Col(0), s.Labels())
	}
	// Mutating the parent column must show through the view (zero-copy).
	tab.Col(0)[1] = 99
	if s.Col(0)[0] != 99 {
		t.Fatal("Slice copied the column")
	}
}

func TestSliceAppendDoesNotClobberParent(t *testing.T) {
	tab, _ := FromRows([][]float64{{1}, {2}, {3}, {4}}, []int{0, 0, 1, 1}, nil)
	head := tab.Slice(0, 2)
	head.AppendRow([]float64{42}, 1, 1)
	if tab.Col(0)[2] != 3 || tab.Label(2) != 1 {
		t.Fatalf("appending to a slice view overwrote the parent: col=%v labels=%v", tab.Col(0), tab.Labels())
	}
	if head.Len() != 3 || head.Col(0)[2] != 42 {
		t.Fatalf("view append lost its own row: %v", head.Col(0))
	}
}

func TestSampleDeterministicAndWithoutReplacement(t *testing.T) {
	n := 100
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		X[i] = []float64{float64(i)}
		y[i] = i % 3
	}
	tab, _ := FromRows(X, y, nil)
	a := tab.Sample(7, 40)
	b := tab.Sample(7, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give the same subsample")
	}
	c := tab.Sample(8, 40)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should give different subsamples")
	}
	seen := map[float64]bool{}
	for i := 0; i < a.Len(); i++ {
		v := a.Col(0)[i]
		if seen[v] {
			t.Fatalf("value %v drawn twice", v)
		}
		seen[v] = true
	}
	full := tab.Sample(9, n+10)
	if full.Len() != n || !reflect.DeepEqual(full.Col(0), tab.Col(0)) {
		t.Fatal("oversized sample should be a full in-order copy")
	}
}

func TestTableMarshalRoundtrip(t *testing.T) {
	tab, _ := FromRows([][]float64{{1, 2}, {3, 4}}, []int{0, 1}, []float64{1, 5})
	data, err := tab.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, tab) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", back, tab)
	}

	reg := NewRegression(1, 1)
	reg.AppendRegRow([]float64{1}, []float64{2}, 1)
	data, err = reg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var regBack Table
	if err := regBack.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !regBack.IsRegression() || regBack.Target(0)[0] != 2 {
		t.Fatal("regression roundtrip lost targets")
	}
	if err := regBack.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestBatch(t *testing.T) {
	b := NewBatch(3, 2)
	copy(b.Row(1), []float64{7, 8})
	if got := b.Row(1); !reflect.DeepEqual(got, []float64{7, 8}) {
		t.Fatalf("Row(1) = %v", got)
	}
	if b.Row(0)[0] != 0 || b.Row(2)[1] != 0 {
		t.Fatal("fresh batch not zero-filled")
	}
	b.Row(2)[0] = 9 // rows are views: in-place mutation must stick
	if b.Row(2)[0] != 9 {
		t.Fatal("Row does not alias the backing array")
	}
	if _, err := BatchFromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("ragged batch rows should error")
	}
	fb, err := BatchFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil || fb.Rows() != 2 || fb.Dim() != 2 || fb.Row(1)[0] != 3 {
		t.Fatalf("BatchFromRows: %v %+v", err, fb)
	}
}

func TestWithWeightsSharesColumns(t *testing.T) {
	tab, _ := FromRows([][]float64{{1}, {2}}, []int{0, 1}, nil)
	re := tab.WithWeights([]float64{2, 3})
	if re.Weight(0) != 2 || tab.Weights() != nil {
		t.Fatal("WithWeights must not touch the source")
	}
	tab.Col(0)[0] = 42
	if re.Col(0)[0] != 42 {
		t.Fatal("WithWeights must share feature columns")
	}
}

// TestValidateRejectsUnbackedCount: a decoded table must not declare a
// sample count its columns do not hold. Either would reach CART fitting,
// which sizes its buffers from Len.
func TestValidateRejectsUnbackedCount(t *testing.T) {
	for _, w := range []tableWire{
		{YReg: [][]float64{}, N: -5, Reg: true},
		{Y: []int{}, N: -1},
		{YReg: [][]float64{}, N: 3, Reg: true},
	} {
		var got Table
		if err := got.UnmarshalBinary(encodeWire(t, w)); err == nil {
			t.Errorf("N=%d reg=%v decoded to a table of Len %d", w.N, w.Reg, got.Len())
		}
	}
	// An empty regression table with no columns stays valid.
	var empty Table
	if err := empty.UnmarshalBinary(encodeWire(t, tableWire{Reg: true})); err != nil {
		t.Fatalf("empty regression table: %v", err)
	}
}
