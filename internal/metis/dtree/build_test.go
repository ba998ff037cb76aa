package dtree

import (
	"reflect"
	"runtime"
	"testing"
)

// workerSweep is the worker-count grid of the determinism satellite: serial,
// two awkward odd counts, and every core the host has.
func workerSweep() []int {
	return []int{1, 3, 7, runtime.NumCPU()}
}

// TestBuildTableWorkerSweepExact: same seed, Workers ∈ {1, 3, 7, NumCPU} →
// bit-identical trees in exact mode, classification and regression.
func TestBuildTableWorkerSweepExact(t *testing.T) {
	for _, regression := range []bool{false, true} {
		ds := synthDataset(900, 6, 31, regression)
		tab, err := ds.Table()
		if err != nil {
			t.Fatal(err)
		}
		var ref *Tree
		for _, workers := range workerSweep() {
			tree, err := BuildTable(tab, BuildOptions{MaxLeaves: 64, MinSamplesLeaf: 2, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = tree
				continue
			}
			if !reflect.DeepEqual(ref, tree) {
				t.Fatalf("regression=%v: exact tree differs at Workers=%d", regression, workers)
			}
		}
	}
}

// TestBuildTableSkipsConstantColumns: a column with one distinct value has no
// split candidate, so every split lands on the informative feature.
func TestBuildTableSkipsConstantColumns(t *testing.T) {
	ds := &Dataset{}
	for i := 0; i < 100; i++ {
		ds.X = append(ds.X, []float64{5, float64(i) / 100, -1})
		ds.Y = append(ds.Y, i/50)
	}
	tree, err := Build(ds, BuildOptions{MaxLeaves: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() {
		t.Fatal("separable data produced a stump")
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		if n.Feature != 1 {
			t.Fatalf("split on constant feature %d", n.Feature)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
}
