package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// sharedFixture is trained once for the whole test binary: the fixture is
// the expensive part (teacher training), and every experiment harness is
// read-only with respect to it.
var sharedFixture = NewFixture(scenario.ScaleTest)

func TestFig07TreeInterpretation(t *testing.T) {
	r := Fig07(sharedFixture)
	if r.Leaves == 0 || r.Fidelity < 0.5 {
		t.Fatalf("degenerate tree: %d leaves, fidelity %.3f", r.Leaves, r.Fidelity)
	}
	if len(r.TopFeatures) == 0 {
		t.Fatal("no features in the top layers")
	}
	// The paper's key decision variables should drive the top of the tree.
	joined := strings.Join(r.TopFeatures, " ")
	core := 0
	for _, feat := range []string{"r_t", "B", "θ_t", "T_t"} {
		if strings.Contains(joined, feat) {
			core++
		}
	}
	if core < 2 {
		t.Fatalf("top-layer features %v miss the paper's decision variables", r.TopFeatures)
	}
	if !strings.Contains(r.String(), "Fig 7") {
		t.Fatal("String() missing header")
	}
}

func TestFig15aQoEParity(t *testing.T) {
	r := Fig15a(sharedFixture)
	if len(r.QoE) != 2 {
		t.Fatalf("families = %d", len(r.QoE))
	}
	for fi, fam := range r.Families {
		gap := r.TreeGapPct[fi]
		// Paper: <0.6%; allow a loose bound at test scale.
		if gap < -20 || gap > 20 {
			t.Fatalf("tree-vs-DNN gap on %s = %.1f%%, implausible", fam, gap)
		}
	}
	// Pensieve (last column) should beat the weakest heuristic on HSDPA.
	row := r.QoE[0]
	dnn := row[len(row)-1]
	min := row[0]
	for _, v := range row[:len(row)-2] {
		if v < min {
			min = v
		}
	}
	if dnn < min {
		t.Fatalf("teacher QoE %.3f below every baseline (min %.3f)", dnn, min)
	}
}

func TestFig12FrequenciesValid(t *testing.T) {
	r := Fig12(sharedFixture, "HSDPA")
	for i, alg := range r.Algorithms {
		sum := 0.0
		for _, v := range r.Freq[i] {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s frequencies sum to %v", alg, sum)
		}
	}
	// Metis+Pensieve should mimic Pensieve's distribution closely.
	n := len(r.Algorithms)
	tree, dnn := r.Freq[n-2], r.Freq[n-1]
	dist := 0.0
	for q := range tree {
		d := tree[q] - dnn[q]
		dist += d * d
	}
	if dist > 0.2 {
		t.Fatalf("tree/DNN frequency mismatch %v vs %v", tree, dnn)
	}
}

func TestFig13FixedLink(t *testing.T) {
	r := Fig13(sharedFixture, 3000)
	if len(r.Algorithms) != 5 {
		t.Fatalf("algorithms = %v", r.Algorithms)
	}
	if r.PensieveConfidence <= 0 || r.PensieveConfidence > 1 {
		t.Fatalf("confidence %v", r.PensieveConfidence)
	}
}

func TestFig16aTreeFaster(t *testing.T) {
	r := Fig16a(sharedFixture)
	if r.Speedup < 3 {
		t.Fatalf("tree speedup only %.1f× over the DNN", r.Speedup)
	}
}

func TestFig16bCoverageImproves(t *testing.T) {
	r := Fig16b(sharedFixture)
	for i, w := range r.Workloads {
		if r.FlowCoverage[i][1] < r.FlowCoverage[i][0] {
			t.Fatalf("%s: faster decisions reduced flow coverage", w)
		}
		if r.ByteCoverage[i][1] < r.ByteCoverage[i][0] {
			t.Fatalf("%s: faster decisions reduced byte coverage", w)
		}
	}
}

func TestFig17bTreeSmaller(t *testing.T) {
	r := Fig17b(sharedFixture)
	if r.SizeRatio < 2 {
		t.Fatalf("tree (%dB) not clearly smaller than DNN (%dB)", r.TreeBytes, r.DNNBytes)
	}
}

func TestFig09MaskShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := Fig09(sharedFixture)
	if len(r.CDF) == 0 {
		t.Fatal("empty CDF")
	}
	if r.PearsonR < 0 {
		t.Fatalf("ΣW-vs-traffic correlation r=%.2f negative (paper: 0.81)", r.PearsonR)
	}
}

func TestTable3TopConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := Table3(sharedFixture)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	prev := 2.0
	for _, row := range r.Rows {
		if row.Mask > prev {
			t.Fatal("rows not sorted by mask value")
		}
		prev = row.Mask
		if row.Interpretation == "" || row.PathStr == "" {
			t.Fatal("missing interpretation fields")
		}
	}
}

func TestFig28LeafSensitivity(t *testing.T) {
	r := Fig28(sharedFixture, []int{10, 100})
	if len(r.Acc) != 2 {
		t.Fatalf("settings = %d", len(r.Acc))
	}
	// More leaves should not hurt training-distribution accuracy much.
	if r.Acc[1] < r.Acc[0]-0.1 {
		t.Fatalf("accuracy dropped with more leaves: %v", r.Acc)
	}
}

func TestFig27BaselineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := Fig27(sharedFixture, []int{1, 5})
	if r.TreeAcc <= 0 {
		t.Fatal("tree accuracy not computed")
	}
	// The paper's claim: the tree beats both baselines at their best k.
	bestLime, bestLemna := 0.0, 0.0
	for i := range r.Clusters {
		if r.LimeAcc[i] > bestLime {
			bestLime = r.LimeAcc[i]
		}
		if r.LemnaAcc[i] > bestLemna {
			bestLemna = r.LemnaAcc[i]
		}
	}
	if r.TreeAcc < bestLime-0.05 || r.TreeAcc < bestLemna-0.05 {
		t.Fatalf("tree acc %.3f not competitive with LIME %.3f / LEMNA %.3f", r.TreeAcc, bestLime, bestLemna)
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatal("Names() incomplete")
	}
	want := []string{"fig7", "table3", "fig15a", "fig15b", "fig16a", "fig27", "fig31"}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Fatalf("registry missing %q", w)
		}
	}
}
