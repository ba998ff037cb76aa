package artifact

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/abr"
	"repro/internal/auto"
	"repro/internal/dcn"
	"repro/internal/metis/dtree"
	"repro/internal/metis/mask"
	"repro/internal/nn"
	"repro/internal/pensieve"
	"repro/internal/routenet"
	"repro/internal/routing"
	"repro/internal/topo"
)

// smallTree builds a deterministic classification tree.
func smallTree(t testing.TB) *dtree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	d := &dtree.Dataset{}
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0
		if x[0]+x[1] > 1 {
			y = 1
		}
		if x[2] > 0.8 {
			y = 2
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	tree, err := dtree.Build(d, dtree.BuildOptions{MaxLeaves: 30})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// probes draws deterministic random inputs of the given dimension.
func probes(dim, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
		for k := range X[i] {
			X[i][k] = rng.Float64() * 4
		}
	}
	return X
}

func roundTrip(t *testing.T, model any) any {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.metis")
	if err := SaveModel(path, model, map[string]string{"name": "m"}); err != nil {
		t.Fatal(err)
	}
	back, a, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	wantKind, _ := KindOf(model)
	if a.Kind != wantKind {
		t.Fatalf("kind = %q, want %q", a.Kind, wantKind)
	}
	if a.Meta["name"] != "m" {
		t.Fatalf("meta lost: %v", a.Meta)
	}
	return back
}

func TestTreeRoundTrip(t *testing.T) {
	tree := smallTree(t)
	back := roundTrip(t, tree).(*dtree.Tree)
	for _, x := range probes(3, 200, 1) {
		if back.Predict(x) != tree.Predict(x) {
			t.Fatalf("prediction drift at %v", x)
		}
	}
}

func TestQuantizedRoundTrip(t *testing.T) {
	q, err := smallTree(t).Quantize()
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, q).(*dtree.Quantized)
	for _, x := range probes(3, 200, 2) {
		if back.Predict(x) != q.Predict(x) {
			t.Fatalf("prediction drift at %v", x)
		}
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	net := nn.NewNetwork(nn.Config{Sizes: []int{4, 8, 3}, Hidden: nn.ReLU, Output: nn.SoftmaxAct, Seed: 7})
	back := roundTrip(t, net).(*nn.Network)
	for _, x := range probes(4, 50, 3) {
		want := append([]float64(nil), net.Forward(x)...)
		got := back.Forward(x)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("forward drift at %v", x)
			}
		}
	}
}

func TestPensieveAgentRoundTrip(t *testing.T) {
	agent := pensieve.NewAgent(3, true)
	back := roundTrip(t, agent).(*pensieve.Agent)
	if !back.Modified {
		t.Fatal("Modified flag lost")
	}
	for _, x := range probes(abr.StateDim, 50, 4) {
		if back.Act(x) != agent.Act(x) {
			t.Fatalf("action drift at %v", x)
		}
	}
}

func TestAutoAgentsRoundTrip(t *testing.T) {
	lrla := auto.NewLRLA(5)
	backL := roundTrip(t, lrla).(*auto.LRLA)
	for _, x := range probes(dcn.LongFlowStateDim, 50, 5) {
		if backL.Decide(x) != lrla.Decide(x) {
			t.Fatalf("lRLA decision drift at %v", x)
		}
	}

	srla := auto.NewSRLA(6)
	backS := roundTrip(t, srla).(*auto.SRLA)
	for _, x := range probes(auto.SRLAStateDim, 50, 6) {
		want, got := srla.Thresholds(x), backS.Thresholds(x)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("sRLA threshold drift at %v", x)
			}
		}
	}
}

func TestRouteNetRoundTrip(t *testing.T) {
	model := routenet.NewModel(9)
	back := roundTrip(t, model).(*routenet.Model)
	g := topo.NSFNet(10)
	demands := routing.RandomDemands(g, 6, 3, 9, 77)
	paths := make([]topo.Path, len(demands))
	for i, d := range demands {
		paths[i] = g.CandidatePaths(d.Src, d.Dst, 1)[0]
	}
	want := model.PredictDelays(g, demands, paths, nil)
	got := back.PredictDelays(g, demands, paths, nil)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("delay drift: %v vs %v", got, want)
		}
	}
}

func TestMaskResultRoundTrip(t *testing.T) {
	res := &mask.Result{
		W:           []float64{0.9, 0.1, 0.5},
		LossHistory: []float64{3, 2, 1},
		Divergence:  0.02, Norm: 0.5, Entropy: 0.3,
	}
	back := roundTrip(t, res).(*mask.Result)
	for i := range res.W {
		if back.W[i] != res.W[i] {
			t.Fatal("mask drift")
		}
	}
	if back.Divergence != res.Divergence || back.Norm != res.Norm || back.Entropy != res.Entropy {
		t.Fatal("scalar drift")
	}
	if got := back.TopConnections(2); got[0] != 0 || got[1] != 2 {
		t.Fatalf("TopConnections = %v", got)
	}
}

// --- error paths --------------------------------------------------------

func TestBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.metis")
	if err := os.WriteFile(path, []byte("this is not an artifact at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.metis")
	if err := SaveModel(path, smallTree(t), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestCorruptedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.metis")
	if err := SaveModel(path, smallTree(t), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestCorruptedHeaderLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.metis")
	if err := SaveModel(path, smallTree(t), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A flipped header-length field must fail typed, not panic or OOM.
	data[10] = 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.metis")
	if err := SaveModel(path, smallTree(t), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] = 99 // bump the version field
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestWrongKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.metis")
	net := nn.NewNetwork(nn.Config{Sizes: []int{2, 2}, Hidden: nn.ReLU, Output: nn.Identity, Seed: 1})
	if err := SaveModel(path, net, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTree(path); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("err = %v, want ErrWrongKind", err)
	}
}

// TestUnknownKind: a kind this build does not decode — one from a newer
// version, or the retired dtree/compiled — is ErrUnknownKind.
func TestUnknownKind(t *testing.T) {
	for _, kind := range []string{"future/model", "dtree/compiled"} {
		var buf bytes.Buffer
		if err := WritePayload(&buf, kind, nil, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		a, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Decode(); !errors.Is(err, ErrUnknownKind) {
			t.Fatalf("%s: err = %v, want ErrUnknownKind", kind, err)
		}
	}
}

// TestMalformedCompiledRejected: a checksum-valid dtree/quantized artifact
// whose arrays violate the evaluation invariants (here: a self-loop that
// would hang Predict) must fail to load, not hand back a time bomb.
func TestMalformedCompiledRejected(t *testing.T) {
	bad := &dtree.Quantized{
		Feature:      []int32{0},
		BinThreshold: []uint16{1},
		Left:         []int32{0}, Right: []int32{0},
		Out: []int32{0}, NumFeatures: 1,
		Edges: [][]float64{{0.5}},
	}
	payload, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.metis")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePayload(f, KindQuantizedTree, nil, payload); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadQuantized(path); err == nil || !strings.Contains(err.Error(), "children") {
		t.Fatalf("malformed quantized artifact: err = %v, want a child-order error", err)
	}
}

// TestMalformedTreeRejected: the raw-tree artifact path gets the same
// invariant screening as quantized trees — a feature index beyond the
// declared dimensionality must fail at load, not panic at predict time.
func TestMalformedTreeRejected(t *testing.T) {
	bad := smallTree(t)
	bad.Root.Feature = 99 // beyond NumFeatures=3
	payload, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.metis")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePayload(f, KindTree, nil, payload); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadTree(path); err == nil {
		t.Fatal("malformed tree artifact loaded without error")
	}
}

func TestUnsupportedType(t *testing.T) {
	if err := SaveModel(filepath.Join(t.TempDir(), "x.metis"), 42, nil); err == nil {
		t.Fatal("expected error for unsupported model type")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Scenario:           "jobs",
		Scale:              "tiny",
		TeacherKind:        KindHeuristic,
		StudentKind:        KindMaskResult,
		StudentFingerprint: "deadbeef",
		Config:             "jobs/tiny/{Stages:10}",
		Metrics:            map[string]float64{"makespan": 31.5, "critical_path_hit": 1},
	}
	back := roundTrip(t, m).(*Manifest)
	if back.Scenario != m.Scenario || back.Scale != m.Scale ||
		back.TeacherKind != m.TeacherKind || back.StudentKind != m.StudentKind ||
		back.StudentFingerprint != m.StudentFingerprint || back.Config != m.Config {
		t.Fatalf("manifest drift: %+v vs %+v", back, m)
	}
	if back.Metrics["makespan"] != 31.5 || back.Metrics["critical_path_hit"] != 1 {
		t.Fatalf("metrics drift: %+v", back.Metrics)
	}
}
