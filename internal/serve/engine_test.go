package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/metis/dtree"
)

// TestEngineReload: Reload atomically swaps the model set — new artifacts
// appear, removed ones vanish, and counters of surviving models carry over.
func TestEngineReload(t *testing.T) {
	dir, cls, _ := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", e.Dir(), dir)
	}

	// Build up per-model stats on the original generation.
	for i := 0; i < 3; i++ {
		if _, err := e.Predict("abr", [][]float64{{0.9, 0.1}}); err != nil {
			t.Fatal(err)
		}
	}

	// Grow the directory: one more servable artifact, drop one.
	if err := artifact.SaveModel(filepath.Join(dir, "extra.metis"), cls, map[string]string{"name": "extra"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "thresholds.metis")); err != nil {
		t.Fatal(err)
	}
	if err := e.Reload(""); err != nil {
		t.Fatal(err)
	}
	if e.Reloads() != 1 {
		t.Fatalf("Reloads() = %d, want 1", e.Reloads())
	}

	names := map[string]bool{}
	for _, m := range e.Models() {
		names[m.Name] = true
	}
	if !names["abr"] || !names["extra"] || names["thresholds"] {
		t.Fatalf("post-reload models = %v", names)
	}
	if _, err := e.Predict("thresholds", [][]float64{{0.3, 0.7}}); err == nil {
		t.Fatal("removed model still predicts")
	}

	// Survivor stats carried over, newcomer starts at zero.
	abr, _ := e.Model("abr")
	if got := abr.predictions.Load(); got != 3 {
		t.Fatalf("abr predictions after reload = %d, want 3", got)
	}
	extra, _ := e.Model("extra")
	if got := extra.predictions.Load(); got != 0 {
		t.Fatalf("extra predictions after reload = %d, want 0", got)
	}
}

// TestEngineReloadFailureKeepsServing: a reload pointed at a bad directory
// returns an error and leaves the current generation untouched.
func TestEngineReloadFailureKeepsServing(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	e, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reload(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("expected reload error for missing dir")
	}
	if e.Reloads() != 0 {
		t.Fatalf("failed reload counted: %d", e.Reloads())
	}
	if _, err := e.Predict("abr", [][]float64{{0.9, 0.1}}); err != nil {
		t.Fatalf("engine broken after failed reload: %v", err)
	}
	if e.Dir() != dir {
		t.Fatalf("Dir() changed to %q after failed reload", e.Dir())
	}
}

// TestEngineConcurrentPredictDuringReload hammers Predict from many
// goroutines while the registry is reloaded repeatedly. Run under -race
// (the CI race job covers internal/serve) this pins down the lock-free swap:
// readers must never observe a half-built generation or trip the detector.
func TestEngineConcurrentPredictDuringReload(t *testing.T) {
	dir, cls, _ := fixtureDir(t)
	e, err := NewEngine(dir, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := cls.Predict([]float64{0.9, 0.1})

	const predictors = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < predictors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := [][]float64{{0.9, 0.1}, {0.1, 0.9}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, err := e.Predict("abr", rows)
				if err != nil {
					t.Error(err)
					return
				}
				if p.Actions[0] != want {
					t.Errorf("prediction drifted during reload: %d", p.Actions[0])
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := e.Reload(""); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if e.Reloads() != 50 {
		t.Fatalf("Reloads() = %d, want 50", e.Reloads())
	}
}

// TestEngineTypedErrors: each rejection path surfaces its typed error and
// counts exactly once in the request total, at one shard and at four, with
// and without weighted tenants.
func TestEngineTypedErrors(t *testing.T) {
	dir, _, _ := fixtureDir(t)
	gold := map[string]float64{"gold": 3}
	for _, base := range []Config{{Shards: 1}, {Shards: 4}, {Shards: 1, Tenants: gold}, {Shards: 4, Tenants: gold}} {
		name := fmt.Sprintf("shards=%d", base.Shards)
		if base.Tenants != nil {
			name = "tenants/" + name
		}
		t.Run(name, func(t *testing.T) {
			cfg := base
			cfg.MaxBatch, cfg.MaxInflight = 4, 1
			e, err := NewEngine(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reject := func(what, name string, rows [][]float64, match func(error) bool) {
				t.Helper()
				before := e.requestsTotal()
				if _, err := e.Predict(name, rows); !match(err) {
					t.Fatalf("%s error = %v", what, err)
				}
				if d := e.requestsTotal() - before; d != 1 {
					t.Fatalf("%s counted %d requests, want 1", what, d)
				}
			}
			var unknown *UnknownModelError
			reject("unknown model", "nope", [][]float64{{1, 2}}, func(err error) bool {
				return errors.As(err, &unknown) && unknown.Name == "nope"
			})
			reject("empty batch", "abr", nil, func(err error) bool { return errors.Is(err, ErrEmptyBatch) })
			var size *BatchSizeError
			reject("batch size", "abr", make([][]float64, 5), func(err error) bool {
				return errors.As(err, &size) && size.Max == 4
			})
			var dim *DimensionError
			reject("dimension", "abr", [][]float64{{1, 2, 3}}, func(err error) bool {
				return errors.As(err, &dim) && dim.Want == 2
			})

			// Admission: hold the only token (and fill abr's tenant queue);
			// the next call must fail fast with the gate's Retry-After.
			free := holdGate(t, e, "abr")
			var busy *BusyError
			reject("busy", "abr", [][]float64{{1, 2}}, func(err error) bool {
				return errors.Is(err, ErrBusy) && errors.As(err, &busy) && busy.RetryAfter > 0
			})
			free()
			if _, err := e.Predict("abr", [][]float64{{1, 2}}); err != nil {
				t.Fatalf("predict after slot freed: %v", err)
			}
		})
	}
}

// TestEngineSharedPoolMatchesSerial: batch predictions through the shared
// pool are bit-identical to serial evaluation at any worker count.
func TestEngineSharedPoolMatchesSerial(t *testing.T) {
	dir, cls, _ := fixtureDir(t)
	rows := make([][]float64, 3000)
	for i := range rows {
		rows[i] = []float64{float64(i%100) / 100, float64((i*37)%100) / 100}
	}
	want := make([]int, len(rows))
	for i, r := range rows {
		want[i] = cls.Predict(r)
	}
	for _, workers := range []int{1, 2, 8} {
		e, err := NewEngine(dir, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Predict("abr", rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if p.Actions[i] != want[i] {
				t.Fatalf("workers=%d: row %d = %d, want %d", workers, i, p.Actions[i], want[i])
			}
		}
	}
}

// TestLoadDirAllSkipped: a directory holding only non-servable artifacts
// fails with a message naming what was skipped.
func TestLoadDirAllSkipped(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "future.metis"))
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.WritePayload(f, "future/model", nil, []byte("opaque")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "no servable artifacts") || !strings.Contains(err.Error(), "future.metis") {
		t.Fatalf("all-skipped error = %v", err)
	}
}

// TestLoadDirCorruptCompiled: a tree artifact whose payload decodes but
// cannot be served safely fails the load, naming the file.
func TestLoadDirCorruptCompiled(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model any
		want  string
	}{
		// A quantized "tree" whose root's children point at itself — a walk
		// would loop forever. MarshalBinary does not validate, so the
		// artifact writes cleanly; only the decode-time Validate catches it.
		{"self-loop", &dtree.Quantized{
			Feature:      []int32{0},
			BinThreshold: []uint16{1},
			Left:         []int32{0},
			Right:        []int32{0},
			Out:          []int32{0},
			NumFeatures:  1,
			Edges:        [][]float64{{0.5}},
		}, "children"},
		// Tree.Validate accepts a NaN threshold, but no edge list can hold
		// one, so Quantize refuses it and the load fails.
		{"nan-threshold", &dtree.Tree{
			Root: &dtree.Node{
				Feature: 0, Threshold: math.NaN(),
				Left:  &dtree.Node{Feature: -1, Class: 0},
				Right: &dtree.Node{Feature: -1, Class: 1},
			},
			NumFeatures: 1, NumClasses: 2,
		}, "NaN threshold"},
		// A tree declaring 2^40 features would make the load allocate an
		// edge list per feature; Quantize refuses it instead.
		{"wide", &dtree.Tree{Root: &dtree.Node{Feature: -1}, NumFeatures: 1 << 40, NumClasses: 1}, "features"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := artifact.SaveModel(filepath.Join(dir, "evil.metis"), tc.model, map[string]string{"name": "evil"}); err != nil {
				t.Fatal(err)
			}
			_, err := LoadDir(dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "evil.metis") {
				t.Fatalf("load error = %v, want %q naming evil.metis", err, tc.want)
			}
		})
	}
}
