package workload

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/metis/dtree"
)

// Fixture is the set of real distilled trees the serving workloads run on,
// with what a cold test-scale sweep leaves behind: the cached teachers and
// DAgger corpora, and one student artifact per scenario.
type Fixture struct {
	// Cache holds the teacher and corpus artifacts (metis-exp -cache).
	Cache string
	// Models holds the student artifacts (metis-exp -out).
	Models string
	// Trees maps each served model name to its reference tree.
	Trees map[string]*dtree.Tree
	// Corpus maps a served model name to the distillation corpus its
	// scenario cached, where there is one.
	Corpus map[string]*dataset.Table
}

// Sweep is one metis-exp -scenario all run as the operating system saw it.
type Sweep struct {
	Wall     time.Duration
	CPU      time.Duration // user + system
	MaxRSSKB int64
}

// RunSweep runs `metis-exp -scenario all -scale test` once with the given
// cache and output directories, through bin's peakrss so that the sweep's
// own peak memory is measured, appending its output to logPath. bin holds
// both binaries.
func RunSweep(ctx context.Context, bin, cache, out, logPath string, workers int) (Sweep, error) {
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return Sweep{}, err
	}
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "peakrss"), "-log", logPath, "--",
		filepath.Join(bin, "metis-exp"), "-scenario", "all", "-scale", "test",
		"-cache", cache, "-out", out, "-workers", strconv.Itoa(workers))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	line, err := cmd.Output()
	if err != nil {
		return Sweep{}, fmt.Errorf("metis-exp sweep: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var u struct {
		WallNS   int64 `json:"wall_ns"`
		CPUNS    int64 `json:"cpu_ns"`
		MaxRSSKB int64 `json:"maxrss_kb"`
	}
	if err := json.Unmarshal(line, &u); err != nil {
		return Sweep{}, fmt.Errorf("peakrss output %q: %w", line, err)
	}
	return Sweep{Wall: time.Duration(u.WallNS), CPU: time.Duration(u.CPUNS), MaxRSSKB: u.MaxRSSKB}, nil
}

// BuildFixture runs one cold sweep into dir/cache and dir/models and loads
// the result. The returned Sweep is that cold run: teacher training
// included.
func BuildFixture(ctx context.Context, bin, dir string, workers int) (*Fixture, Sweep, error) {
	cache, models := filepath.Join(dir, "cache"), filepath.Join(dir, "models")
	sw, err := RunSweep(ctx, bin, cache, models, filepath.Join(dir, "fixture.log"), workers)
	if err != nil {
		return nil, Sweep{}, err
	}
	f, err := LoadFixture(cache, models)
	return f, sw, err
}

// LoadFixture reads the student trees in models and the corpora their
// scenarios cached in cache.
func LoadFixture(cache, models string) (*Fixture, error) {
	f := &Fixture{Cache: cache, Models: models, Trees: map[string]*dtree.Tree{}, Corpus: map[string]*dataset.Table{}}
	paths, err := studentPaths(models)
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		model, a, err := artifact.Load(path)
		if err != nil {
			return nil, err
		}
		tree, ok := model.(*dtree.Tree)
		if !ok {
			continue // mask students are not servable
		}
		name := a.Meta["name"]
		f.Trees[name] = tree
		corpusPath := filepath.Join(cache, fmt.Sprintf("scenario-%s-%s-dataset.metis", a.Meta["scenario"], a.Meta["scale"]))
		if _, err := os.Stat(corpusPath); err != nil {
			continue
		}
		t, err := artifact.LoadAs[*dataset.Table](corpusPath)
		if err != nil {
			return nil, err
		}
		if t.NumFeatures() != tree.NumFeatures {
			return nil, fmt.Errorf("%s: corpus has %d features, tree %s wants %d", corpusPath, t.NumFeatures(), name, tree.NumFeatures)
		}
		f.Corpus[name] = t
	}
	for _, s := range Specs {
		for _, m := range s.Mix {
			if f.Trees[m.Model] == nil {
				return nil, fmt.Errorf("fixture %s has no tree %q", models, m.Model)
			}
		}
	}
	return f, nil
}

// studentPaths lists the student artifacts in dir (manifests excluded).
func studentPaths(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.metis"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range paths {
		if !strings.HasSuffix(p, ".manifest.metis") {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no student artifacts in %s", dir)
	}
	return out, nil
}

// StudentCRCs returns the payload checksum of every student artifact in
// dir, keyed by file name.
func StudentCRCs(dir string) (map[string]uint32, error) {
	paths, err := studentPaths(dir)
	if err != nil {
		return nil, err
	}
	crcs := make(map[string]uint32, len(paths))
	for _, p := range paths {
		a, err := artifact.Open(p)
		if err != nil {
			return nil, err
		}
		crcs[filepath.Base(p)] = artifact.Checksum(a.Payload)
	}
	return crcs, nil
}

// SameAnswers reports whether the tree students in dir answer every served
// model's request pool (drawn from seed) exactly as the fixture's trees do.
func (f *Fixture) SameAnswers(dir string, seed int64) (bool, error) {
	for name := range f.Trees {
		tree, err := artifact.LoadTree(filepath.Join(dir, name+".metis"))
		if err != nil {
			return false, err
		}
		for _, r := range f.Requests(Spec{Rows: 16, Mix: []Share{{name, 1}}}, seed) {
			actions, values := Reference(tree, r.Rows)
			if !slices.Equal(actions, r.Actions) || !slices.EqualFunc(values, r.Values, slices.Equal) {
				return false, nil
			}
		}
	}
	return true, nil
}

// CopyFiles copies the regular files of src whose names pass keep into dst.
func CopyFiles(src, dst string, keep func(name string) bool) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || !keep(e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// IsCorpus reports whether a cache file name is a cached DAgger corpus.
func IsCorpus(name string) bool { return strings.HasSuffix(name, "-dataset.metis") }

// RemoveCorpora deletes the cached corpora in dir, leaving its teachers, so
// the next sweep over it repeats every DAgger rollout.
func RemoveCorpora(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if IsCorpus(e.Name()) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
