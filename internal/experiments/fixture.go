// Package experiments contains one harness per table and figure of the
// paper's evaluation (§6 and the appendices). Each harness returns a typed
// result with a human-readable rendering; cmd/metis-exp prints them and
// EXPERIMENTS.md records paper-versus-measured values.
//
// Heavy artifacts (trained teachers, distilled trees, the RouteNet model)
// are built once per Fixture and shared across harnesses. Two scales are
// provided: TestScale (seconds, used by tests and benchmarks) and FullScale
// (minutes, used for the recorded results).
package experiments

import (
	"encoding"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/abr"
	"repro/internal/artifact"
	"repro/internal/auto"
	"repro/internal/metis/dtree"
	"repro/internal/pensieve"
	"repro/internal/routenet"
	"repro/internal/scenarios"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The experiment harnesses and the scenario engine share one set of
// teacher-training recipes (internal/scenarios), so a teacher trained for a
// figure is bit-identical to one trained by a pipeline run at the same
// knobs.

// Scale bundles every knob that trades run time for fidelity.
type Scale struct {
	Name string

	// ABR side.
	NumTraces    int
	TraceSeconds int
	VideoChunks  int
	PretrainEps  int
	FinetuneEps  int
	EvalEpisodes int
	DistillEps   int // episodes per DAgger iteration
	DistillIters int
	TreeLeaves   int

	// DCN side.
	FlowsPerRun     int
	AuToGenerations int
	AuToRuns        int // fabric runs for dataset collection / evaluation

	// Routing side.
	RouteDemands   int
	RouteNetGens   int
	MaskIterations int
	TrafficSamples int // paper: 50
}

// TestScale finishes in seconds; used by go test and the benches.
var TestScale = Scale{
	Name:      "test",
	NumTraces: 12, TraceSeconds: 400, VideoChunks: 48,
	PretrainEps: 200, FinetuneEps: 400, EvalEpisodes: 12,
	DistillEps: 15, DistillIters: 3, TreeLeaves: 150,
	FlowsPerRun: 250, AuToGenerations: 6, AuToRuns: 3,
	RouteDemands: 10, RouteNetGens: 30, MaskIterations: 60, TrafficSamples: 8,
}

// FullScale approximates the paper's settings while staying laptop-friendly.
var FullScale = Scale{
	Name:      "full",
	NumTraces: 60, TraceSeconds: 600, VideoChunks: 48,
	PretrainEps: 400, FinetuneEps: 3000, EvalEpisodes: 40,
	DistillEps: 25, DistillIters: 3, TreeLeaves: 200,
	FlowsPerRun: 600, AuToGenerations: 25, AuToRuns: 8,
	RouteDemands: 20, RouteNetGens: 150, MaskIterations: 150, TrafficSamples: 50,
}

// Fixture lazily builds and caches the trained artifacts shared by the
// harnesses. All methods are safe for sequential use; the fixture is not
// goroutine-safe.
type Fixture struct {
	Scale Scale

	// Workers bounds the goroutines used by every parallelized stage the
	// harnesses drive — CART split search, DAgger rollout collection, SPSA
	// mask evaluation, and the LIME/LEMNA baselines (0 = GOMAXPROCS, 1 =
	// serial). All stages are bit-deterministic in the worker count, so
	// changing it never changes a figure or table.
	Workers int

	// CacheDir, when non-empty, persists every trained teacher (and the
	// AuTO distilled trees) as versioned artifacts keyed by scale name, so
	// repeated cmd/metis-exp invocations skip teacher training entirely.
	// Training seeds are fixed per scale, so a cached artifact is
	// bit-identical to what retraining would produce.
	CacheDir string

	// TeachersTrained counts teachers trained from scratch by this fixture;
	// CacheHits counts artifacts loaded from CacheDir instead. Together they
	// make cache effectiveness observable (metis-exp prints them).
	TeachersTrained, CacheHits int

	onceEnv      sync.Once
	envHSDPA     *abr.Env
	envFCC       *abr.Env
	envHSDPATest *abr.Env

	oncePensieve sync.Once
	agent        *pensieve.Agent

	onceTree sync.Once
	tree     *dtree.DistillResult

	onceAuto sync.Once
	lrla     *auto.LRLA
	srla     *auto.SRLA
	lrlaTree *dtree.Tree
	srlaTree *dtree.Tree

	onceRoute sync.Once
	graph     *topo.Graph
	rnet      *routenet.Model
}

// NewFixture creates a fixture at the given scale.
func NewFixture(s Scale) *Fixture { return &Fixture{Scale: s} }

// cachePath returns the artifact path for a cached model, or "" when caching
// is disabled.
func (f *Fixture) cachePath(name string) string {
	if f.CacheDir == "" {
		return ""
	}
	return filepath.Join(f.CacheDir, fmt.Sprintf("%s-%s.metis", name, f.Scale.Name))
}

// scaleFingerprint captures every Scale knob. It is stored in the artifact
// metadata and compared on load, so editing a scale's parameters (not just
// its name) invalidates previously cached teachers. Changes to training
// code itself are not fingerprinted — clear the cache directory after
// touching a trainer.
func (f *Fixture) scaleFingerprint() string {
	return fmt.Sprintf("%+v", f.Scale)
}

// loadCached restores model from the cache, reporting whether it hit. Any
// load failure (missing file, corruption, kind mismatch) silently falls back
// to retraining — the cache is an accelerator, never a correctness input.
func (f *Fixture) loadCached(name string, model any) bool {
	path := f.cachePath(name)
	if path == "" {
		return false
	}
	kind, err := artifact.KindOf(model)
	if err != nil {
		return false
	}
	a, err := artifact.Open(path)
	if err != nil || a.Kind != kind || a.Meta["config"] != f.scaleFingerprint() {
		return false
	}
	u, ok := model.(encoding.BinaryUnmarshaler)
	if !ok || u.UnmarshalBinary(a.Payload) != nil {
		return false
	}
	f.CacheHits++
	return true
}

// saveCached persists a freshly trained model. A broken cache directory is a
// configuration error the user asked for, so it panics loudly rather than
// silently retraining forever.
func (f *Fixture) saveCached(name string, model any) {
	path := f.cachePath(name)
	if path == "" {
		return
	}
	meta := map[string]string{"name": name, "scale": f.Scale.Name, "config": f.scaleFingerprint()}
	if err := artifact.SaveModel(path, model, meta); err != nil {
		panic("experiments: cache save: " + err.Error())
	}
}

func (f *Fixture) envs() {
	f.onceEnv.Do(func() {
		s := f.Scale
		f.envHSDPA, f.envFCC, f.envHSDPATest = scenarios.ABREnvs(s.NumTraces, s.TraceSeconds, s.VideoChunks)
	})
}

// EnvHSDPA returns the HSDPA-like training environment.
func (f *Fixture) EnvHSDPA() *abr.Env { f.envs(); return f.envHSDPA }

// EnvFCC returns the FCC-like environment.
func (f *Fixture) EnvFCC() *abr.Env { f.envs(); return f.envFCC }

// EnvHSDPATest returns a held-out HSDPA-like environment.
func (f *Fixture) EnvHSDPATest() *abr.Env { f.envs(); return f.envHSDPATest }

// FixedEnv returns a fresh environment on a constant-bandwidth link.
func (f *Fixture) FixedEnv(kbps float64, chunks int) *abr.Env {
	return abr.NewEnv(abr.Config{
		Video:  abr.StandardVideo(chunks, 1),
		Traces: []*trace.Trace{trace.Fixed(kbps, 2000)},
	})
}

// Pensieve returns the trained Pensieve teacher (trained on first use via
// the shared scenarios recipe, or restored from CacheDir).
func (f *Fixture) Pensieve() *pensieve.Agent {
	f.oncePensieve.Do(func() {
		f.agent = new(pensieve.Agent)
		if f.loadCached("pensieve", f.agent) {
			return
		}
		f.agent = scenarios.TrainPensieve(f.EnvHSDPA(), f.Scale.PretrainEps, f.Scale.FinetuneEps, f.Scale.VideoChunks+2, f.Workers)
		f.TeachersTrained++
		f.saveCached("pensieve", f.agent)
	})
	return f.agent
}

// PensieveTree returns the distilled Metis+Pensieve tree (with resampling).
func (f *Fixture) PensieveTree() *dtree.DistillResult {
	f.onceTree.Do(func() {
		res, err := dtree.DistillPolicy(f.EnvHSDPA(), f.Pensieve(),
			scenarios.PensieveDistillConfig(f.Scale.TreeLeaves, f.Scale.DistillIters,
				f.Scale.DistillEps, f.Scale.VideoChunks+2, f.Workers))
		if err != nil {
			panic("experiments: distill pensieve: " + err.Error())
		}
		f.tree = res
	})
	return f.tree
}

// AuTo returns the trained AuTO teachers and their distilled trees (built
// via the shared scenarios recipes, or restored from CacheDir).
func (f *Fixture) AuTo() (lrla *auto.LRLA, srla *auto.SRLA, lrlaTree, srlaTree *dtree.Tree) {
	f.onceAuto.Do(func() {
		s := f.Scale
		f.lrla = new(auto.LRLA)
		if !f.loadCached("auto-lrla", f.lrla) {
			f.lrla = scenarios.TrainAuTOLRLA(s.FlowsPerRun, s.AuToGenerations)
			f.TeachersTrained++
			f.saveCached("auto-lrla", f.lrla)
		}
		f.srla = new(auto.SRLA)
		if !f.loadCached("auto-srla", f.srla) {
			f.srla = scenarios.TrainAuTOSRLA(s.FlowsPerRun, s.AuToGenerations)
			f.TeachersTrained++
			f.saveCached("auto-srla", f.srla)
		}

		f.lrlaTree = new(dtree.Tree)
		if !f.loadCached("auto-lrla-tree", f.lrlaTree) {
			tr, _, err := scenarios.DistillLRLATree(f.lrla, s.AuToRuns, 2000, f.Workers)
			if err != nil {
				panic("experiments: distill lRLA: " + err.Error())
			}
			f.lrlaTree = tr
			f.saveCached("auto-lrla-tree", f.lrlaTree)
		}

		f.srlaTree = new(dtree.Tree)
		if !f.loadCached("auto-srla-tree", f.srlaTree) {
			rt, _, err := scenarios.DistillSRLATree(f.srla, 60, 200, f.Workers)
			if err != nil {
				panic("experiments: distill sRLA: " + err.Error())
			}
			f.srlaTree = rt
			f.saveCached("auto-srla-tree", f.srlaTree)
		}
	})
	return f.lrla, f.srla, f.lrlaTree, f.srlaTree
}

// RouteNet returns the NSFNet graph and a trained RouteNet model (built via
// the shared scenarios recipe, or restored from CacheDir).
func (f *Fixture) RouteNet() (*topo.Graph, *routenet.Model) {
	f.onceRoute.Do(func() {
		f.graph = scenarios.NSFNetGraph()
		f.rnet = new(routenet.Model)
		if f.loadCached("routenet", f.rnet) {
			return
		}
		f.rnet = scenarios.TrainRouteNet(f.graph, f.Scale.RouteDemands, f.Scale.RouteNetGens)
		f.TeachersTrained++
		f.saveCached("routenet", f.rnet)
	})
	return f.graph, f.rnet
}

// TreePolicy adapts a distilled classification tree to an abr.Selector.
func TreePolicy(t *dtree.Tree) abr.Selector {
	return abr.PolicySelector(t.Predict)
}
