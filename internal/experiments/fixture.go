// Package experiments contains one harness per table and figure of the
// paper's evaluation (§6 and the appendices). Each harness returns a typed
// result with a human-readable rendering; cmd/metis-exp prints them.
//
// Heavy artifacts (trained teachers, distilled trees, the RouteNet model)
// are built once per Fixture and shared across harnesses. The teachers, the
// Metis+Pensieve tree and the AuTO trees come from the registered scenarios
// (internal/scenarios), so a figure reads the same models, and the same
// cache, as a pipeline run at its scale. The per-scale knobs the harnesses
// read come from the same scenario tables (scenarios.ABRScale, LRLAScale,
// RouteNetScale): test scale finishes in seconds and is used by tests and
// benchmarks, full scale takes minutes and gives the recorded results.
package experiments

import (
	"sync"

	"repro/internal/abr"
	"repro/internal/auto"
	"repro/internal/metis/dtree"
	"repro/internal/pensieve"
	"repro/internal/routenet"
	"repro/internal/scenario"
	"repro/internal/scenarios"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Fixture lazily builds and caches the trained artifacts shared by the
// harnesses. All methods are safe for sequential use; the fixture is not
// goroutine-safe.
type Fixture struct {
	// Scale names the scenario scale (scenario.ScaleTest, scenario.ScaleFull,
	// …) that the teachers and trees are built at and that sizes the figures.
	Scale string

	// Workers bounds the goroutines used by every parallelized stage the
	// harnesses drive — CART split search, DAgger rollout collection, SPSA
	// mask evaluation, and the LIME/LEMNA baselines (0 = GOMAXPROCS, 1 =
	// serial). All stages are bit-deterministic in the worker count, so
	// changing it never changes a figure or table.
	Workers int

	// CacheDir, when non-empty, is the scenario engine's artifact cache
	// (scenario.Config.CacheDir): teachers and distillation corpora found
	// there are loaded instead of rebuilt, and the ones built are saved.
	CacheDir string

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

// NewFixture creates a fixture at the named scale.
func NewFixture(scale string) *Fixture { return &Fixture{Scale: scale} }

// config is the scenario-engine configuration of the fixture.
func (f *Fixture) config() scenario.Config {
	return scenario.Config{Scale: f.Scale, Workers: f.Workers, CacheDir: f.CacheDir}
}

// fromScenario returns the model of the named scenario's teacher and, when
// distill is set, the model of its distilled student. Both come from the
// scenario engine at the fixture's scale, so they share its teacher and
// corpus cache in CacheDir: a teacher a -scenario run trained is never
// trained again for a figure, and the other way round.
func (f *Fixture) fromScenario(name string, distill bool) (teacher, student any) {
	sc, ok := scenario.Get(name)
	if !ok {
		panic("experiments: scenario " + name + " is not registered")
	}
	cfg := f.config()
	t, err := sc.Train(cfg)
	if err != nil {
		panic("experiments: train " + name + ": " + err.Error())
	}
	if !distill {
		return t.Model(), nil
	}
	st, err := sc.Distill(cfg, t)
	if err != nil {
		panic("experiments: distill " + name + ": " + err.Error())
	}
	return t.Model(), st.Model()
}

func (f *Fixture) envs() {
	f.onceEnv.Do(func() {
		f.envHSDPA, f.envFCC, f.envHSDPATest = scenarios.ABREnvs(scenarios.ABRScale(f.Scale))
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

// Pensieve returns the trained Pensieve teacher of the abr scenario.
func (f *Fixture) Pensieve() *pensieve.Agent {
	f.oncePensieve.Do(func() {
		m, _ := f.fromScenario("abr", false)
		f.agent = m.(*pensieve.Agent)
	})
	return f.agent
}

// PensieveTree returns the distilled Metis+Pensieve tree (with resampling),
// its fidelity and its corpus, from the abr scenario's distillation: a
// corpus cached in CacheDir is refitted, and one that DAgger collects here
// is saved there.
func (f *Fixture) PensieveTree() *dtree.DistillResult {
	f.onceTree.Do(func() {
		res, err := scenarios.DistillPensieve(f.config(), f.EnvHSDPA(), f.Pensieve())
		if err != nil {
			panic("experiments: distill pensieve: " + err.Error())
		}
		f.tree = res
	})
	return f.tree
}

// AuTo returns the trained AuTO teachers and their distilled trees, from the
// auto-lrla and auto-srla scenarios.
func (f *Fixture) AuTo() (lrla *auto.LRLA, srla *auto.SRLA, lrlaTree, srlaTree *dtree.Tree) {
	f.onceAuto.Do(func() {
		l, lt := f.fromScenario("auto-lrla", true)
		s, st := f.fromScenario("auto-srla", true)
		f.lrla, f.lrlaTree = l.(*auto.LRLA), lt.(*dtree.Tree)
		f.srla, f.srlaTree = s.(*auto.SRLA), st.(*dtree.Tree)
	})
	return f.lrla, f.srla, f.lrlaTree, f.srlaTree
}

// RouteNet returns the NSFNet graph and the trained RouteNet* model of the
// routenet scenario.
func (f *Fixture) RouteNet() (*topo.Graph, *routenet.Model) {
	f.onceRoute.Do(func() {
		f.graph = scenarios.NSFNetGraph()
		m, _ := f.fromScenario("routenet", false)
		f.rnet = m.(*routenet.Model)
	})
	return f.graph, f.rnet
}
