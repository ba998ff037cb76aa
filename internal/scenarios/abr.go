package scenarios

import (
	"fmt"

	"repro/internal/abr"
	"repro/internal/dataset"
	"repro/internal/metis/dtree"
	"repro/internal/pensieve"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// ABRParams are the per-scale knobs of the abr scenario. The figure
// harnesses train and distil their Pensieve teacher through this scenario
// and size their ABR runs from the same table, so these are their only
// ABR knobs.
type ABRParams struct {
	NumTraces, TraceSeconds, VideoChunks int
	PretrainEps, FinetuneEps, EvalTraces int
	DistillEps, DistillIters, TreeLeaves int
}

var abrScales = map[string]ABRParams{
	scenario.ScaleTiny: {
		NumTraces: 4, TraceSeconds: 200, VideoChunks: 16,
		PretrainEps: 40, FinetuneEps: 80, EvalTraces: 4,
		DistillEps: 4, DistillIters: 2, TreeLeaves: 40,
	},
	scenario.ScaleTest: {
		NumTraces: 12, TraceSeconds: 400, VideoChunks: 48,
		PretrainEps: 200, FinetuneEps: 400, EvalTraces: 12,
		DistillEps: 15, DistillIters: 3, TreeLeaves: 150,
	},
	scenario.ScaleFull: {
		NumTraces: 60, TraceSeconds: 600, VideoChunks: 48,
		PretrainEps: 400, FinetuneEps: 3000, EvalTraces: 40,
		DistillEps: 25, DistillIters: 3, TreeLeaves: 200,
	},
}

// ABRScale returns the abr scenario's knobs at the named scale (the zero
// value for an unknown scale).
func ABRScale(scale string) ABRParams { return abrScales[scale] }

// abrTeacher wraps the trained Pensieve agent plus the lazily built
// environments the pipeline stages share (the pipeline drives stages
// sequentially, so memoizing here avoids re-synthesizing the trace sets in
// every stage).
type abrTeacher struct {
	agent  *pensieve.Agent
	params ABRParams

	trainEnv, heldoutEnv *abr.Env
}

// train returns the memoized training environment.
func (t *abrTeacher) train() *abr.Env {
	if t.trainEnv == nil {
		t.trainEnv = abrTrainEnv(t.params)
	}
	return t.trainEnv
}

// heldout returns the memoized held-out environment.
func (t *abrTeacher) heldout() *abr.Env {
	if t.heldoutEnv == nil {
		t.heldoutEnv = abrHeldoutEnv(t.params)
	}
	return t.heldoutEnv
}

// Query implements scenario.Teacher: the action (bitrate) distribution.
func (t *abrTeacher) Query(in []float64) []float64 { return t.agent.Probs(in) }

// Clone implements scenario.Teacher. The memoized environments are not
// shared — they are stateful, so each clone lazily builds its own.
func (t *abrTeacher) Clone() scenario.Teacher {
	return &abrTeacher{agent: t.agent.Clone(), params: t.params}
}

// Model implements scenario.Teacher.
func (t *abrTeacher) Model() any { return t.agent }

// abrScenario is the paper's flagship local system: Pensieve adaptive
// bitrate selection distilled into a decision tree.
type abrScenario struct{}

func (abrScenario) Name() string { return "abr" }

func (abrScenario) Describe() string {
	return "Pensieve ABR teacher on HSDPA-like traces, DAgger-distilled into a bitrate decision tree"
}

func (abrScenario) Fingerprint(cfg scenario.Config) string {
	return fmt.Sprintf("abr/%s/%+v", cfg.Scale, abrScales[cfg.Scale])
}

func (sc abrScenario) Train(cfg scenario.Config) (scenario.Teacher, error) {
	p, ok := abrScales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("abr: unknown scale %q", cfg.Scale)
	}
	t := &abrTeacher{agent: new(pensieve.Agent), params: p}
	if !cfg.LoadCachedTeacher("abr", sc.Fingerprint(cfg), t.agent) {
		t.agent = trainPensieve(t.train(), p.PretrainEps, p.FinetuneEps, p.VideoChunks+2, cfg.Workers)
		if err := cfg.SaveCachedTeacher("abr", sc.Fingerprint(cfg), t.agent); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (abrScenario) Distill(cfg scenario.Config, t scenario.Teacher) (scenario.Student, error) {
	at, ok := t.(*abrTeacher)
	if !ok {
		return nil, fmt.Errorf("abr: teacher is %T, not an abr teacher", t)
	}
	return abrStudent(DistillPensieve(cfg, at.train(), at.agent))
}

// Refit implements scenario.Refitter: one CART fit over the (possibly
// drift-augmented) corpus with the scale's distillation knobs — no rollouts,
// no teacher. On the unmodified cached corpus it reproduces the Distill
// student bit for bit.
func (abrScenario) Refit(cfg scenario.Config, ds *dataset.Table) (scenario.Student, error) {
	return abrStudent(refitPensieve(cfg, ds))
}

// abrTreeHeader titles the bitrate tree's summary.
const abrTreeHeader = "Metis+Pensieve bitrate tree"

// abrStudent keeps a distillation's tree and fidelity as the scenario's
// student; its corpus is not kept.
func abrStudent(res *dtree.DistillResult, err error) (scenario.Student, error) {
	if err != nil {
		return nil, err
	}
	return &treeStudent{tree: res.Tree, fidelity: res.Fidelity, header: abrTreeHeader}, nil
}

// DistillPensieve distils a Pensieve agent on env with the §3.2 recipe at
// cfg's scale. It is the one abr distillation: the scenario's Distill
// stage and the figure harnesses both call it, so they share the tree and
// the corpus cached in cfg.CacheDir.
//
// A cached corpus (the final DAgger aggregate with its fitting weights,
// stored as a dataset artifact) skips rollout collection entirely:
// refitting on the bit-identical table reproduces the final CART fit, and
// therefore the tree, bit for bit. Otherwise DAgger runs and its corpus is
// saved.
func DistillPensieve(cfg scenario.Config, env *abr.Env, agent *pensieve.Agent) (*dtree.DistillResult, error) {
	fp := abrScenario{}.Fingerprint(cfg)
	if ds, ok := cfg.LoadCachedDataset("abr", fp); ok {
		return refitPensieve(cfg, ds)
	}
	p, ok := abrScales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("abr: unknown scale %q", cfg.Scale)
	}
	res, err := dtree.DistillPolicy(env, agent, PensieveDistillConfig(p, cfg.Workers))
	if err != nil {
		return nil, err
	}
	if err := cfg.SaveCachedDataset("abr", fp, res.Data); err != nil {
		return nil, err
	}
	return res, nil
}

// refitPensieve is one CART fit of ds with the scale's distillation knobs.
// The result carries the tree, its (unweighted) fidelity on ds — what
// DistillPolicy reports — and ds itself as Data.
func refitPensieve(cfg scenario.Config, ds *dataset.Table) (*dtree.DistillResult, error) {
	p, ok := abrScales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("abr: unknown scale %q", cfg.Scale)
	}
	tree, err := dtree.FitTable(ds, PensieveDistillConfig(p, cfg.Workers))
	if err != nil {
		return nil, err
	}
	return &dtree.DistillResult{Tree: tree, Fidelity: dtree.TableFidelity(tree, ds), DatasetSize: ds.Len(), Data: ds}, nil
}

func (abrScenario) Evaluate(cfg scenario.Config, t scenario.Teacher, s scenario.Student) ([]scenario.Metric, error) {
	at, ok := t.(*abrTeacher)
	if !ok {
		return nil, fmt.Errorf("abr: teacher is %T, not an abr teacher", t)
	}
	ts, ok := s.(*treeStudent)
	if !ok {
		return nil, fmt.Errorf("abr: student is %T, not a tree student", s)
	}
	p := at.params
	heldout := at.heldout()
	teacherQoE := stats.Mean(abr.RunTraces(heldout, at.agent.Selector(), p.EvalTraces))
	studentQoE := stats.Mean(abr.RunTraces(heldout, abr.PolicySelector(ts.tree.Predict), p.EvalTraces))
	return []scenario.Metric{
		{Name: "teacher_qoe", Value: teacherQoE},
		{Name: "student_qoe", Value: studentQoE},
		{Name: "fidelity", Value: ts.fidelity},
		{Name: "leaves", Value: float64(ts.tree.NumLeaves())},
		{Name: "depth", Value: float64(ts.tree.Depth())},
		{Name: "tree_bytes", Value: float64(ts.tree.SizeBytes())},
	}, nil
}
