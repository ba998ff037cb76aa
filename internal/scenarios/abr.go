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

// abrParams are the per-scale knobs of the abr scenario. Test and full
// mirror the experiment fixture's scales, so a pipeline teacher matches a
// figure teacher bit for bit.
type abrParams struct {
	NumTraces, TraceSeconds, VideoChunks int
	PretrainEps, FinetuneEps, EvalTraces int
	DistillEps, DistillIters, TreeLeaves int
}

var abrScales = map[string]abrParams{
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

// abrTeacher wraps the trained Pensieve agent plus the lazily built
// environments the pipeline stages share (the pipeline drives stages
// sequentially, so memoizing here avoids re-synthesizing the trace sets in
// every stage).
type abrTeacher struct {
	agent  *pensieve.Agent
	params abrParams

	trainEnv, heldoutEnv *abr.Env
}

// train returns the memoized training environment.
func (t *abrTeacher) train() *abr.Env {
	if t.trainEnv == nil {
		t.trainEnv = ABRTrainEnv(t.params.NumTraces, t.params.TraceSeconds, t.params.VideoChunks)
	}
	return t.trainEnv
}

// heldout returns the memoized held-out environment.
func (t *abrTeacher) heldout() *abr.Env {
	if t.heldoutEnv == nil {
		t.heldoutEnv = ABRHeldoutEnv(t.params.NumTraces, t.params.TraceSeconds, t.params.VideoChunks)
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
	t := &abrTeacher{agent: pensieve.NewAgent(seedPensieveAgent, false), params: p}
	if !cfg.LoadCachedTeacher("abr", sc.Fingerprint(cfg), t.agent) {
		t.agent = TrainPensieve(t.train(), p.PretrainEps, p.FinetuneEps, p.VideoChunks+2, cfg.Workers)
		if err := cfg.SaveCachedTeacher("abr", sc.Fingerprint(cfg), t.agent); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (sc abrScenario) Distill(cfg scenario.Config, t scenario.Teacher) (scenario.Student, error) {
	at, ok := t.(*abrTeacher)
	if !ok {
		return nil, fmt.Errorf("abr: teacher is %T, not an abr teacher", t)
	}
	p := at.params
	dcfg := PensieveDistillConfig(p.TreeLeaves, p.DistillIters, p.DistillEps, p.VideoChunks+2, cfg.Workers)
	const header = abrTreeHeader

	// A cached corpus (the final DAgger aggregate with its fitting
	// weights, stored as a dataset artifact) skips rollout collection
	// entirely: refitting on the bit-identical table reproduces the final
	// CART fit — and therefore the student — bit for bit.
	if ds, ok := cfg.LoadCachedDataset("abr", sc.Fingerprint(cfg)); ok {
		tree, err := dtree.FitTable(ds, dcfg)
		if err != nil {
			return nil, err
		}
		return &treeStudent{tree: tree, fidelity: dtree.TableFidelity(tree, ds), header: header}, nil
	}
	res, err := dtree.DistillPolicy(at.train(), at.agent, dcfg)
	if err != nil {
		return nil, err
	}
	if err := cfg.SaveCachedDataset("abr", sc.Fingerprint(cfg), res.Data); err != nil {
		return nil, err
	}
	return &treeStudent{tree: res.Tree, fidelity: res.Fidelity, header: header}, nil
}

// abrTreeHeader titles the bitrate tree's summary.
const abrTreeHeader = "Metis+Pensieve bitrate tree"

// Refit implements scenario.Refitter: one CART fit over the (possibly
// drift-augmented) corpus with the scale's distillation knobs — no rollouts,
// no teacher. On the unmodified cached corpus it reproduces the Distill
// student bit for bit.
func (abrScenario) Refit(cfg scenario.Config, ds *dataset.Table) (scenario.Student, error) {
	p, ok := abrScales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("abr: unknown scale %q", cfg.Scale)
	}
	dcfg := PensieveDistillConfig(p.TreeLeaves, p.DistillIters, p.DistillEps, p.VideoChunks+2, cfg.Workers)
	tree, err := dtree.FitTable(ds, dcfg)
	if err != nil {
		return nil, err
	}
	return &treeStudent{tree: tree, fidelity: dtree.TableFidelity(tree, ds), header: abrTreeHeader}, nil
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
