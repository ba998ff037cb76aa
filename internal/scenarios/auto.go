package scenarios

import (
	"fmt"
	"math"

	"repro/internal/auto"
	"repro/internal/dataset"
	"repro/internal/dcn"
	"repro/internal/metis/dtree"
	"repro/internal/scenario"
)

// LRLAParams are the per-scale knobs of the auto-lrla scenario. The figure
// harnesses take their lRLA teacher and tree from this scenario, and size
// their fabric runs with its FlowsPerRun.
type LRLAParams struct {
	FlowsPerRun, Generations int
	// DatasetRuns is how many teacher-in-the-loop fabric runs feed the
	// distillation set.
	DatasetRuns int
	MaxLeaves   int
	// EvalFlows sizes the head-to-head fabric comparison.
	EvalFlows int
}

var lrlaScales = map[string]LRLAParams{
	scenario.ScaleTiny: {FlowsPerRun: 60, Generations: 2, DatasetRuns: 1, MaxLeaves: 200, EvalFlows: 120},
	scenario.ScaleTest: {FlowsPerRun: 250, Generations: 6, DatasetRuns: 3, MaxLeaves: 2000, EvalFlows: 250},
	scenario.ScaleFull: {FlowsPerRun: 600, Generations: 25, DatasetRuns: 8, MaxLeaves: 2000, EvalFlows: 600},
}

// LRLAScale returns the auto-lrla scenario's knobs at the named scale (the
// zero value for an unknown scale).
func LRLAScale(scale string) LRLAParams { return lrlaScales[scale] }

// seedEvalFlows is the canonical workload seed for the head-to-head fabric
// run that compares teacher and student.
const seedEvalFlows = 99

// lrlaTeacher wraps the trained long-flow agent.
type lrlaTeacher struct {
	l      *auto.LRLA
	params LRLAParams
}

// Query implements scenario.Teacher: the priority distribution.
func (t *lrlaTeacher) Query(in []float64) []float64 { return t.l.ActionProbs(in) }

// Clone implements scenario.Teacher.
func (t *lrlaTeacher) Clone() scenario.Teacher { return &lrlaTeacher{l: t.l.Clone(), params: t.params} }

// Model implements scenario.Teacher.
func (t *lrlaTeacher) Model() any { return t.l }

// agentFunc adapts a decision function to dcn.Agent.
type agentFunc func([]float64) int

// Decide implements dcn.Agent.
func (f agentFunc) Decide(state []float64) int { return f(state) }

// lrlaScenario is AuTO's long-flow scheduling agent distilled into a
// priority decision tree.
type lrlaScenario struct{}

func (lrlaScenario) Name() string { return "auto-lrla" }

func (lrlaScenario) Describe() string {
	return "AuTO lRLA long-flow scheduler on the fabric simulator, distilled into a priority decision tree"
}

func (lrlaScenario) Fingerprint(cfg scenario.Config) string {
	return fmt.Sprintf("auto-lrla/%s/%+v", cfg.Scale, lrlaScales[cfg.Scale])
}

func (sc lrlaScenario) Train(cfg scenario.Config) (scenario.Teacher, error) {
	p, ok := lrlaScales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("auto-lrla: unknown scale %q", cfg.Scale)
	}
	l := new(auto.LRLA)
	if !cfg.LoadCachedTeacher("auto-lrla", sc.Fingerprint(cfg), l) {
		l = trainAuTOLRLA(p.FlowsPerRun, p.Generations)
		if err := cfg.SaveCachedTeacher("auto-lrla", sc.Fingerprint(cfg), l); err != nil {
			return nil, err
		}
	}
	return &lrlaTeacher{l: l, params: p}, nil
}

// lrlaTreeHeader titles the priority tree's summary.
const lrlaTreeHeader = "Metis+AuTO priority tree"

func (sc lrlaScenario) Distill(cfg scenario.Config, t scenario.Teacher) (scenario.Student, error) {
	lt, ok := t.(*lrlaTeacher)
	if !ok {
		return nil, fmt.Errorf("auto-lrla: teacher is %T, not an lrla teacher", t)
	}
	p := lt.params
	// A cached corpus skips the teacher-in-the-loop fabric runs: refitting
	// on the bit-identical table reproduces the student bit for bit, and the
	// continuous-distillation loop can refit it online.
	if ds, ok := cfg.LoadCachedDataset("auto-lrla", sc.Fingerprint(cfg)); ok {
		return sc.Refit(cfg, ds)
	}
	tree, ds, err := distillLRLATree(lt.l, p.DatasetRuns, p.MaxLeaves, cfg.Workers)
	if err != nil {
		return nil, err
	}
	if err := cfg.SaveCachedDataset("auto-lrla", sc.Fingerprint(cfg), ds); err != nil {
		return nil, err
	}
	return &treeStudent{tree: tree, fidelity: classifierFidelity(tree, ds), header: lrlaTreeHeader}, nil
}

// Refit implements scenario.Refitter: one CART fit over the corpus with the
// scale's leaf budget.
func (lrlaScenario) Refit(cfg scenario.Config, ds *dataset.Table) (scenario.Student, error) {
	p, ok := lrlaScales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("auto-lrla: unknown scale %q", cfg.Scale)
	}
	tree, err := dtree.FitTable(ds, dtree.DistillConfig{
		MaxLeaves: p.MaxLeaves, FeatureNames: auto.LongFlowStateNames(), Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &treeStudent{tree: tree, fidelity: classifierFidelity(tree, ds), header: lrlaTreeHeader}, nil
}

func (lrlaScenario) Evaluate(cfg scenario.Config, t scenario.Teacher, s scenario.Student) ([]scenario.Metric, error) {
	lt, ok := t.(*lrlaTeacher)
	if !ok {
		return nil, fmt.Errorf("auto-lrla: teacher is %T, not an lrla teacher", t)
	}
	ts, ok := s.(*treeStudent)
	if !ok {
		return nil, fmt.Errorf("auto-lrla: student is %T, not a tree student", s)
	}
	p := lt.params
	run := func(agent dcn.Agent) dcn.FCTStats {
		fl := dcn.GenerateFlows(dcn.WebSearch, p.EvalFlows, 16, dcn.DefaultCapBps, 0.6, seedEvalFlows)
		fab := dcn.NewFabric(dcn.Config{LongFlowAgent: agent})
		fab.Run(fl)
		return dcn.ComputeFCTStats(fl)
	}
	teacher := run(lt.l)
	student := run(agentFunc(ts.tree.Predict))
	return []scenario.Metric{
		{Name: "teacher_fct_mean", Value: 1000 * teacher.Mean, Unit: "ms"},
		{Name: "student_fct_mean", Value: 1000 * student.Mean, Unit: "ms"},
		{Name: "teacher_fct_p99", Value: 1000 * teacher.P99, Unit: "ms"},
		{Name: "student_fct_p99", Value: 1000 * student.P99, Unit: "ms"},
		{Name: "fidelity", Value: ts.fidelity},
		{Name: "leaves", Value: float64(ts.tree.NumLeaves())},
	}, nil
}

// srlaParams are the per-scale knobs of the auto-srla scenario.
type srlaParams struct {
	FlowsPerRun, Generations int
	// DatasetSamples is how many workload states feed the regression set.
	DatasetSamples int
	MaxLeaves      int
	// EvalSamples sizes the held-out RMSE measurement.
	EvalSamples int
}

var srlaScales = map[string]srlaParams{
	scenario.ScaleTiny: {FlowsPerRun: 60, Generations: 2, DatasetSamples: 14, MaxLeaves: 40, EvalSamples: 7},
	scenario.ScaleTest: {FlowsPerRun: 250, Generations: 6, DatasetSamples: 60, MaxLeaves: 200, EvalSamples: 21},
	scenario.ScaleFull: {FlowsPerRun: 600, Generations: 25, DatasetSamples: 60, MaxLeaves: 200, EvalSamples: 21},
}

// seedSRLAHeldout draws the held-out threshold-regression states.
const seedSRLAHeldout = 133

// srlaTeacher wraps the trained short-flow threshold agent.
type srlaTeacher struct {
	s      *auto.SRLA
	params srlaParams
}

// Query implements scenario.Teacher: the MLFQ thresholds for a workload
// state.
func (t *srlaTeacher) Query(in []float64) []float64 { return t.s.Thresholds(in) }

// Clone implements scenario.Teacher.
func (t *srlaTeacher) Clone() scenario.Teacher { return &srlaTeacher{s: t.s.Clone(), params: t.params} }

// Model implements scenario.Teacher.
func (t *srlaTeacher) Model() any { return t.s }

// srlaScenario is AuTO's short-flow threshold agent distilled into a
// regression tree.
type srlaScenario struct{}

func (srlaScenario) Name() string { return "auto-srla" }

func (srlaScenario) Describe() string {
	return "AuTO sRLA MLFQ-threshold agent, distilled into a threshold regression tree"
}

func (srlaScenario) Fingerprint(cfg scenario.Config) string {
	return fmt.Sprintf("auto-srla/%s/%+v", cfg.Scale, srlaScales[cfg.Scale])
}

func (sc srlaScenario) Train(cfg scenario.Config) (scenario.Teacher, error) {
	p, ok := srlaScales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("auto-srla: unknown scale %q", cfg.Scale)
	}
	s := new(auto.SRLA)
	if !cfg.LoadCachedTeacher("auto-srla", sc.Fingerprint(cfg), s) {
		s = trainAuTOSRLA(p.FlowsPerRun, p.Generations)
		if err := cfg.SaveCachedTeacher("auto-srla", sc.Fingerprint(cfg), s); err != nil {
			return nil, err
		}
	}
	return &srlaTeacher{s: s, params: p}, nil
}

func (srlaScenario) Distill(cfg scenario.Config, t scenario.Teacher) (scenario.Student, error) {
	st, ok := t.(*srlaTeacher)
	if !ok {
		return nil, fmt.Errorf("auto-srla: teacher is %T, not an srla teacher", t)
	}
	p := st.params
	tree, _, err := distillSRLATree(st.s, p.DatasetSamples, p.MaxLeaves, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return &treeStudent{tree: tree, fidelity: -1, header: "Metis+AuTO threshold tree"}, nil
}

func (srlaScenario) Evaluate(cfg scenario.Config, t scenario.Teacher, s scenario.Student) ([]scenario.Metric, error) {
	st, ok := t.(*srlaTeacher)
	if !ok {
		return nil, fmt.Errorf("auto-srla: teacher is %T, not an srla teacher", t)
	}
	ts, ok := s.(*treeStudent)
	if !ok {
		return nil, fmt.Errorf("auto-srla: student is %T, not a tree student", s)
	}
	p := st.params
	// Held-out workload states: RMSE between the tree's log10 thresholds
	// and the teacher's.
	states, targets := auto.CollectSRLADataset(st.s, dcn.WebSearch, p.EvalSamples, seedSRLAHeldout)
	sse, n := 0.0, 0
	for i, x := range states {
		pred := ts.tree.PredictReg(x)
		for k := range targets[i] {
			d := pred[k] - targets[i][k]
			sse += d * d
			n++
		}
	}
	rmse := 0.0
	if n > 0 {
		rmse = math.Sqrt(sse / float64(n))
	}
	return []scenario.Metric{
		{Name: "rmse_log10_threshold", Value: rmse},
		{Name: "eval_states", Value: float64(len(states))},
		{Name: "leaves", Value: float64(ts.tree.NumLeaves())},
		{Name: "depth", Value: float64(ts.tree.Depth())},
	}, nil
}
