package dtree

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/rl"
)

// DistillConfig configures the teacher-student conversion of §3.2.
type DistillConfig struct {
	// MaxLeaves is the target leaf budget after CCP pruning (paper default
	// 200 for Pensieve, 2000 for AuTO).
	MaxLeaves int
	// GrowFactor over-grows the tree before pruning (default 4×MaxLeaves).
	GrowFactor int
	// MinSamplesLeaf is the minimum weighted samples per leaf (default 2).
	MinSamplesLeaf float64
	// Iterations is the number of DAgger rounds: round 0 follows the
	// teacher, later rounds follow the current student and relabel with the
	// teacher (default 3). Step 1 of §3.2.
	Iterations int
	// EpisodesPerIter is how many episodes are collected per round
	// (default 20).
	EpisodesPerIter int
	// MaxSteps bounds episode length.
	MaxSteps int
	// Resample enables the Equation 1 advantage-based sample weighting
	// (requires the environment to implement rl.Snapshotter). Step 2.
	Resample bool
	// Gamma and QHorizon parameterize the Q estimation rollouts.
	Gamma    float64
	QHorizon int
	// Oversample maps action → minimum frequency; classes rarer than their
	// target get their sample weight boosted (the §6.3 debugging hook).
	Oversample map[int]float64
	// FeatureNames labels features on the resulting tree.
	FeatureNames []string
	// Seed drives all stochasticity.
	Seed int64
	// Workers bounds the goroutines used for DAgger episode collection and
	// CART fitting (0 = GOMAXPROCS, 1 = serial). Episode rollouts fan out
	// only when the environment implements rl.ClonableEnv and the teacher
	// implements rl.ClonablePolicy; otherwise collection stays serial and
	// only the tree fit parallelizes. Results are bit-identical for every
	// worker count: each episode is seeded independently and samples are
	// aggregated in episode order.
	Workers int
}

func (c *DistillConfig) defaults() {
	if c.MaxLeaves == 0 {
		c.MaxLeaves = 200
	}
	if c.GrowFactor == 0 {
		c.GrowFactor = 4
	}
	if c.MinSamplesLeaf == 0 {
		c.MinSamplesLeaf = 2
	}
	if c.Iterations == 0 {
		c.Iterations = 3
	}
	if c.EpisodesPerIter == 0 {
		c.EpisodesPerIter = 20
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1000
	}
	if c.Gamma == 0 {
		c.Gamma = 0.9
	}
	if c.QHorizon == 0 {
		c.QHorizon = 10
	}
}

// buildOptions maps the distillation knobs onto one CART fit.
func (c *DistillConfig) buildOptions() BuildOptions {
	return BuildOptions{
		MaxLeaves:      c.MaxLeaves * c.GrowFactor,
		MinSamplesLeaf: c.MinSamplesLeaf,
		FeatureNames:   c.FeatureNames,
		Workers:        c.Workers,
	}
}

// DistillResult is the outcome of a policy distillation.
type DistillResult struct {
	// Tree is the pruned student policy.
	Tree *Tree
	// UnprunedLeaves is the leaf count before CCP pruning.
	UnprunedLeaves int
	// DatasetSize is the number of aggregated (state, action) pairs.
	DatasetSize int
	// Fidelity is the student-teacher action agreement on the dataset.
	Fidelity float64
	// Data is the final aggregated training table (useful for debugging,
	// the Appendix E baselines, and dataset caching via the artifact
	// layer's dataset kind).
	Data *dataset.Table
}

// rolloutCtx is the per-worker state for DAgger episode collection: an
// environment instance and a teacher (plus its Q estimator) that are never
// shared across goroutines.
type rolloutCtx struct {
	env     rl.Env
	teacher rl.Policy
	q       *rl.QEstimator
}

// collectEpisode rolls one seeded episode into its own columnar table: the
// teacher labels every state, and after round 0 the student controls the
// rollout (DAgger) so the tree visits its own induced state distribution
// while the teacher provides corrective labels.
func collectEpisode(c *rolloutCtx, student *Tree, iter int, seed int64, cfg DistillConfig) *dataset.Table {
	s := c.env.Reset(seed)
	out := dataset.New(len(s))
	for step := 0; step < cfg.MaxSteps; step++ {
		label := rl.Greedy(c.teacher, s)
		w := 1.0
		if c.q != nil {
			w = c.q.Weight(c.env)
		}
		out.AppendRow(s, label, w)

		act := label
		if iter > 0 && student != nil {
			act = student.Predict(s)
		}
		next, _, done := c.env.Step(act)
		if done {
			break
		}
		s = next
	}
	return out
}

// rolloutPool builds one rolloutCtx per worker. Worker 0 always owns the
// caller's env/teacher; extra workers exist only when both the environment
// and the teacher can be cloned, so parallel collection is safe by
// construction and silently degrades to serial otherwise.
func rolloutPool(env rl.Env, teacher rl.Policy, q *rl.QEstimator, cfg DistillConfig) []*rolloutCtx {
	workers := parallel.Workers(cfg.Workers)
	if workers > cfg.EpisodesPerIter {
		workers = cfg.EpisodesPerIter
	}
	orig := &rolloutCtx{env: env, teacher: teacher, q: q}
	if workers <= 1 {
		return []*rolloutCtx{orig}
	}
	ce, okEnv := env.(rl.ClonableEnv)
	cp, okPol := teacher.(rl.ClonablePolicy)
	if !okEnv || !okPol {
		return []*rolloutCtx{orig}
	}
	return parallel.Pool(orig, workers, func() *rolloutCtx {
		wTeacher := cp.ClonePolicy()
		ctx := &rolloutCtx{env: ce.CloneEnv(), teacher: wTeacher}
		if q != nil {
			ctx.q = &rl.QEstimator{Policy: wTeacher, Gamma: cfg.Gamma, Horizon: cfg.QHorizon}
		}
		return ctx
	})
}

// DistillPolicy converts a discrete-action teacher policy into a decision
// tree by the paper's four-step recipe: trajectory collection with DAgger
// takeover, advantage resampling, CART fitting, and CCP pruning. Samples
// aggregate directly into one growing columnar table — episode tables are
// appended column-wise in episode order, so no row-major copy of the corpus
// is ever materialized and the result stays bit-identical at any worker
// count.
func DistillPolicy(env rl.Env, teacher rl.Policy, cfg DistillConfig) (*DistillResult, error) {
	cfg.defaults()

	var q *rl.QEstimator
	if cfg.Resample {
		if _, ok := env.(rl.Snapshotter); !ok {
			return nil, fmt.Errorf("dtree: Resample requires a Snapshotter environment")
		}
		q = &rl.QEstimator{Policy: teacher, Gamma: cfg.Gamma, Horizon: cfg.QHorizon}
	}

	pool := rolloutPool(env, teacher, q, cfg)
	var ds *dataset.Table
	var student *Tree

	for iter := 0; iter < cfg.Iterations; iter++ {
		// Episodes are independent given the (fixed) student of this round
		// and their per-episode seed, so they fan out across the pool; the
		// ordered append below keeps the aggregated table identical to a
		// serial run.
		episodes := make([]*dataset.Table, cfg.EpisodesPerIter)
		parallel.ForEachWorker(len(pool), cfg.EpisodesPerIter, func(w, ep int) {
			seed := cfg.Seed + int64(iter*cfg.EpisodesPerIter+ep)
			episodes[ep] = collectEpisode(pool[w], student, iter, seed, cfg)
		})
		for _, e := range episodes {
			if ds == nil {
				ds = dataset.New(e.NumFeatures())
			}
			ds.AppendTable(e)
		}
		grown, err := BuildTable(fittingView(ds, cfg.Oversample), cfg.buildOptions())
		if err != nil {
			return nil, err
		}
		student = grown.PruneToLeaves(cfg.MaxLeaves)
	}

	final := fittingView(ds, cfg.Oversample)
	grown, err := BuildTable(final, cfg.buildOptions())
	if err != nil {
		return nil, err
	}
	res := &DistillResult{
		UnprunedLeaves: grown.NumLeaves(),
		DatasetSize:    ds.Len(),
		Data:           final,
	}
	res.Tree = grown.PruneToLeaves(cfg.MaxLeaves)
	res.Fidelity = TableFidelity(res.Tree, ds)
	return res, nil
}

// TableFidelity is the fraction of a table's samples on which the tree
// reproduces the recorded label.
func TableFidelity(t *Tree, ds *dataset.Table) float64 {
	if ds.Len() == 0 {
		return 0
	}
	agree := 0
	buf := make([]float64, ds.NumFeatures())
	for i := 0; i < ds.Len(); i++ {
		if t.Predict(ds.Row(i, buf)) == ds.Label(i) {
			agree++
		}
	}
	return float64(agree) / float64(ds.Len())
}

// fittingView returns a zero-copy view of ds carrying normalized,
// oversample-boosted weights. Raw advantage weights stay untouched in ds so
// that repeated DAgger rounds never re-normalize an already-normalized mix.
func fittingView(ds *dataset.Table, oversample map[int]float64) *dataset.Table {
	var w []float64
	if ds.Weights() != nil {
		w = append([]float64(nil), ds.Weights()...)
	}
	normalizeWeights(w)
	w = applyOversample(w, ds.Labels(), oversample)
	return ds.WithWeights(w)
}

// normalizeWeights rescales weights in place to mean 1 and winsorizes the
// tails. Advantage weights (Q-range estimates) are heavy-tailed: a handful
// of catastrophic states (e.g. rebuffering cliffs) can carry weights two
// orders of magnitude above typical ones, which after mean normalization
// pushes typical weights toward zero and starves tree growth through the
// weighted MinSamplesLeaf constraint. Clipping to [0.1, 20]× the median
// keeps the prioritization while bounding the skew.
func normalizeWeights(ws []float64) {
	if len(ws) == 0 {
		return
	}
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	if sum <= 0 {
		for i := range ws {
			ws[i] = 1
		}
		return
	}
	// Scale by the median, not the mean: the mean is dominated by the few
	// catastrophic-state outliers, which would push typical weights to the
	// clip floor.
	sorted := append([]float64(nil), ws...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	if med <= 0 {
		med = sum / float64(len(ws))
	}
	sum = 0
	for i := range ws {
		w := ws[i] / med
		if w < 0.1 {
			w = 0.1
		}
		if w > 20 {
			w = 20
		}
		ws[i] = w
		sum += w
	}
	// Re-center to mean 1 after clipping so MinSamplesLeaf keeps its
	// "effective samples" interpretation.
	mean := sum / float64(len(ws))
	for i := range ws {
		ws[i] /= mean
	}
}

// applyOversample boosts the weights of under-represented classes so that
// each class listed in targets reaches at least its target weighted
// frequency — the §6.3 fix for Pensieve's abandoned bitrates. It returns
// the (possibly newly materialized) weight slice.
func applyOversample(ws []float64, y []int, targets map[int]float64) []float64 {
	if len(targets) == 0 {
		return ws
	}
	if ws == nil {
		ws = make([]float64, len(y))
		for i := range ws {
			ws[i] = 1
		}
	}
	total := 0.0
	perClass := map[int]float64{}
	for i, label := range y {
		total += ws[i]
		perClass[label] += ws[i]
	}
	for class, target := range targets {
		c := perClass[class]
		if c <= 0 || c/total >= target || target >= 1 {
			continue
		}
		// Solve boost b such that b·c / (total − c + b·c) = target.
		boost := target * (total - c) / (c * (1 - target))
		for i, label := range y {
			if label == class {
				ws[i] *= boost
			}
		}
	}
	return ws
}

// FitDataset fits and prunes a tree on an already-collected row-major
// dataset; used for regression teachers (e.g. AuTO's sRLA thresholds) and
// offline studies.
func FitDataset(ds *Dataset, cfg DistillConfig) (*Tree, error) {
	t, err := ds.Table()
	if err != nil {
		return nil, err
	}
	return FitTable(t, cfg)
}

// FitTable is FitDataset on a columnar table (no conversion pass).
func FitTable(t *dataset.Table, cfg DistillConfig) (*Tree, error) {
	cfg.defaults()
	grown, err := BuildTable(t, cfg.buildOptions())
	if err != nil {
		return nil, err
	}
	return grown.PruneToLeaves(cfg.MaxLeaves), nil
}
