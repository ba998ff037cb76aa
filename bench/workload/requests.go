package workload

import (
	"math/rand"
	"slices"

	"repro/internal/metis/dtree"
)

// Request is one pre-generated predict request with its reference answer.
type Request struct {
	Model string
	Rows  [][]float64
	// Actions (classification) or Values (regression) is the answer the
	// plain dtree.Tree gives for Rows.
	Actions []int
	Values  [][]float64
	// HTTP sends the request as HTTP binary instead of over the socket.
	HTTP bool
}

// PoolSize is how many distinct requests a workload cycles through: enough
// that no cache sees one request twice in a row, few enough that the pool
// stays a few MB at the bulk batch size.
func PoolSize(rows int) int { return max(64, min(4096, 1<<15/rows)) }

// Requests draws the workload's request pool from seed: the model of each
// request by the mix weights, its transport by HTTPShare, and its rows from
// the model's cached distillation corpus (the states the teacher actually
// visited, so walks take the paths real traffic takes) or, for a model
// without one, uniformly over the span of the tree's split thresholds.
func (f *Fixture) Requests(s Spec, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	var total float64
	for _, m := range s.Mix {
		total += m.Weight
	}
	spans := map[string][][2]float64{}
	reqs := make([]Request, PoolSize(s.Rows))
	for i := range reqs {
		model := pick(s.Mix, total, rng)
		tree := f.Trees[model]
		r := Request{Model: model, Rows: make([][]float64, s.Rows), HTTP: rng.Float64() < s.HTTPShare}
		for j := range r.Rows {
			if corpus := f.Corpus[model]; corpus != nil {
				r.Rows[j] = corpus.Row(rng.Intn(corpus.Len()), nil)
				continue
			}
			if spans[model] == nil {
				spans[model] = thresholdSpans(tree)
			}
			row := make([]float64, tree.NumFeatures)
			for k, sp := range spans[model] {
				row[k] = sp[0] + rng.Float64()*(sp[1]-sp[0])
			}
			r.Rows[j] = row
		}
		r.Actions, r.Values = Reference(tree, r.Rows)
		reqs[i] = r
	}
	return reqs
}

// pick draws one model of the mix by weight.
func pick(mix []Share, total float64, rng *rand.Rand) string {
	x := rng.Float64() * total
	for _, m := range mix {
		if x -= m.Weight; x < 0 {
			return m.Model
		}
	}
	return mix[len(mix)-1].Model
}

// Reference answers rows with the plain tree walk.
func Reference(t *dtree.Tree, rows [][]float64) (actions []int, values [][]float64) {
	if t.IsRegression() {
		values = make([][]float64, len(rows))
		for i, row := range rows {
			values[i] = slices.Clone(t.PredictReg(row))
		}
		return nil, values
	}
	actions = make([]int, len(rows))
	for i, row := range rows {
		actions[i] = t.Predict(row)
	}
	return actions, nil
}

// thresholdSpans returns, per feature, the range of the tree's split
// thresholds on it widened by a tenth on each side ([0, 1] for a feature the
// tree never splits on).
func thresholdSpans(t *dtree.Tree) [][2]float64 {
	lo := make([]float64, t.NumFeatures)
	hi := make([]float64, t.NumFeatures)
	seen := make([]bool, t.NumFeatures)
	var walk func(n *dtree.Node)
	walk = func(n *dtree.Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		f := n.Feature
		if !seen[f] || n.Threshold < lo[f] {
			lo[f] = n.Threshold
		}
		if !seen[f] || n.Threshold > hi[f] {
			hi[f] = n.Threshold
		}
		seen[f] = true
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	spans := make([][2]float64, t.NumFeatures)
	for f := range spans {
		if !seen[f] {
			spans[f] = [2]float64{0, 1}
			continue
		}
		pad := max(hi[f]-lo[f], 1e-3) / 10
		spans[f] = [2]float64{lo[f] - pad, hi[f] + pad}
	}
	return spans
}
