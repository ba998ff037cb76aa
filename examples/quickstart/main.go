// Quickstart: distill a toy teacher policy into an interpretable decision
// tree with the public metis API in under a minute.
//
// The "teacher" here is a hand-written policy (so the example runs
// instantly); swap in any trained rl.Policy — see examples/abr-interpretation
// for a real DNN teacher.
package main

import (
	"flag"
	"fmt"
	"path/filepath"

	metis "repro"
)

// buffers below 4 s are risky, above 12 s are safe: the teacher maps a
// two-feature state (buffer seconds, bandwidth Mbps) to one of three rates.
type teacher struct{}

func (teacher) ActionProbs(s []float64) []float64 {
	out := make([]float64, 3)
	switch {
	case s[0] < 4: // low buffer → lowest rate
		out[0] = 1
	case s[0] > 12 && s[1] > 2.5: // safe buffer and fast link → highest
		out[2] = 1
	default:
		out[1] = 1
	}
	return out
}

// env is a minimal sequential environment whose state wanders through
// (buffer, bandwidth) space.
type env struct {
	buf, bw float64
	step    int
}

func (e *env) Reset(seed int64) []float64 {
	e.buf = float64(uint64(seed)%16) + 0.5
	e.bw = 0.5 + float64(uint64(seed)%7)*0.7
	e.step = 0
	return e.state()
}

func (e *env) state() []float64 { return []float64{e.buf, e.bw} }

func (e *env) Step(a int) ([]float64, float64, bool) {
	e.step++
	e.buf += 1.3 - float64(a)
	if e.buf < 0 {
		e.buf = 0
	}
	if e.buf > 16 {
		e.buf = 16
	}
	e.bw += 0.37
	if e.bw > 5 {
		e.bw -= 5
	}
	return e.state(), 0, e.step >= 40
}

func (e *env) StateDim() int   { return 2 }
func (e *env) NumActions() int { return 3 }

func main() {
	save := flag.String("save", "", "write the distilled tree as a metis-serve artifact")
	name := flag.String("name", "quickstart", "model name recorded in the saved artifact's metadata")
	quantize := flag.Bool("quantize", false,
		"save the bin-quantized serving form (kind dtree/quantized) instead of the raw tree")
	flag.Parse()

	res, err := metis.Distill(&env{}, teacher{}, metis.DistillConfig{
		MaxLeaves:       8,
		Iterations:      2,
		EpisodesPerIter: 20,
		MaxSteps:        40,
		FeatureNames:    []string{"buffer_s", "bandwidth_Mbps"},
		Seed:            1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("distilled tree: %d leaves, fidelity %.1f%% on %d samples\n\n",
		res.Tree.NumLeaves(), 100*res.Fidelity, res.DatasetSize)
	fmt.Println(res.Tree.Rules(0))

	for _, probe := range [][]float64{{2, 1}, {8, 1}, {14, 4}} {
		fmt.Printf("state buffer=%.0fs bw=%.0fMbps → action %d\n",
			probe[0], probe[1], res.Tree.Predict(probe))
	}

	if *save != "" {
		meta := map[string]string{"name": *name}
		if *quantize {
			q, err := metis.Quantize(res.Tree)
			if err != nil {
				panic(err)
			}
			if err := metis.SaveQuantized(*save, q, meta); err != nil {
				panic(err)
			}
			fmt.Printf("\nsaved quantized artifact to %s — serve it with:\n  metis-serve -dir %s\n",
				*save, filepath.Dir(*save))
			return
		}
		if err := metis.SaveTree(*save, res.Tree, meta); err != nil {
			panic(err)
		}
		fmt.Printf("\nsaved tree artifact to %s — serve it with:\n  metis-serve -dir %s\n",
			*save, filepath.Dir(*save))
	}
}
