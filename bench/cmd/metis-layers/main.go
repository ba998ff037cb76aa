// Command metis-layers times the serving and pipeline layers one at a time,
// by calling each layer's exported functions on one workload's own
// requests, and prints one `name value unit` line per layer metric.
// metis-bench runs it for -trace 1. It is a binary of its own so that a
// change to a layer's exported surface can break only the per-layer report,
// never the gated end-to-end run.
//
// Serving layers are timed on the workload's request pool; distill serves
// nothing, so for it they use the mixed-features pool, which reaches every
// served model. Pipeline layers run every scenario in process: once cold
// (teacher training) and once with cached teachers (what a sweep repeats).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	metis "repro"
	"repro/bench/workload"
	"repro/internal/chash"
	"repro/internal/histo"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/shadow"
	"repro/internal/shmring"
)

func main() {
	name := flag.String("workload", "", "workload whose requests the serving layers are timed on")
	seed := flag.Int64("seed", 1, "seed of the request pool")
	cache := flag.String("cache", "", "fixture cache directory (teachers and corpora)")
	models := flag.String("models", "", "fixture student directory")
	work := flag.String("work", "", "scratch directory")
	flag.Parse()
	if err := run(*name, *seed, *cache, *models, *work); err != nil {
		fmt.Fprintln(os.Stderr, "metis-layers:", err)
		os.Exit(1)
	}
}

// emit prints one layer metric.
func emit(name string, v float64, unit string) {
	fmt.Printf("%s %s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

// reps and minRep shape every micro-timing: the median of reps
// repetitions, each looping over the whole pool for at least minRep.
const (
	reps   = 5
	minRep = 40 * time.Millisecond
)

// perItem returns the median nanoseconds per item of fn, which processes
// items items per call.
func perItem(items int, fn func()) float64 {
	samples := make([]float64, reps)
	for r := range samples {
		start := time.Now()
		calls := 0
		for calls == 0 || time.Since(start) < minRep {
			fn()
			calls++
		}
		samples[r] = float64(time.Since(start)) / float64(calls*items)
	}
	return median(samples)
}

// timed returns the median duration of n calls of fn.
func timed(n int, fn func() error) (time.Duration, error) {
	samples := make([]float64, n)
	for i := range samples {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(start))
	}
	return time.Duration(median(samples)), nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func run(name string, seed int64, cache, models, work string) error {
	spec, err := workload.Lookup(name)
	if err != nil {
		return err
	}
	if !spec.Serving {
		if spec, err = workload.Lookup("mixed-features"); err != nil {
			return err
		}
	}
	fx, err := workload.LoadFixture(cache, models)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	serveDir := filepath.Join(work, "models")
	served := map[string]bool{workload.ABR + ".metis": true, workload.SRLA + ".metis": true, workload.LRLA + ".metis": true}
	if err := workload.CopyFiles(models, serveDir, func(n string) bool { return served[n] }); err != nil {
		return err
	}
	reqs := fx.Requests(spec, seed)
	if err := servingLayers(spec, fx, reqs, seed, serveDir, nproc); err != nil {
		return err
	}
	return pipelineLayers(fx, work, nproc)
}

// servingLayers times every layer a predict request crosses.
func servingLayers(spec workload.Spec, fx *workload.Fixture, reqs []workload.Request, seed int64, serveDir string, nproc int) error {
	n := len(reqs)
	var buf bytes.Buffer
	payloads := make([][]byte, n)
	responses := make([][]byte, n)
	preds := make([]serve.Prediction, n)
	for i, r := range reqs {
		preds[i] = serve.Prediction{Model: r.Model, Actions: r.Actions, Values: r.Values}
		buf.Reset()
		if err := serve.EncodeBatchRequest(&buf, r.Model, r.Rows); err != nil {
			return err
		}
		payloads[i] = slices.Clone(buf.Bytes())
		buf.Reset()
		if err := serve.EncodeBatchResponse(&buf, &preds[i]); err != nil {
			return err
		}
		responses[i] = slices.Clone(buf.Bytes())
	}

	// Codec, both directions, as the client and the daemon run it.
	emit("client.encode_ns", perItem(n, func() {
		for _, r := range reqs {
			buf.Reset()
			serve.EncodeBatchRequest(&buf, r.Model, r.Rows)
		}
	}), "ns")
	emit("codec.decode_ns", perItem(n, func() {
		for _, p := range payloads {
			serve.DecodeBatchRequest(bytes.NewReader(p), serve.DefaultMaxBatch)
		}
	}), "ns")
	emit("codec.encode_ns", perItem(n, func() {
		for i := range preds {
			buf.Reset()
			serve.EncodeBatchResponse(&buf, &preds[i])
		}
	}), "ns")
	emit("client.decode_ns", perItem(n, func() {
		for _, p := range responses {
			serve.DecodeBatchResponse(bytes.NewReader(p))
		}
	}), "ns")

	// One request through a ring, producer and consumer in turn.
	seg, err := shmring.NewInMemory(shmring.DefaultGeometry())
	if err != nil {
		return err
	}
	var id uint32
	emit("shmring.roundtrip_ns", perItem(n, func() {
		for _, p := range payloads {
			slot, _ := seg.Req.Reserve()
			skip := serve.SHMAlignSkip(p)
			copy(slot[skip:skip+len(p)], p)
			seg.Req.PublishAt(id, skip, len(p))
			id++
			seg.Req.Peek()
			seg.Req.Advance()
		}
	}), "ns")

	// The tree walks, in the form the engine loads. Engines here run one
	// inference worker, so fanning a batch out cannot hide a layer's cost.
	eng, err := serve.NewEngine(serveDir, serve.Config{Workers: 1})
	if err != nil {
		return err
	}
	walk := map[string]float64{} // ns per row, by model
	for _, m := range eng.Models() {
		rows := fx.Requests(workload.Spec{Rows: spec.Rows, Mix: []workload.Share{{Model: m.Name, Weight: 1}}}, seed)
		if walk[m.Name], err = walkNS(m, rows); err != nil {
			return err
		}
	}
	emit("dtree.walk_ns_per_row", walk[workload.ABR], "ns")
	emit("dtree.walk_reg_ns_per_row", walk[workload.SRLA], "ns")

	// The engine around the walk.
	var pred serve.Prediction
	predict := perItem(n, func() {
		for _, r := range reqs {
			eng.PredictInto(r.Model, r.Rows, &pred)
		}
	})
	emit("engine.predict_ns", predict, "ns")
	var walks float64
	for _, r := range reqs {
		walks += walk[r.Model] * float64(len(r.Rows))
	}
	emit("engine.overhead_ns", predict-walks/float64(n), "ns")
	load, err := timed(reps, func() error { _, err := serve.NewEngine(serveDir, serve.Config{Workers: 1}); return err })
	if err != nil {
		return err
	}
	emit("engine.load_ms", float64(load)/1e6, "ms")
	reload, err := timed(reps, func() error { return eng.Reload("") })
	if err != nil {
		return err
	}
	emit("reload_ms", float64(reload)/1e6, "ms")

	h := histo.New()
	rng := rand.New(rand.NewSource(seed))
	lat := make([]int64, 4096)
	for i := range lat {
		lat[i] = 1000 + rng.Int63n(1_000_000)
	}
	emit("histo.record_ns", perItem(len(lat), func() {
		for _, v := range lat {
			h.Record(v)
		}
	}), "ns")

	// Routing, sharding and admission, as the mixed-features daemon runs
	// them.
	ring, err := chash.New([]string{"shard-0", "shard-1"}, 0)
	if err != nil {
		return err
	}
	emit("chash.lookup_ns", perItem(n, func() {
		for _, r := range reqs {
			ring.Lookup(r.Model)
		}
	}), "ns")
	sharded, err := serve.NewShardedEngine(serveDir, serve.Config{Workers: 1, Shards: 2})
	if err != nil {
		return err
	}
	emit("shard.predict_ns", perItem(n, func() {
		for _, r := range reqs {
			sharded.PredictInto(r.Model, r.Rows, &pred)
		}
	}), "ns")
	tenants, err := serve.ParseTenantWeights(workload.ABR + ":3," + workload.SRLA + ":1")
	if err != nil {
		return err
	}
	gated, err := serve.NewShardedEngine(serveDir, serve.Config{Workers: 1, Shards: 2, Tenants: tenants, MaxInflight: 2})
	if err != nil {
		return err
	}
	emit("tenant.predict_contended_ns", contended(gated, reqs, 2*nproc), "ns")

	// The shadow mirror's per-request decision and copy, at the daemon's
	// sampling rate, with no scorer draining it (a full queue drops).
	mon := shadow.NewMonitor(eng, shadow.Options{Rate: 0.01, Seed: seed})
	for _, m := range eng.Models() {
		if !m.IsRegression() {
			if err := mon.Enroll(shadow.ModelConfig{Model: m.Name, Teacher: nopTeacher{}}); err != nil {
				return err
			}
		}
	}
	emit("shadow.observe_ns", perItem(n, func() {
		for _, r := range reqs {
			mon.Observe(r.Model, r.Rows, r.Actions)
		}
	}), "ns")
	return nil
}

// walkNS returns the per-row cost of m's tree walk alone, on one worker,
// in the form the engine serves it.
func walkNS(m *serve.Model, reqs []workload.Request) (float64, error) {
	rows := len(reqs[0].Rows)
	actions, values := make([]int, rows), make([][]float64, rows)
	var batch func(x [][]float64)
	switch q, c := m.Quantized, m.Compiled; {
	case q != nil && m.IsRegression():
		batch = func(x [][]float64) { q.PredictRegBatchInto(x, values, 1) }
	case q != nil:
		batch = func(x [][]float64) { q.PredictBatchInto(x, actions, 1) }
	case c != nil && m.IsRegression():
		batch = func(x [][]float64) {
			for i, row := range x {
				values[i] = c.PredictReg(row)
			}
		}
	case c != nil:
		batch = func(x [][]float64) {
			for i, row := range x {
				actions[i] = c.Predict(row)
			}
		}
	default:
		return 0, fmt.Errorf("model %s has no tree the engine walks", m.Name)
	}
	return perItem(len(reqs)*rows, func() {
		for _, r := range reqs {
			batch(r.Rows)
		}
	}), nil
}

// nopTeacher stands in for a teacher the timed mirror never queries.
type nopTeacher struct{}

func (nopTeacher) Query([]float64) []float64 { return nil }

// contended returns the mean latency of PredictInto calls made by callers
// goroutines at once (the median over reps rounds of minRep each).
func contended(e *serve.ShardedEngine, reqs []workload.Request, callers int) float64 {
	samples := make([]float64, reps)
	for rep := range samples {
		var wg sync.WaitGroup
		sums := make([]time.Duration, callers)
		counts := make([]int, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var p serve.Prediction
				end := time.Now().Add(minRep)
				for i := c; time.Now().Before(end); i++ {
					r := &reqs[i%len(reqs)]
					t0 := time.Now()
					e.PredictInto(r.Model, r.Rows, &p)
					sums[c] += time.Since(t0)
					counts[c]++
				}
			}()
		}
		wg.Wait()
		var sum time.Duration
		var count int
		for c := range sums {
			sum += sums[c]
			count += counts[c]
		}
		samples[rep] = float64(sum) / float64(max(count, 1))
	}
	return median(samples)
}

// pipelineLayers runs every scenario in process twice: cold, where
// teacher training shows, then with the cached teachers alone, which is
// what each distill sweep repeats.
func pipelineLayers(fx *workload.Fixture, work string, nproc int) error {
	cache := filepath.Join(work, "pipeline-cache")
	cfg := metis.ScenarioConfig{Scale: scenario.ScaleTest, Workers: nproc, CacheDir: cache, OutDir: filepath.Join(work, "pipeline-out")}
	var train time.Duration
	for _, name := range metis.Scenarios() {
		rep, err := metis.RunScenario(name, cfg)
		if err != nil {
			return err
		}
		train += rep.TrainDur
	}
	emit("nn.teacher_train_s", train.Seconds(), "s")
	if err := workload.RemoveCorpora(cache); err != nil {
		return err
	}
	for _, name := range metis.Scenarios() {
		start := time.Now()
		rep, err := metis.RunScenario(name, cfg)
		if err != nil {
			return err
		}
		emit("scenario."+name+"_s", time.Since(start).Seconds(), "s")
		if name == "routenet" {
			// The routenet student is the critical-connection mask: its
			// distill stage is exactly mask.Search.
			emit("mask.search_s", rep.DistillDur.Seconds(), "s")
		}
	}

	// CART alone: the abr student refit from the fixture's DAgger corpus.
	sc, ok := scenario.Get("abr")
	refitter, isRefitter := sc.(scenario.Refitter)
	if !ok || !isRefitter || fx.Corpus[workload.ABR] == nil {
		return errors.New("abr scenario cannot refit from a cached corpus")
	}
	cart, err := timed(3, func() error { _, err := refitter.Refit(cfg, fx.Corpus[workload.ABR]); return err })
	if err != nil {
		return err
	}
	emit("dtree.cart_build_s", cart.Seconds(), "s")
	return nil
}
