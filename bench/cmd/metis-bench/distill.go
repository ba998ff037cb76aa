package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/bench/workload"
)

// coldRuns is how many cold sweeps (teacher training included) distill's
// setup_s is the median of; the fixture's own sweep is the first.
const coldRuns = 5

// runDistill reruns the distillation pipeline for the measured seconds with
// a teacher-only cache, so every sweep repeats DAgger rollouts, CART,
// evaluation and mask search but no teacher training.
//
// Every sweep's student payloads must be bit-identical to those of the
// sweeps before it under the same command. The bytes of a cold sweep and a
// cached-teacher sweep differ (gob numbers types in the order a process
// first encodes them), so the cached sweeps are held to the first of them,
// and that one's trees must answer exactly as the fixture's.
func runDistill(ctx context.Context, e *env) (*result, error) {
	dir := filepath.Join(e.run, "distill")
	want, err := workload.StudentCRCs(e.fx.Models)
	if err != nil {
		return nil, err
	}
	res := &result{}
	verify := func(out string) error {
		got, err := workload.StudentCRCs(out)
		if err != nil {
			return err
		}
		res.attempted++
		if want == nil {
			same, err := e.fx.SameAnswers(out, e.seed)
			if err != nil {
				return err
			}
			if want = got; !same {
				res.wrong++
				res.notes = append(res.notes, fmt.Sprintf("trees in %s answer differently from the fixture's", out))
			}
			return nil
		}
		if !maps.Equal(got, want) {
			res.wrong++
			res.notes = append(res.notes, fmt.Sprintf("students in %s differ from the previous sweeps'", out))
		}
		return nil
	}

	setups := []float64{e.cold.Wall.Seconds()}
	for i := 1; i < coldRuns; i++ {
		d := filepath.Join(dir, fmt.Sprintf("cold%d", i))
		sw, err := workload.RunSweep(ctx, e.bin, filepath.Join(d, "cache"), filepath.Join(d, "models"), filepath.Join(d, "sweep.log"), e.nproc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sw.Wall.Seconds())
		if err := verify(filepath.Join(d, "models")); err != nil {
			return nil, err
		}
	}
	want = nil // the cached-teacher sweeps set their own reference

	cache, out := filepath.Join(dir, "cache"), filepath.Join(dir, "models")
	if err := workload.CopyFiles(e.fx.Cache, cache, func(n string) bool { return !workload.IsCorpus(n) }); err != nil {
		return nil, err
	}
	// sweeps runs sweeps until dur has passed (at least one), recording
	// each one's spans when tr is set.
	sweeps := func(dur time.Duration, tr *tracer) ([]workload.Sweep, []span, time.Duration, error) {
		var all []workload.Sweep
		var spans []span
		start := time.Now()
		for k := int64(0); len(all) == 0 || time.Since(start) < dur; k++ {
			t0 := time.Now()
			// Clear the last sweep's students too, so a sweep that writes
			// none cannot pass on its predecessor's files.
			if err := errors.Join(workload.RemoveCorpora(cache), os.RemoveAll(out)); err != nil {
				return nil, nil, 0, err
			}
			t1 := time.Now()
			sw, err := workload.RunSweep(ctx, e.bin, cache, out, filepath.Join(dir, "sweep.log"), e.nproc)
			if err != nil {
				return nil, nil, 0, err
			}
			t2 := time.Now()
			if err := verify(out); err != nil {
				return nil, nil, 0, err
			}
			all = append(all, sw)
			if tr != nil {
				spans = append(spans, tr.tree(k, "sweep", []string{"prepare", "exec", "verify"}, t0, t1, t2, time.Now())...)
			}
		}
		return all, spans, time.Since(start), nil
	}

	dur := time.Duration(e.seconds * float64(time.Second))
	if e.trace {
		dur /= 2
	}
	measured, _, elapsed, err := sweeps(dur, nil)
	if err != nil {
		return nil, err
	}
	var walls, rss []float64
	var cpu, wall time.Duration
	for _, sw := range measured {
		walls = append(walls, float64(sw.Wall))
		rss = append(rss, float64(sw.MaxRSSKB)/1024)
		cpu += sw.CPU
		wall += sw.Wall
	}
	p50 := quantile(walls, 0.5) / 1e3
	res.notes = append(res.notes, fmt.Sprintf("phase sweeps sent=%d ok=%d wrong=%d seconds=%.3f", len(measured), int64(len(measured))-res.wrong, res.wrong, elapsed.Seconds()))
	res.endToEnd(e.trace,
		metric{"rss_mb", median(rss), "MB"},
		metric{"setup_s", median(setups), "s"},
		metric{"p50_us", p50, "us"},
		metric{"p90_us", quantile(walls, 0.9) / 1e3, "us"},
		metric{"cpu_pct", 100 * float64(cpu) / float64(wall), "%"},
	)
	res.note("capacity_per_s", float64(len(measured))/elapsed.Seconds(), "1/s")
	res.note("sweep_s", p50/1e6, "s")
	res.note("sweeps", float64(len(measured)), "count")

	if e.trace {
		traced, spans, _, err := sweeps(dur, newTracer())
		if err != nil {
			return nil, err
		}
		var tracedWalls []float64
		for _, sw := range traced {
			tracedWalls = append(tracedWalls, float64(sw.Wall))
		}
		overhead := (quantile(tracedWalls, 0.5) - quantile(walls, 0.5)) / 1e9
		// A sweep is its scenarios, which metis-layers times one by one.
		onPath := func(layer string) bool { return strings.HasPrefix(layer, "scenario.") }
		if err := e.traceReport(ctx, "distill", res, spans, overhead, "s", onPath, 1, p50/1e6); err != nil {
			return nil, err
		}
	}
	res.note("error_rate", float64(res.wrong)/float64(res.attempted), "ratio")
	return res, nil
}
