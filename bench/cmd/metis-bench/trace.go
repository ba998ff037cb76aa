package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// traceEvery is the sampling period of traced requests and sweeps: one in
// traceEvery records spans, which keeps a 20k req/s run's spans to a few MB.
const traceEvery = 16

// span is one traced interval. Spans of one request or sweep share Req;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer stamps spans relative to the start of the traced phase.
type tracer struct{ epoch time.Time }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) ns(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

// tree returns a root span named root over [marks[0], marks[len-1]] with one
// child per consecutive pair of marks, named by children.
func (tr *tracer) tree(k int64, root string, children []string, marks ...time.Time) []span {
	id := k * int64(len(children)+1)
	out := []span{{ID: id + 1, Req: k, Name: root, Start: tr.ns(marks[0]), End: tr.ns(marks[len(marks)-1])}}
	for i, name := range children {
		out = append(out, span{ID: id + int64(i) + 2, Parent: id + 1, Req: k, Name: name,
			Start: tr.ns(marks[i]), End: tr.ns(marks[i+1])})
	}
	return out
}

// request records one request's spans: queued in the generator from its due
// time to the send, in the client call, and in the benchmark's answer check.
func (tr *tracer) request(k int64, due, send, ret, done time.Time, rpc string) []span {
	return tr.tree(k, "request", []string{"queue", rpc, "verify"}, due, send, ret, done)
}

// selfTimes returns each span name's median self time in µs: the span's
// duration minus the part its children cover.
func selfTimes(spans []span) map[string]float64 {
	covered := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start-covered[s.ID])/1e3)
	}
	out := map[string]float64{}
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

// traceReport finishes a traced run. It writes the spans to a file,
// reports each span's self time and the tracing overhead (traced minus
// untraced p50, in overheadUnit), and sets res.metrics to the per-layer
// metrics: metis-layers' timings of this workload's layers plus
// unattributed_share = 1 − Σ layers on the path / whole, the share of the
// untraced p50 (whole, in the path metrics' unit times scale) that the
// layers do not explain.
func (e *env) traceReport(ctx context.Context, name string, res *result, spans []span, overhead float64, overheadUnit string, onPath func(layer string) bool, scale, whole float64) error {
	if err := os.MkdirAll(e.traces, 0o755); err != nil {
		return err
	}
	file := filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := writeSpans(file, spans); err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans %d written to %s", len(spans), file))
	res.note("trace.overhead_"+overheadUnit, overhead, overheadUnit)
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		res.note("trace.self."+n+"_us", self[n], "us")
	}

	layers, err := e.layers(ctx, name)
	if err != nil {
		return err
	}
	var attributed float64
	n := 0
	for _, m := range layers {
		res.metrics = append(res.metrics, m)
		if onPath(m.name) {
			attributed += m.value * scale
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("%w: no layer of the %s request path", errLayers, name)
	}
	slices.SortFunc(res.metrics, func(a, b metric) int { return strings.Compare(a.name, b.name) })
	res.metrics = append(res.metrics, metric{"unattributed_share", 1 - attributed/whole, "ratio"})
	return nil
}

func writeSpans(file string, spans []span) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers runs metis-layers for the workload and parses its `name value
// unit` lines.
func (e *env) layers(ctx context.Context, name string) (map[string]metric, error) {
	cmd := exec.CommandContext(ctx, e.exe("metis-layers"),
		"-workload", name, "-seed", strconv.FormatInt(e.seed, 10),
		"-cache", e.fx.Cache, "-models", e.fx.Models,
		"-work", filepath.Join(e.run, "layers-"+name))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %v: %s", errLayers, err, strings.TrimSpace(stderr.String()))
	}
	layers := map[string]metric{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad line %q", errLayers, line)
		}
		layers[f[0]] = metric{f[0], v, f[2]}
	}
	return layers, nil
}
