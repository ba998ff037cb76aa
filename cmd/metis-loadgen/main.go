// Command metis-loadgen drives a metis-serve endpoint with open-loop load
// and reports the latency distribution. Open-loop means arrivals follow a
// schedule (Poisson or fixed-rate) that does NOT slow down when the server
// does — latency is measured from each request's scheduled arrival, so queue
// wait under overload is part of the number, the way it is for real traffic.
//
// Quickstart against a local daemon:
//
//	metis-serve -dir models -uds /tmp/metis.sock &
//	metis-loadgen -addr unix:///tmp/metis.sock -rate 2000 -duration 5s
//
// The traffic mix defaults to every served model with equal weight; -models
// "abr:3,dcn:1" sends abr three times as often as dcn. Requests fan out over
// -workers goroutines sharing one SDK client (the client multiplexes over
// -conns pipelined socket connections); every request is a -batch row
// binary-codec batch of uniform random feature rows.
//
// Output is one "key value" pair per line (model_requests and hist_us carry
// two values), so a script can pick off p99 with awk:
//
//	requests_total 9983
//	throughput_preds_per_s 79432.1
//	latency_p50_us 412
//	latency_p99_us 1873
//	latency_p999_us 3541
//	hist_us 447 1021        ← count of requests with latency ≤ 447µs bucket
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/histo"
)

// config is the parsed command line.
type config struct {
	addr      string
	transport string
	models    string
	rate      float64
	arrival   string
	duration  time.Duration
	batch     int
	workers   int
	conns     int
	seed      int64
	jsonPath  string
}

// parseFlags parses args (not including the program name) into a config.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("metis-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", "unix:///tmp/metis.sock",
		"endpoint: unix:///path.sock for the framed socket, or an http:// base URL")
	fs.StringVar(&cfg.transport, "transport", "uds",
		"socket transport: uds (pipelined frames) or shm (negotiate shared-memory rings; needs a unix:// -addr and a server started with -shm)")
	fs.StringVar(&cfg.models, "models", "",
		"traffic mix as name[:weight],… (default: every served model, equal weight)")
	fs.Float64Var(&cfg.rate, "rate", 1000, "offered load in requests per second")
	fs.StringVar(&cfg.arrival, "arrival", "poisson", "arrival process: poisson or fixed")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "how long to offer load")
	fs.IntVar(&cfg.batch, "batch", 16, "rows per predict request")
	fs.IntVar(&cfg.workers, "workers", 8, "request-issuing goroutines")
	fs.IntVar(&cfg.conns, "conns", 2, "multiplexed socket connections (unix:// endpoints)")
	fs.Int64Var(&cfg.seed, "seed", 1, "RNG seed for arrivals, mix, and feature rows")
	fs.StringVar(&cfg.jsonPath, "json", "",
		"also write the report as a BENCH_LOADGEN-style JSON record to this path")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.transport != "uds" && cfg.transport != "shm" {
		return nil, fmt.Errorf("-transport must be uds or shm (got %q)", cfg.transport)
	}
	if cfg.transport == "shm" && !strings.HasPrefix(cfg.addr, "unix://") {
		return nil, errors.New("-transport shm requires a unix:// -addr (rings are negotiated over the socket)")
	}
	if cfg.rate <= 0 {
		return nil, fmt.Errorf("-rate must be positive (got %g)", cfg.rate)
	}
	if cfg.arrival != "poisson" && cfg.arrival != "fixed" {
		return nil, fmt.Errorf("-arrival must be poisson or fixed (got %q)", cfg.arrival)
	}
	if cfg.duration <= 0 {
		return nil, fmt.Errorf("-duration must be positive (got %v)", cfg.duration)
	}
	if cfg.batch <= 0 || cfg.workers <= 0 || cfg.conns <= 0 {
		return nil, fmt.Errorf("-batch, -workers, and -conns must be positive")
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return cfg, nil
}

// recordTransport names the transport the traffic rides: http for an
// http:// or https:// -addr, where -transport (which picks between the
// socket transports) does not apply, and -transport otherwise.
func (c *config) recordTransport() string {
	if strings.HasPrefix(c.addr, "http://") || strings.HasPrefix(c.addr, "https://") {
		return "http"
	}
	return c.transport
}

// mixEntry is one model in the traffic mix with its pre-generated request
// rows (shared read-only across workers) and live request count.
type mixEntry struct {
	name   string
	weight float64
	rows   [][]float64
	count  atomic.Int64
}

// parseMix splits "name[:weight],…" into (name, weight) pairs.
func parseMix(spec string) ([]mixEntry, error) {
	var out []mixEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		weight := 1.0
		if hasWeight {
			w, err := strconv.ParseFloat(weightStr, 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad weight in mix entry %q", part)
			}
			weight = w
		}
		out = append(out, mixEntry{name: name, weight: weight})
	}
	if len(out) == 0 {
		return nil, errors.New("empty -models mix")
	}
	return out, nil
}

// buildMix resolves the traffic mix against the server's model list and
// fills each entry's request rows with uniform random features of the
// model's width.
func buildMix(ctx context.Context, c *client.Client, cfg *config, rng *rand.Rand) ([]*mixEntry, error) {
	served, err := c.Models(ctx)
	if err != nil {
		return nil, fmt.Errorf("list models: %w", err)
	}
	width := make(map[string]int, len(served))
	for _, m := range served {
		width[m.Name] = m.Features
	}
	var mix []mixEntry
	if cfg.models == "" {
		for _, m := range served {
			mix = append(mix, mixEntry{name: m.Name, weight: 1})
		}
		if len(mix) == 0 {
			return nil, errors.New("server lists no models")
		}
	} else if mix, err = parseMix(cfg.models); err != nil {
		return nil, err
	}
	out := make([]*mixEntry, len(mix))
	for i := range mix {
		m := &mix[i]
		w, ok := width[m.name]
		if !ok {
			return nil, fmt.Errorf("model %q is not served", m.name)
		}
		m.rows = make([][]float64, cfg.batch)
		for r := range m.rows {
			row := make([]float64, w)
			for f := range row {
				row[f] = rng.Float64()
			}
			m.rows[r] = row
		}
		out[i] = m
	}
	return out, nil
}

// pickModel draws one mix entry by weight.
func pickModel(mix []*mixEntry, total float64, rng *rand.Rand) *mixEntry {
	x := rng.Float64() * total
	for _, m := range mix {
		if x -= m.weight; x < 0 {
			return m
		}
	}
	return mix[len(mix)-1]
}

// job is one scheduled arrival. Latency is measured from scheduled, not from
// when a worker got around to sending — that difference IS the queueing the
// open-loop model exists to expose.
type job struct {
	scheduled time.Time
	m         *mixEntry
}

// report is one finished run's numbers, decoupled from how they are
// rendered: writeText emits the "key value" lines scripts scrape, writeJSON
// the BENCH_LOADGEN record matching the BENCH_SERVE schema (date/go/results
// with a preds-per-second metric), so a CI run can diff load-generator
// throughput across PRs the same way it diffs the microbenchmarks.
type report struct {
	cfg     *config
	total   int
	failed  int64
	dropped int64
	elapsed time.Duration
	hist    *histo.Histogram
	mix     []*mixEntry
}

func (r *report) ok() int64 { return int64(r.hist.Count()) }

func (r *report) predsPerSec() float64 {
	return float64(r.ok()*int64(r.cfg.batch)) / r.elapsed.Seconds()
}

func (r *report) writeText(out io.Writer) {
	h := r.hist
	us := func(ns int64) int64 { return ns / 1e3 }
	fmt.Fprintf(out, "requests_total %d\n", r.total)
	fmt.Fprintf(out, "requests_ok %d\n", r.ok())
	fmt.Fprintf(out, "requests_failed %d\n", r.failed)
	fmt.Fprintf(out, "requests_dropped %d\n", r.dropped)
	fmt.Fprintf(out, "elapsed_s %.3f\n", r.elapsed.Seconds())
	fmt.Fprintf(out, "throughput_req_per_s %.1f\n", float64(r.ok())/r.elapsed.Seconds())
	fmt.Fprintf(out, "throughput_preds_per_s %.1f\n", r.predsPerSec())
	fmt.Fprintf(out, "latency_mean_us %.1f\n", h.Mean()/1e3)
	fmt.Fprintf(out, "latency_p50_us %d\n", us(h.Quantile(0.50)))
	fmt.Fprintf(out, "latency_p90_us %d\n", us(h.Quantile(0.90)))
	fmt.Fprintf(out, "latency_p99_us %d\n", us(h.Quantile(0.99)))
	fmt.Fprintf(out, "latency_p999_us %d\n", us(h.Quantile(0.999)))
	fmt.Fprintf(out, "latency_max_us %d\n", us(h.Max()))
	for _, m := range r.mix {
		fmt.Fprintf(out, "model_requests %s %d\n", m.name, m.count.Load())
	}
	for _, b := range h.Buckets() {
		fmt.Fprintf(out, "hist_us %d %d\n", us(b.Le), b.Count)
	}
}

// writeJSON renders the run as one result row in the benchmark-record shape
// bench.sh emits ({date, go, benchtime, results:[{name, iterations,
// ns_per_op, metrics…}]}): iterations is completed requests, ns_per_op the
// mean scheduled-to-done latency.
func (r *report) writeJSON(path string) error {
	h := r.hist
	us := func(ns int64) int64 { return ns / 1e3 }
	// The transport and the realized per-model mix are part of the record:
	// two runs are only comparable when both match, and the mix answers
	// whether weighted traffic actually split as configured.
	models := make(map[string]int64, len(r.mix))
	for _, m := range r.mix {
		models[m.name] = m.count.Load()
	}
	rec := map[string]any{
		"date":      time.Now().Format("2006-01-02"),
		"go":        runtime.Version(),
		"benchtime": r.cfg.duration.String(),
		"results": []map[string]any{{
			"name":       "LoadgenPredictBatch/" + r.cfg.recordTransport(),
			"iterations": r.ok(),
			"ns_per_op":  int64(h.Mean()),
			"preds/s":    r.predsPerSec(),
			"req/s":      float64(r.ok()) / r.elapsed.Seconds(),
			"batch":      r.cfg.batch,
			"rate":       r.cfg.rate,
			"p50_us":     us(h.Quantile(0.50)),
			"p99_us":     us(h.Quantile(0.99)),
			"p999_us":    us(h.Quantile(0.999)),
			"failed":     r.failed,
			"dropped":    r.dropped,
			"transport":  r.cfg.recordTransport(),
			"models":     models,
		}},
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// run offers the configured load and writes the report to out.
func run(ctx context.Context, cfg *config, out io.Writer) error {
	opts := []client.Option{client.WithConns(cfg.conns)}
	if cfg.transport == "shm" {
		opts = append(opts, client.WithSharedMemory())
	}
	c := client.New(cfg.addr, opts...)
	rng := rand.New(rand.NewSource(cfg.seed))
	mix, err := buildMix(ctx, c, cfg, rng)
	if err != nil {
		return err
	}
	var totalWeight float64
	for _, m := range mix {
		totalWeight += m.weight
	}

	var (
		dropped atomic.Int64
		failed  atomic.Int64
		jobs    = make(chan job, 8192)
		hists   = make([]*histo.Histogram, cfg.workers)
		wg      sync.WaitGroup
	)
	for w := 0; w < cfg.workers; w++ {
		h := histo.New()
		hists[w] = h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if _, err := c.PredictBatch(ctx, j.m.name, j.m.rows); err != nil {
					failed.Add(1)
					continue
				}
				h.Record(time.Since(j.scheduled).Nanoseconds())
				j.m.count.Add(1)
			}
		}()
	}

	// The scheduler: walk the arrival schedule in absolute time. When the
	// clock is ahead of the schedule (a stall pushed us behind) requests
	// fire back-to-back until the schedule catches up — open loop, no
	// coordinated omission. A full queue means the server and workers are
	// hopelessly behind the offered rate; those arrivals are counted
	// dropped rather than silently stretching the schedule.
	start := time.Now()
	deadline := start.Add(cfg.duration)
	next := start
	interval := time.Duration(float64(time.Second) / cfg.rate)
	total := 0
	for next.Before(deadline) && ctx.Err() == nil {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		total++
		j := job{scheduled: next, m: pickModel(mix, totalWeight, rng)}
		select {
		case jobs <- j:
		default:
			dropped.Add(1)
		}
		if cfg.arrival == "poisson" {
			next = next.Add(time.Duration(rng.ExpFloat64() * float64(interval)))
		} else {
			next = next.Add(interval)
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return err
	}

	h := histo.New()
	for _, wh := range hists {
		h.Merge(wh)
	}
	r := &report{
		cfg: cfg, total: total, failed: failed.Load(), dropped: dropped.Load(),
		elapsed: elapsed, hist: h, mix: mix,
	}
	r.writeText(out)
	if cfg.jsonPath != "" {
		if err := r.writeJSON(cfg.jsonPath); err != nil {
			return fmt.Errorf("write -json record: %w", err)
		}
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
