package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/bench/pace"
	"repro/bench/workload"
	"repro/client"
)

// setupRuns is how many times a serving run starts the daemon to measure
// set-up; setup_s is their median.
const setupRuns = 7

// target is a live daemon with the clients the workload drives it through.
type target struct {
	d     *daemon
	sock  *client.Client // unix socket: shared-memory rings or pipelined v2
	http  *client.Client // HTTP binary
	plain *http.Client   // for GET /v2/stats
	// sockKind names the socket transport in rpc.* metrics.
	sockKind string
}

// connect builds the workload's clients for d: at most nproc connections per
// transport, no retries, so a refusal is counted rather than hidden.
func connect(e *env, s workload.Spec, d *daemon) *target {
	t := &target{d: d, sockKind: "uds"}
	opts := []client.Option{client.WithConns(e.nproc), client.WithRetries(0)}
	if s.SHM {
		opts = append(opts, client.WithSharedMemory())
		t.sockKind = "shm"
	}
	t.sock = client.New("unix://"+d.sock, opts...)
	t.plain = &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc}}
	t.http = client.New(d.httpBase(), client.WithHTTPClient(t.plain), client.WithRetries(0))
	return t
}

// shutdown drops the clients' idle connections and stops the daemon.
func (t *target) shutdown() {
	t.plain.CloseIdleConnections()
	t.d.stop()
}

// outcome classifies one answered call.
type outcome int

const (
	okay outcome = iota
	wrong
	refused
	failed
)

// predict sends r over its transport.
func (t *target) predict(ctx context.Context, r *workload.Request) (*client.Prediction, error) {
	c := t.sock
	if r.HTTP {
		c = t.http
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	return c.PredictBatch(ctx, r.Model, r.Rows)
}

// check classifies an answered call against r's reference answer.
func check(r *workload.Request, p *client.Prediction, err error) (outcome, error) {
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable:
		return refused, err
	case err != nil:
		return failed, err
	case !matches(r, p):
		return wrong, fmt.Errorf("wrong answer from %s", r.Model)
	}
	return okay, nil
}

// matches compares a prediction with the request's reference answer, bit
// for bit.
func matches(r *workload.Request, p *client.Prediction) bool {
	if r.Values == nil {
		return slices.Equal(p.Actions, r.Actions)
	}
	if len(p.Values) != len(r.Values) {
		return false
	}
	for i := range r.Values {
		if !slices.Equal(p.Values[i], r.Values[i]) {
			return false
		}
	}
	return true
}

// daemonStats is the part of GET /v2/stats the benchmark reads.
type daemonStats struct {
	Requests int64 `json:"requests"`
	SHM      struct {
		Wakes int64 `json:"wakes"`
	} `json:"shm"`
	Shadow struct {
		Sampled int64 `json:"sampled"`
		Dropped int64 `json:"dropped"`
		Scored  int64 `json:"scored"`
	} `json:"shadow"`
	Tenants map[string]struct {
		Admitted int64 `json:"admitted"`
		Rejected int64 `json:"rejected"`
		Shed     int64 `json:"shed"`
	} `json:"tenants"`
}

func (t *target) stats(ctx context.Context) (*daemonStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.d.httpBase()+"/v2/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.plain.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st daemonStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /v2/stats: %w", err)
	}
	return &st, nil
}

// waitHTTP polls /healthz until the daemon's HTTP listener answers.
func (t *target) waitHTTP(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.d.httpBase()+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := t.plain.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("HTTP listener not up: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// tally accumulates one caller's calls; callers merge theirs at the end of
// a phase.
type tally struct {
	sent, ok, wrong, refused, failed, rows int64
	lat                                    []float64 // ns from due to answer, answered calls
	rpc                                    map[string][]float64
	spans                                  []span
	firstErr                               error
}

func newTally() *tally { return &tally{rpc: map[string][]float64{}} }

func (t *tally) merge(o *tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.wrong += o.wrong
	t.refused += o.refused
	t.failed += o.failed
	t.rows += o.rows
	t.lat = append(t.lat, o.lat...)
	for k, v := range o.rpc {
		t.rpc[k] = append(t.rpc[k], v...)
	}
	t.spans = append(t.spans, o.spans...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// issue runs one call due at due and records it. With tr set it also
// records the call's spans under request id k.
func (t *target) issue(ctx context.Context, r *workload.Request, due time.Time, tl *tally, tr *tracer, k int64) {
	send := time.Now()
	p, err := t.predict(ctx, r)
	ret := time.Now()
	out, err := check(r, p, err)
	done := time.Now()
	tl.sent++
	switch out {
	case okay:
		tl.ok++
		tl.rows += int64(len(r.Rows))
		tl.lat = append(tl.lat, float64(ret.Sub(due)))
		kind := t.sockKind
		if r.HTTP {
			kind = "http"
		}
		tl.rpc[kind] = append(tl.rpc[kind], float64(ret.Sub(send)))
		if tr != nil && k%traceEvery == 0 {
			tl.spans = append(tl.spans, tr.request(k, due, send, ret, done, "rpc."+kind)...)
		}
		return
	case wrong:
		tl.wrong++
	case refused:
		tl.refused++
	default:
		tl.failed++
	}
	if tl.firstErr == nil {
		tl.firstErr = err
	}
}

// phase is one timed phase's outcome.
type phase struct {
	name    string
	tl      *tally
	late    []float64 // ns the generator handed each arrival off late
	dropped int64     // arrivals never sent: the generator fell a second behind
	elapsed time.Duration
}

func (p *phase) String() string {
	return fmt.Sprintf("phase %s sent=%d ok=%d failed=%d refused=%d dropped=%d wrong=%d seconds=%.3f",
		p.name, p.tl.sent, p.tl.ok, p.tl.failed, p.tl.refused, p.dropped, p.tl.wrong, p.elapsed.Seconds())
}

// openLoop offers the pool at a Poisson rate for dur: the pacer hands each
// arrival at its due time to one of window callers and blocks while all are
// busy, so a stall shows as lateness and as latency counted from the due
// time, never as a lower offered rate.
func (t *target) openLoop(ctx context.Context, name string, reqs []workload.Request, rate float64, seed int64, dur time.Duration, window int, tr *tracer) *phase {
	due := pace.Poisson(seed, rate, int(rate*dur.Seconds())+1)
	for len(due) > 0 && due[len(due)-1] >= dur {
		due = due[:len(due)-1]
	}
	start := time.Now().Add(time.Millisecond)
	ph := &phase{name: name, tl: newTally(), late: make([]float64, 0, len(due))}
	type job struct {
		k   int64
		due time.Time
	}
	jobs := make(chan job)
	tallies := make([]*tally, window)
	var wg sync.WaitGroup
	for w := range tallies {
		tl := newTally()
		tallies[w] = tl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				t.issue(ctx, &reqs[int(j.k)%len(reqs)], j.due, tl, tr, j.k)
			}
		}()
	}
	p := pace.NewPacer()
	for k, off := range due {
		at := start.Add(off)
		if time.Since(at) > time.Second || ctx.Err() != nil {
			ph.dropped = int64(len(due) - k)
			break
		}
		p.SleepUntil(at)
		jobs <- job{int64(k), at}
		ph.late = append(ph.late, float64(time.Since(at)))
	}
	p.Close()
	close(jobs)
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, tl := range tallies {
		ph.tl.merge(tl)
	}
	return ph
}

// closedLoop runs callers that each send their next request as soon as the
// previous one is answered, for dur.
func (t *target) closedLoop(ctx context.Context, reqs []workload.Request, seed int64, dur time.Duration, callers int) *phase {
	start := time.Now()
	end := start.Add(dur)
	ph := &phase{name: "closed", tl: newTally()}
	tallies := make([]*tally, callers)
	var wg sync.WaitGroup
	for c := range tallies {
		tl := newTally()
		tallies[c] = tl
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				t.issue(ctx, &reqs[rng.Intn(len(reqs))], time.Now(), tl, nil, 0)
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, tl := range tallies {
		ph.tl.merge(tl)
	}
	return ph
}

// reloader posts /v2/admin/reload every period until stopped. Its
// results are read only after stop.
type reloader struct {
	stopc   chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	ms      []float64
	failed  int64
	lastErr error
}

func (t *target) startReloads(ctx context.Context, period time.Duration) *reloader {
	rl := &reloader{stopc: make(chan struct{})}
	if period <= 0 {
		return rl
	}
	rl.wg.Add(1)
	go func() {
		defer rl.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-rl.stopc:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			start := time.Now()
			if _, err := t.http.Reload(ctx, ""); err != nil {
				rl.failed++
				rl.lastErr = err
			} else {
				rl.ms = append(rl.ms, float64(time.Since(start))/1e6)
			}
		}
	}()
	return rl
}

// stop ends the reload loop and waits for it; later calls do nothing.
func (rl *reloader) stop() {
	rl.once.Do(func() { close(rl.stopc) })
	rl.wg.Wait()
}

// startTarget starts the daemon and measures set-up as exec to the first
// verified answer over the socket.
func startTarget(ctx context.Context, e *env, s workload.Spec, dir string, attempt int, args []string, first *workload.Request) (*target, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(ctx, e, filepath.Join(dir, fmt.Sprintf("s%d.sock", attempt)),
		filepath.Join(dir, fmt.Sprintf("daemon-%d.log", attempt)), args)
	if err != nil {
		return nil, 0, err
	}
	t := connect(e, s, d)
	r := *first
	r.HTTP = false
	p, err := t.predict(ctx, &r)
	if out, err := check(&r, p, err); out != okay {
		t.shutdown()
		return nil, 0, fmt.Errorf("first answer: %v", err)
	}
	return t, time.Since(start), nil
}

// runServing runs one serving workload end to end.
func runServing(ctx context.Context, e *env, s workload.Spec) (*result, error) {
	dir := filepath.Join(e.run, s.Name)
	serveDir := filepath.Join(dir, "models")
	served := map[string]bool{}
	for _, m := range s.Mix {
		served[m.Model+".metis"] = true
	}
	if err := workload.CopyFiles(e.fx.Models, serveDir, func(n string) bool { return served[n] }); err != nil {
		return nil, err
	}
	args := append([]string{"-dir", serveDir, "-shards", strconv.Itoa(s.Shards)}, s.Daemon...)
	if s.SHM {
		args = append(args, "-shm", "-shm-dir", dir)
	}
	if s.Shadow {
		shadowDir := filepath.Join(dir, "shadow")
		if err := workload.CopyFiles(e.fx.Cache, shadowDir, func(string) bool { return true }); err != nil {
			return nil, err
		}
		args = append(args, "-shadow-dir", shadowDir)
	}
	reqs := e.fx.Requests(s, e.seed)

	// Set-up: start the daemon setupRuns times; keep the last one.
	var setups []float64
	var t *target
	for i := 0; i < setupRuns; i++ {
		if t != nil {
			t.shutdown()
		}
		var took time.Duration
		var err error
		if t, took, err = startTarget(ctx, e, s, dir, i, args, &reqs[0]); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer t.shutdown()
	if err := t.waitHTTP(ctx); err != nil {
		return nil, err
	}

	res := &result{}
	window := 2 * e.nproc
	warmDur, openDur, closedDur := e.phases()
	rl := t.startReloads(ctx, s.ReloadEvery)
	defer rl.stop()
	phases := []*phase{t.openLoop(ctx, "warmup", reqs, s.Rate, e.seed+1, warmDur, window, nil)}

	before, err := t.stats(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(t.d.pid())
	if err != nil {
		return nil, err
	}
	gen0, _ := procCPU(os.Getpid())
	open := t.openLoop(ctx, "open", reqs, s.Rate, e.seed, openDur, window, nil)
	gen1, _ := procCPU(os.Getpid())
	cpu1, err := procCPU(t.d.pid())
	if err != nil {
		return nil, err
	}
	after, err := t.stats(ctx)
	if err != nil {
		return nil, err
	}
	phases = append(phases, open)

	var traced, closed *phase
	var tr *tracer
	if e.trace {
		tr = newTracer()
		traced = t.openLoop(ctx, "open-traced", reqs, s.Rate, e.seed, closedDur, window, tr)
		phases = append(phases, traced)
	} else {
		closed = t.closedLoop(ctx, reqs, e.seed, closedDur, window)
		phases = append(phases, closed)
	}
	rl.stop()
	rssKB, err := procPeakRSSKB(t.d.pid())
	if err != nil {
		return nil, err
	}

	for _, ph := range phases {
		res.attempted += ph.tl.sent + ph.dropped
		res.failed += ph.tl.failed + ph.tl.refused + ph.dropped
		res.wrong += ph.tl.wrong
		res.notes = append(res.notes, ph.String())
		if ph.tl.firstErr != nil {
			res.notes = append(res.notes, fmt.Sprintf("phase %s first error: %v", ph.name, ph.tl.firstErr))
		}
	}
	res.attempted += int64(len(rl.ms)) + rl.failed
	res.failed += rl.failed
	if rl.lastErr != nil {
		res.notes = append(res.notes, fmt.Sprintf("reload error: %v", rl.lastErr))
	}

	p50 := quantile(open.tl.lat, 0.5) / 1e3
	res.endToEnd(e.trace,
		metric{"rss_mb", float64(rssKB) / 1024, "MB"},
		metric{"setup_s", median(setups), "s"},
		metric{"p50_us", p50, "us"},
		metric{"p90_us", quantile(open.tl.lat, 0.9) / 1e3, "us"},
		metric{"cpu_pct", 100 * float64(cpu1-cpu0) / float64(open.elapsed), "%"},
	)
	if closed != nil {
		res.note("capacity_per_s", float64(closed.tl.rows)/closed.elapsed.Seconds(), "1/s")
	}
	res.note("gen_cpu_pct", 100*float64(gen1-gen0)/float64(open.elapsed), "%")
	res.note("p99_us", quantile(open.tl.lat, 0.99)/1e3, "us")
	res.note("p999_us", quantile(open.tl.lat, 0.999)/1e3, "us")
	res.note("open.samples", float64(len(open.tl.lat)), "count")
	res.note("open.offered_per_s", float64(open.tl.sent)/open.elapsed.Seconds(), "1/s")
	res.note("gen_late_p50_us", quantile(open.late, 0.5)/1e3, "us")
	res.note("gen_late_p99_us", quantile(open.late, 0.99)/1e3, "us")
	res.note("error_rate", float64(res.failed+res.wrong)/float64(max(res.attempted, 1)), "ratio")
	for _, kind := range []string{"shm", "uds", "http"} {
		if v := open.tl.rpc[kind]; len(v) > 0 {
			res.note("rpc.p50_us."+kind, quantile(v, 0.5)/1e3, "us")
		}
	}
	if n := after.Requests - before.Requests; s.SHM && n > 0 {
		res.note("shm.wakes_per_kreq", 1000*float64(after.SHM.Wakes-before.SHM.Wakes)/float64(n), "count")
	}
	if s.Shadow {
		if sampled := after.Shadow.Sampled; sampled > 0 {
			res.note("shadow.scored_per_sampled", float64(after.Shadow.Scored)/float64(sampled), "ratio")
		}
		var admitted, shed int64
		for _, ts := range after.Tenants {
			admitted += ts.Admitted
			shed += ts.Rejected + ts.Shed
		}
		res.note("tenant.shed_share", float64(shed)/float64(max(admitted+shed, 1)), "ratio")
	}
	if len(rl.ms) > 0 {
		res.note("reload_rpc_ms", median(rl.ms), "ms")
	}

	if e.trace {
		// The layers are timed with the daemon gone, so they own the CPUs.
		t.shutdown()
		overhead := quantile(traced.tl.lat, 0.5)/1e3 - p50
		path := requestPath(s)
		onPath := func(layer string) bool { return slices.Contains(path, layer) }
		if err := e.traceReport(ctx, s.Name, res, traced.tl.spans, overhead, "us", onPath, 1e-3, p50); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// requestPath lists the layers a request of s crosses, as metis-layers
// names them; their sum is what the outside view can attribute.
func requestPath(s workload.Spec) []string {
	path := []string{"client.encode_ns", "codec.decode_ns", "engine.predict_ns", "codec.encode_ns", "client.decode_ns"}
	if s.SHM {
		path = append(path, "shmring.roundtrip_ns")
	}
	if s.Shards > 1 {
		path[2] = "shard.predict_ns"
	}
	return path
}
