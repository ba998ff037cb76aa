// Command metis-serve is the deployment daemon: it loads a directory of
// Metis model artifacts (distilled or quantized decision trees, written by
// the -save flags of the other binaries, by metis-exp -cache, or by the
// scenario pipeline's -out) and serves predictions over HTTP off the
// lock-free quantized-tree representation.
//
// Quickstart:
//
//	go run ./examples/quickstart -save models/quickstart.metis
//	metis-serve -dir models -addr :9090
//	curl -s localhost:9090/v2/models
//	curl -s -X POST localhost:9090/v2/models/quickstart:predict \
//	     -d '{"x":[2,1]}'
//
// Endpoints: GET /healthz, GET /v2/models[/{name}],
// POST /v2/models/{name}:predict (JSON or application/x-metis-batch),
// GET /v2/stats, POST /v2/admin/reload, GET /metrics.
//
// With -uds /path.sock the daemon additionally serves the framed binary
// protocol on a unix-domain socket: the same binary batch payloads without
// the HTTP machinery, for co-located clients that need the full in-process
// prediction rate (client.New("unix:///path.sock") speaks it). Every socket
// connection must open with the MTH2 hello and then pipelines its frames;
// any other first frame is refused with a 426 error frame.
//
// Hot reload: SIGHUP (or POST /v2/admin/reload) re-scans the artifact
// directory and swaps the model registry atomically — in-flight requests
// finish on the old model set, stats of surviving models carry over, and a
// failed reload (e.g. a half-written artifact) keeps the old set serving.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests get up to 5 seconds to finish, and the process exits 0.
//
// Continuous distillation: with -shadow-rate > 0 the daemon mirrors a
// deterministic sample of predict traffic to a shadow loop that re-scores it
// against each model's teacher (resolved from scenario metadata; pre-cache
// teachers and corpora with metis-exp -cache pointed at -shadow-dir). When a
// model's windowed fidelity drops below -drift-threshold the loop refits the
// student from its corpus, hot-reloads the new generation with lineage
// metadata, and auto-rolls back if the refit measures worse. See the
// "Operating Metis" section of the README.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/shadow"

	// Register the scenarios so shadow.EnrollScenarios can resolve a served
	// model's teacher from its artifact metadata.
	_ "repro/internal/scenarios"
)

// config is the parsed command line.
type config struct {
	dir            string
	addr           string
	uds            string
	shm            bool
	shmDir         string
	workers        int
	maxBatch       int
	inflight       int
	shards         int
	tenants        string
	shadowRate     float64
	shadowDir      string
	shadowWindow   int
	driftThreshold float64
}

// parseFlags parses args (not including the program name) into a config.
// Errors are returned, not printed, so main owns the exit path and tests
// can cover the validation.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("metis-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.dir, "dir", "", "artifact directory to serve (required)")
	fs.StringVar(&cfg.addr, "addr", ":9090", "listen address")
	fs.StringVar(&cfg.uds, "uds", "",
		"also serve the framed binary protocol on this unix socket path (for co-located clients; see client.New(\"unix://…\"))")
	fs.BoolVar(&cfg.shm, "shm", false,
		"allow socket connections to negotiate per-connection shared-memory ring segments (zero-syscall predict path; requires -uds)")
	fs.StringVar(&cfg.shmDir, "shm-dir", "",
		"directory for shared-memory segment files (default /dev/shm when present, else the temp dir)")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0),
		"inference pool of each shard, shared by all in-flight batches on it (0 = all cores, 1 = serial)")
	fs.IntVar(&cfg.maxBatch, "max-batch", 0,
		fmt.Sprintf("max rows per prediction request (0 = %d)", serve.DefaultMaxBatch))
	fs.IntVar(&cfg.inflight, "max-inflight", 0,
		"max concurrently admitted prediction requests; beyond it requests fail fast with 503 (0 = unlimited)")
	fs.IntVar(&cfg.shards, "shards", 1,
		"engine shards, each with its own inference pool and counters; models are partitioned across them by consistent hash (0 = one shard per core)")
	fs.StringVar(&cfg.tenants, "tenants", "",
		"weighted fair admission as name:weight pairs, e.g. \"teamA:3,teamB:1\" (tenant = the X-Metis-Tenant header when it names one of these, else the model name; models not listed get weight 1)")
	fs.Float64Var(&cfg.shadowRate, "shadow-rate", 0,
		"fraction of predict batches shadow-scored against the teacher (0 = shadowing off, 1 = every batch)")
	fs.StringVar(&cfg.shadowDir, "shadow-dir", "",
		"shadow state directory: cached teachers/corpora are read from it (metis-exp -cache), generation archives are written to it (required with -shadow-rate)")
	fs.IntVar(&cfg.shadowWindow, "shadow-window", 0,
		fmt.Sprintf("fidelity window in shadow-scored rows (0 = %d)", shadow.DefaultWindow))
	fs.Float64Var(&cfg.driftThreshold, "drift-threshold", 0,
		fmt.Sprintf("windowed fidelity below which the student is refitted from its corpus (0 = %g)", shadow.DefaultDriftThreshold))
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.dir == "" {
		fs.Usage()
		return nil, errors.New("-dir is required")
	}
	if cfg.workers < 0 {
		return nil, fmt.Errorf("-workers must be non-negative (got %d)", cfg.workers)
	}
	if cfg.maxBatch < 0 {
		return nil, fmt.Errorf("-max-batch must be non-negative (got %d)", cfg.maxBatch)
	}
	if cfg.inflight < 0 {
		return nil, fmt.Errorf("-max-inflight must be non-negative (got %d)", cfg.inflight)
	}
	if cfg.shards < 0 {
		return nil, fmt.Errorf("-shards must be non-negative (got %d)", cfg.shards)
	}
	if cfg.shards == 0 {
		cfg.shards = runtime.GOMAXPROCS(0)
	}
	if cfg.tenants != "" {
		if _, err := serve.ParseTenantWeights(cfg.tenants); err != nil {
			return nil, fmt.Errorf("-tenants: %w", err)
		}
	}
	if cfg.shm && cfg.uds == "" {
		return nil, errors.New("-shm requires -uds (segments are negotiated over the socket)")
	}
	if cfg.shmDir != "" && !cfg.shm {
		return nil, errors.New("-shm-dir requires -shm")
	}
	if cfg.shadowRate < 0 || cfg.shadowRate > 1 {
		return nil, fmt.Errorf("-shadow-rate must be in [0, 1] (got %g)", cfg.shadowRate)
	}
	if cfg.shadowRate > 0 && cfg.shadowDir == "" {
		return nil, errors.New("-shadow-rate requires -shadow-dir (cached teachers and generation archives live there)")
	}
	if cfg.shadowDir != "" && cfg.shadowRate == 0 {
		return nil, errors.New("-shadow-dir requires -shadow-rate > 0")
	}
	if cfg.driftThreshold < 0 || cfg.driftThreshold > 1 {
		return nil, fmt.Errorf("-drift-threshold must be in [0, 1] (got %g)", cfg.driftThreshold)
	}
	if cfg.driftThreshold > 0 && cfg.shadowRate == 0 {
		return nil, errors.New("-drift-threshold requires -shadow-rate > 0")
	}
	if cfg.shadowWindow < 0 {
		return nil, fmt.Errorf("-shadow-window must be non-negative (got %d)", cfg.shadowWindow)
	}
	if cfg.shadowWindow > 0 && cfg.shadowRate == 0 {
		return nil, errors.New("-shadow-window requires -shadow-rate > 0")
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return cfg, nil
}

// newHTTPServer wraps the engine handler with the daemon's protective
// timeouts: ReadHeaderTimeout bounds slow-header (slowloris) clients and
// IdleTimeout reaps idle keep-alive connections. No WriteTimeout — large
// batch responses are legitimate, and the engine bounds request size
// instead.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
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

	tenants, _ := serve.ParseTenantWeights(cfg.tenants)
	engine, err := serve.NewEngine(cfg.dir, serve.Config{
		Workers: cfg.workers, MaxBatch: cfg.maxBatch, MaxInflight: cfg.inflight,
		SHMDir: cfg.shmDir, Shards: cfg.shards, Tenants: tenants,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("engine: %d shards, %d weighted tenants\n", engine.ShardCount(), len(tenants))

	for _, m := range engine.Models() {
		shape := fmt.Sprintf("%d classes", m.NumClasses())
		if m.IsRegression() {
			shape = fmt.Sprintf("%d outputs", m.OutDim())
		}
		fmt.Printf("loaded %-20s %s, %d nodes, %d features, %s\n",
			m.Name, m.Kind, m.NumNodes(), m.NumFeatures(), shape)
	}
	for _, skip := range engine.Skipped() {
		fmt.Printf("skipped %s: not a servable kind\n", skip)
	}
	fmt.Printf("serving %d models on %s (SIGHUP or POST /v2/admin/reload to hot-reload)\n",
		len(engine.Models()), cfg.addr)

	if cfg.shadowRate > 0 {
		mon := shadow.NewMonitor(engine, shadow.Options{
			Rate:           cfg.shadowRate,
			Seed:           1,
			Window:         cfg.shadowWindow,
			DriftThreshold: cfg.driftThreshold,
			Dir:            cfg.shadowDir,
			Workers:        cfg.workers,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		n, err := shadow.EnrollScenarios(mon)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if n == 0 {
			fmt.Println("shadow: no served model carries scenario metadata — shadowing idle")
		}
		mon.Start()
		defer mon.Close()
	}

	// SIGHUP → hot reload of the artifact directory.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := engine.Reload(""); err != nil {
				fmt.Fprintln(os.Stderr, "reload failed, keeping current models:", err)
				continue
			}
			fmt.Printf("reloaded %s: %d models\n", engine.Dir(), len(engine.Models()))
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := newHTTPServer(cfg.addr, engine.Handler())
	errCh := make(chan error, 1)
	var udsListener net.Listener
	if cfg.uds != "" {
		udsListener, err = serve.ListenUDS(cfg.uds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		serveSocket := engine.ServeUDS
		if cfg.shm {
			serveSocket = engine.ServeSHM
			fmt.Printf("framed binary protocol on unix://%s (shared-memory rings enabled)\n", cfg.uds)
		} else {
			fmt.Printf("framed binary protocol on unix://%s\n", cfg.uds)
		}
		go func() {
			if err := serveSocket(udsListener); err != nil {
				errCh <- err
			}
		}()
	}
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		// Listener failure (port in use, …) before any signal.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
		fmt.Println("signal received, draining in-flight requests…")
		if udsListener != nil {
			// Closing the unix listener unlinks the socket file; in-flight
			// framed connections finish their current frame and end when the
			// peer disconnects or the process exits below.
			udsListener.Close()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			os.Exit(1)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("bye")
	}
}
