// Package metis is the public facade of the Metis reproduction
// ("Interpreting Deep Learning-Based Networking Systems", SIGCOMM 2020).
//
// Metis makes deep-learning-based networking systems interpretable through
// two engines:
//
//   - Local systems (per-device decisions such as ABR bitrate selection or
//     flow scheduling) are converted into decision trees via teacher-student
//     distillation: DAgger-style trajectory collection, advantage-weighted
//     resampling (Equation 1), CART fitting, and cost-complexity pruning.
//     See Distill and the dtree types re-exported below.
//
//   - Global systems (network-wide decisions such as SDN routing) are
//     formulated as hypergraphs, and the critical hyperedge-vertex
//     connections are found by optimizing a fractional incidence mask
//     (Equations 4–9). See CriticalConnections.
//
// The internal packages provide everything the paper's evaluation depends
// on: a pure-Go neural network and RL substrate, the Pensieve/AuTO/RouteNet*
// teacher systems, their simulated environments, interpretation baselines
// (LIME, LEMNA), and a harness that regenerates every table and figure
// (internal/experiments, driven by cmd/metis-exp).
//
// Both engines are unified behind the scenario layer (internal/scenario):
// every domain — the three paper systems plus the appendix scenarios (job
// scheduling, NFV placement, cellular association) — implements one small
// Scenario interface and runs through the same train → distill → evaluate →
// persist pipeline. See Scenarios and RunScenario.
//
// Every compute-heavy stage — CART split search and DAgger rollout
// collection in Distill, the SPSA evaluations in CriticalConnections, and
// the interpretation baselines — runs on the shared worker-pool layer in
// internal/parallel. The Workers field on DistillConfig and MaskOptions
// selects the parallelism (0 = all cores, 1 = serial); results are
// bit-identical for every worker count, so parallelism never changes a
// figure or table.
package metis

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/client"
	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/metis/dtree"
	"repro/internal/metis/mask"
	"repro/internal/rl"
	"repro/internal/scenario"
	"repro/internal/serve"

	// Register the built-in scenarios (ABR, AuTO lRLA/sRLA, RouteNet*,
	// jobs, NFV, cellular) so RunScenario and Scenarios see them.
	_ "repro/internal/scenarios"
)

// Env is a sequential decision environment (an alias of the internal RL
// environment interface) that local-system distillation rolls trajectories
// in.
type Env = rl.Env

// Policy is a teacher policy mapping states to action distributions.
type Policy = rl.Policy

// Tree is an interpretable decision-tree controller.
type Tree = dtree.Tree

// DistillConfig configures teacher-student decision tree conversion (§3.2).
type DistillConfig = dtree.DistillConfig

// DistillResult is the outcome of a distillation run.
type DistillResult = dtree.DistillResult

// Dataset is a weighted supervised dataset in row-major convenience form —
// the literal-friendly input to FitTree. The training stack itself runs on
// the columnar Table; Dataset is columnarized once on entry.
type Dataset = dtree.Dataset

// Table is the columnar training dataset of the stack: contiguous
// per-feature columns plus label/target/weight columns, with zero-copy
// views for splits and deterministic seeded subsampling. Build one with NewTable /
// NewRegressionTable and AppendRow / AppendRegRow, or columnarize existing
// rows with TableFromRows / TableFromRegRows; fit it with FitTreeOnTable.
// Tables persist as versioned artifacts (SaveTable / LoadTable), so a
// distillation corpus can be cached and refit without re-collecting it.
type Table = dataset.Table

// NewTable returns an empty columnar classification dataset.
func NewTable(features int) *Table { return dataset.New(features) }

// NewRegressionTable returns an empty columnar regression dataset.
func NewRegressionTable(features, outputs int) *Table {
	return dataset.NewRegression(features, outputs)
}

// TableFromRows columnarizes row-major classification data (w may be nil
// for uniform weights).
func TableFromRows(X [][]float64, y []int, w []float64) (*Table, error) {
	return dataset.FromRows(X, y, w)
}

// TableFromRegRows columnarizes row-major regression data.
func TableFromRegRows(X [][]float64, targets [][]float64, w []float64) (*Table, error) {
	return dataset.FromRegRows(X, targets, w)
}

// Distill converts a DNN teacher policy for a local system into a decision
// tree using the paper's four-step §3.2 recipe. Every CART fit in the loop
// uses the exact presorted split search.
func Distill(env Env, teacher Policy, cfg DistillConfig) (*DistillResult, error) {
	return dtree.DistillPolicy(env, teacher, cfg)
}

// FitTree fits and prunes a decision tree on an offline dataset; use it for
// regression teachers (e.g. continuous queue thresholds) or pre-collected
// state-action logs.
func FitTree(ds *Dataset, cfg DistillConfig) (*Tree, error) {
	return dtree.FitDataset(ds, cfg)
}

// FitTreeOnTable is FitTree on a columnar Table (no conversion pass).
func FitTreeOnTable(t *Table, cfg DistillConfig) (*Tree, error) {
	return dtree.FitTable(t, cfg)
}

// SaveTable persists a columnar dataset as a versioned, checksummed
// artifact (kind "dataset/table").
func SaveTable(path string, t *Table, meta map[string]string) error {
	return artifact.SaveModel(path, t, meta)
}

// LoadTable restores a dataset artifact written by SaveTable.
func LoadTable(path string) (*Table, error) {
	return artifact.LoadAs[*Table](path)
}

// MaskSystem is a global system whose output can be recomputed under a
// hypergraph connection mask.
type MaskSystem = mask.System

// MaskOptions configures the critical-connection search (§4.2).
type MaskOptions = mask.Options

// MaskResult carries the per-connection mask values.
type MaskResult = mask.Result

// CriticalConnections searches for the hyperedge-vertex connections most
// critical to a global system's output by optimizing Equation 4's objective.
func CriticalConnections(sys MaskSystem, opts MaskOptions) *MaskResult {
	return mask.Search(sys, opts)
}

// QuantizedTree is the flattened, allocation-free serving form of a
// distilled tree (§6.4): node thresholds become per-feature bin indices over
// flat breadth-first struct-of-arrays storage, so evaluation walks immutable
// arrays — lock-free under any concurrency, with bounded-parallelism batch
// prediction — while staying bit-identical to the Tree it came from (every
// original threshold becomes a bin edge, so no row can route differently).
// It is the one form metis-serve deploys and GenerateC offloads.
type QuantizedTree = dtree.Quantized

// Quantize flattens a distilled tree (classification or regression) into its
// serving form. Persist it with SaveQuantized to serve it as-is; metis-serve
// also quantizes a tree saved with SaveTree at load.
func Quantize(t *Tree) (*QuantizedTree, error) { return t.Quantize() }

// SaveTree writes a distilled tree to path as a versioned, checksummed
// artifact readable by LoadTree and servable by metis-serve. meta is
// free-form; a "name" key names the model in the serving registry.
func SaveTree(path string, t *Tree, meta map[string]string) error {
	return artifact.SaveModel(path, t, meta)
}

// SaveQuantized writes a quantized tree to path as a versioned, checksummed
// artifact servable by metis-serve (kind "dtree/quantized").
func SaveQuantized(path string, q *QuantizedTree, meta map[string]string) error {
	return artifact.SaveModel(path, q, meta)
}

// LoadQuantized restores a quantized-tree artifact written by SaveQuantized.
func LoadQuantized(path string) (*QuantizedTree, error) {
	return artifact.LoadQuantized(path)
}

// LoadTree restores a tree artifact written by SaveTree (or any binary's
// -save flag).
func LoadTree(path string) (*Tree, error) { return artifact.LoadTree(path) }

// ServeOption customizes a Server built by NewServer.
type ServeOption func(*serveOptions)

type serveOptions struct {
	cfg    serve.Config
	sighup bool
}

// WithWorkers sizes the server-wide inference pool shared by all in-flight
// batch predictions (0 = all cores, 1 = serial). The pool is global to the
// server, not per request: concurrent batches never multiply goroutines.
func WithWorkers(n int) ServeOption {
	return func(o *serveOptions) { o.cfg.Workers = n }
}

// WithMaxBatch caps the rows accepted per prediction request; oversized
// batches are rejected with a typed error (HTTP 413).
func WithMaxBatch(n int) ServeOption {
	return func(o *serveOptions) { o.cfg.MaxBatch = n }
}

// WithMaxInflight caps concurrently admitted prediction requests; beyond it
// the admission gate fails fast with HTTP 503 and a Retry-After estimated
// from the gate's observed service time (the client SDK retries those
// automatically).
func WithMaxInflight(n int) ServeOption {
	return func(o *serveOptions) { o.cfg.MaxInflight = n }
}

// WithReloadOnSIGHUP makes the server hot-reload its artifact directory
// when the process receives SIGHUP (the classic daemon reload convention).
// Call Close to release the signal handler.
func WithReloadOnSIGHUP() ServeOption {
	return func(o *serveOptions) { o.sighup = true }
}

// Server is the embeddable serving runtime: a hot-reloadable model registry
// with the v2 HTTP API (see Handler). Build one with NewServer.
type Server struct {
	engine *serve.Engine
	stop   func()
}

// NewServer loads every model artifact in dir into a serving engine. The
// returned server exposes the metis-serve HTTP API — GET /v2/models[/{name}],
// POST /v2/models/{name}:predict (JSON or the binary batch codec),
// GET /v2/stats, POST /v2/admin/reload, GET /metrics and GET /healthz —
// backed by lock-free quantized-tree inference. The server-wide WithWorkers
// pool sizes inference parallelism.
func NewServer(dir string, opts ...ServeOption) (*Server, error) {
	var o serveOptions
	for _, opt := range opts {
		opt(&o)
	}
	engine, err := serve.NewEngine(dir, o.cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{engine: engine, stop: func() {}}
	if o.sighup {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGHUP)
		done := make(chan struct{})
		go func() {
			for {
				select {
				case <-ch:
					// A failed reload (e.g. half-written artifact) keeps the
					// current generation serving; nothing to do here.
					s.engine.Reload("")
				case <-done:
					return
				}
			}
		}()
		var once sync.Once
		s.stop = func() {
			once.Do(func() {
				signal.Stop(ch)
				close(done)
			})
		}
	}
	return s, nil
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.engine.Handler() }

// Reload hot-swaps the model registry from dir ("" reloads the current
// directory). In-flight predictions finish on the old model set; stats of
// models that survive are carried over.
func (s *Server) Reload(dir string) error { return s.engine.Reload(dir) }

// Models returns the names of the currently served models, sorted.
func (s *Server) Models() []string {
	models := s.engine.Models()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return names
}

// Close releases the SIGHUP handler installed by WithReloadOnSIGHUP (a
// no-op otherwise). The server keeps serving; only the signal wiring stops.
func (s *Server) Close() { s.stop() }

// Client is the Go SDK for a metis-serve endpoint (re-exported from
// repro/client): typed model listing, single/batch prediction over the
// binary batch codec with JSON fallback, stats, and hot reload, with
// automatic retry on 503.
type Client = client.Client

// NewClient returns a Client for the serving daemon at baseURL.
func NewClient(baseURL string, opts ...client.Option) *Client {
	return client.New(baseURL, opts...)
}

// ScenarioConfig carries the generic pipeline knobs: Scale ("tiny", "test",
// "full"), Workers, CacheDir (teacher cache), and OutDir (student artifact +
// manifest destination).
type ScenarioConfig = scenario.Config

// ScenarioReport is the outcome of one pipeline run: the student's kind and
// interpretation summary, evaluation metrics, stage timings, and artifact
// paths.
type ScenarioReport = scenario.Report

// Scenarios lists every registered scenario name. Each runs the same
// teacher→student pipeline: train (or restore) the teacher, distill the
// interpretable student, evaluate both, and optionally persist the student
// with a provenance manifest.
func Scenarios() []string { return scenario.Names() }

// RunScenario drives one registered scenario end to end through the generic
// pipeline.
func RunScenario(name string, cfg ScenarioConfig) (*ScenarioReport, error) {
	sc, ok := scenario.Get(name)
	if !ok {
		return nil, fmt.Errorf("metis: unknown scenario %q (registered: %s)", name, strings.Join(scenario.Names(), ", "))
	}
	p := &scenario.Pipeline{Config: cfg}
	return p.Run(sc)
}
