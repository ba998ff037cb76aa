// Package serve is the model-serving runtime behind cmd/metis-serve. It is
// built as a transport-agnostic inference engine with codec layers on top:
//
//   - engine.go (this file): Engine — an atomic-pointer model registry with
//     lock-free hot reload, the one admission gate (tenant.go's fairGate),
//     and the one predict path that the in-process API and every transport
//     end in. A request is validated before it is admitted and returns typed
//     errors. The engine knows nothing about HTTP.
//   - shard.go: the shards the registry is partitioned across by a
//     consistent-hash ring over model names, each with its own inference
//     pool and counters.
//   - codec.go: the wire codecs — JSON helpers and the binary row-major
//     float64 batch format (application/x-metis-batch), with one request
//     decoder for HTTP bodies, socket frames and ring slots, and a pooled
//     scratch path for allocation-free serving loops.
//   - http.go: the HTTP layer — the v2 route surface and Engine.control,
//     which answers the control ops (models, model, stats, reload) for
//     every transport.
//   - stats.go: the control documents' types, the one stats snapshot, and
//     the table /metrics renders that snapshot from.
//   - uds.go: the framed unix-domain-socket transport — the same binary
//     batch payloads without the HTTP machinery, for co-located clients
//     that need the full in-process rate — and answer, the one frame
//     answerer for socket frames and ring slots.
//   - shm.go: the shared-memory ring upgrade of a socket connection —
//     requests decoded in place out of one slab and answered into another,
//     with counters updated per request like every other transport.
//
// Serving rides one flat-array tree representation, dtree.Quantized, for
// every model — evaluation walks immutable arrays, so the hot path takes no
// locks and any number of request goroutines predict concurrently; the only
// shared writes are atomic stat counters, and a hot reload swaps the whole
// registry through one atomic pointer store. This is the §6.4 deployment
// story of the paper as a daemon: the distilled controller is small and
// cheap enough to answer per-decision queries at data-plane rates.
package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/histo"
	"repro/internal/metis/dtree"
)

// Ext is the conventional artifact file extension scanned by LoadDir.
const Ext = ".metis"

// DefaultMaxBatch is the per-request row cap when Config.MaxBatch is 0.
const DefaultMaxBatch = 1 << 16

// Typed errors surfaced by Engine.Predict. The HTTP layer maps them to
// status codes; embedded callers can match them with errors.Is/As.
var (
	// ErrBusy means admission turned the call away; the caller should retry
	// after a short backoff (HTTP 503 + Retry-After). The engine returns it
	// as a *BusyError carrying the gate's Retry-After estimate.
	ErrBusy = errors.New("serve: server at capacity, retry later")
	// ErrEmptyBatch means a predict call carried zero rows.
	ErrEmptyBatch = errors.New("serve: empty batch")
)

// UnknownModelError reports a predict against a name absent from the
// registry (HTTP 404).
type UnknownModelError struct{ Name string }

func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("serve: unknown model %q", e.Name)
}

// BatchSizeError reports a batch exceeding the engine's row cap (HTTP 413).
type BatchSizeError struct{ Rows, Max int }

func (e *BatchSizeError) Error() string {
	return fmt.Sprintf("serve: batch of %d rows exceeds the %d-row limit", e.Rows, e.Max)
}

// DimensionError reports an input row whose width disagrees with the model
// (HTTP 400).
type DimensionError struct {
	Model     string
	Row       int
	Got, Want int
}

func (e *DimensionError) Error() string {
	return fmt.Sprintf("serve: input %d has %d features, model %q wants %d", e.Row, e.Got, e.Model, e.Want)
}

// responseSizeError reports a batch whose binary response cannot fit the
// transport's fixed response buffer, a ring slot (HTTP 413).
type responseSizeError struct{ Need, Cap int }

func (e *responseSizeError) Error() string {
	return fmt.Sprintf("serve: response needs %d bytes, ring slot holds %d", e.Need, e.Cap)
}

// Model is one servable entry in the registry: a quantized tree plus the
// artifact metadata it was loaded with.
type Model struct {
	Name string
	// Kind is the artifact kind the model was loaded from (a raw dtree/tree
	// is quantized at load time).
	Kind string
	Meta map[string]string
	// Path is the artifact file the model was loaded from — the continuous
	// distillation loop (internal/shadow) overwrites it atomically when it
	// refits or rolls back a student.
	Path string
	// Generation is the model's refit generation, parsed from the artifact's
	// "generation" metadata (0 for a freshly trained seed student). Each
	// shadow-triggered refit increments it; a rollback restores the parent's.
	Generation int64
	// Compiled is always nil.
	//
	// Deprecated: every model serves from Quantized.
	Compiled *dtree.Quantized
	// Quantized is the flat breadth-first tree the predict path walks; every
	// model has one.
	Quantized *dtree.Quantized

	requests    atomic.Int64
	predictions atomic.Int64
}

// NumFeatures returns the input width the model expects.
func (m *Model) NumFeatures() int { return m.Quantized.NumFeatures }

// NumNodes returns the model's flattened node count.
func (m *Model) NumNodes() int { return m.Quantized.NumNodes() }

// NumClasses returns the class count (0 for regression models).
func (m *Model) NumClasses() int { return m.Quantized.NumClasses }

// OutDim returns the regression output width (0 for classifiers).
func (m *Model) OutDim() int { return m.Quantized.OutDim }

// IsRegression reports whether the model predicts vectors rather than
// classes.
func (m *Model) IsRegression() bool { return m.Quantized.IsRegression() }

// registry is one immutable generation of the model set. The engine swaps
// whole generations through an atomic pointer: predict paths load the
// pointer once and never observe a half-reloaded set.
type registry struct {
	dir      string
	models   map[string]*Model
	skipped  []string
	loadedAt time.Time
}

// Config carries the engine knobs. The zero value serves with all cores,
// the default batch cap, and no in-flight limit.
type Config struct {
	// Workers sizes each shard's inference pool, shared by ALL in-flight
	// batch predictions on that shard (0 = GOMAXPROCS, 1 = serial).
	// Concurrent batches never multiply goroutines: a batch recruits helpers
	// only while pool slots are free and otherwise runs on its own request
	// goroutine.
	Workers int
	// MaxBatch caps the rows accepted per predict call (0 = DefaultMaxBatch).
	// Oversized requests fail with *BatchSizeError.
	MaxBatch int
	// MaxInflight caps concurrently admitted predict calls (0 = unlimited,
	// unless Tenants is set). Without Tenants, calls beyond the cap fail fast
	// with a *BusyError instead of queueing.
	MaxInflight int
	// SHMDir is where per-connection shared-memory segments are created
	// ("" = /dev/shm when present, else the OS temp dir). Must be a
	// filesystem both peers can reach.
	SHMDir string
	// SHMSlots and SHMSlotSize cap (and, for clients requesting defaults,
	// set) the shared-memory ring geometry (0 = shmring defaults). Mostly a
	// test knob — small slots force the oversized-payload fallback.
	SHMSlots    int
	SHMSlotSize int
	// Shards splits the serving core into shards, each owning a
	// consistent-hash partition of the model set with its own inference pool
	// and counters (0 or 1 = one shard).
	Shards int
	// Tenants maps tenant names to weighted-fair-admission weights. When
	// set, the admission gate queues calls beyond MaxInflight (default 4 per
	// core) per tenant and admits them by weight, instead of failing them
	// fast. A request naming no tenant, or one outside the map, is keyed by
	// its model name, at weight 1 unless the map names that model. Each
	// tenant queues at most DefaultTenantQueue calls; arrivals beyond it
	// fail with *BusyError carrying a computed Retry-After.
	Tenants map[string]float64
}

// Mirror receives a copy of every successful classification predict after
// the response is computed, across all transports. It is the engine's tap
// for the continuous-distillation loop (internal/shadow): the implementation
// decides — cheaply, this is the hot path — whether to sample the batch, and
// must copy rows/actions before returning because both alias caller-owned
// scratch (transport decode buffers, shared-memory slabs) that is recycled
// as soon as the predict call returns.
type Mirror interface {
	// Observe is called with the request's model name, its feature rows, and
	// the actions the serving student chose. actions is nil for regression
	// models. Observe must never block.
	Observe(model string, rows [][]float64, actions []int)
	// Snapshot returns the mirror's live counters for /v2/stats and /metrics.
	Snapshot() MirrorSnapshot
}

// MirrorSnapshot is a point-in-time view of a Mirror's accounting: its
// totals, which the stats document reports as its shadow block (the engine
// sets Enabled), and the per-model view.
type MirrorSnapshot struct {
	ShadowStats
	// Models holds the per-model view, keyed by serving name.
	Models map[string]MirrorModelSnapshot
}

// MirrorModelSnapshot is one model's shadow-scoring state.
type MirrorModelSnapshot struct {
	Sampled, Dropped, Scored, Disagreements, Refits, Rollbacks int64
	// Fidelity is the windowed teacher-agreement estimate in [0, 1], or -1
	// while the window has not yet filled.
	Fidelity float64
}

// Engine is the transport-agnostic serving core: a hot-reloadable model
// registry partitioned across Config.Shards shards by a consistent-hash ring
// over model names, plus the one admission gate (see fairGate): MaxInflight
// concurrent calls, failing fast beyond them, or per-tenant weighted fair
// queuing when Config.Tenants is set. Requests route to the owning shard
// with no cross-shard locks; every shard has its own inference pool and stat
// counters, so shards share no hot cache lines. All methods are safe for concurrent use;
// Predict never blocks on Reload or Reshard.
//
// Consistent hashing makes the partition a pure function of (model name,
// shard count): a Reload never migrates a surviving model, and Reshard
// moves only ~1/N of the models per shard added. Both swap state through one
// atomic pointer, so in-flight predicts keep the shards (and registry) they
// started on and never fail from a remap.
type Engine struct {
	cfg   Config
	state atomic.Pointer[shardSet]
	// reloadMu serializes Reload and Reshard; the predict path never takes it.
	reloadMu sync.Mutex
	// gate is the admission control (nil = unlimited: neither MaxInflight
	// nor Tenants is set).
	gate    *fairGate
	start   time.Time
	reloads atomic.Int64
	errors  atomic.Int64
	// rejected counts calls turned away by admission — they never reach a
	// shard, so requestsTotal folds them back in.
	rejected atomic.Int64
	// requestsBase and latencyBase carry the counters of shard sets retired
	// by Reshard, so totals survive re-partitioning.
	requestsBase atomic.Int64
	latencyBase  *histo.Histogram
	// shm is the shared-memory transport accounting (see shmCounters).
	shm shmCounters
	// mirror, when set, taps every successful predict (see Mirror). An
	// atomic pointer-to-interface so the hot path pays one load when no
	// mirror is installed.
	mirror atomic.Pointer[Mirror]
}

// shmCounters is the shared-memory transport accounting: a name sequence for
// segment files, the doorbell-write counter (the observable behind the
// zero-syscall claim), and the live ring connection count.
type shmCounters struct {
	seq   atomic.Uint64
	wakes atomic.Int64
	conns atomic.Int64
}

// NewEngine loads every servable artifact in dir and partitions the set
// across cfg.Shards shards (0 or 1 = one shard).
func NewEngine(dir string, cfg Config) (*Engine, error) {
	reg, err := loadRegistry(dir)
	if err != nil {
		return nil, err
	}
	st, err := newShardSet(reg, max(cfg.Shards, 1), cfg.Workers)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, start: time.Now(), latencyBase: histo.New()}
	if cfg.MaxInflight > 0 || len(cfg.Tenants) > 0 {
		capacity := cfg.MaxInflight
		if capacity <= 0 {
			// Weighted fairness needs a finite capacity to arbitrate; default
			// to a small multiple of the core count.
			capacity = 4 * runtime.GOMAXPROCS(0)
		}
		// Without tenants nothing queues: a full gate fails fast.
		queue := 0
		if len(cfg.Tenants) > 0 {
			queue = DefaultTenantQueue
		}
		e.gate = newFairGate(capacity, cfg.Tenants, queue)
	}
	e.state.Store(st)
	return e, nil
}

// LoadDir builds an engine with the default Config from every *.metis
// artifact in dir. Tree artifacts (dtree/tree) are quantized on load, and a
// tree that cannot quantize fails the load; quantized-tree artifacts
// (dtree/quantized) are served as-is; artifacts of any other kind are
// skipped and listed in Skipped. A model is named by its artifact's "name"
// metadata, falling back to the file's base name.
func LoadDir(dir string) (*Engine, error) { return NewEngine(dir, Config{}) }

// loadRegistry scans dir into one immutable registry generation.
func loadRegistry(dir string) (*registry, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "*"+Ext))
	if err != nil {
		return nil, fmt.Errorf("serve: scan %s: %w", dir, err)
	}
	if len(entries) == 0 {
		if _, statErr := os.Stat(dir); statErr != nil {
			return nil, fmt.Errorf("serve: %w", statErr)
		}
		return nil, fmt.Errorf("serve: no %s artifacts in %s", Ext, dir)
	}
	reg := &registry{dir: dir, models: map[string]*Model{}, loadedAt: time.Now()}
	sort.Strings(entries)
	for _, path := range entries {
		// Parse the container (cheap, checksum-verified) and dispatch on the
		// kind tag before decoding: non-tree artifacts — including kinds
		// this build doesn't know — are skipped without paying for (or
		// choking on) their payload decode.
		a, err := artifact.Open(path)
		if err != nil {
			return nil, err
		}
		if a.Kind != artifact.KindTree && a.Kind != artifact.KindQuantizedTree {
			reg.skipped = append(reg.skipped, fmt.Sprintf("%s (kind %s)", filepath.Base(path), a.Kind))
			continue
		}
		model, err := a.Decode()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		name := a.Meta["name"]
		if name == "" {
			name = strings.TrimSuffix(filepath.Base(path), Ext)
		}
		entry := &Model{Name: name, Kind: a.Kind, Meta: a.Meta, Path: path}
		if g, err := strconv.ParseInt(a.Meta["generation"], 10, 64); err == nil && g > 0 {
			entry.Generation = g
		}
		// The checksum protects bytes, not invariants: a malformed tree could
		// panic or loop the predict handler, so every tree is validated before
		// it enters the registry. Quantize validates what it builds and
		// refuses a NaN threshold or more than 65,535 distinct thresholds on
		// one feature.
		switch m := model.(type) {
		case *dtree.Tree:
			entry.Quantized, err = m.Quantize()
		case *dtree.Quantized:
			entry.Quantized, err = m, m.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("serve: %s: %w", path, err)
		}
		if _, dup := reg.models[name]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q (set distinct \"name\" metadata)", name)
		}
		reg.models[name] = entry
	}
	if len(reg.models) == 0 {
		return nil, fmt.Errorf("serve: no servable artifacts in %s (skipped: %s)", dir, strings.Join(reg.skipped, ", "))
	}
	return reg, nil
}

// Reload loads dir ("" = the currently served directory) into a fresh
// registry generation and swaps it in atomically, on the same shards. By
// consistent-hash stability every surviving model stays on its shard.
// In-flight predictions keep using the generation they loaded; new requests
// see the new set on their next state load — no lock is taken on the
// predict path. Stats of models that survive the reload (matched by name)
// are carried over; a failed load leaves the current generation serving
// untouched.
func (e *Engine) Reload(dir string) error {
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	st := e.state.Load()
	if dir == "" {
		dir = st.dir
	}
	reg, err := loadRegistry(dir)
	if err != nil {
		return err
	}
	for name, m := range reg.models {
		if prev, ok := st.models[name]; ok {
			// In-flight requests on the old generation may still bump prev
			// after this copy; that sliver of drift is accepted — counters
			// are operational telemetry, not an exactness contract.
			m.requests.Store(prev.requests.Load())
			m.predictions.Store(prev.predictions.Load())
		}
	}
	e.state.Store(st.with(reg))
	e.reloads.Add(1)
	return nil
}

// Dir returns the artifact directory backing the current registry
// generation.
func (e *Engine) Dir() string { return e.state.Load().dir }

// Reloads returns how many reloads and reshards have been applied.
func (e *Engine) Reloads() int64 { return e.reloads.Load() }

// Models returns the current generation's entries sorted by name.
func (e *Engine) Models() []*Model {
	st := e.state.Load()
	out := make([]*Model, 0, len(st.models))
	for _, m := range st.models {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Model looks one model up in the current generation.
func (e *Engine) Model(name string) (*Model, bool) {
	m, ok := e.state.Load().models[name]
	return m, ok
}

// Skipped lists artifacts that were present but not servable in the current
// generation.
func (e *Engine) Skipped() []string { return e.state.Load().skipped }

// maxBatch returns the effective per-request row cap.
func (e *Engine) maxBatch() int {
	if e.cfg.MaxBatch > 0 {
		return e.cfg.MaxBatch
	}
	return DefaultMaxBatch
}

// Prediction is the outcome of one predict call: Actions for classification
// models, Values for regression models — exactly one is set, with one entry
// per input row. Values rows alias the model's immutable value array and
// must not be modified.
type Prediction struct {
	Model   string
	Actions []int
	Values  [][]float64
}

// Predict runs rows through the named model on its shard's inference pool.
// It validates the model name (*UnknownModelError), the batch size
// (ErrEmptyBatch, *BatchSizeError), and every row's width (*DimensionError),
// and only then admission (ErrBusy). Every call counts once in
// the request total, whichever way it ends. Failed calls are not accounted
// in the error counter here — each transport's error path is its single
// accounting point.
func (e *Engine) Predict(name string, rows [][]float64) (*Prediction, error) {
	p := &Prediction{}
	if err := e.PredictInto(name, rows, p); err != nil {
		return nil, err
	}
	return p, nil
}

// PredictInto is Predict writing into a caller-owned Prediction: when
// p.Actions or p.Values has capacity from an earlier call it is reused, so a
// serving loop (the binary codec path, the unix-socket transport) runs
// steady-state predictions without growing the heap. On error p is left
// unmodified.
func (e *Engine) PredictInto(name string, rows [][]float64, p *Prediction) error {
	return e.predictTenant("", name, rows, p, 0)
}

// predictTenant is PredictInto under a tenant identity for weighted fair
// admission, and the only code that walks a tree for a served request: the
// in-process API and every transport end here. The request is validated —
// model lookup, empty batch, row cap, response size, row width — before it
// is admitted, so a request that cannot be served never takes an admission
// token or creates a tenant. respCap is the byte capacity of a transport's
// fixed response buffer (a ring slot), or 0 where the buffer grows. Every
// call counts once: on its model's shard when it fails validation or is
// admitted, in the rejected counter when admission turns it away.
func (e *Engine) predictTenant(tenant, name string, rows [][]float64, p *Prediction, respCap int) error {
	st := e.state.Load()
	sh := st.shardOf(name)
	m, err := e.validate(st, name, len(rows), respCap)
	if err == nil {
		features := m.NumFeatures()
		for i, row := range rows {
			if len(row) != features {
				err = &DimensionError{Model: m.Name, Row: i, Got: len(row), Want: features}
				break
			}
		}
	}
	if err != nil {
		sh.requests.Add(1)
		return err
	}
	// held is the admitted call's service time, measured once for both the
	// latency histogram and the gate's Retry-After estimate.
	var held time.Duration
	if e.gate != nil {
		if err := e.admit(tenant, name); err != nil {
			return err
		}
		defer func() { e.gate.release(held) }()
	}
	t0 := time.Now()
	sh.requests.Add(1)
	m.requests.Add(1)
	m.predictions.Add(int64(len(rows)))
	p.Model = m.Name
	q := m.Quantized
	// Batches that fit one pool task walk on this goroutine directly; only a
	// larger batch builds the chunk closure the shard's pool runs.
	serial := sh.sem == nil || len(rows) <= predictChunk
	if q.IsRegression() {
		out := grow(p.Values, len(rows))
		if serial {
			q.PredictRegBatchInto(rows, out, 1)
		} else {
			sh.forEachChunk(len(rows), func(lo, hi int) { q.PredictRegBatchInto(rows[lo:hi], out[lo:hi], 1) })
		}
		p.Actions, p.Values = nil, out
	} else {
		out := grow(p.Actions, len(rows))
		if serial {
			q.PredictBatchInto(rows, out, 1)
		} else {
			sh.forEachChunk(len(rows), func(lo, hi int) { q.PredictBatchInto(rows[lo:hi], out[lo:hi], 1) })
		}
		p.Actions, p.Values = out, nil
	}
	held = time.Since(t0)
	sh.latency.Record(held.Nanoseconds())
	if mp := e.mirror.Load(); mp != nil {
		// The mirror copies what it samples before returning; rows and
		// p.Actions stay caller-owned.
		(*mp).Observe(m.Name, rows, p.Actions)
	}
	return nil
}

// validate resolves name in st and checks a batch of n rows against it, in
// the order every transport reports failures: model lookup, empty batch, row
// cap, and — when respCap > 0 — whether the binary response fits respCap
// bytes. predictTenant adds the row-width check.
func (e *Engine) validate(st *shardSet, name string, n, respCap int) (*Model, error) {
	m, ok := st.models[name]
	switch {
	case !ok:
		return nil, &UnknownModelError{Name: name}
	case n == 0:
		return nil, ErrEmptyBatch
	case n > e.maxBatch():
		return nil, &BatchSizeError{Rows: n, Max: e.maxBatch()}
	}
	if respCap > 0 {
		// The appendBatchResponse layout: a 13-byte header, then an int32
		// action or OutDim float64 values per row.
		need := 13 + n*4
		if q := m.Quantized; q.IsRegression() {
			need = 13 + n*q.OutDim*8
		}
		if need > respCap {
			return nil, &responseSizeError{Need: need, Cap: respCap}
		}
	}
	return m, nil
}

// decodeRefusal returns the error a transport reports for a binary request
// its decoder refused (nil when derr is nil, and the request goes on to
// predictTenant). A decoder refuses a batch that claims more than MaxBatch
// rows before building it; that refusal is reported and counted as
// predictTenant would have done (model lookup first, one request on the
// model's shard), so the row cap reads the same on every transport. Any
// other decode error passes through uncounted.
func (e *Engine) decodeRefusal(name string, derr error) error {
	if derr == nil {
		return nil
	}
	var size *BatchSizeError
	if !errors.As(derr, &size) {
		return derr
	}
	st := e.state.Load()
	st.shardOf(name).requests.Add(1)
	if _, err := e.validate(st, name, size.Rows, 0); err != nil {
		return err
	}
	return derr
}

// admit takes a gate token for one call. A tenant named in Config.Tenants
// keys its own share; any other value ("" included) is keyed by the model
// name, so peer input cannot grow the gate's tenant set beyond the
// configured tenants plus the models. Callers skip admit when the engine has
// no gate, so an ungated engine pays nothing here. A rejection counts in
// requestsTotal.
func (e *Engine) admit(tenant, model string) error {
	if _, ok := e.cfg.Tenants[tenant]; !ok {
		tenant = model
	}
	err := e.gate.acquire(tenant)
	if err != nil {
		e.rejected.Add(1)
	}
	return err
}

// requestsTotal sums the live shards, the retired-shard base, and the calls
// rejected by admission before reaching any shard: every predict call counts
// once, admitted or rejected.
func (e *Engine) requestsTotal() int64 {
	total := e.requestsBase.Load() + e.rejected.Load()
	for _, sh := range e.state.Load().shards {
		total += sh.requests.Load()
	}
	return total
}

// Latency returns a merged snapshot of the shards' predict-latency
// histograms (nanoseconds per successful call, all transports combined),
// including shard sets retired by Reshard.
func (e *Engine) Latency() *histo.Histogram {
	h := histo.New()
	h.Merge(e.latencyBase)
	for _, sh := range e.state.Load().shards {
		h.Merge(sh.latency)
	}
	return h
}

// SetMirror installs (or, with nil, removes) the engine's predict mirror.
// Safe to call while serving: in-flight predicts see either the old or the
// new mirror.
func (e *Engine) SetMirror(m Mirror) {
	if m == nil {
		e.mirror.Store(nil)
		return
	}
	e.mirror.Store(&m)
}

// mirrorSnapshot returns the installed mirror's counters, or nil when no
// mirror is set.
func (e *Engine) mirrorSnapshot() *MirrorSnapshot {
	mp := e.mirror.Load()
	if mp == nil {
		return nil
	}
	snap := (*mp).Snapshot()
	return &snap
}

// grow resizes s to n entries, reusing its backing array when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
