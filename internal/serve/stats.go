package serve

import (
	"fmt"
	"maps"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"
)

// ModelInfo is one row of the models listing.
type ModelInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Scenario tags which pipeline domain produced the model (from the
	// artifact's "scenario" metadata; empty for hand-saved artifacts).
	Scenario   string            `json:"scenario,omitempty"`
	Nodes      int               `json:"nodes"`
	Features   int               `json:"features"`
	Classes    int               `json:"classes,omitempty"`
	OutDim     int               `json:"out_dim,omitempty"`
	Regression bool              `json:"regression"`
	Meta       map[string]string `json:"meta,omitempty"`
}

// info renders a model's registry row.
func (m *Model) info() ModelInfo {
	return ModelInfo{
		Name: m.Name, Kind: m.Kind, Scenario: m.Meta["scenario"],
		Nodes: m.NumNodes(), Features: m.NumFeatures(),
		Classes: m.NumClasses(), OutDim: m.OutDim(),
		Regression: m.IsRegression(), Meta: m.Meta,
	}
}

// ModelStats are one model's live counters.
type ModelStats struct {
	Requests    int64 `json:"requests"`
	Predictions int64 `json:"predictions"`
	// Generation is the model's refit generation (0 = seed student); it
	// advances when the shadow loop refits and reverts on rollback, so an
	// operator polling stats can watch a canary converge.
	Generation int64 `json:"generation"`
	// Fidelity is the shadow loop's windowed teacher-agreement estimate for
	// this model; absent until a mirror is installed and its window fills.
	Fidelity *float64 `json:"fidelity,omitempty"`
}

// statsFor renders one model's stats entry, folding in the mirror's
// fidelity estimate when one is measuring this model.
func statsFor(m *Model, snap *MirrorSnapshot) ModelStats {
	s := ModelStats{
		Requests:    m.requests.Load(),
		Predictions: m.predictions.Load(),
		Generation:  m.Generation,
	}
	if snap != nil {
		if ms, ok := snap.Models[m.Name]; ok && ms.Fidelity >= 0 {
			f := ms.Fidelity
			s.Fidelity = &f
		}
	}
	return s
}

// ModelDetail is the model document: the registry row plus the model's live
// counters.
type ModelDetail struct {
	ModelInfo
	Stats ModelStats `json:"stats"`
}

// Stats is the stats document: one snapshot of the engine's counters, which
// the "stats" control op encodes on every transport and /metrics renders.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_s"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	Reloads       int64   `json:"reloads"`
	Dir           string  `json:"dir"`
	// LoadedAt is when the served registry generation loaded (RFC 3339, UTC).
	LoadedAt string                `json:"loaded_at"`
	Models   map[string]ModelStats `json:"models"`
	Shadow   ShadowStats           `json:"shadow"`
	SHM      SHMStats              `json:"shm"`
	Latency  LatencyStats          `json:"latency"`
	Runtime  RuntimeStats          `json:"runtime"`
	// Shards is set on a multi-shard engine, Tenants on an engine with an
	// admission gate.
	Shards  []ShardStats           `json:"shards,omitempty"`
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// ShardStats is one shard's block in the stats document of a multi-shard
// engine.
type ShardStats struct {
	Shard       int   `json:"shard"`
	Models      int   `json:"models"`
	Requests    int64 `json:"requests"`
	Predictions int64 `json:"predictions"`
}

// ShadowStats is the continuous-distillation block: the installed mirror's
// totals, all zero with Enabled false while no mirror is installed.
type ShadowStats struct {
	Enabled bool `json:"enabled"`
	// Sampled counts batches copied to the shadow queue; Dropped counts
	// sampled batches discarded because the queue was full (drop-and-count:
	// mirroring never backpressures serving). Scored counts batches compared
	// against the teacher, so Sampled == Scored + Dropped once the queue
	// drains.
	Sampled int64 `json:"sampled"`
	Dropped int64 `json:"dropped"`
	Scored  int64 `json:"scored"`
	// Disagreements counts scored rows where teacher and student differ;
	// Refits and Rollbacks count controller actions.
	Disagreements int64 `json:"disagreements"`
	Refits        int64 `json:"refits"`
	Rollbacks     int64 `json:"rollbacks"`
}

// SHMStats is the shared-memory transport block: live ring connections and
// the doorbell frames written to parked ring clients.
type SHMStats struct {
	Conns int64 `json:"conns"`
	Wakes int64 `json:"wakes"`
}

// LatencyStats summarizes the predict-latency histogram (successful calls,
// all transports) in microseconds.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

// RuntimeStats is the process's cumulative heap allocation and GC cycle
// counts. They never decrease, so the difference between two reads is what
// the process allocated and collected in between.
type RuntimeStats struct {
	HeapAllocBytes   uint64 `json:"heap_alloc_bytes"`
	HeapAllocObjects uint64 `json:"heap_alloc_objects"`
	GCCycles         uint64 `json:"gc_cycles"`
}

// stats takes the engine's stats snapshot, the one read of its counters
// behind every stats document and /metrics scrape.
func (e *Engine) stats() Stats {
	st := e.state.Load()
	h := e.Latency()
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	s := Stats{
		UptimeSeconds: time.Since(e.start).Seconds(),
		Requests:      e.requestsTotal(),
		Errors:        e.errors.Load(),
		Reloads:       e.Reloads(),
		Dir:           st.dir,
		LoadedAt:      st.loadedAt.UTC().Format(time.RFC3339),
		Models:        make(map[string]ModelStats, len(st.models)),
		SHM:           SHMStats{Conns: e.shm.conns.Load(), Wakes: e.shm.wakes.Load()},
		Latency: LatencyStats{
			Count:  h.Count(),
			MeanUS: h.Mean() / 1e3,
			P50US:  float64(h.Quantile(0.50)) / 1e3,
			P99US:  float64(h.Quantile(0.99)) / 1e3,
			P999US: float64(h.Quantile(0.999)) / 1e3,
			MaxUS:  float64(h.Max()) / 1e3,
		},
		Runtime: RuntimeStats{
			HeapAllocBytes:   samples[0].Value.Uint64(),
			HeapAllocObjects: samples[1].Value.Uint64(),
			GCCycles:         samples[2].Value.Uint64(),
		},
	}
	snap := e.mirrorSnapshot()
	for name, m := range st.models {
		s.Models[name] = statsFor(m, snap)
	}
	if snap != nil {
		s.Shadow = snap.ShadowStats
		s.Shadow.Enabled = true
	}
	if len(st.shards) > 1 {
		s.Shards = make([]ShardStats, len(st.shards))
		for i, sh := range st.shards {
			s.Shards[i] = ShardStats{Shard: i, Requests: sh.requests.Load()}
		}
		for name, idx := range st.assign {
			s.Shards[idx].Models++
			s.Shards[idx].Predictions += st.models[name].predictions.Load()
		}
	}
	if e.gate != nil {
		s.Tenants = e.gate.snapshot()
	}
	return s
}

// family is one /metrics series family: its name, type and help line, the
// label its samples carry ("" for one unlabelled sample), and the accessor
// that reads its samples off a snapshot.
type family struct {
	name, kind, help, label string
	samples                 func(s *Stats) []sample
}

// sample is one value of a family; label is empty for an unlabelled family.
type sample struct {
	label string
	value float64
}

// one is the sample of an unlabelled family.
func one[T int64 | float64](v T) []sample { return []sample{{value: float64(v)}} }

// perKey is one sample per entry of m, in sorted key order.
func perKey[V any](m map[string]V, value func(V) int64) []sample {
	out := []sample{}
	for _, k := range slices.Sorted(maps.Keys(m)) {
		out = append(out, sample{k, float64(value(m[k]))})
	}
	return out
}

// families is the /metrics exposition, in rendering order. A family with no
// samples (the shard family on a one-shard engine, the tenant families
// without an admission gate) renders nothing.
var families = []family{
	{"metis_requests_total", "counter", "Predict calls admitted or rejected by the engine.", "",
		func(s *Stats) []sample { return one(s.Requests) }},
	{"metis_errors_total", "counter", "Requests that failed (any 4xx/5xx).", "",
		func(s *Stats) []sample { return one(s.Errors) }},
	{"metis_reloads_total", "counter", "Registry hot reloads applied.", "",
		func(s *Stats) []sample { return one(s.Reloads) }},
	{"metis_shm_wakes_total", "counter", "Doorbell frames written to parked ring clients (flat while rings stay busy).", "",
		func(s *Stats) []sample { return one(s.SHM.Wakes) }},
	// The shadow counters render as zeros until a mirror is installed, so
	// scrapers see a stable metric set whether or not -shadow-rate is on.
	{"metis_shadow_sampled_total", "counter", "Predict batches mirrored to the shadow-scoring queue.", "",
		func(s *Stats) []sample { return one(s.Shadow.Sampled) }},
	{"metis_shadow_dropped_total", "counter", "Sampled batches dropped because the shadow queue was full.", "",
		func(s *Stats) []sample { return one(s.Shadow.Dropped) }},
	{"metis_shadow_scored_total", "counter", "Sampled batches scored against the teacher.", "",
		func(s *Stats) []sample { return one(s.Shadow.Scored) }},
	{"metis_shadow_disagreements_total", "counter", "Shadow-scored rows where teacher and student disagreed.", "",
		func(s *Stats) []sample { return one(s.Shadow.Disagreements) }},
	{"metis_shadow_refits_total", "counter", "Drift-triggered student refits applied by the shadow loop.", "",
		func(s *Stats) []sample { return one(s.Shadow.Refits) }},
	{"metis_shadow_rollbacks_total", "counter", "Refits rolled back because the new student measured worse.", "",
		func(s *Stats) []sample { return one(s.Shadow.Rollbacks) }},
	{"metis_shm_conns", "gauge", "Connections currently serving shared-memory ring traffic.", "",
		func(s *Stats) []sample { return one(s.SHM.Conns) }},
	{"metis_uptime_seconds", "gauge", "Engine uptime.", "",
		func(s *Stats) []sample { return one(s.UptimeSeconds) }},
	{"metis_models", "gauge", "Servable models in the current registry generation.", "",
		func(s *Stats) []sample { return one(int64(len(s.Models))) }},
	{"metis_shard_requests_total", "counter", "Predict requests per engine shard.", "shard",
		func(s *Stats) []sample {
			out := []sample{}
			for _, ss := range s.Shards {
				out = append(out, sample{strconv.Itoa(ss.Shard), float64(ss.Requests)})
			}
			return out
		}},
	{"metis_tenant_admitted_total", "counter", "Predict calls admitted per tenant.", "tenant",
		func(s *Stats) []sample { return perKey(s.Tenants, func(t TenantStats) int64 { return t.Admitted }) }},
	{"metis_tenant_rejected_total", "counter", "Predict calls rejected or shed per tenant.", "tenant",
		func(s *Stats) []sample {
			return perKey(s.Tenants, func(t TenantStats) int64 { return t.Rejected + t.Shed })
		}},
	{"metis_model_requests_total", "counter", "Predict requests per model.", "model",
		func(s *Stats) []sample { return perKey(s.Models, func(m ModelStats) int64 { return m.Requests }) }},
	{"metis_model_predictions_total", "counter", "Rows predicted per model.", "model",
		func(s *Stats) []sample { return perKey(s.Models, func(m ModelStats) int64 { return m.Predictions }) }},
}

// appendMetrics appends a snapshot's Prometheus text exposition to b — no
// client library, the format is four line shapes.
func appendMetrics(b []byte, s *Stats) []byte {
	for _, f := range families {
		samples := f.samples(s)
		if len(samples) == 0 {
			continue
		}
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, smp := range samples {
			b = append(b, f.name...)
			if f.label != "" {
				b = fmt.Appendf(b, "{%s=%q}", f.label, smp.label)
			}
			b = append(b, ' ')
			b = strconv.AppendFloat(b, smp.value, 'f', -1, 64)
			b = append(b, '\n')
		}
	}
	return b
}
