package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fixedStats is a stats snapshot with every block filled: three tenants,
// two shards, a fidelity estimate and a live mirror.
func fixedStats() Stats {
	fid := 0.875
	return Stats{
		UptimeSeconds: 12.5, Requests: 101, Errors: 3, Reloads: 2,
		Dir: "/srv/models", LoadedAt: "2026-01-02T03:04:05Z",
		Models: map[string]ModelStats{
			"abr":      {Requests: 60, Predictions: 480, Generation: 2, Fidelity: &fid},
			"dcn":      {Requests: 30, Predictions: 30},
			"cellular": {Requests: 8, Predictions: 64},
		},
		Shadow: ShadowStats{Enabled: true, Sampled: 40, Dropped: 4, Scored: 35,
			Disagreements: 17, Refits: 1, Rollbacks: 1},
		SHM:     SHMStats{Conns: 2, Wakes: 9},
		Latency: LatencyStats{Count: 98, MeanUS: 4.25, P50US: 3.5, P99US: 20, P999US: 31.75, MaxUS: 40},
		Runtime: RuntimeStats{HeapAllocBytes: 1 << 20, HeapAllocObjects: 4096, GCCycles: 7},
		Shards: []ShardStats{
			{Shard: 0, Models: 2, Requests: 68, Predictions: 544},
			{Shard: 1, Models: 1, Requests: 30, Predictions: 30},
		},
		Tenants: map[string]TenantStats{
			"silver": {Weight: 2, Admitted: 20, Rejected: 1, Queued: 1},
			"gold":   {Weight: 3, Admitted: 60, Shed: 2},
			"bronze": {Weight: 1, Admitted: 10, Rejected: 4, Shed: 1, Queued: 3},
		},
	}
}

// fixedMetrics is fixedStats' exposition: families in table order, label
// values in sorted order.
const fixedMetrics = `# HELP metis_requests_total Predict calls admitted or rejected by the engine.
# TYPE metis_requests_total counter
metis_requests_total 101
# HELP metis_errors_total Requests that failed (any 4xx/5xx).
# TYPE metis_errors_total counter
metis_errors_total 3
# HELP metis_reloads_total Registry hot reloads applied.
# TYPE metis_reloads_total counter
metis_reloads_total 2
# HELP metis_shm_wakes_total Doorbell frames written to parked ring clients (flat while rings stay busy).
# TYPE metis_shm_wakes_total counter
metis_shm_wakes_total 9
# HELP metis_shadow_sampled_total Predict batches mirrored to the shadow-scoring queue.
# TYPE metis_shadow_sampled_total counter
metis_shadow_sampled_total 40
# HELP metis_shadow_dropped_total Sampled batches dropped because the shadow queue was full.
# TYPE metis_shadow_dropped_total counter
metis_shadow_dropped_total 4
# HELP metis_shadow_scored_total Sampled batches scored against the teacher.
# TYPE metis_shadow_scored_total counter
metis_shadow_scored_total 35
# HELP metis_shadow_disagreements_total Shadow-scored rows where teacher and student disagreed.
# TYPE metis_shadow_disagreements_total counter
metis_shadow_disagreements_total 17
# HELP metis_shadow_refits_total Drift-triggered student refits applied by the shadow loop.
# TYPE metis_shadow_refits_total counter
metis_shadow_refits_total 1
# HELP metis_shadow_rollbacks_total Refits rolled back because the new student measured worse.
# TYPE metis_shadow_rollbacks_total counter
metis_shadow_rollbacks_total 1
# HELP metis_shm_conns Connections currently serving shared-memory ring traffic.
# TYPE metis_shm_conns gauge
metis_shm_conns 2
# HELP metis_uptime_seconds Engine uptime.
# TYPE metis_uptime_seconds gauge
metis_uptime_seconds 12.5
# HELP metis_models Servable models in the current registry generation.
# TYPE metis_models gauge
metis_models 3
# HELP metis_shard_requests_total Predict requests per engine shard.
# TYPE metis_shard_requests_total counter
metis_shard_requests_total{shard="0"} 68
metis_shard_requests_total{shard="1"} 30
# HELP metis_tenant_admitted_total Predict calls admitted per tenant.
# TYPE metis_tenant_admitted_total counter
metis_tenant_admitted_total{tenant="bronze"} 10
metis_tenant_admitted_total{tenant="gold"} 60
metis_tenant_admitted_total{tenant="silver"} 20
# HELP metis_tenant_rejected_total Predict calls rejected or shed per tenant.
# TYPE metis_tenant_rejected_total counter
metis_tenant_rejected_total{tenant="bronze"} 5
metis_tenant_rejected_total{tenant="gold"} 2
metis_tenant_rejected_total{tenant="silver"} 1
# HELP metis_model_requests_total Predict requests per model.
# TYPE metis_model_requests_total counter
metis_model_requests_total{model="abr"} 60
metis_model_requests_total{model="cellular"} 8
metis_model_requests_total{model="dcn"} 30
# HELP metis_model_predictions_total Rows predicted per model.
# TYPE metis_model_predictions_total counter
metis_model_predictions_total{model="abr"} 480
metis_model_predictions_total{model="cellular"} 64
metis_model_predictions_total{model="dcn"} 30
`

// TestMetricsByteStable: one snapshot renders to the same bytes on every
// scrape, with tenant, shard and model lines in sorted order.
func TestMetricsByteStable(t *testing.T) {
	s := fixedStats()
	first := appendMetrics(nil, &s)
	for i := 0; i < 10; i++ {
		if again := appendMetrics(nil, &s); !bytes.Equal(again, first) {
			t.Fatalf("render %d differs:\n%s\nfirst:\n%s", i, again, first)
		}
	}
	if string(first) != fixedMetrics {
		t.Fatalf("/metrics:\n%s\nwant:\n%s", first, fixedMetrics)
	}
}

// TestMetricsMatchStatsDocument renders one snapshot both ways and checks
// that every /metrics sample equals the value at its stats-document path,
// and that every numeric leaf of the document is either rendered by some
// series or named as JSON-only.
func TestMetricsMatchStatsDocument(t *testing.T) {
	s := fixedStats()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	// at reads path in doc; a "*" step selects the label's entry of a map,
	// or the list entry whose "shard" field is the label.
	used := map[string]bool{}
	at := func(path, label string) float64 {
		used[path] = true
		var v any = doc
		for _, step := range strings.Split(path, ".") {
			switch node := v.(type) {
			case map[string]any:
				if step == "*" {
					step = label
				}
				v = node[step]
			case []any:
				v = nil
				for _, el := range node {
					if fmt.Sprint(el.(map[string]any)["shard"]) == label {
						v = el
					}
				}
			}
		}
		f, ok := v.(float64)
		if !ok {
			t.Fatalf("stats document has no number at %s (label %q)", path, label)
		}
		return f
	}
	leaf := func(path string) func(string) float64 {
		return func(label string) float64 { return at(path, label) }
	}
	series := map[string]func(label string) float64{
		"metis_requests_total":             leaf("requests"),
		"metis_errors_total":               leaf("errors"),
		"metis_reloads_total":              leaf("reloads"),
		"metis_shm_wakes_total":            leaf("shm.wakes"),
		"metis_shadow_sampled_total":       leaf("shadow.sampled"),
		"metis_shadow_dropped_total":       leaf("shadow.dropped"),
		"metis_shadow_scored_total":        leaf("shadow.scored"),
		"metis_shadow_disagreements_total": leaf("shadow.disagreements"),
		"metis_shadow_refits_total":        leaf("shadow.refits"),
		"metis_shadow_rollbacks_total":     leaf("shadow.rollbacks"),
		"metis_shm_conns":                  leaf("shm.conns"),
		"metis_uptime_seconds":             leaf("uptime_s"),
		"metis_models":                     func(string) float64 { return float64(len(doc["models"].(map[string]any))) },
		"metis_shard_requests_total":       leaf("shards.*.requests"),
		"metis_tenant_admitted_total":      leaf("tenants.*.admitted"),
		"metis_tenant_rejected_total": func(l string) float64 {
			return at("tenants.*.rejected", l) + at("tenants.*.shed", l)
		},
		"metis_model_requests_total":    leaf("models.*.requests"),
		"metis_model_predictions_total": leaf("models.*.predictions"),
	}
	// jsonOnly are the stats-document leaves no series renders.
	jsonOnly := []string{
		"dir", "loaded_at", "shadow.enabled",
		"latency.count", "latency.mean_us", "latency.p50_us", "latency.p99_us", "latency.p999_us", "latency.max_us",
		"runtime.heap_alloc_bytes", "runtime.heap_alloc_objects", "runtime.gc_cycles",
		"models.*.generation", "models.*.fidelity",
		"shards.*.shard", "shards.*.models", "shards.*.predictions",
		"tenants.*.weight", "tenants.*.queued",
	}

	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(appendMetrics(nil, &s))), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		name, label := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
			_, quoted, _ := strings.Cut(strings.TrimSuffix(key[i+1:], "}"), "=")
			if label, err = strconv.Unquote(quoted); err != nil {
				t.Fatalf("%s: bad label: %v", line, err)
			}
		}
		want, ok := series[name]
		if !ok {
			t.Fatalf("series %s has no stats-document path", name)
		}
		seen[name] = true
		got, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if w := want(label); got != w {
			t.Errorf("%s = %v, stats document %v", key, got, w)
		}
	}
	for name := range series {
		if !seen[name] {
			t.Errorf("series %s missing from /metrics", name)
		}
	}

	// Every leaf of the document, with map keys and list indices as "*".
	var leaves []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		join := func(k string) string {
			if prefix == "" {
				return k
			}
			return prefix + "." + k
		}
		switch node := v.(type) {
		case map[string]any:
			for k, c := range node {
				if prefix == "models" || prefix == "tenants" {
					k = "*"
				}
				walk(join(k), c)
			}
		case []any:
			for _, c := range node {
				walk(join("*"), c)
			}
		default:
			leaves = append(leaves, prefix)
		}
	}
	walk("", doc)
	slices.Sort(leaves)
	for _, p := range slices.Compact(leaves) {
		if !used[p] && !slices.Contains(jsonOnly, p) {
			t.Errorf("stats-document field %s has no series and is not listed as JSON-only", p)
		}
	}
	for _, p := range jsonOnly {
		if used[p] || !slices.Contains(leaves, p) {
			t.Errorf("JSON-only field %s is rendered or absent", p)
		}
	}
}
