package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/metis/dtree"
	"repro/internal/serve"
)

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"defaults", nil, ""},
		{"all knobs", []string{"-addr", "unix:///tmp/x.sock", "-models", "a:2,b", "-rate", "500",
			"-arrival", "fixed", "-duration", "1s", "-batch", "8", "-workers", "2", "-conns", "1", "-seed", "9",
			"-transport", "shm", "-json", "out.json"}, ""},
		{"zero rate", []string{"-rate", "0"}, "-rate must be positive"},
		{"bad transport", []string{"-transport", "tcp"}, "-transport must be uds or shm"},
		{"shm over http", []string{"-addr", "http://localhost:9090", "-transport", "shm"}, "-transport shm requires a unix:// -addr"},
		{"bad arrival", []string{"-arrival", "bursty"}, "-arrival must be poisson or fixed"},
		{"zero duration", []string{"-duration", "0s"}, "-duration must be positive"},
		{"zero batch", []string{"-batch", "0"}, "must be positive"},
		{"stray positional", []string{"stray"}, "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%v) = %v", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseFlags(%v) err = %v, want %q", tc.args, err, tc.wantErr)
			}
		})
	}
	if _, err := parseFlags([]string{"-h"}, io.Discard); err != flag.ErrHelp {
		t.Fatalf("-h err = %v, want flag.ErrHelp", err)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("abr:3, dcn ,x:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].weight != 3 || mix[1].name != "dcn" || mix[1].weight != 1 || mix[2].weight != 0.5 {
		t.Fatalf("mix = %+v", mix)
	}
	for _, bad := range []string{"", "a:-1", "a:zero"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) accepted", bad)
		}
	}
}

// reportValue pulls one "key value" line out of a run report.
func reportValue(t *testing.T, report, key string) float64 {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(line, key+" "); ok {
			v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				t.Fatalf("unparsable %s line %q: %v", key, line, err)
			}
			return v
		}
	}
	t.Fatalf("report has no %q line:\n%s", key, report)
	return 0
}

// TestRunAgainstLiveDaemon offers a short burst of open-loop load to a real
// engine over the framed socket and checks the report: traffic flowed, the
// quantiles are present and ordered, and the per-model counts add up.
// treeDir writes a two-feature abr tree, trained on rows drawn from seed,
// into a fresh model directory.
func treeDir(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	ds := &dtree.Dataset{}
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := 0
		if x[0] > x[1] {
			y = 1
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, y)
	}
	tree, err := dtree.Build(ds, dtree.BuildOptions{MaxLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.SaveModel(filepath.Join(dir, "abr.metis"), tree, map[string]string{"name": "abr"}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// loadgenResult is the one result row of a -json record.
type loadgenResult struct {
	Name       string           `json:"name"`
	Iterations int64            `json:"iterations"`
	NsPerOp    int64            `json:"ns_per_op"`
	PredsPerS  float64          `json:"preds/s"`
	Failed     int64            `json:"failed"`
	Transport  string           `json:"transport"`
	Models     map[string]int64 `json:"models"`
}

// readRecord decodes the -json record at path and returns its result row.
func readRecord(t *testing.T, path string) loadgenResult {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Date    string          `json:"date"`
		Go      string          `json:"go"`
		Results []loadgenResult `json:"results"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("-json record is not valid JSON: %v\n%s", err, data)
	}
	if rec.Date == "" || rec.Go == "" || len(rec.Results) != 1 {
		t.Fatalf("record shape: %+v", rec)
	}
	return rec.Results[0]
}

func TestRunAgainstLiveDaemon(t *testing.T) {
	dir := treeDir(t, 3)
	e, err := serve.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "metis.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go e.ServeUDS(l)

	cfg := &config{
		addr:     "unix://" + sock,
		rate:     2000,
		arrival:  "poisson",
		duration: 300 * time.Millisecond,
		batch:    4,
		workers:  2,
		conns:    1,
		seed:     7,
	}
	var out bytes.Buffer
	if err := run(context.Background(), cfg, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()

	total := reportValue(t, report, "requests_total")
	ok := reportValue(t, report, "requests_ok")
	if total < 100 || ok < 100 {
		t.Fatalf("only %g requests scheduled, %g ok:\n%s", total, ok, report)
	}
	if failed := reportValue(t, report, "requests_failed"); failed != 0 {
		t.Fatalf("%g requests failed:\n%s", failed, report)
	}
	if tput := reportValue(t, report, "throughput_preds_per_s"); tput <= 0 {
		t.Fatalf("throughput_preds_per_s = %g", tput)
	}
	p50 := reportValue(t, report, "latency_p50_us")
	p99 := reportValue(t, report, "latency_p99_us")
	p999 := reportValue(t, report, "latency_p999_us")
	max := reportValue(t, report, "latency_max_us")
	if p50 <= 0 || p50 > p99 || p99 > p999 || p999 > max {
		t.Fatalf("quantiles out of order: p50=%g p99=%g p999=%g max=%g", p50, p99, p999, max)
	}
	if modelReqs := reportValue(t, report, "model_requests abr"); modelReqs != ok {
		t.Fatalf("model_requests abr = %g, requests_ok = %g", modelReqs, ok)
	}
	if !strings.Contains(report, "hist_us ") {
		t.Fatalf("report has no histogram lines:\n%s", report)
	}

	// Fixed-rate arrivals against the same daemon, mix given explicitly.
	cfg.arrival = "fixed"
	cfg.models = "abr:2"
	out.Reset()
	if err := run(context.Background(), cfg, &out); err != nil {
		t.Fatal(err)
	}
	if ok := reportValue(t, out.String(), "requests_ok"); ok < 100 {
		t.Fatalf("fixed-rate run completed only %g requests", ok)
	}

	// A mix naming an unserved model must fail fast.
	cfg.models = "ghost"
	if err := run(context.Background(), cfg, io.Discard.(io.Writer)); err == nil {
		t.Fatal("run accepted a mix naming an unserved model")
	}
}

// TestRunSharedMemoryTransport drives a shared-memory-enabled daemon with
// -transport shm and -json: traffic rides the rings (the engine reports a
// live shm connection), nothing fails, and the JSON record matches the
// benchmark-file schema with a positive preds/s.
func TestRunSharedMemoryTransport(t *testing.T) {
	dir := treeDir(t, 5)
	e, err := serve.NewEngine(dir, serve.Config{SHMDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "metis.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go e.ServeSHM(l)

	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	cfg := &config{
		addr:      "unix://" + sock,
		transport: "shm",
		rate:      2000,
		arrival:   "poisson",
		duration:  300 * time.Millisecond,
		batch:     4,
		workers:   2,
		conns:     1,
		seed:      7,
		jsonPath:  jsonPath,
	}
	var out bytes.Buffer
	if err := run(context.Background(), cfg, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if ok := reportValue(t, report, "requests_ok"); ok < 100 {
		t.Fatalf("shm run completed only %g requests:\n%s", ok, report)
	}
	if failed := reportValue(t, report, "requests_failed"); failed != 0 {
		t.Fatalf("%g requests failed over shm:\n%s", failed, report)
	}
	if e.SHMConns() == 0 {
		t.Fatal("no shared-memory connection established — the loadgen fell back to frames")
	}

	res := readRecord(t, jsonPath)
	if res.Name != "LoadgenPredictBatch/shm" || res.Iterations < 100 ||
		res.NsPerOp <= 0 || res.PredsPerS <= 0 || res.Failed != 0 {
		t.Fatalf("record result: %+v", res)
	}
	// The record must identify the transport and the realized per-model mix,
	// which for a single-model run is every completed request.
	if res.Transport != "shm" {
		t.Fatalf("record transport = %q, want shm", res.Transport)
	}
	if res.Models["abr"] != res.Iterations {
		t.Fatalf("record models = %v, want abr = %d", res.Models, res.Iterations)
	}
}

// TestRunHTTPRecordsTransport drives an HTTP daemon with the default
// -transport: the -json record must name http, which the -addr chose, not
// the socket transport the flag defaults to.
func TestRunHTTPRecordsTransport(t *testing.T) {
	e, err := serve.LoadDir(treeDir(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	cfg, err := parseFlags([]string{"-addr", ts.URL, "-rate", "2000", "-duration", "300ms",
		"-batch", "4", "-workers", "2", "-conns", "1", "-json", jsonPath}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), cfg, &out); err != nil {
		t.Fatal(err)
	}
	if failed := reportValue(t, out.String(), "requests_failed"); failed != 0 {
		t.Fatalf("%g requests failed over http:\n%s", failed, out.String())
	}
	res := readRecord(t, jsonPath)
	if res.Name != "LoadgenPredictBatch/http" || res.Transport != "http" {
		t.Fatalf("record name %q, transport %q; want LoadgenPredictBatch/http, http", res.Name, res.Transport)
	}
	if res.Iterations < 100 || res.Models["abr"] != res.Iterations {
		t.Fatalf("record result: %+v", res)
	}
}
