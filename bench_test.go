// This file is the benchmark harness required by the reproduction: one bench
// per paper table/figure (reporting the headline metric via b.ReportMetric)
// plus micro-benchmarks for the deployment claims (decision latency, model
// footprint, extraction overhead) and ablations of the design choices called
// out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package metis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abr"
	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/dcn"
	"repro/internal/experiments"
	"repro/internal/metis/dtree"
	"repro/internal/metis/mask"
	"repro/internal/routenet"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/scenarios"
	"repro/internal/serve"
	"repro/internal/shadow"
	"repro/internal/shmring"
	"repro/internal/stats"
)

var (
	fixOnce sync.Once
	fix     *experiments.Fixture
)

// fixture trains the shared teachers once per benchmark binary.
func fixture() *experiments.Fixture {
	fixOnce.Do(func() { fix = experiments.NewFixture(scenario.ScaleTest) })
	return fix
}

// BenchmarkFig07DecisionTree regenerates the Figure 7 interpretation.
func BenchmarkFig07DecisionTree(b *testing.B) {
	f := fixture()
	var fid float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig07(f)
		fid = r.Fidelity
	}
	b.ReportMetric(100*fid, "fidelity_%")
}

// BenchmarkFig11Redesign regenerates the §6.2 structure comparison.
func BenchmarkFig11Redesign(b *testing.B) {
	f := fixture()
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = experiments.Fig11(f).FinalGainPct
	}
	b.ReportMetric(gain, "modified_gain_%")
}

// BenchmarkFig12Frequencies regenerates the bitrate-frequency figure.
func BenchmarkFig12Frequencies(b *testing.B) {
	f := fixture()
	var rare float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(f, "HSDPA")
		rare = 100 * (r.PensieveRare[0] + r.PensieveRare[1])
	}
	b.ReportMetric(rare, "rare_bitrate_%")
}

// BenchmarkFig13FixedLink regenerates the fixed-link debugging study.
func BenchmarkFig13FixedLink(b *testing.B) {
	f := fixture()
	var conf float64
	for i := 0; i < b.N; i++ {
		conf = experiments.Fig13(f, 3000).PensieveConfidence
	}
	b.ReportMetric(conf, "dnn_confidence")
}

// BenchmarkFig14Oversample regenerates the oversampling fix comparison.
func BenchmarkFig14Oversample(b *testing.B) {
	f := fixture()
	var avg float64
	for i := 0; i < b.N; i++ {
		avg = experiments.Fig14(f).Avg
	}
	b.ReportMetric(100*avg, "oversampled_QoE_%ofDNN")
}

// BenchmarkFig15aQoEParity regenerates the tree-vs-DNN QoE table.
func BenchmarkFig15aQoEParity(b *testing.B) {
	f := fixture()
	var gap float64
	for i := 0; i < b.N; i++ {
		gap = experiments.Fig15a(f).TreeGapPct[0]
	}
	b.ReportMetric(gap, "tree_gap_%")
}

// BenchmarkFig15bFCTParity regenerates the AuTO FCT parity comparison.
func BenchmarkFig15bFCTParity(b *testing.B) {
	f := fixture()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = experiments.Fig15b(f).AvgRatio[0]
	}
	b.ReportMetric(100*ratio, "tree_FCT_%ofDNN")
}

// BenchmarkFig16aLatency regenerates the decision-latency comparison.
func BenchmarkFig16aLatency(b *testing.B) {
	f := fixture()
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = experiments.Fig16a(f).Speedup
	}
	b.ReportMetric(speedup, "tree_speedup_x")
}

// BenchmarkFig16bCoverage regenerates the per-flow coverage comparison.
func BenchmarkFig16bCoverage(b *testing.B) {
	f := fixture()
	var gain float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16b(f)
		gain = 100 * (r.FlowCoverage[1][1] - r.FlowCoverage[1][0])
	}
	b.ReportMetric(gain, "DM_flow_coverage_gain_pp")
}

// BenchmarkFig17aMedianFlows regenerates the median-flow scheduling study.
func BenchmarkFig17aMedianFlows(b *testing.B) {
	f := fixture()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = experiments.Fig17a(f).MedianFCTRatio[0]
	}
	b.ReportMetric(100*ratio, "median_FCT_%ofbase")
}

// BenchmarkFig17bFootprint regenerates the model footprint comparison.
func BenchmarkFig17bFootprint(b *testing.B) {
	f := fixture()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = experiments.Fig17b(f).SizeRatio
	}
	b.ReportMetric(ratio, "size_ratio_x")
}

// BenchmarkFig18Adjust regenerates the ad-hoc rerouting quadrant test.
func BenchmarkFig18Adjust(b *testing.B) {
	f := fixture()
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = experiments.Fig18(f).QuadrantFrac
	}
	b.ReportMetric(100*frac, "quadrant_I_III_%")
}

// BenchmarkTable3Masks regenerates the top-5 mask interpretation table.
func BenchmarkTable3Masks(b *testing.B) {
	f := fixture()
	var top float64
	for i := 0; i < b.N; i++ {
		top = experiments.Table3(f).Rows[0].Mask
	}
	b.ReportMetric(top, "top_mask")
}

// BenchmarkFig09MaskDistribution regenerates the mask CDF/correlation study.
func BenchmarkFig09MaskDistribution(b *testing.B) {
	f := fixture()
	var r float64
	for i := 0; i < b.N; i++ {
		r = experiments.Fig09(f).PearsonR
	}
	b.ReportMetric(r, "pearson_r")
}

// BenchmarkFig20Resampling regenerates the Equation 1 resampling ablation.
func BenchmarkFig20Resampling(b *testing.B) {
	f := fixture()
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = experiments.Fig20(f).ImprovedFrac
	}
	b.ReportMetric(100*frac, "improved_traces_%")
}

// BenchmarkFig27InterpBaselines regenerates the LIME/LEMNA comparison.
func BenchmarkFig27InterpBaselines(b *testing.B) {
	f := fixture()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc = experiments.Fig27(f, []int{1, 5}).TreeAcc
	}
	b.ReportMetric(100*acc, "tree_acc_%")
}

// BenchmarkFig28LeafSensitivity regenerates the leaf-count sweep.
func BenchmarkFig28LeafSensitivity(b *testing.B) {
	f := fixture()
	var spread float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig28(f, []int{10, 200})
		spread = r.Acc[1] - r.Acc[0]
	}
	b.ReportMetric(100*spread, "acc_spread_pp")
}

// BenchmarkFig29LambdaSweep regenerates the λ sensitivity study.
func BenchmarkFig29LambdaSweep(b *testing.B) {
	f := fixture()
	var drop float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig29(f)
		drop = r.NormAtL1[0] - r.NormAtL1[len(r.NormAtL1)-1]
	}
	b.ReportMetric(drop, "norm_drop")
}

// BenchmarkFig31Overhead regenerates the extraction-overhead measurements.
func BenchmarkFig31Overhead(b *testing.B) {
	f := fixture()
	var secs float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig31(f, []int{200})
		secs = r.TreeTimes[0].Seconds()
	}
	b.ReportMetric(secs, "tree_extract_s")
}

// BenchmarkTable5FixedLink regenerates the 1300 kbps comparison.
func BenchmarkTable5FixedLink(b *testing.B) {
	f := fixture()
	var q float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table5(f)
		q = r.QoE[len(r.QoE)-1]
	}
	b.ReportMetric(q, "pensieve_QoE")
}

// --- Micro-benchmarks for the deployment claims -------------------------

// BenchmarkDNNDecision times one lRLA DNN inference (Fig. 16a numerator).
func BenchmarkDNNDecision(b *testing.B) {
	lrla, _, _, _ := fixture().AuTo()
	state := make([]float64, dcn.LongFlowStateDim)
	state[0], state[1] = 6, 7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lrla.Decide(state)
	}
}

// BenchmarkTreeDecision times one distilled-tree decision (denominator).
func BenchmarkTreeDecision(b *testing.B) {
	_, _, tree, _ := fixture().AuTo()
	state := make([]float64, dcn.LongFlowStateDim)
	state[0], state[1] = 6, 7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(state)
	}
}

// BenchmarkPensieveDNNDecision times one Pensieve actor inference.
func BenchmarkPensieveDNNDecision(b *testing.B) {
	agent := fixture().Pensieve()
	state := make([]float64, abr.StateDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Act(state)
	}
}

// BenchmarkPensieveTreeDecision times one Pensieve tree decision.
func BenchmarkPensieveTreeDecision(b *testing.B) {
	tree := fixture().PensieveTree().Tree
	state := make([]float64, abr.StateDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(state)
	}
}

// lrlaBatch builds a batch of plausible long-flow states for the serving
// benchmarks.
func lrlaBatch(n int) [][]float64 {
	rng := rand.New(rand.NewSource(515))
	X := make([][]float64, n)
	for i := range X {
		x := make([]float64, dcn.LongFlowStateDim)
		for k := range x {
			x[k] = rng.Float64() * 8
		}
		X[i] = x
	}
	return X
}

// BenchmarkQuantizedPredictBatch measures the serving hot path: batched
// lock-free inference on the quantized lRLA tree across the worker pool,
// into a preallocated output buffer. The serial subbench is the allocation
// contract — 0 allocs/op in the traversal — and the headline metric is
// predictions per second.
func BenchmarkQuantizedPredictBatch(b *testing.B) {
	_, _, tree, _ := fixture().AuTo()
	q, err := tree.Quantize()
	if err != nil {
		b.Fatal(err)
	}
	X := lrlaBatch(16384)
	out := make([]int, len(X))
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "allcores"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.PredictBatchInto(X, out, workers)
			}
			b.ReportMetric(float64(len(X))*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
		})
	}
}

// serveBenchServer loads the lRLA tree into an engine behind httptest for
// the end-to-end serving benchmarks.
func serveBenchServer(b *testing.B) *httptest.Server {
	b.Helper()
	_, _, tree, _ := fixture().AuTo()
	dir := b.TempDir()
	if err := artifact.SaveModel(filepath.Join(dir, "dcn.metis"), tree, map[string]string{"name": "dcn"}); err != nil {
		b.Fatal(err)
	}
	e, err := serve.LoadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	b.Cleanup(ts.Close)
	return ts
}

// serveBenchBatch is the batch size of the end-to-end serving benchmarks.
const serveBenchBatch = 512

// BenchmarkServePredictBatch measures end-to-end serving throughput over
// the JSON codec: a batch request through the v2 HTTP handler, including
// decode, registry lookup, quantized-tree inference, and response encode.
func BenchmarkServePredictBatch(b *testing.B) {
	ts := serveBenchServer(b)
	payload, err := json.Marshal(map[string]any{"xs": lrlaBatch(serveBenchBatch)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v2/models/dcn:predict", serve.ContentTypeJSON, bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.ReportMetric(float64(serveBenchBatch)*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkServePredictBatchBinary is BenchmarkServePredictBatch over the
// binary batch codec (application/x-metis-batch) — the same route, request
// size, and inference work, with the packed float64 wire format replacing
// JSON on both directions. The preds/s gap between the two is the codec
// win.
func BenchmarkServePredictBatchBinary(b *testing.B) {
	ts := serveBenchServer(b)
	var payload bytes.Buffer
	if err := serve.EncodeBatchRequest(&payload, "dcn", lrlaBatch(serveBenchBatch)); err != nil {
		b.Fatal(err)
	}
	raw := payload.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v2/models/dcn:predict", serve.ContentTypeBinary, bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.ReportMetric(float64(serveBenchBatch)*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkServePredictBatchUDS is the end-to-end daemon benchmark over the
// framed unix-socket transport: the same engine, model, batch size, and
// binary payloads as BenchmarkServePredictBatchBinary, with frames on a unix
// socket replacing HTTP. After the hello it keeps strictly one frame in
// flight — write one, read its response — so the preds/s gap against the
// HTTP bench is what the HTTP machinery costs per request once the codec is
// already binary, and the gap to BenchmarkServePredictBatchUDSPipelined is
// what the per-frame round-trip costs.
func BenchmarkServePredictBatchUDS(b *testing.B) {
	_, _, tree, _ := fixture().AuTo()
	dir := b.TempDir()
	if err := artifact.SaveModel(filepath.Join(dir, "dcn.metis"), tree, map[string]string{"name": "dcn"}); err != nil {
		b.Fatal(err)
	}
	e, err := serve.LoadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	sock := filepath.Join(dir, "metis.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		b.Fatal(err)
	}
	go e.ServeUDS(l)
	b.Cleanup(func() { l.Close() })

	conn, err := net.Dial("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	br := bufio.NewReaderSize(conn, 64<<10)
	if err := serve.WriteFrame(conn, []byte(serve.HelloMagic)); err != nil {
		b.Fatal(err)
	}
	if ack, err := serve.ReadFrame(br, nil); err != nil || !bytes.HasPrefix(ack, []byte(serve.HelloMagic)) {
		b.Fatalf("hello refused (ack %q, err %v)", ack, err)
	}
	var payload bytes.Buffer
	if err := serve.EncodeBatchRequest(&payload, "dcn", lrlaBatch(serveBenchBatch)); err != nil {
		b.Fatal(err)
	}
	raw := payload.Bytes()
	var frame []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serve.WriteFrameID(conn, uint32(i), raw); err != nil {
			b.Fatal(err)
		}
		if _, frame, err = serve.ReadFrameID(br, frame); err != nil {
			b.Fatal(err)
		}
		if serve.FrameKind(frame) != "MTB1" {
			b.Fatalf("frame kind %q", serve.FrameKind(frame))
		}
	}
	b.ReportMetric(float64(serveBenchBatch)*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkServePredictBatchUDSPipelined is the pipelined counterpart of
// BenchmarkServePredictBatchUDS: same engine, model, batch size, and
// payloads, but after the hello the client keeps a window of
// frames in flight through a buffered writer while a second goroutine pumps,
// and the server coalesces completed responses into vectored writes. The
// preds/s gap against the strict request/response bench is what the per-
// frame round-trip of dead air and the per-frame syscalls cost.
func BenchmarkServePredictBatchUDSPipelined(b *testing.B) {
	_, _, tree, _ := fixture().AuTo()
	dir := b.TempDir()
	if err := artifact.SaveModel(filepath.Join(dir, "dcn.metis"), tree, map[string]string{"name": "dcn"}); err != nil {
		b.Fatal(err)
	}
	e, err := serve.LoadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	sock := filepath.Join(dir, "metis.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		b.Fatal(err)
	}
	go e.ServeUDS(l)
	b.Cleanup(func() { l.Close() })

	conn, err := net.Dial("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	br := bufio.NewReaderSize(conn, 256<<10)
	if err := serve.WriteFrame(conn, []byte(serve.HelloMagic)); err != nil {
		b.Fatal(err)
	}
	if ack, err := serve.ReadFrame(br, nil); err != nil || !bytes.HasPrefix(ack, []byte(serve.HelloMagic)) {
		b.Fatalf("hello refused (ack %q, err %v)", ack, err)
	}
	var payload bytes.Buffer
	if err := serve.EncodeBatchRequest(&payload, "dcn", lrlaBatch(serveBenchBatch)); err != nil {
		b.Fatal(err)
	}
	raw := payload.Bytes()

	b.ResetTimer()
	writeErr := make(chan error, 1)
	go func() {
		// The pump: all b.N frames through one buffered writer, so adjacent
		// frames share syscalls. The server's dispatch queue provides the
		// window: the socket write blocks once server-side buffering is full.
		bw := bufio.NewWriterSize(conn, 256<<10)
		for i := 0; i < b.N; i++ {
			if err := serve.WriteFrameID(bw, uint32(i), raw); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- bw.Flush()
	}()
	var frame []byte
	for i := 0; i < b.N; i++ {
		_, resp, err := serve.ReadFrameID(br, frame)
		if err != nil {
			b.Fatal(err)
		}
		frame = resp[:0]
		if serve.FrameKind(resp) != "MTB1" {
			b.Fatalf("frame kind %q", serve.FrameKind(resp))
		}
	}
	if err := <-writeErr; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(serveBenchBatch)*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkServePredictBatchSHM is the shared-memory-ring counterpart of
// BenchmarkServePredictBatchUDSPipelined: same engine, model, batch size,
// and binary payloads, but after the MTS1 negotiation every request and
// response moves through the mmap'd descriptor rings — at steady state the
// socket is idle and neither side makes a syscall per batch. The preds/s
// gap against the pipelined bench is what the kernel socket path (copies,
// wakeups, frame headers) still cost. The reported "wakes" metric is the
// server's doorbell count across the run: near-zero is the zero-syscall
// steady state working as designed.
func BenchmarkServePredictBatchSHM(b *testing.B) { benchServeSHM(b, 0, 0) }

// BenchmarkServePredictBatchSHMShadowed is the same ring benchmark with the
// continuous-distillation mirror sampling 1% of batches into a live shadow
// scorer. The acceptance bar for the shadow subsystem is this bench staying
// within 5% of the unshadowed record: the predict path pays one atomic
// sequence bump and a hash per batch, plus a bounded-prefix copy on the
// sampled 1%. The scorer runs a tree-cost teacher rather than the DNN: what
// this bench isolates is the serving-path and scorer-machinery overhead,
// and teacher inference — whose cost is scenario-specific and entirely off
// the predict path — would otherwise drown that signal on small CPU counts.
func BenchmarkServePredictBatchSHMShadowed(b *testing.B) { benchServeSHM(b, 0.01, 0) }

// BenchmarkServePredictBatchSHMSharded is the ring benchmark against a
// 4-shard engine serving eight models: every request is consistent-hash
// routed to the shard owning its model before the predict runs, so the
// preds/s gap against the one-shard SHM bench is the cost of routing across
// shards. The ring loop answers requests in order on one consumer either
// way; parallelism within a batch comes from the shard's inference pool.
func BenchmarkServePredictBatchSHMSharded(b *testing.B) { benchServeSHM(b, 0, 4) }

// benchTeacher adapts a query function to the shadow loop's Teacher.
type benchTeacher struct{ q func([]float64) []float64 }

func (t benchTeacher) Query(in []float64) []float64 { return t.q(in) }

func benchServeSHM(b *testing.B, shadowRate float64, shards int) {
	_, _, tree, _ := fixture().AuTo()
	dir := b.TempDir()
	// One model on one shard; eight equal-length names across a multi-shard
	// one, so requests fan over every shard and the alignment skip is uniform.
	names := []string{"dcn"}
	if shards > 0 {
		names = []string{"md0", "md1", "md2", "md3", "md4", "md5", "md6", "md7"}
	}
	for _, name := range names {
		if err := artifact.SaveModel(filepath.Join(dir, name+".metis"), tree, map[string]string{"name": name}); err != nil {
			b.Fatal(err)
		}
	}
	e, err := serve.NewEngine(dir, serve.Config{SHMDir: dir, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	if shadowRate > 0 {
		// The scorer is single-goroutine, so the one-hot buffer is reusable.
		probs := make([]float64, 16)
		teacher := benchTeacher{q: func(in []float64) []float64 {
			c := tree.Predict(in)
			for i := range probs {
				probs[i] = 0
			}
			if c >= len(probs) {
				probs = make([]float64, c+1)
			}
			probs[c] = 1
			return probs
		}}
		m := shadow.NewMonitor(e, shadow.Options{Rate: shadowRate, Seed: 1, Dir: dir})
		if err := m.Enroll(shadow.ModelConfig{Model: "dcn", Teacher: teacher}); err != nil {
			b.Fatal(err)
		}
		m.Start()
		b.Cleanup(m.Close)
	}
	sock := filepath.Join(dir, "metis.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		b.Fatal(err)
	}
	go e.ServeSHM(l)
	b.Cleanup(func() { l.Close() })

	conn, err := net.Dial("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	br := bufio.NewReaderSize(conn, 64<<10)
	if err := serve.WriteFrame(conn, []byte(serve.HelloMagic)); err != nil {
		b.Fatal(err)
	}
	if ack, err := serve.ReadFrame(br, nil); err != nil || !bytes.HasPrefix(ack, []byte(serve.HelloMagic)) {
		b.Fatalf("hello refused (ack %q, err %v)", ack, err)
	}
	if err := serve.WriteFrameID(conn, 1, serve.EncodeSHMOpen(shmring.Geometry{})); err != nil {
		b.Fatal(err)
	}
	_, ackFrame, err := serve.ReadFrameID(br, nil)
	if err != nil {
		b.Fatal(err)
	}
	if serve.FrameKind(ackFrame) != serve.SHMMagic {
		b.Fatalf("shm negotiation refused: frame kind %q", serve.FrameKind(ackFrame))
	}
	_, segPath, err := serve.DecodeSHMAck(ackFrame)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := shmring.Open(segPath)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { seg.Close() })
	if err := serve.WriteFrameID(conn, 2, serve.EncodeSHMReady()); err != nil {
		b.Fatal(err)
	}

	X := lrlaBatch(serveBenchBatch)
	raws := make([][]byte, len(names))
	for i, name := range names {
		var payload bytes.Buffer
		if err := serve.EncodeBatchRequest(&payload, name, X); err != nil {
			b.Fatal(err)
		}
		raws[i] = payload.Bytes()
	}
	// Equal-length names give every payload the same alignment skip.
	skip := serve.SHMAlignSkip(raws[0])
	if skip+len(raws[0]) > seg.Req.SlotSize() {
		b.Fatalf("bench payload (%d B) exceeds the negotiated slot (%d B)", skip+len(raws[0]), seg.Req.SlotSize())
	}

	b.ResetTimer()
	prodErr := make(chan error, 1)
	go func() {
		// The producer: publish all b.N requests through the request ring,
		// yielding when it is full (every slot held by a request the server
		// has not consumed yet). The doorbell fires only if the server
		// parked — at steady state it never does.
		for i := 0; i < b.N; i++ {
			raw := raws[i%len(raws)]
			var slot []byte
			for {
				var ok bool
				if slot, ok = seg.Req.Reserve(); ok {
					break
				}
				runtime.Gosched()
			}
			copy(slot[skip:skip+len(raw)], raw)
			seg.Req.PublishAt(uint32(i), skip, len(raw))
			if seg.Req.TakeWaiting() {
				if err := serve.WriteFrame(conn, serve.DoorbellPayload); err != nil {
					prodErr <- err
					return
				}
			}
		}
		prodErr <- nil
	}()
	for i := 0; i < b.N; i++ {
		for {
			_, resp, ok, err := seg.Resp.Peek()
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				if serve.FrameKind(resp) != "MTB1" {
					b.Fatalf("frame kind %q", serve.FrameKind(resp))
				}
				seg.Resp.Advance()
				break
			}
			runtime.Gosched()
		}
	}
	if err := <-prodErr; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(serveBenchBatch)*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
	b.ReportMetric(float64(e.SHMWakes()), "wakes")
}

// BenchmarkServeMultiTenantContention drives a saturated weighted-fair gate
// end to end: two tenants (keyed by model name) with 3:1 weights, equal
// offered load from four workers each, and a gate capacity far below the
// worker count, so every admission goes through the stride scheduler. The
// headline preds/s is the admission machinery's throughput under contention;
// the gold_bronze_ratio metric should sit near the 3.0 weight ratio — that
// is the fairness acceptance bar measured as a benchmark instead of a test.
func BenchmarkServeMultiTenantContention(b *testing.B) {
	_, _, tree, _ := fixture().AuTo()
	dir := b.TempDir()
	for _, name := range []string{"gold", "bronze"} {
		if err := artifact.SaveModel(filepath.Join(dir, name+".metis"), tree, map[string]string{"name": name}); err != nil {
			b.Fatal(err)
		}
	}
	e, err := serve.NewEngine(dir, serve.Config{
		Shards:      2,
		MaxInflight: 2,
		Tenants:     map[string]float64{"gold": 3, "bronze": 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	const contentionBatch = 64
	X := lrlaBatch(contentionBatch)
	var (
		next, gold, bronze atomic.Int64
		wg                 sync.WaitGroup
	)
	b.ResetTimer()
	for w := 0; w < 8; w++ {
		tenant, count := "gold", &gold
		if w%2 == 1 {
			tenant, count = "bronze", &bronze
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p serve.Prediction
			for next.Add(1) <= int64(b.N) {
				if err := e.PredictInto(tenant, X, &p); err != nil {
					b.Error(err)
					return
				}
				count.Add(1)
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(contentionBatch)*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
	if g, br := gold.Load(), bronze.Load(); br > 0 {
		b.ReportMetric(float64(g)/float64(br), "gold_bronze_ratio")
	}
}

// BenchmarkModelFootprint reports serialized sizes (Fig. 17b).
func BenchmarkModelFootprint(b *testing.B) {
	f := fixture()
	var r *experiments.Fig17bResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig17b(f)
	}
	b.ReportMetric(float64(r.DNNBytes), "dnn_bytes")
	b.ReportMetric(float64(r.TreeBytes), "tree_bytes")
}

// BenchmarkExtractionOverhead times the full distillation pipeline at the
// paper's 200-leaf setting (Appendix G).
func BenchmarkExtractionOverhead(b *testing.B) {
	f := fixture()
	ds := f.PensieveTree().Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtree.FitTable(ds, dtree.DistillConfig{MaxLeaves: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// maskBenchWorkers is the effective SPSA evaluation parallelism of the
// default mask.Options: one worker per perturbation evaluation, capped by
// the cores the host exposes. The serial-vs-parallel gap scales with this
// number — on a GOMAXPROCS=1 host the two benches are expected to tie (the
// search is then compute-bound on one core by construction), which the
// reported "eval_workers" metric makes visible in the BENCH record instead
// of looking like a parity bug.
func maskBenchWorkers() float64 {
	spsaEvals := 8 // 2 evaluations × default SPSASamples (4)
	return float64(min(runtime.GOMAXPROCS(0), spsaEvals))
}

// BenchmarkMaskSearch times one critical-connection search on the full
// worker pool: the SPSA perturbation batch (a reused dataset.Batch) fans
// out across cloned systems. Results are bit-identical to the serial bench;
// only wall clock differs.
func BenchmarkMaskSearch(b *testing.B) {
	f := fixture()
	g, model := f.RouteNet()
	opt := &routenet.Optimizer{Model: model, Graph: g}
	demands := routing.RandomDemands(g, scenarios.RouteNetScale(f.Scale).Demands, 3, 9, 907)
	rt := opt.Route(demands)
	sys := &scenarios.RouteNetSystem{Opt: opt, Routing: rt}
	b.ReportAllocs()
	b.ResetTimer()
	evals := routenet.DenseEvals()
	for i := 0; i < b.N; i++ {
		mask.Search(sys, mask.Options{Iterations: 20, Seed: int64(i)})
	}
	b.ReportMetric(float64(routenet.DenseEvals()-evals)/float64(b.N), "dense_evals/op")
	b.ReportMetric(maskBenchWorkers(), "eval_workers")
}

// BenchmarkMaskSearchSerial is BenchmarkMaskSearch pinned to one worker, the
// pre-refactor execution mode.
func BenchmarkMaskSearchSerial(b *testing.B) {
	f := fixture()
	g, model := f.RouteNet()
	opt := &routenet.Optimizer{Model: model, Graph: g}
	demands := routing.RandomDemands(g, scenarios.RouteNetScale(f.Scale).Demands, 3, 9, 907)
	rt := opt.Route(demands)
	sys := &scenarios.RouteNetSystem{Opt: opt, Routing: rt}
	b.ReportAllocs()
	b.ResetTimer()
	evals := routenet.DenseEvals()
	for i := 0; i < b.N; i++ {
		mask.Search(sys, mask.Options{Iterations: 20, Seed: int64(i), Workers: 1})
	}
	b.ReportMetric(float64(routenet.DenseEvals()-evals)/float64(b.N), "dense_evals/op")
	b.ReportMetric(1, "eval_workers")
}

// cartBenchTable grows the test-scale distillation corpus to the size a
// full-scale DAgger aggregate reaches (~35k samples): each replica of the
// corpus gets a small deterministic relative jitter, so feature columns are
// high-cardinality continuous — the regime the training path must absorb,
// where every distinct value is a split candidate. The jitter stream is
// fixed-seeded; the bench dataset is identical on every run and for every
// worker subbench.
func cartBenchTable() *dataset.Table {
	base := fixture().PensieveTree().Data
	const replicas = 16
	rng := rand.New(rand.NewSource(99))
	out := dataset.New(base.NumFeatures())
	buf := make([]float64, base.NumFeatures())
	for rep := 0; rep < replicas; rep++ {
		for i := 0; i < base.Len(); i++ {
			row := base.Row(i, buf)
			for j, v := range row {
				row[j] = v * (1 + 1e-4*(rng.Float64()-0.5))
			}
			out.AppendRow(row, base.Label(i), base.Weight(i))
		}
	}
	return out
}

// BenchmarkCARTBuild times one exact CART fit on the full-scale
// distillation corpus (cartBenchTable), sweeping exact/{serial,allcores}:
// exact/serial is the single-goroutine baseline and exact/allcores fans the
// per-feature scans and order partitions out over the full pool. The
// multicore scaling only shows on hosts with GOMAXPROCS > 1 (the "workers"
// metric records what the host ran with).
func BenchmarkCARTBuild(b *testing.B) {
	ds := cartBenchTable()
	for _, workers := range []int{1, 0} {
		name := "exact/serial"
		if workers == 0 {
			name = "exact/allcores"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dtree.BuildTable(ds, dtree.BuildOptions{MaxLeaves: 800, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			effective := 1
			if workers == 0 {
				effective = runtime.GOMAXPROCS(0)
			}
			b.ReportMetric(float64(effective), "workers")
		})
	}
}

// --- Ablation benches (design choices from DESIGN.md §4) ----------------

// BenchmarkAblationResampling compares distillation with and without the
// Equation 1 advantage resampling.
func BenchmarkAblationResampling(b *testing.B) {
	f := fixture()
	env := f.EnvHSDPA()
	agent := f.Pensieve()
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				res, err := dtree.DistillPolicy(env, agent, dtree.DistillConfig{
					MaxLeaves: scenarios.ABRScale(f.Scale).TreeLeaves, Iterations: 2, EpisodesPerIter: 8,
					MaxSteps: 50, Resample: on, QHorizon: 5, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				q = stats.Mean(abr.RunTraces(env, abr.PolicySelector(res.Tree.Predict), 8))
			}
			b.ReportMetric(q, "QoE")
		})
	}
}

// BenchmarkAblationDagger varies the number of DAgger takeover rounds.
func BenchmarkAblationDagger(b *testing.B) {
	f := fixture()
	env := f.EnvHSDPA()
	agent := f.Pensieve()
	for _, iters := range []int{1, 3} {
		b.Run(map[int]string{1: "1round", 3: "3rounds"}[iters], func(b *testing.B) {
			var fid float64
			for i := 0; i < b.N; i++ {
				res, err := dtree.DistillPolicy(env, agent, dtree.DistillConfig{
					MaxLeaves: scenarios.ABRScale(f.Scale).TreeLeaves, Iterations: iters, EpisodesPerIter: 8,
					MaxSteps: 50, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				fid = res.Fidelity
			}
			b.ReportMetric(100*fid, "fidelity_%")
		})
	}
}

// BenchmarkAblationPruning compares CCP pruning against direct growth to the
// same leaf budget.
func BenchmarkAblationPruning(b *testing.B) {
	f := fixture()
	ds := f.PensieveTree().Data
	eval := func(t *dtree.Tree) float64 { return 100 * dtree.TableFidelity(t, ds) }
	b.Run("grow+CCP", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			t, err := dtree.FitTable(ds, dtree.DistillConfig{MaxLeaves: 50, GrowFactor: 8})
			if err != nil {
				b.Fatal(err)
			}
			acc = eval(t)
		}
		b.ReportMetric(acc, "train_acc_%")
	})
	b.Run("direct", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			t, err := dtree.BuildTable(ds, dtree.BuildOptions{MaxLeaves: 50})
			if err != nil {
				b.Fatal(err)
			}
			acc = eval(t)
		}
		b.ReportMetric(acc, "train_acc_%")
	})
}

// BenchmarkAblationEntropy compares the mask search with and without the
// determinism (entropy) term.
func BenchmarkAblationEntropy(b *testing.B) {
	f := fixture()
	g, model := f.RouteNet()
	opt := &routenet.Optimizer{Model: model, Graph: g}
	demands := routing.RandomDemands(g, scenarios.RouteNetScale(f.Scale).Demands, 3, 9, 911)
	rt := opt.Route(demands)
	sys := &scenarios.RouteNetSystem{Opt: opt, Routing: rt}
	for _, l2 := range []float64{1e-9, 1} {
		name := "with"
		if l2 < 1e-3 {
			name = "without"
		}
		b.Run(name, func(b *testing.B) {
			var ent float64
			for i := 0; i < b.N; i++ {
				res := mask.Search(sys, mask.Options{Lambda1: 0.25, Lambda2: l2, Iterations: 30, Seed: 5})
				ent = res.Entropy
			}
			b.ReportMetric(ent, "mean_entropy")
		})
	}
}

// BenchmarkScenarioPipeline times one full teacher→student pipeline run —
// train, distill, evaluate, interpret — through the scenario engine (the
// jobs scenario at tiny scale: a heuristic teacher plus a mask search, so
// the bench measures the engine and the interpretation, not DNN training).
func BenchmarkScenarioPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := RunScenario("jobs", ScenarioConfig{Scale: "tiny", Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.StudentKind != "mask" {
			b.Fatalf("student kind %q", rep.StudentKind)
		}
	}
}

// BenchmarkScenarioPipelineAll times the whole registered-scenario sweep at
// tiny scale — the -scenario all path of cmd/metis-exp, including every
// tiny teacher training.
func BenchmarkScenarioPipelineAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range Scenarios() {
			if _, err := RunScenario(name, ScenarioConfig{Scale: "tiny"}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
