// Package workload defines the benchmark's workloads and builds their
// inputs: the fixture of real distilled trees (one cold metis-exp sweep), the
// request pools drawn from the seed, and each request's reference answer
// from the plain dtree.Tree, independent of the quantized form the daemon
// serves.
package workload

import (
	"fmt"
	"time"
)

// Share is one model's weight in a traffic mix.
type Share struct {
	Model  string
	Weight float64
}

// Spec is one workload. Serving workloads drive a live metis-serve through
// four phases (set-up, warm-up, open loop at Rate, closed loop); distill
// reruns the distillation pipeline.
type Spec struct {
	Name string
	// Why is the one-line reason the workload exists: which layers it
	// stresses and which it bypasses.
	Why string
	// Serving is false for the pipeline workload.
	Serving bool
	// Rows is the batch size of every request.
	Rows int
	// Rate is the open-loop arrival rate in requests per second.
	Rate float64
	// Mix is the model mix requests are drawn from.
	Mix []Share
	// HTTPShare is the fraction of requests sent as HTTP binary; the rest go
	// over the unix socket.
	HTTPShare float64
	// SHM makes socket requests negotiate shared-memory rings.
	SHM bool
	// Shards is the daemon's -shards (1 = the flat engine).
	Shards int
	// Daemon holds the remaining metis-serve flags beyond the addresses and
	// the model directory.
	Daemon []string
	// Shadow adds -shadow-dir (a copy of the fixture's teacher cache).
	Shadow bool
	// ReloadEvery is the period of POST /v2/admin/reload during the timed
	// phases (0 = never).
	ReloadEvery time.Duration
}

// The models of the fixture the workloads serve.
const (
	ABR  = "abr-test"       // 221-node classification tree, 25 features
	SRLA = "auto-srla-test" // regression tree with 3 outputs
	LRLA = "auto-lrla-test"
)

// Specs lists every workload in the order "all" runs them.
var Specs = []Spec{
	{
		Name:    "ring-small",
		Why:     "8-row abr requests at 20k/s over shared-memory rings on one shard: per-request fixed cost dominates, the tree walk is ~1% of it",
		Serving: true, Rows: 8, Rate: 20000,
		Mix: []Share{{ABR, 1}}, SHM: true, Shards: 1,
	},
	{
		// 256 rows is the largest power of two whose request fits one 64 KiB
		// ring slot; larger requests silently leave the ring for the socket.
		Name:    "ring-bulk",
		Why:     "256-row abr requests at 2k/s over the same rings: codec and quantized walk dominate, per-request overhead is amortised",
		Serving: true, Rows: 256, Rate: 2000,
		Mix: []Share{{ABR, 1}}, SHM: true, Shards: 1,
	},
	{
		Name:    "mixed-features",
		Why:     "three models, 2 shards, weighted tenants, shadow mirror, HTTP beside pipelined socket, reloads every 2 s: the only path through routing, admission and the mirror",
		Serving: true, Rows: 16, Rate: 5000,
		Mix:       []Share{{ABR, 2}, {SRLA, 1}, {LRLA, 1}},
		HTTPShare: 0.25,
		Shards:    2,
		Daemon: []string{
			"-tenants", ABR + ":3," + SRLA + ":1", "-max-inflight", "2",
			// The drift threshold sits far below the students' fidelity, so
			// no refit replaces a model while answers are being checked.
			"-shadow-rate", "0.01", "-drift-threshold", "0.01",
		},
		Shadow:      true,
		ReloadEvery: 2 * time.Second,
	},
	{
		Name: "distill",
		Why:  "the paper's pipeline (DAgger, CART, evaluation, mask search) over all seven scenarios with cached teachers: the only workload that builds trees",
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}
