package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chash"
	"repro/internal/histo"
	"repro/internal/parallel"
)

// shard is one partition of the serving core: the inference pool and the
// counters of the models the ring assigns to it. A shard holds no models
// itself — the registry generation it serves lives in the shardSet — so a
// Reload keeps every shard (and its counters) and swaps only the set.
type shard struct {
	// sem holds the spare-worker tokens of the shard's inference pool
	// (capacity Workers-1: the request goroutine itself is the first
	// worker). nil when the engine is configured serial.
	sem      chan struct{}
	requests atomic.Int64
	// latency records nanoseconds per successful predict call on this shard,
	// across all transports.
	latency *histo.Histogram
}

func newShard(workers int) *shard {
	sh := &shard{latency: histo.New()}
	if w := parallel.Workers(workers); w > 1 {
		sh.sem = make(chan struct{}, w-1)
	}
	return sh
}

// shardSet is one immutable generation of the serving state: a registry
// generation, the shards it is partitioned across, and the partition.
type shardSet struct {
	*registry
	shards []*shard
	ring   *chash.Ring
	// assign maps every known model name to its owning shard index; names
	// not in the map (unknown models) fall back to the ring so the error is
	// produced — and counted — on a deterministic shard.
	assign map[string]int
}

// shardMembers names the ring members for an n-shard layout. The names are
// stable ("shard-0"…) so growing the set preserves survivors' assignments.
func shardMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%d", i)
	}
	return out
}

// newShardSet partitions reg across n fresh shards.
func newShardSet(reg *registry, n, workers int) (*shardSet, error) {
	ring, err := chash.New(shardMembers(n), 0)
	if err != nil {
		return nil, err
	}
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = newShard(workers)
	}
	return (&shardSet{shards: shards, ring: ring}).with(reg), nil
}

// with returns the generation serving reg on st's shards and ring.
func (st *shardSet) with(reg *registry) *shardSet {
	assign := make(map[string]int, len(reg.models))
	for name := range reg.models {
		assign[name] = st.ring.LookupIndex(name)
	}
	return &shardSet{registry: reg, shards: st.shards, ring: st.ring, assign: assign}
}

// shardOf returns the shard owning name. A one-shard set answers without a
// lookup.
func (st *shardSet) shardOf(name string) *shard {
	if len(st.shards) == 1 {
		return st.shards[0]
	}
	if idx, ok := st.assign[name]; ok {
		return st.shards[idx]
	}
	return st.shards[st.ring.LookupIndex(name)]
}

// ShardCount returns the current number of shards.
func (e *Engine) ShardCount() int { return len(e.state.Load().shards) }

// Reshard re-partitions the CURRENT model set across n fresh shards. Model
// entries move by pointer — per-model counters ride along — while in-flight
// predicts keep the retired shards: no predict ever fails because its model
// was mid-move. Retired shard counters fold into the engine-wide bases.
func (e *Engine) Reshard(n int) error {
	if n <= 0 {
		return fmt.Errorf("serve: reshard to %d shards", n)
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	old := e.state.Load()
	next, err := newShardSet(old.registry, n, e.cfg.Workers)
	if err != nil {
		return err
	}
	// Publish first, fold second: once the new set is stored no new predict
	// reaches a retired shard, so the fold misses only the calls already in
	// flight on it. Until the fold lands, totals read slightly low.
	e.state.Store(next)
	for _, sh := range old.shards {
		e.requestsBase.Add(sh.requests.Load())
		e.latencyBase.Merge(sh.latency)
	}
	e.reloads.Add(1)
	return nil
}

// predictChunk is the per-task granularity of a shard's pool: single tree
// evaluations cost nanoseconds, so work is handed out in blocks large
// enough to amortize scheduling.
const predictChunk = 512

// forEachChunk splits [0, n) into predictChunk blocks and runs them on the
// request goroutine plus any helpers it can recruit from the shard's pool.
// Recruitment is non-blocking: when every pool slot is busy serving other
// requests, the batch simply runs serially on its own goroutine — total
// inference goroutines across ALL in-flight requests on a shard never
// exceed Config.Workers.
func (sh *shard) forEachChunk(n int, fn func(lo, hi int)) {
	tasks := (n + predictChunk - 1) / predictChunk
	var next atomic.Int64
	work := func() {
		for {
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			lo := t * predictChunk
			hi := min(lo+predictChunk, n)
			fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
recruit:
	for h := 0; h < tasks-1; h++ {
		select {
		case sh.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sh.sem }()
				work()
			}()
		default:
			break recruit
		}
	}
	work()
	wg.Wait()
}

// ShardedEngine is the former name of Engine.
//
// Deprecated: use Engine; every engine is sharded.
type ShardedEngine = Engine

// NewShardedEngine is the former name of NewEngine.
//
// Deprecated: use NewEngine.
func NewShardedEngine(dir string, cfg Config) (*Engine, error) { return NewEngine(dir, cfg) }
