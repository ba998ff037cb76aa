// Package parallel is the shared concurrency substrate of the reproduction.
// Every parallel hot path — CART split search (internal/metis/dtree), DAgger
// trajectory collection, the Pensieve pretraining demonstrations
// (internal/pensieve), SPSA mask-search evaluation (internal/metis/mask),
// and the perturbed-input batches of the LIME/LEMNA baselines — runs on the
// primitives here rather than hand-rolled goroutines, so they all share the
// same determinism contract:
//
//   - Tasks are identified by a dense index [0, n). A task may only write
//     state owned by its index (its own result slot), never shared
//     accumulators, so the result of a run is independent of scheduling.
//   - Any reduction over task results happens in index order on the caller's
//     goroutine after ForEach returns.
//   - Stochastic tasks derive their randomness from SplitSeed(base, task),
//     never from a shared rand.Rand, so the random stream of task i does not
//     depend on how many workers execute or which worker picks i up.
//
// Under this contract a run with Workers == N is bit-identical to a run with
// Workers == 1, which is what keeps every figure and table of the paper
// reproducible while still scaling with cores.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count option: values > 0 are returned as-is,
// anything else resolves to runtime.GOMAXPROCS(0). Options structs across the
// repo treat 0 as "use all cores" and 1 as "strictly serial".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n), using at most workers goroutines
// (workers <= 0 means GOMAXPROCS). Tasks are handed out dynamically, so
// uneven task costs balance across workers. ForEach returns when every task
// has completed; if any task panics, the first panic (by completion order) is
// re-raised on the caller's goroutine after the pool drains.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach for tasks that need per-worker state (a cloned
// environment, policy, or blackbox instance): fn receives the id of the
// worker executing it, always in [0, effective workers). Worker 0 runs on
// the calling goroutine when the pool degenerates to serial execution, so
// callers may seed slot 0 with their original (non-cloned) resources.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Pool builds the per-worker instance set used with ForEachWorker: slot 0 is
// the caller's original resource (worker 0 runs inline when the pool
// degenerates to serial) and slots 1..workers-1 are produced by clone. Every
// parallel stage that needs stateful per-worker resources (environments,
// policies, blackbox systems) shares this shape.
func Pool[T any](orig T, workers int, clone func() T) []T {
	pool := []T{orig}
	for w := 1; w < workers; w++ {
		pool = append(pool, clone())
	}
	return pool
}

// Map runs fn over [0, n) with ForEach semantics and collects the results in
// task order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// SplitSeed derives a decorrelated per-task seed from a base seed using a
// SplitMix64 finalizer. Neighbouring tasks get statistically independent
// streams, and the mapping depends only on (base, task) — not on worker
// count or scheduling — so seeded workloads stay reproducible when they fan
// out.
func SplitSeed(base int64, task int) int64 {
	z := uint64(base) ^ 0x9e3779b97f4a7c15*uint64(task+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
