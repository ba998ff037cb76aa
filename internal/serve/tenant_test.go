package serve

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseTenantWeights(t *testing.T) {
	got, err := ParseTenantWeights("gold:3, bronze:1,solo")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"gold": 3, "bronze": 1, "solo": 1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("weight[%s] = %v, want %v", k, got[k], v)
		}
	}
	if m, err := ParseTenantWeights("  "); err != nil || m != nil {
		t.Fatalf("blank spec → %v, %v", m, err)
	}
	for _, bad := range []string{"a:0", "a:-1", "a:x", ":3", "a:1,a:2"} {
		if _, err := ParseTenantWeights(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

// TestFairAdmissionRatio drives a saturated two-tenant gate with 3:1 weights
// from concurrent workers and checks the admitted ratio converges to the
// weights within 15% — with the underweighted tenant never starved. This is
// the acceptance bar of the sharded-engine PR, and runs under -race in CI.
func TestFairAdmissionRatio(t *testing.T) {
	g := newFairGate(2, map[string]float64{"gold": 3, "bronze": 1}, 8)
	const perTenantWorkers = 4
	var (
		admitted sync.Map // tenant → *atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	for _, tenant := range []string{"gold", "bronze"} {
		count := &atomic.Int64{}
		admitted.Store(tenant, count)
		for w := 0; w < perTenantWorkers; w++ {
			wg.Add(1)
			go func(tenant string, count *atomic.Int64) {
				defer wg.Done()
				for !stop.Load() {
					if err := g.acquire(tenant); err != nil {
						continue
					}
					// Hold the token long enough that the gate stays
					// saturated and admissions go through the scheduler.
					time.Sleep(50 * time.Microsecond)
					g.release(50 * time.Microsecond)
					count.Add(1)
				}
			}(tenant, count)
		}
	}
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	load := func(name string) int64 {
		v, _ := admitted.Load(name)
		return v.(*atomic.Int64).Load()
	}
	gold, bronze := load("gold"), load("bronze")
	if bronze == 0 {
		t.Fatalf("bronze starved: gold=%d bronze=%d", gold, bronze)
	}
	ratio := float64(gold) / float64(bronze)
	if math.Abs(ratio-3) > 0.45 { // 15% of 3
		t.Fatalf("admitted ratio %.2f (gold=%d bronze=%d), want 3.0 ±15%%", ratio, gold, bronze)
	}
	snap := g.snapshot()
	if snap["gold"].Admitted != gold || snap["bronze"].Admitted != bronze {
		t.Fatalf("snapshot %+v disagrees with observed gold=%d bronze=%d", snap, gold, bronze)
	}
}

// TestFairGateRejectsAtQueueBound: a tenant whose queue is full is rejected
// immediately with a BusyError that unwraps to ErrBusy and carries a
// positive Retry-After.
func TestFairGateRejectsAtQueueBound(t *testing.T) {
	g := newFairGate(1, map[string]float64{"a": 1}, 2)
	if err := g.acquire("a"); err != nil {
		t.Fatal(err)
	}
	// Fill the queue: two blocked acquirers.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			err := g.acquire("a")
			if err == nil {
				g.release(0)
			}
			results <- err
		}()
	}
	waitForQueued(t, g, 2)

	err := g.acquire("a")
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("over-bound acquire: %v, want *BusyError", err)
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatal("BusyError must unwrap to ErrBusy")
	}
	if busy.Tenant != "a" || busy.RetryAfter <= 0 {
		t.Fatalf("BusyError %+v, want tenant a with positive RetryAfter", busy)
	}
	if busy.RetryAfter > 2*time.Second {
		t.Fatalf("RetryAfter %v above the clamp", busy.RetryAfter)
	}

	g.release(0)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued acquire %d: %v", i, err)
		}
	}
}

// TestFairGateShedsHeaviestTenant: under global queue overload the newest
// waiter of the most-over-quota tenant is shed, not the underweighted one.
func TestFairGateShedsHeaviestTenant(t *testing.T) {
	g := newFairGate(1, map[string]float64{"heavy": 1, "light": 1}, 2)
	if err := g.acquire("heavy"); err != nil {
		t.Fatal(err)
	}
	// Push heavy's pass ahead so it is the over-quota tenant.
	g.mu.Lock()
	g.tenant("heavy").pass = 100
	g.mu.Unlock()

	heavyErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			err := g.acquire("heavy")
			if err == nil {
				g.release(0)
			}
			heavyErrs <- err
		}()
	}
	waitForQueued(t, g, 2)
	lightErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			err := g.acquire("light")
			if err == nil {
				g.release(0)
			}
			lightErrs <- err
		}()
	}
	waitForQueued(t, g, 4)

	// A fifth waiter from a third tenant (its own queue is empty, so it
	// queues rather than bouncing off the per-tenant bound) pushes
	// queuedTotal past maxQueueTotal (4): one of heavy's waiters is shed.
	done := make(chan error, 1)
	go func() {
		err := g.acquire("extra")
		if err == nil {
			g.release(0)
		}
		done <- err
	}()
	var shedErr error
	select {
	case shedErr = <-heavyErrs:
	case shedErr = <-lightErrs:
		t.Fatalf("light tenant was shed (%v); the over-quota tenant must pay", shedErr)
	case <-time.After(2 * time.Second):
		t.Fatal("nothing was shed")
	}
	var busy *BusyError
	if !errors.As(shedErr, &busy) || busy.Tenant != "heavy" {
		t.Fatalf("shed error %v, want heavy's BusyError", shedErr)
	}
	if g.snapshot()["heavy"].Shed != 1 {
		t.Fatalf("snapshot %+v, want heavy shed=1", g.snapshot())
	}

	g.release(0)
	for i := 0; i < 4; i++ {
		select {
		case err := <-heavyErrs:
			if err != nil {
				t.Fatalf("surviving heavy waiter: %v", err)
			}
		case err := <-lightErrs:
			if err != nil {
				t.Fatalf("light waiter: %v", err)
			}
		case err := <-done:
			if err != nil {
				t.Fatalf("fifth waiter: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("waiters did not drain after release")
		}
	}
}

// waitForQueued polls until the gate holds want parked waiters.
func waitForQueued(t *testing.T, g *fairGate, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		g.mu.Lock()
		q := g.queuedTotal
		g.mu.Unlock()
		if q >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queuedTotal stuck at %d, want %d", q, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
