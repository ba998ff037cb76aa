package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TenantHeader names the HTTP request header carrying an explicit tenant
// identity for weighted fair admission. Requests without it, requests whose
// value is not a configured tenant, and all socket requests are keyed by
// model name, so per-model weights work with no client changes and peer
// input cannot add tenants.
const TenantHeader = "X-Metis-Tenant"

// BusyError is ErrBusy with admission context: which tenant was over quota
// (none on an engine without configured tenants) and how long the gate
// expects capacity to take to free. It unwraps to ErrBusy, so
// errors.Is(err, ErrBusy) keeps matching and every transport's 503 mapping
// applies unchanged.
type BusyError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	if e.Tenant == "" {
		return ErrBusy.Error()
	}
	return fmt.Sprintf("serve: tenant %q over admission quota, retry later", e.Tenant)
}

func (e *BusyError) Unwrap() error { return ErrBusy }

// ParseTenantWeights parses a "name:weight,name:weight" flag value (as taken
// by metis-serve -tenants) into a weight map. Weights must be positive;
// a bare "name" gets weight 1.
func ParseTenantWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, ":")
		w := 1.0
		if found {
			var err error
			if w, err = strconv.ParseFloat(wstr, 64); err != nil || w <= 0 {
				return nil, fmt.Errorf("serve: tenant weight %q: want a positive number", part)
			}
		}
		if name == "" {
			return nil, fmt.Errorf("serve: empty tenant name in %q", s)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q", name)
		}
		out[name] = w
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// TenantStats is one tenant's weighted-fair-admission counters.
type TenantStats struct {
	Weight float64 `json:"weight"`
	// Admitted counts calls that passed the gate (immediately or after
	// queueing); Rejected counts calls shed at a full tenant queue; Shed
	// counts queued waiters evicted under global overload (the most-
	// over-quota tenant loses its newest waiter first).
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	// Queued is the live queue depth at snapshot time.
	Queued int `json:"queued"`
}

// DefaultTenantQueue bounds each tenant's admission queue when
// Config.Tenants is set.
const DefaultTenantQueue = 16

// tenantState is one tenant's scheduling state inside the gate. All fields
// are guarded by fairGate.mu.
type tenantState struct {
	name   string
	weight float64
	// stride is 1/weight: each admission advances the tenant's pass by its
	// stride, so a weight-3 tenant is admitted three times as often as a
	// weight-1 tenant while both stay backlogged.
	stride float64
	pass   float64
	// queue holds the blocked acquirers, oldest first. A waiter is resolved
	// by sending on its channel: nil admits (the releaser's token was handed
	// over), a *BusyError means it was shed.
	queue []chan error

	admitted, rejected, shed int64
}

// fairGate is the engine's admission control: a stride scheduler over
// per-tenant weights with bounded queues. While capacity is free and nobody
// queues, acquire is a counter bump; under contention each release hands its
// token to the oldest waiter of the tenant with the lowest virtual time
// (pass), which converges per-tenant admission rates to the weight ratios.
// Overload is shed in two tiers: a full per-tenant queue rejects that
// tenant's new arrivals immediately, and a full global queue evicts the
// newest waiter of the most-over-quota (highest-pass) tenant — the heaviest
// backlogger pays first, and an underweighted tenant with a short queue is
// never starved out by a heavy one. With a queue bound of 0 (an engine with
// MaxInflight and no tenants) nothing ever queues: a full gate fails fast.
type fairGate struct {
	mu            sync.Mutex
	capacity      int
	inflight      int
	queuedTotal   int
	maxQueue      int // per-tenant queue bound
	maxQueueTotal int // global queue bound; exceeding it sheds
	tenants       map[string]*tenantState
	weights       map[string]float64 // configured weights; others get 1
	// vtime is the gate's virtual clock: the pass of the last admitted
	// tenant. A tenant waking from idle is clamped up to it, so idleness
	// banks no credit.
	vtime float64
	// svcNs is an EWMA of observed hold times (acquire→release), the basis
	// of the computed Retry-After.
	svcNs float64
}

// newFairGate builds a gate admitting capacity concurrent calls, with
// maxQueue waiters per tenant (0 = none: a full gate rejects at once).
func newFairGate(capacity int, weights map[string]float64, maxQueue int) *fairGate {
	return &fairGate{
		capacity: capacity,
		maxQueue: maxQueue,
		// The global bound leaves room for a couple of saturated tenants
		// before shedding kicks in; beyond that, queue memory and queueing
		// delay grow without improving fairness.
		maxQueueTotal: 2 * maxQueue,
		tenants:       map[string]*tenantState{},
		weights:       weights,
	}
}

// tenant returns (creating on first sight) the named tenant's state.
// Tenants outside the configured weight map get weight 1. The engine only
// passes configured tenants and served model names, so the population is
// bounded by the two.
func (g *fairGate) tenant(name string) *tenantState {
	ts, ok := g.tenants[name]
	if !ok {
		w := g.weights[name]
		if w <= 0 {
			w = 1
		}
		ts = &tenantState{name: name, weight: w, stride: 1 / w, pass: g.vtime}
		g.tenants[name] = ts
	}
	return ts
}

// admitLocked charges one admission to ts and advances the virtual clock.
func (g *fairGate) admitLocked(ts *tenantState) {
	if ts.pass < g.vtime {
		ts.pass = g.vtime
	}
	g.vtime = ts.pass
	ts.pass += ts.stride
	ts.admitted++
}

// acquire admits one call for tenant, blocking in the tenant's bounded queue
// when the gate is at capacity. It returns nil on admission, after which the
// caller must call release exactly once, and a *BusyError when the call was
// rejected or shed. A gate with no configured tenants names none in its
// rejections, so they read as plain ErrBusy.
func (g *fairGate) acquire(tenant string) error {
	g.mu.Lock()
	ts := g.tenant(tenant)
	if g.inflight < g.capacity && g.queuedTotal == 0 {
		g.inflight++
		g.admitLocked(ts)
		g.mu.Unlock()
		return nil
	}
	if len(ts.queue) >= g.maxQueue {
		ts.rejected++
		busy := &BusyError{RetryAfter: g.retryAfterLocked(len(ts.queue))}
		if len(g.weights) > 0 {
			busy.Tenant = tenant
		}
		g.mu.Unlock()
		return busy
	}
	ch := make(chan error, 1)
	ts.queue = append(ts.queue, ch)
	g.queuedTotal++
	if g.queuedTotal > g.maxQueueTotal {
		g.shedLocked()
	}
	g.mu.Unlock()
	return <-ch
}

// release returns one admitted call's token, folding held — how long the
// call kept it — into the service-time EWMA behind the computed Retry-After.
func (g *fairGate) release(held time.Duration) {
	dt := float64(held.Nanoseconds())
	g.mu.Lock()
	if g.svcNs == 0 {
		g.svcNs = dt
	} else {
		g.svcNs += 0.1 * (dt - g.svcNs)
	}
	if ts := g.nextLocked(); ts != nil {
		// Hand the token straight to the winner: inflight never dips, so a
		// fast-path arrival cannot jump the queue.
		ch := ts.queue[0]
		ts.queue = ts.queue[1:]
		g.queuedTotal--
		g.admitLocked(ts)
		ch <- nil
	} else {
		g.inflight--
	}
	g.mu.Unlock()
}

// nextLocked picks the queue to admit from: the backlogged tenant with the
// lowest pass (name-ordered on ties, for determinism). nil when no one waits.
func (g *fairGate) nextLocked() *tenantState {
	var best *tenantState
	for _, ts := range g.tenants {
		if len(ts.queue) == 0 {
			continue
		}
		if best == nil || ts.pass < best.pass || (ts.pass == best.pass && ts.name < best.name) {
			best = ts
		}
	}
	return best
}

// shedLocked evicts one waiter under global overload: the newest waiter of
// the highest-pass backlogged tenant — the tenant furthest ahead of its fair
// share gives back first, and within it the most recently arrived call (the
// one that has invested the least waiting) is the cheapest to turn away.
func (g *fairGate) shedLocked() {
	var worst *tenantState
	for _, ts := range g.tenants {
		if len(ts.queue) == 0 {
			continue
		}
		if worst == nil || ts.pass > worst.pass || (ts.pass == worst.pass && ts.name > worst.name) {
			worst = ts
		}
	}
	if worst == nil {
		return
	}
	ch := worst.queue[len(worst.queue)-1]
	worst.queue = worst.queue[:len(worst.queue)-1]
	g.queuedTotal--
	worst.shed++
	ch <- &BusyError{Tenant: worst.name, RetryAfter: g.retryAfterLocked(len(worst.queue))}
}

// retryAfterLocked estimates when a rejected tenant should come back: the
// time for its queue (plus itself) to drain at the gate's observed service
// rate, clamped to a sane operational range.
func (g *fairGate) retryAfterLocked(queued int) time.Duration {
	svc := g.svcNs
	if svc == 0 {
		svc = float64(time.Millisecond)
	}
	est := time.Duration(float64(queued+1) * svc / float64(g.capacity))
	return clampRetryAfter(est)
}

// snapshot renders the per-tenant counters for the stats surface.
func (g *fairGate) snapshot() map[string]TenantStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]TenantStats, len(g.tenants))
	for name, ts := range g.tenants {
		out[name] = TenantStats{
			Weight:   ts.weight,
			Admitted: ts.admitted,
			Rejected: ts.rejected,
			Shed:     ts.shed,
			Queued:   len(ts.queue),
		}
	}
	return out
}

// clampRetryAfter bounds a computed Retry-After to an operationally useful
// range: below a millisecond a client cannot act on it, above two seconds
// the hint is stale before it expires.
func clampRetryAfter(d time.Duration) time.Duration {
	switch {
	case d < time.Millisecond:
		return time.Millisecond
	case d > 2*time.Second:
		return 2 * time.Second
	}
	return d
}
