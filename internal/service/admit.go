package service

// Fair-share session admission. The manager's single global MaxSessions
// gate grew into a two-level scheme:
//
//   - per-tenant quota: a tenant with TenantLimits.MaxSessions never holds
//     more live sessions than its cap, whatever the pool looks like;
//   - weighted-fair queueing: when a create cannot be admitted right away
//     (pool full, or the tenant at its cap), it parks on the tenant's
//     FIFO queue — bounded by MaxQueued — and freed capacity is handed to
//     the queued tenant with the smallest stride pass, so a tenant
//     offering 10x its share cannot starve the others: it only queues
//     against itself.
//
// Stride scheduling keeps per-tenant virtual time ("pass"): every grant
// advances the grantee's pass by 1/weight, and the next free slot goes to
// the smallest pass among eligible queued tenants. A tenant going active
// re-enters at the current virtual time, so sleeping never accumulates
// credit.
//
// Rejections are typed: ErrQuota (429 quota_exceeded) when the tenant's
// own cap binds — retrying is pointless until the tenant frees capacity —
// and ErrLimit (429 overloaded) when the shared pool binds.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// ErrQuota marks session or graph creation rejected because the caller's
// own tenant quota is exhausted; the HTTP layer maps it to 429 with code
// quota_exceeded.
var ErrQuota = errors.New("tenant quota exceeded")

// tenantState is the manager's per-tenant admission accounting.
type tenantState struct {
	name   string
	limits TenantLimits
	// live counts the tenant's sessions that have not finished.
	live int
	// pass is the tenant's stride virtual time; the eligible queued tenant
	// with the smallest pass is granted the next freed slot.
	pass float64
	// queue holds creates parked until capacity frees (FIFO per tenant).
	queue []*admitWaiter
	// Monotonic admission counters, exposed per tenant on /metrics.
	admitted      int64
	rejectedQuota int64
	rejectedLoad  int64
}

func (ts *tenantState) weight() float64 {
	if ts.limits.Weight > 0 {
		return float64(ts.limits.Weight)
	}
	return 1
}

// admitWaiter is one create parked on a tenant queue. granted is written
// under the manager mutex; ch is closed on grant.
type admitWaiter struct {
	ch      chan struct{}
	granted bool
}

// tenantLocked returns (creating if needed) the tenant's admission state,
// refreshing its limits so a hot-reloaded keyring applies to the next
// admission decision.
func (m *Manager) tenantLocked(tn TenantInfo) *tenantState {
	ts, ok := m.tenants[tn.Name]
	if !ok {
		ts = &tenantState{name: tn.Name, pass: m.vtime}
		m.tenants[tn.Name] = ts
	}
	ts.limits = tn.Limits
	return ts
}

// chargeLocked books one live slot to the tenant and advances its stride
// pass.
func (m *Manager) chargeLocked(ts *tenantState) {
	if ts.pass < m.vtime {
		ts.pass = m.vtime
	}
	m.vtime = ts.pass
	ts.pass += 1 / ts.weight()
	m.live++
	ts.live++
	ts.admitted++
}

// adoptLocked books a slot without fairness accounting — recovery resumes
// sessions that already held a slot before the crash.
func (m *Manager) adoptLocked(tenant string) {
	var limits TenantLimits
	if m.opts.Keyring != nil {
		limits = m.opts.Keyring.LimitsFor(tenant)
	}
	ts := m.tenantLocked(TenantInfo{Name: tenant, Limits: limits})
	m.live++
	ts.live++
}

// grantNowLocked admits the create immediately when nothing stands in the
// way: pool below capacity, tenant below its cap, and no earlier create
// of the same tenant still queued (FIFO within a tenant).
func (m *Manager) grantNowLocked(ts *tenantState) bool {
	if len(ts.queue) > 0 || m.live >= m.opts.MaxSessions {
		return false
	}
	if c := ts.limits.MaxSessions; c > 0 && ts.live >= c {
		return false
	}
	m.chargeLocked(ts)
	return true
}

// rejectLocked builds the typed rejection for the tenant's current state.
func (m *Manager) rejectLocked(ts *tenantState) error {
	if c := ts.limits.MaxSessions; c > 0 && ts.live >= c {
		ts.rejectedQuota++
		return fmt.Errorf("service: tenant %q has %d live sessions (quota %d): %w", ts.name, ts.live, c, ErrQuota)
	}
	ts.rejectedLoad++
	return fmt.Errorf("service: %d live sessions: %w", m.live, ErrLimit)
}

// grantWaitersLocked hands freed capacity to parked creates: while the
// pool has room, the eligible queued tenant with the smallest stride pass
// is granted one admission. Ties break by name so the schedule never
// depends on map iteration order.
func (m *Manager) grantWaitersLocked() {
	for m.live < m.opts.MaxSessions {
		var best *tenantState
		for _, ts := range m.tenants {
			if len(ts.queue) == 0 {
				continue
			}
			if c := ts.limits.MaxSessions; c > 0 && ts.live >= c {
				continue
			}
			if best == nil || ts.pass < best.pass || (ts.pass == best.pass && ts.name < best.name) {
				best = ts
			}
		}
		if best == nil {
			return
		}
		w := best.queue[0]
		best.queue = best.queue[1:]
		w.granted = true
		m.chargeLocked(best)
		close(w.ch)
	}
}

// releaseLocked returns a tenant's slot to the pool and wakes the fairest
// waiters.
func (m *Manager) releaseLocked(tenant string) {
	m.live--
	if ts, ok := m.tenants[tenant]; ok {
		ts.live--
	}
	m.grantWaitersLocked()
}

// admit reserves one live-session slot for the tenant. When the pool or
// the tenant cap is exhausted it parks on the weighted-fair queue for up
// to Options.AdmitWait (tenants with MaxQueued 0 — including the open-mode
// default tenant — reject immediately instead). The caller owns the slot
// on nil return and must release it via noteFinished or releaseLocked.
func (m *Manager) admit(tn TenantInfo) error {
	m.mu.Lock()
	ts := m.tenantLocked(tn)
	if m.grantNowLocked(ts) {
		m.mu.Unlock()
		return nil
	}
	if maxQ := ts.limits.MaxQueued; maxQ <= 0 || len(ts.queue) >= maxQ {
		err := m.rejectLocked(ts)
		m.mu.Unlock()
		return err
	}
	w := &admitWaiter{ch: make(chan struct{})}
	ts.queue = append(ts.queue, w)
	m.mu.Unlock()

	timer := time.NewTimer(m.opts.AdmitWait)
	defer timer.Stop()
	select {
	case <-w.ch:
		return nil
	case <-timer.C:
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if w.granted {
		// The grant raced the timeout; the slot is ours.
		return nil
	}
	for i, qw := range ts.queue {
		if qw == w {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			break
		}
	}
	return m.rejectLocked(ts)
}

// TenantBackpressure is one tenant's admission state, sampled into the
// gpsd_tenant_* families at scrape time.
type TenantBackpressure struct {
	LiveSessions  int
	Queued        int
	Admitted      int64
	RejectedQuota int64
	RejectedLoad  int64
}

// TenantStats snapshots per-tenant admission accounting, keyed by tenant
// name.
func (m *Manager) TenantStats() map[string]TenantBackpressure {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]TenantBackpressure, len(m.tenants))
	for name, ts := range m.tenants {
		out[name] = TenantBackpressure{
			LiveSessions:  ts.live,
			Queued:        len(ts.queue),
			Admitted:      ts.admitted,
			RejectedQuota: ts.rejectedQuota,
			RejectedLoad:  ts.rejectedLoad,
		}
	}
	return out
}

// tenantSamples renders one labelled sample per tenant, folding tenants
// beyond the cardinality cap into one "_other" sample (values summed).
// Tenants are visited in sorted order so which names survive the cap is
// stable across scrapes. extra labels are attached to every sample.
func (m *Manager) tenantSamples(get func(TenantBackpressure) float64, extra ...obs.Label) []obs.Sample {
	stats := m.TenantStats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]obs.Sample, 0, len(names))
	var overflow float64
	overflowed := false
	for i, name := range names {
		v := get(stats[name])
		if i >= maxTenantLabels {
			overflow += v
			overflowed = true
			continue
		}
		out = append(out, obs.Sample{Labels: append([]obs.Label{obs.L("tenant", name)}, extra...), Value: v})
	}
	if overflowed {
		out = append(out, obs.Sample{Labels: append([]obs.Label{obs.L("tenant", tenantLabelOverflow)}, extra...), Value: overflow})
	}
	return out
}

// registerTenantObs exposes the per-tenant admission families. They carry
// a tenant label behind the cardinality guard; the unlabelled
// gpsd_sessions_* families stay untouched for dashboard compatibility.
func (m *Manager) registerTenantObs(reg *obs.Registry) {
	reg.SampleFunc("gpsd_tenant_sessions_live", "Live sessions by tenant.", obs.KindGauge,
		func() []obs.Sample {
			return m.tenantSamples(func(t TenantBackpressure) float64 { return float64(t.LiveSessions) })
		})
	reg.SampleFunc("gpsd_tenant_sessions_queued", "Session creates parked on the fair-share admission queue, by tenant.", obs.KindGauge,
		func() []obs.Sample {
			return m.tenantSamples(func(t TenantBackpressure) float64 { return float64(t.Queued) })
		})
	reg.SampleFunc("gpsd_tenant_admissions_total", "Session admissions granted, by tenant.", obs.KindCounter,
		func() []obs.Sample {
			return m.tenantSamples(func(t TenantBackpressure) float64 { return float64(t.Admitted) })
		})
	// A waiter that times out on the queue is rejected like any other
	// create, so it lands under whichever reason binds at that moment.
	reg.SampleFunc("gpsd_tenant_rejections_total", "Session creates rejected 429, by tenant and reason (quota: the tenant's own cap; overload: the shared pool).", obs.KindCounter,
		func() []obs.Sample {
			quota := m.tenantSamples(func(t TenantBackpressure) float64 { return float64(t.RejectedQuota) },
				obs.L("reason", "quota"))
			return append(quota, m.tenantSamples(func(t TenantBackpressure) float64 { return float64(t.RejectedLoad) },
				obs.L("reason", "overload"))...)
		})
}
