//! Fleet metrics: per-tenant accounting merged into one fleet-wide report.
//!
//! Every admitted block contributes a wall-clock latency sample
//! (admission to reply, measured server side) to its tenant's
//! [`LatencyHistogram`]; throttles and typed errors are counted per
//! tenant.  `FleetMetrics::fleet_report` folds all tenants together and
//! attaches the merged engine-side [`beamform::Report`], so one call
//! answers both "how is the service behaving" (tail latency,
//! backpressure, error rate, per-tenant throughput) and "how is the fleet
//! performing" (aggregate TeraOps/s, energy) — the serving counterpart of
//! the paper's single-run metric surface.

use crate::pool::PoolHealth;
use beamform::LatencyHistogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Instant;

/// One tenant's accumulated service-side statistics.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// The tenant identifier.
    pub tenant: String,
    /// Sessions this tenant opened (admitted `Hello`s).
    pub sessions: u64,
    /// Blocks beamformed for this tenant.
    pub blocks: u64,
    /// Blocks refused with `Throttled` (queue-full or rate-limited).
    pub throttled: u64,
    /// Blocks that failed with a typed error.
    pub errors: u64,
    /// Blocks replayed on a healthy engine after an engine fault.  These
    /// blocks still complete (and count under [`TenantReport::blocks`]);
    /// this counter records how often failover saved one.
    pub recovered: u64,
    /// Wall-clock histogram of block latency (admission to reply).
    pub latency: LatencyHistogram,
    /// Seconds between this tenant's first and last completed block.
    pub active_s: f64,
}

impl TenantReport {
    fn new(tenant: &str) -> Self {
        TenantReport {
            tenant: tenant.to_owned(),
            sessions: 0,
            blocks: 0,
            throttled: 0,
            errors: 0,
            recovered: 0,
            latency: LatencyHistogram::new(),
            active_s: 0.0,
        }
    }

    /// Completions per second over the tenant's active window, which opens
    /// at the first completion (0.0 before the second block completes).
    pub(crate) fn blocks_per_sec(&self) -> f64 {
        if self.active_s > 0.0 {
            self.blocks.saturating_sub(1) as f64 / self.active_s
        } else {
            0.0
        }
    }
}

/// The merged fleet-wide report: every tenant plus the engine fleet.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantReport>,
    /// The merged service-side latency histogram across all tenants.
    pub latency: LatencyHistogram,
    /// The merged engine-side report of the whole engine fleet.
    pub engines: beamform::Report,
    /// Pool health at snapshot time: healthy vs provisioned engine slots.
    pub health: PoolHealth,
}

impl FleetReport {
    /// Total blocks beamformed across all tenants.
    pub fn total_blocks(&self) -> u64 {
        self.tenants.iter().map(|t| t.blocks).sum()
    }

    /// Total throttled blocks across all tenants.
    pub(crate) fn total_throttled(&self) -> u64 {
        self.tenants.iter().map(|t| t.throttled).sum()
    }

    /// Total errored blocks across all tenants.
    pub fn total_errors(&self) -> u64 {
        self.tenants.iter().map(|t| t.errors).sum()
    }

    /// Total blocks recovered by failover across all tenants.
    pub fn total_recovered(&self) -> u64 {
        self.tenants.iter().map(|t| t.recovered).sum()
    }

    /// Whether the pool had lost at least one engine at snapshot time.
    pub fn is_degraded(&self) -> bool {
        self.health.is_degraded()
    }

    /// The one-line greppable summary emitted by the server binary and
    /// grepped by CI: stable `key=value` pairs, errors before the
    /// percentiles, then the weight swaps the fleet's engines performed (the
    /// cost of tenants whose weights differ sharing a slot; 0 when they all
    /// stream under the same bits), fault-tolerance counters at the end.
    pub fn summary_line(&self) -> String {
        format!(
            "fleet-report tenants={} blocks={} throttled={} errors={} \
             p50_us={:.1} p95_us={:.1} p99_us={:.1} aggregate_tops={:.2} joules={:.3} \
             swaps={} recovered={} quarantined={} degraded={}",
            self.tenants.len(),
            self.total_blocks(),
            self.total_throttled(),
            self.total_errors(),
            self.latency.p50_s() * 1e6,
            self.latency.p95_s() * 1e6,
            self.latency.p99_s() * 1e6,
            self.engines.aggregate_tops(),
            self.engines.total_joules(),
            self.engines.weight_swaps(),
            self.total_recovered(),
            self.health.total - self.health.healthy,
            u8::from(self.is_degraded()),
        )
    }

    /// One greppable line per tenant: blocks, backpressure, errors, tail
    /// latency and throughput.
    pub fn tenant_lines(&self) -> Vec<String> {
        self.tenants
            .iter()
            .map(|t| {
                format!(
                    "tenant={} sessions={} blocks={} throttled={} errors={} \
                     p50_us={:.1} p95_us={:.1} p99_us={:.1} blocks_per_sec={:.1}",
                    t.tenant,
                    t.sessions,
                    t.blocks,
                    t.throttled,
                    t.errors,
                    t.latency.p50_s() * 1e6,
                    t.latency.p95_s() * 1e6,
                    t.latency.p99_s() * 1e6,
                    t.blocks_per_sec(),
                )
            })
            .collect()
    }
}

struct TenantState {
    report: TenantReport,
    first_block: Option<Instant>,
}

/// Thread-safe accumulator the server threads record into.
#[derive(Default)]
pub(crate) struct FleetMetrics {
    tenants: Mutex<BTreeMap<String, TenantState>>,
}

impl FleetMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_tenant(&self, tenant: &str, f: impl FnOnce(&mut TenantState)) {
        let mut tenants = self.tenants.lock();
        let state = tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantState {
                report: TenantReport::new(tenant),
                first_block: None,
            });
        f(state);
    }

    /// Records an admitted session for `tenant`.
    pub(crate) fn record_session(&self, tenant: &str) {
        self.with_tenant(tenant, |state| state.report.sessions += 1);
    }

    /// Records one completed block: wall latency from admission to reply.
    pub(crate) fn record_block(&self, tenant: &str, latency_s: f64, completed_at: Instant) {
        self.with_tenant(tenant, |state| {
            state.report.blocks += 1;
            state.report.latency.record_s(latency_s);
            match state.first_block {
                None => state.first_block = Some(completed_at),
                Some(first) => {
                    state.report.active_s = completed_at.duration_since(first).as_secs_f64();
                }
            }
        });
    }

    /// Records one throttled (refused, retryable) block.
    pub(crate) fn record_throttle(&self, tenant: &str) {
        self.with_tenant(tenant, |state| state.report.throttled += 1);
    }

    /// Records one block that failed with a typed error.
    pub(crate) fn record_error(&self, tenant: &str) {
        self.with_tenant(tenant, |state| state.report.errors += 1);
    }

    /// Records one block replayed on a healthy engine after a fault.
    pub(crate) fn record_recovery(&self, tenant: &str) {
        self.with_tenant(tenant, |state| state.report.recovered += 1);
    }

    /// Snapshots all tenants and merges them with the engine fleet's
    /// report and the pool's health into one [`FleetReport`].
    pub fn fleet_report(&self, engines: beamform::Report, health: PoolHealth) -> FleetReport {
        let tenants: Vec<TenantReport> = self
            .tenants
            .lock()
            .values()
            .map(|state| state.report.clone())
            .collect();
        let mut latency = LatencyHistogram::new();
        for tenant in &tenants {
            latency.merge(&tenant.latency);
        }
        FleetReport {
            tenants,
            latency,
            engines,
            health,
        }
    }
}

impl std::fmt::Debug for FleetMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetMetrics")
            .field("tenants", &self.tenants.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fleet_report_merges_tenants() {
        let metrics = FleetMetrics::new();
        let t0 = Instant::now();
        metrics.record_session("alice");
        metrics.record_session("bob");
        for i in 0..10 {
            metrics.record_block("alice", 1e-5, t0 + Duration::from_millis(i * 10));
        }
        metrics.record_block("bob", 4e-5, t0);
        metrics.record_throttle("bob");
        metrics.record_error("bob");

        let healthy = PoolHealth {
            healthy: 2,
            total: 2,
        };
        let report = metrics.fleet_report(beamform::Report::default(), healthy);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.total_blocks(), 11);
        assert_eq!(report.total_throttled(), 1);
        assert_eq!(report.total_errors(), 1);
        assert_eq!(report.total_recovered(), 0);
        assert!(!report.is_degraded());
        assert_eq!(report.latency.count(), 11);

        // Tenants are sorted by name and expose their own percentiles.
        assert_eq!(report.tenants[0].tenant, "alice");
        assert_eq!(report.tenants[1].tenant, "bob");
        assert!(report.tenants[0].latency.p99_s() <= report.tenants[1].latency.p99_s());
        // Alice completed 10 blocks 10 ms apart: 9 intervals in 90 ms.
        assert!((report.tenants[0].blocks_per_sec() - 100.0).abs() < 1e-9);

        let line = report.summary_line();
        assert!(line.starts_with("fleet-report tenants=2 blocks=11 throttled=1 errors=1"));
        assert!(line.contains("p99_us="));
        assert!(line.contains("swaps=0 recovered=0 quarantined=0 degraded=0"));
        assert_eq!(report.tenant_lines().len(), 2);
    }

    #[test]
    fn empty_report_is_finite() {
        let metrics = FleetMetrics::new();
        let health = PoolHealth {
            healthy: 1,
            total: 1,
        };
        let report = metrics.fleet_report(beamform::Report::default(), health);
        assert_eq!(report.total_blocks(), 0);
        assert_eq!(report.latency.p99_s(), 0.0);
        assert!(report.summary_line().contains("errors=0"));
    }

    #[test]
    fn recoveries_and_degradation_surface_in_the_summary() {
        let metrics = FleetMetrics::new();
        metrics.record_session("alice");
        metrics.record_block("alice", 1e-5, Instant::now());
        metrics.record_recovery("alice");
        metrics.record_recovery("alice");

        let degraded = PoolHealth {
            healthy: 1,
            total: 3,
        };
        let report = metrics.fleet_report(beamform::Report::default(), degraded);
        assert_eq!(report.total_recovered(), 2);
        assert_eq!(report.tenants[0].recovered, 2);
        assert!(report.is_degraded());
        assert!(report
            .summary_line()
            .ends_with("recovered=2 quarantined=2 degraded=1"));
    }
}
