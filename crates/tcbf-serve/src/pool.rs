//! The engine pool: a fixed fleet of [`Engine`]s multiplexed across many
//! client sessions.
//!
//! Engines are expensive to build (autotuned kernel plans, device
//! contexts), so the server builds a fixed number per served precision
//! **once** from the [`ServeConfig`] via
//! [`tcbf::BeamformerBuilder::build_engine`] and workers *check out* an
//! engine per block, returning it afterwards.  Checkout blocks on a
//! condition variable when every engine of the requested precision is
//! busy — that wait is the scheduling point where many sessions share a
//! small fleet.
//!
//! **Lazy weight swaps** keep multi-tenancy bit-identical and pay for a
//! swap only when there is one to make: every engine slot keeps a handle on
//! the weights its engine carries, and a worker swaps only when the job's
//! weights are not those — the same handle is one pointer comparison,
//! anything else a bit-for-bit comparison ([`WeightMatrix::same_bits`]) that
//! leaves at the first difference.  Tenants that share weights (the
//! server's, or bit-equal uploads) never swap however workers interleave
//! them; tenants with different weights swap on every hand-over, and each
//! session's blocks always execute under exactly the weights that session
//! configured.
//!
//! Lock order: slots -> quarantined
//!
//! That single line is the pool's canonical lock-acquisition order:
//! wherever both of a fleet's locks are held together, `slots` is taken
//! first.  The held-lock tracker in the vendored `parking_lot` checks it
//! per lock instance in every debug test run with `TCBF_LOCK_ORDER=1`;
//! `lock_order_tracker_sees_the_pools_nesting` pins that it sees the
//! nesting (`checkout`'s all-quarantined branch) and panics on its reverse.

use beamform::{Engine, WeightMatrix};
use ccglib::matrix::HostComplexMatrix;
use ccglib::Precision;
use gpu_sim::{FaultInjector, FaultPlan, Gpu};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;
use tcbf::{BeamformerBuilder, TcbfError};

/// Server-side configuration: which engines to build and what limits to
/// enforce.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The device pool every engine spans (one device is a pool of one).
    pub gpus: Vec<Gpu>,
    /// The precision menu: one engine fleet is built per entry.  Sessions
    /// requesting a precision not on the menu are refused with a typed
    /// error.
    pub precisions: Vec<Precision>,
    /// Engines built per precision (the degree of same-precision
    /// parallelism).
    pub engines_per_precision: usize,
    /// The initial beam weights (`beams × receivers`) every engine starts
    /// with; sessions may hot-swap their own.
    pub weights: HostComplexMatrix,
    /// Time samples per block (`N`): every session must stream blocks of
    /// this shape.
    pub samples_per_block: usize,
    /// Sessions admitted concurrently; the next `Hello` is refused
    /// `ServerFull`.
    pub max_sessions: usize,
    /// In-flight blocks allowed per session before `Throttled(QueueFull)`.
    pub queue_depth: usize,
    /// Concurrent streams allowed per tenant; the next same-tenant `Hello`
    /// is refused `TenantQuota`.
    pub tenant_max_streams: usize,
    /// Blocks per second allowed per tenant (token bucket with burst equal
    /// to the ceiling of the rate); `None` disables rate limiting.
    pub tenant_blocks_per_sec: Option<f64>,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Optional deterministic fault plan armed over the engine fleet, for
    /// failover testing: faults are keyed by *slot id* (fleets are laid
    /// out precision-major, `engines_per_precision` slots each).  A slot
    /// hit by a permanent fault is quarantined and its job replayed on a
    /// healthy engine; `None` (the production default) disables injection.
    pub fault_plan: Option<FaultPlan>,
}

impl ServeConfig {
    /// Number of beams (`M`) implied by the weight matrix.
    pub fn beams(&self) -> usize {
        self.weights.rows()
    }

    /// Number of receivers (`K`) implied by the weight matrix.
    pub fn receivers(&self) -> usize {
        self.weights.cols()
    }

    /// Validates the limits and builds one engine fleet per precision.
    pub fn build_pool(&self) -> tcbf::Result<EnginePool> {
        if self.precisions.is_empty()
            || self.engines_per_precision == 0
            || self.max_sessions == 0
            || self.queue_depth == 0
            || self.tenant_max_streams == 0
            || self.workers == 0
            || self.gpus.is_empty()
        {
            return Err(TcbfError::InvalidParameters {
                reason: "every ServeConfig limit (precisions, engines, sessions, queue depth, \
                         tenant streams, workers, gpus) must be non-zero"
                    .into(),
            });
        }
        let primary_gpu = *self
            .gpus
            .first()
            .ok_or_else(|| TcbfError::InvalidParameters {
                reason: "ServeConfig.gpus must name at least one device".into(),
            })?;
        // One copy of the configured weights for the whole fleet: every
        // engine and every slot holds a handle on it.
        let weights = WeightMatrix::from_matrix(self.weights.clone());
        let mut fleets = Vec::with_capacity(self.precisions.len());
        let mut next_slot_id = 0usize;
        for &precision in &self.precisions {
            let mut slots = Vec::with_capacity(self.engines_per_precision);
            for _ in 0..self.engines_per_precision {
                let engine = BeamformerBuilder::new(primary_gpu)
                    .devices(&self.gpus)
                    .weight_matrix(weights.clone())
                    .samples_per_block(self.samples_per_block)
                    .precision(precision)
                    .build_engine()?;
                slots.push(EngineSlot {
                    engine,
                    installed: weights.clone(),
                    slot_id: next_slot_id,
                });
                next_slot_id += 1;
            }
            fleets.push(PrecisionFleet {
                precision,
                slots: Mutex::new(slots),
                available: Condvar::new(),
                quarantined: Mutex::new(Vec::new()),
            });
        }
        let injector = self
            .fault_plan
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan, next_slot_id)));
        Ok(EnginePool {
            fleets,
            fleet_size: self.engines_per_precision,
            weights,
            injector,
        })
    }
}

/// Deterministic unit-magnitude weights: the same `(beams, receivers)`
/// always produces the same matrix, so server and conformance baseline
/// agree without sharing state.
pub fn example_weights(beams: usize, receivers: usize) -> HostComplexMatrix {
    HostComplexMatrix::from_fn(beams, receivers, |b, r| {
        tcbf_types::Complex::from_polar(1.0 / receivers as f32, (b * 7 + r * 3) as f32 * 0.21)
    })
}

/// One pooled engine plus a handle on the weights it carries, for lazy
/// weight swaps.
pub struct EngineSlot {
    /// The engine itself.
    pub engine: Box<dyn Engine>,
    /// The weights `engine` carries: the configured ones for a freshly built
    /// engine, afterwards the handle [`EngineSlot::ensure_weights`] last
    /// installed or found to hold the same bits.  Holding the handle keeps
    /// its storage alive, so "same storage" can never be a recycled address.
    installed: WeightMatrix,
    /// Stable fleet-wide identity of this slot (precision-major layout),
    /// the key fault plans address engines by.
    pub slot_id: usize,
}

impl EngineSlot {
    /// Ensures the engine carries `weights`, swapping only when they are
    /// not, bit for bit, the ones it carries already.
    ///
    /// `_session_id` and `_version` are not part of that decision — who
    /// sends the weights does not change what they compute.  They are kept
    /// for one caller, `examples/pipeline_bench`, which a change to the
    /// served path may not edit; ROADMAP item 1 drops them with it.
    pub fn ensure_weights(
        &mut self,
        _session_id: u64,
        _version: u64,
        weights: &WeightMatrix,
    ) -> tcbf::Result<()> {
        if !self.installed.same_bits(weights) {
            self.engine.swap_weights(weights.clone())?;
        }
        // Equal bits found in other storage are remembered as well: the next
        // block that comes with this handle is a pointer comparison.
        self.installed = weights.clone();
        Ok(())
    }
}

struct PrecisionFleet {
    precision: Precision,
    slots: Mutex<Vec<EngineSlot>>,
    available: Condvar,
    /// Slots pulled from rotation after a permanent fault.  Their engines
    /// keep their accounting (so fleet reports stay complete) but are
    /// never checked out again.
    quarantined: Mutex<Vec<EngineSlot>>,
}

/// The health of a fleet: how many engines remain in rotation out of the
/// built total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolHealth {
    /// Engines still in rotation.
    pub healthy: usize,
    /// Engines built (rotation + quarantine).
    pub total: usize,
}

impl PoolHealth {
    /// True when at least one engine has been quarantined.
    pub fn is_degraded(&self) -> bool {
        self.healthy < self.total
    }
}

/// A fixed fleet of engines per precision with blocking checkout,
/// quarantine of faulted engines, and degradation-aware health reporting.
pub struct EnginePool {
    fleets: Vec<PrecisionFleet>,
    fleet_size: usize,
    /// The configured weights, as every freshly built engine carries them.
    weights: WeightMatrix,
    injector: Option<Arc<FaultInjector>>,
}

impl EnginePool {
    /// The served precision menu, in configuration order.
    pub fn precisions(&self) -> Vec<Precision> {
        self.fleets.iter().map(|f| f.precision).collect()
    }

    /// The configured weights every engine was built with — the handle a
    /// session that never uploads its own streams under, so that its jobs
    /// and a fresh slot agree by pointer.
    pub(crate) fn weights(&self) -> &WeightMatrix {
        &self.weights
    }

    /// Whether `precision` is on the menu.
    pub(crate) fn serves(&self, precision: Precision) -> bool {
        self.fleets.iter().any(|f| f.precision == precision)
    }

    /// The fleet serving `precision`, or the typed off-menu error.  The
    /// server validates the menu at `Hello` time, so in practice this
    /// never fails for admitted sessions — but the pool answers a typed
    /// error rather than panicking if that contract is ever broken.
    fn fleet(&self, precision: Precision) -> tcbf::Result<&PrecisionFleet> {
        self.fleets
            .iter()
            .find(|f| f.precision == precision)
            .ok_or_else(|| TcbfError::UnsupportedPrecision {
                device: "engine pool".into(),
                precision: precision.to_string(),
            })
    }

    /// The fault injector armed over the fleet, if the configuration
    /// carried a fault plan.  Workers consult it per job, keyed by
    /// [`EngineSlot::slot_id`].
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Checks out an engine of `precision`, blocking until one is free.
    ///
    /// Returns [`TcbfError::Degraded`] when every engine of the fleet has
    /// been quarantined — there is nothing left to wait for — and
    /// [`TcbfError::UnsupportedPrecision`] when `precision` is not on the
    /// menu.
    pub fn checkout(&self, precision: Precision) -> tcbf::Result<EngineSlot> {
        let fleet = self.fleet(precision)?;
        let mut slots = fleet.slots.lock();
        loop {
            // FIFO rotation (oldest check-in first) so every slot takes
            // its share of the stream: work spreads across the fleet and
            // a fault armed on any slot deterministically gets blocks to
            // fire on, instead of one hot slot shadowing the rest.
            if !slots.is_empty() {
                return Ok(slots.remove(0));
            }
            // Everything quarantined: no check-in will ever come.
            let lost = fleet.quarantined.lock().len();
            if lost >= self.fleet_size {
                return Err(TcbfError::Degraded {
                    healthy: 0,
                    total: self.fleet_size,
                });
            }
            slots = fleet.available.wait(slots);
        }
    }

    /// Pulls a checked-out engine from rotation for good: it is parked in
    /// quarantine (keeping its accounting for fleet reports) and never
    /// checked out again.  Waiters are woken so they can observe the
    /// shrunken fleet instead of sleeping forever.
    pub(crate) fn quarantine(&self, precision: Precision, slot: EngineSlot) -> tcbf::Result<()> {
        let fleet = self.fleet(precision)?;
        fleet.quarantined.lock().push(slot);
        fleet.available.notify_all();
        Ok(())
    }

    /// The health of one precision's fleet.
    pub(crate) fn fleet_health(&self, precision: Precision) -> tcbf::Result<PoolHealth> {
        let fleet = self.fleet(precision)?;
        let lost = fleet.quarantined.lock().len();
        Ok(PoolHealth {
            healthy: self.fleet_size.saturating_sub(lost),
            total: self.fleet_size,
        })
    }

    /// The health of the whole pool, across every precision fleet.
    pub(crate) fn health(&self) -> PoolHealth {
        let total = self.fleet_size * self.fleets.len();
        let lost: usize = self.fleets.iter().map(|f| f.quarantined.lock().len()).sum();
        PoolHealth {
            healthy: total.saturating_sub(lost),
            total,
        }
    }

    /// Returns a checked-out engine to its fleet and wakes one waiter.
    pub fn check_in(&self, precision: Precision, slot: EngineSlot) -> tcbf::Result<()> {
        let fleet = self.fleet(precision)?;
        fleet.slots.lock().push(slot);
        fleet.available.notify_one();
        Ok(())
    }

    /// The merged engine report of the whole fleet — every engine of every
    /// precision folded into one [`beamform::Report`].
    ///
    /// Waits (up to `drain_timeout`) for checked-out engines to come back
    /// so the merge covers the full fleet; engines still out after the
    /// timeout are simply not included.
    pub(crate) fn merged_report(&self, drain_timeout: Duration) -> beamform::Report {
        let mut shards = Vec::new();
        let mut weight_swaps = 0;
        for fleet in &self.fleets {
            let mut slots = fleet.slots.lock();
            let deadline = std::time::Instant::now() + drain_timeout;
            // Quarantined slots never come back: the fleet is drained when
            // rotation + quarantine account for every built engine.
            loop {
                let lost = fleet.quarantined.lock().len();
                if slots.len() + lost >= self.fleet_size {
                    break;
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = fleet.available.wait_timeout(slots, deadline - now);
                slots = guard;
            }
            let quarantined = fleet.quarantined.lock();
            for slot in slots.iter().chain(quarantined.iter()) {
                let report = slot.engine.report();
                weight_swaps += report.weight_swaps();
                shards.extend(report.per_device().iter().cloned());
            }
        }
        beamform::Report::new(shards, weight_swaps)
    }
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnginePool")
            .field("precisions", &self.precisions())
            .finish()
    }
}

#[cfg(test)]
impl ServeConfig {
    /// A small deterministic configuration: one A100, both tensor-core
    /// precisions, pseudo-random unit-magnitude weights.
    pub(crate) fn example(beams: usize, receivers: usize, samples_per_block: usize) -> Self {
        ServeConfig {
            gpus: vec![Gpu::A100],
            precisions: vec![Precision::Float16, Precision::Int1],
            engines_per_precision: 2,
            weights: example_weights(beams, receivers),
            samples_per_block,
            max_sessions: 8,
            queue_depth: 4,
            tenant_max_streams: 4,
            tenant_blocks_per_sec: None,
            workers: 2,
            fault_plan: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pool() -> EnginePool {
        let mut config = ServeConfig::example(4, 16, 32);
        config.engines_per_precision = 1;
        config.build_pool().unwrap()
    }

    #[test]
    fn checkout_blocks_until_check_in() {
        let pool = Arc::new(pool());
        let slot = pool.checkout(Precision::Float16).unwrap();
        // Another precision is unaffected by float16 being exhausted.
        let int1 = pool.checkout(Precision::Int1).unwrap();
        pool.check_in(Precision::Int1, int1).unwrap();

        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let slot = pool.checkout(Precision::Float16).unwrap();
                pool.check_in(Precision::Float16, slot).unwrap();
            })
        };
        // The waiter cannot finish while the only float16 engine is out.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished());
        pool.check_in(Precision::Float16, slot).unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn lazy_swap_fires_only_when_the_bits_differ() {
        let pool = pool();
        let mut slot = pool.checkout(Precision::Float16).unwrap();
        let swaps = |slot: &EngineSlot| slot.engine.report().weight_swaps();
        // Who asks is no part of the rule: every call comes from a new
        // session with a new version.
        let mut caller = 0u64;
        let mut ensure = |slot: &mut EngineSlot, weights: &WeightMatrix| {
            caller += 1;
            slot.ensure_weights(caller, caller, weights)
        };

        // A fresh engine carries the configured weights: the pool's own
        // handle, and equal bits in another allocation, are installed already.
        ensure(&mut slot, pool.weights()).unwrap();
        let configured = WeightMatrix::from_matrix(example_weights(4, 16));
        ensure(&mut slot, &configured).unwrap();
        assert_eq!(swaps(&slot), 0);
        // ... and the copy's handle is the one compared by pointer from now on.
        assert!(std::ptr::eq(slot.installed.matrix(), configured.matrix()));

        // Different bits swap, once; then the same handle and a bit-equal
        // copy of it are installed already.
        let with = |re: f32| {
            let mut matrix = example_weights(4, 16);
            let im = matrix.get(2, 5).im;
            matrix.set(2, 5, tcbf_types::Complex::new(re, im));
            WeightMatrix::from_matrix(matrix)
        };
        let zero = with(0.0);
        ensure(&mut slot, &zero).unwrap();
        assert_eq!(swaps(&slot), 1);
        ensure(&mut slot, &zero.clone()).unwrap();
        ensure(&mut slot, &with(0.0)).unwrap();
        assert_eq!(swaps(&slot), 1);

        // The sign of a zero is a difference (it is the 1-bit sample), and
        // so is the payload of a NaN — which, unlike under `==`, is also
        // equal to itself.
        ensure(&mut slot, &with(-0.0)).unwrap();
        assert_eq!(swaps(&slot), 2);
        let nan = with(f32::from_bits(0x7fc0_0001));
        ensure(&mut slot, &nan).unwrap();
        assert_eq!(swaps(&slot), 3);
        ensure(&mut slot, &with(f32::from_bits(0x7fc0_0001))).unwrap();
        assert_eq!(swaps(&slot), 3);
        ensure(&mut slot, &with(f32::from_bits(0x7fc0_0002))).unwrap();
        assert_eq!(swaps(&slot), 4);

        // A wrong shape is the engine's typed error, and the slot keeps
        // believing — rightly — that it carries what it carried before.
        let wrong = WeightMatrix::from_matrix(example_weights(4, 17));
        assert!(matches!(
            ensure(&mut slot, &wrong),
            Err(TcbfError::ShapeMismatch { .. })
        ));
        assert_eq!(swaps(&slot), 4);
        ensure(&mut slot, &with(f32::from_bits(0x7fc0_0002))).unwrap();
        assert_eq!(swaps(&slot), 4);
        ensure(&mut slot, &configured).unwrap();
        assert_eq!(swaps(&slot), 5);
        pool.check_in(Precision::Float16, slot).unwrap();
    }

    #[test]
    fn invalid_limits_are_rejected() {
        let mut config = ServeConfig::example(4, 16, 32);
        config.queue_depth = 0;
        assert!(matches!(
            config.build_pool(),
            Err(TcbfError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn off_menu_precision_is_reported() {
        let mut config = ServeConfig::example(4, 16, 32);
        config.precisions = vec![Precision::Float16];
        let pool = config.build_pool().unwrap();
        assert!(pool.serves(Precision::Float16));
        assert!(!pool.serves(Precision::Int1));
    }

    #[test]
    fn slot_ids_are_stable_and_precision_major() {
        let config = ServeConfig::example(4, 16, 32); // 2 precisions x 2 engines
        let pool = config.build_pool().unwrap();
        let mut f16_ids = Vec::new();
        for _ in 0..2 {
            f16_ids.push(pool.checkout(Precision::Float16).unwrap().slot_id);
        }
        f16_ids.sort_unstable();
        assert_eq!(f16_ids, vec![0, 1]);
        let int1 = pool.checkout(Precision::Int1).unwrap();
        assert!(int1.slot_id == 2 || int1.slot_id == 3);
    }

    #[test]
    fn quarantine_degrades_health_and_exhausted_fleets_fail_fast() {
        let config = ServeConfig::example(4, 16, 32); // 2 engines per precision
        let pool = config.build_pool().unwrap();
        assert_eq!(
            pool.health(),
            PoolHealth {
                healthy: 4,
                total: 4
            }
        );
        assert!(!pool.health().is_degraded());

        let first = pool.checkout(Precision::Float16).unwrap();
        pool.quarantine(Precision::Float16, first).unwrap();
        assert_eq!(
            pool.fleet_health(Precision::Float16).unwrap(),
            PoolHealth {
                healthy: 1,
                total: 2
            }
        );
        assert_eq!(
            pool.health(),
            PoolHealth {
                healthy: 3,
                total: 4
            }
        );
        assert!(pool.health().is_degraded());
        // The other precision fleet is untouched.
        assert_eq!(
            pool.fleet_health(Precision::Int1).unwrap(),
            PoolHealth {
                healthy: 2,
                total: 2
            }
        );

        // The survivor still checks out; once it is quarantined too, the
        // fleet is exhausted and checkout errors instead of blocking.
        let second = pool.checkout(Precision::Float16).unwrap();
        pool.quarantine(Precision::Float16, second).unwrap();
        assert_eq!(
            pool.checkout(Precision::Float16).map(|_| ()).unwrap_err(),
            TcbfError::Degraded {
                healthy: 0,
                total: 2
            }
        );
        // Int1 is still served.
        let int1 = pool.checkout(Precision::Int1).unwrap();
        pool.check_in(Precision::Int1, int1).unwrap();
    }

    #[test]
    fn quarantining_wakes_blocked_waiters() {
        let mut config = ServeConfig::example(4, 16, 32);
        config.engines_per_precision = 1;
        let pool = Arc::new(config.build_pool().unwrap());
        let slot = pool.checkout(Precision::Float16).unwrap();
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.checkout(Precision::Float16))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished());
        // Quarantining the only engine must wake the waiter with the
        // typed degradation error, not leave it blocked forever.
        pool.quarantine(Precision::Float16, slot).unwrap();
        assert_eq!(
            waiter.join().unwrap().map(|_| ()).unwrap_err(),
            TcbfError::Degraded {
                healthy: 0,
                total: 1
            }
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn lock_order_tracker_sees_the_pools_nesting() {
        parking_lot::lock_order::arm();
        let mut config = ServeConfig::example(4, 16, 32);
        config.precisions = vec![Precision::Float16];
        config.engines_per_precision = 1;
        let pool = config.build_pool().unwrap();
        let slot = pool.checkout(Precision::Float16).unwrap();
        pool.quarantine(Precision::Float16, slot).unwrap();
        // The all-quarantined branch reads `quarantined` under `slots`.
        assert!(matches!(
            pool.checkout(Precision::Float16),
            Err(TcbfError::Degraded { .. })
        ));
        // The reverse nesting on the same fleet closes a cycle.
        let fleet = pool.fleet(Precision::Float16).unwrap();
        let _quarantined = fleet.quarantined.lock();
        let _slots = fleet.slots.lock();
    }

    #[test]
    fn merged_report_includes_quarantined_engines() {
        let mut config = ServeConfig::example(4, 16, 32);
        config.precisions = vec![Precision::Float16];
        let pool = config.build_pool().unwrap();
        let weights = WeightMatrix::from_matrix(example_weights(4, 16));
        let block = HostComplexMatrix::from_fn(16, 32, |r, s| {
            tcbf_types::Complex::new((r + s) as f32 * 0.01, r as f32 * 0.02)
        });
        let mut slot = pool.checkout(Precision::Float16).unwrap();
        slot.ensure_weights(1, 0, &weights).unwrap();
        slot.engine.process_batch(&[&block]).unwrap();
        pool.quarantine(Precision::Float16, slot).unwrap();
        // The quarantined engine's block stays in the fleet report, and
        // the drain does not wait for it to "come back".
        let report = pool.merged_report(Duration::from_millis(50));
        assert_eq!(report.total_blocks(), 1);
    }

    #[test]
    fn fault_plans_arm_an_injector_over_every_slot() {
        let mut config = ServeConfig::example(4, 16, 32);
        assert!(config.build_pool().unwrap().injector().is_none());
        config.fault_plan = Some(FaultPlan::new().kill_device(0, 3));
        let pool = config.build_pool().unwrap();
        let injector = pool.injector().expect("plan arms an injector");
        // 2 precisions x 2 engines per precision.
        assert_eq!(injector.num_devices(), 4);
    }
}
