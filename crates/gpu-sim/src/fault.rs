//! Deterministic fault injection for simulated device pools.
//!
//! Real multi-GPU deployments lose devices: ECC double-bit errors, Xid
//! resets, thermal throttling, a node draining for maintenance.  The paper's
//! pipelines assume every device survives the whole observation; the
//! fault-tolerance layers above this crate (`beamform` re-apportionment,
//! `tcbf-serve` quarantine and replay) need a way to *provoke* those losses
//! reproducibly so recovery can be tested bit-for-bit.
//!
//! A [`FaultPlan`] is a declarative list of faults — "device 2 dies
//! permanently after completing 5 blocks", "device 0 drops exactly one block
//! then recovers", "device 1 becomes an 8× straggler from block 10 on".
//! A [`FaultInjector`] arms a plan over a pool: before executing a block on
//! a device, callers ask [`FaultInjector::on_block`] for a
//! [`BlockVerdict`].  The injector is fully deterministic (per-device
//! attempt counters, no clocks, no ambient randomness) so a recovered run
//! is exactly reproducible, and [`FaultPlan::seeded`] derives a plan from a
//! `u64` seed with a splitmix64 hash for randomized-but-replayable testing.
//!
//! Faults are purely a *scheduling* concern: they never corrupt data.  A
//! device either executes a block exactly (possibly slower) or refuses it,
//! which is what keeps recovered output bit-identical to the no-fault
//! reference.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What a fault does to its device once it triggers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) enum FaultKind {
    /// The device refuses exactly one block, then recovers.  Models a
    /// retryable launch failure (a spurious Xid, a watchdog preemption).
    Transient,
    /// The device is lost for good: every block from the trigger point on
    /// is refused.  Models a hardware failure or a drained node.
    Permanent,
    /// The device keeps producing correct output but every block from the
    /// trigger point on takes `factor`× as long.  Models thermal
    /// throttling; exercises straggler accounting without changing results.
    LatencySpike {
        /// Multiplier applied to the block's modelled elapsed time (> 1.0
        /// slows the device down).
        factor: f64,
    },
}

/// One fault in a [`FaultPlan`]: a device, a trigger point, and a kind.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct Fault {
    /// Pool index of the device the fault applies to.
    device: usize,
    /// The fault triggers after the device has *completed* this many
    /// blocks; the next attempt is the first affected one.
    after_blocks: u64,
    /// What happens once the fault triggers.
    kind: FaultKind,
}

/// A declarative, serializable list of faults to inject into a pool.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults ever trigger).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary fault.
    pub(crate) fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds a permanent loss of `device` after it completes `after_blocks`
    /// blocks.
    pub fn kill_device(self, device: usize, after_blocks: u64) -> Self {
        self.with(Fault {
            device,
            after_blocks,
            kind: FaultKind::Permanent,
        })
    }

    /// Adds a transient refusal: `device` drops exactly the block attempted
    /// after completing `after_blocks` blocks, then recovers.
    ///
    /// Public for `tests/fault_conformance.rs`, which provokes transient
    /// refusals through it.
    pub fn drop_block(self, device: usize, after_blocks: u64) -> Self {
        self.with(Fault {
            device,
            after_blocks,
            kind: FaultKind::Transient,
        })
    }

    /// Adds a latency spike: every block on `device` after the first
    /// `after_blocks` completed ones takes `factor`× as long.
    ///
    /// Public for `tests/fault_conformance.rs`, which provokes stragglers
    /// through it.
    pub fn slow_device(self, device: usize, after_blocks: u64, factor: f64) -> Self {
        self.with(Fault {
            device,
            after_blocks,
            kind: FaultKind::LatencySpike { factor },
        })
    }

    /// Derives a reproducible plan from a seed.
    ///
    /// Each of the `devices` pool members independently draws (via a
    /// splitmix64 hash of the seed and its index) whether it faults within
    /// the first `horizon_blocks` blocks, at what point, and with which
    /// kind.  Roughly half the devices fault.  The same `(seed, devices,
    /// horizon_blocks)` triple always yields the same plan.
    ///
    /// Seeded plans are **survivable by construction**: should the hash
    /// happen to doom every device permanently, the last permanent fault
    /// is downgraded to a transient one, so a pool under a seeded plan
    /// can always finish its stream.
    ///
    /// Public for `tests/fault_conformance.rs`, which replays seeded plans
    /// through a pool.
    pub fn seeded(seed: u64, devices: usize, horizon_blocks: u64) -> Self {
        let horizon = horizon_blocks.max(1);
        let mut plan = Self::new();
        for device in 0..devices {
            let h = splitmix64(seed ^ (device as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if !h.is_multiple_of(2) {
                continue;
            }
            let after_blocks = (h >> 8) % horizon;
            let kind = match (h >> 40) % 3 {
                0 => FaultKind::Transient,
                1 => FaultKind::Permanent,
                _ => FaultKind::LatencySpike {
                    factor: 2.0 + ((h >> 48) % 7) as f64,
                },
            };
            plan = plan.with(Fault {
                device,
                after_blocks,
                kind,
            });
        }
        let mut doomed = vec![false; devices];
        for fault in &plan.faults {
            if fault.kind == FaultKind::Permanent {
                doomed[fault.device] = true;
            }
        }
        if devices > 0 && doomed.iter().all(|&d| d) {
            if let Some(fault) = plan
                .faults
                .iter_mut()
                .rev()
                .find(|f| f.kind == FaultKind::Permanent)
            {
                fault.kind = FaultKind::Transient;
            }
        }
        plan
    }

    /// True when the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A fault report attached to a refused block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceFault {
    /// Pool index of the faulted device.
    pub device: usize,
    /// True when the device is lost for good; false for a retryable,
    /// one-shot refusal.
    pub permanent: bool,
}

impl std::fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.permanent {
            write!(f, "device {} lost (permanent fault)", self.device)
        } else {
            write!(
                f,
                "device {} refused a block (transient fault)",
                self.device
            )
        }
    }
}

/// The injector's ruling on one block attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BlockVerdict {
    /// Execute the block normally.
    Proceed,
    /// Execute the block, but scale its modelled elapsed time by the given
    /// factor (a latency-spike fault is active on the device).
    Slow(f64),
    /// Refuse the block; the caller must reschedule it elsewhere (or retry,
    /// for a transient fault).
    Fail(DeviceFault),
}

/// Arms a [`FaultPlan`] over a pool of `devices` members.
///
/// The injector is the single source of truth for per-device attempt
/// counts and liveness.  It is safe to share behind an `Arc` and query from
/// parallel workers: all state is atomic, and the verdict for a given
/// attempt number on a given device is a pure function of the plan, so
/// concurrent callers cannot observe contradictory rulings for the same
/// attempt.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Blocks *attempted* per device (refused attempts count too).
    attempts: Vec<AtomicU64>,
    /// Set once a permanent fault triggers; dead devices stay dead.
    dead: Vec<AtomicBool>,
    /// One latch per plan fault; transient faults fire exactly once.
    fired: Vec<AtomicBool>,
}

impl FaultInjector {
    /// Arms `plan` over a pool of `devices` members.  Faults naming devices
    /// outside `0..devices` never trigger.
    pub fn new(plan: FaultPlan, devices: usize) -> Self {
        let fired = plan.faults.iter().map(|_| AtomicBool::new(false)).collect();
        Self {
            plan,
            attempts: (0..devices).map(|_| AtomicU64::new(0)).collect(),
            dead: (0..devices).map(|_| AtomicBool::new(false)).collect(),
            fired,
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of pool members the injector was armed over.
    pub fn num_devices(&self) -> usize {
        self.attempts.len()
    }

    /// Rules on the next block attempt for `device`.
    ///
    /// Every call counts as one attempt.  Check order: a dead device always
    /// refuses; then permanent faults (which kill the device), then
    /// transient faults (which fire once), then latency spikes (which
    /// compound if several are active).
    pub fn on_block(&self, device: usize) -> BlockVerdict {
        if device >= self.attempts.len() {
            return BlockVerdict::Proceed;
        }
        if self.dead[device].load(Ordering::SeqCst) {
            return BlockVerdict::Fail(DeviceFault {
                device,
                permanent: true,
            });
        }
        let attempt = self.attempts[device].fetch_add(1, Ordering::SeqCst) + 1;
        let mut slow = 1.0f64;
        for (idx, fault) in self.plan.faults.iter().enumerate() {
            if fault.device != device || attempt <= fault.after_blocks {
                continue;
            }
            match fault.kind {
                FaultKind::Permanent => {
                    self.dead[device].store(true, Ordering::SeqCst);
                    return BlockVerdict::Fail(DeviceFault {
                        device,
                        permanent: true,
                    });
                }
                FaultKind::Transient => {
                    if !self.fired[idx].swap(true, Ordering::SeqCst) {
                        return BlockVerdict::Fail(DeviceFault {
                            device,
                            permanent: false,
                        });
                    }
                }
                FaultKind::LatencySpike { factor } => slow *= factor,
            }
        }
        if slow != 1.0 {
            BlockVerdict::Slow(slow)
        } else {
            BlockVerdict::Proceed
        }
    }

    /// True while `device` has not hit a permanent fault.
    pub fn is_alive(&self, device: usize) -> bool {
        device < self.dead.len() && !self.dead[device].load(Ordering::SeqCst)
    }

    /// Number of pool members still alive.
    pub(crate) fn live_devices(&self) -> usize {
        self.dead
            .iter()
            .filter(|d| !d.load(Ordering::SeqCst))
            .count()
    }

    /// Blocks attempted so far on `device` (including refused attempts).
    ///
    /// Public for the fault tests of `beamform::shard`, which count the
    /// attempts a replay costs — a dead member must not be asked again.
    pub fn attempts(&self, device: usize) -> u64 {
        self.attempts
            .get(device)
            .map_or(0, |a| a.load(Ordering::SeqCst))
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("devices", &self.attempts.len())
            .field("live_devices", &self.live_devices())
            .finish()
    }
}

/// splitmix64: a tiny, high-quality 64-bit mixer.  Used here so seeded
/// plans and jittered schedules stay deterministic without pulling a PRNG
/// dependency into the simulator.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_proceeds() {
        let injector = FaultInjector::new(FaultPlan::new(), 2);
        for _ in 0..10 {
            assert_eq!(injector.on_block(0), BlockVerdict::Proceed);
            assert_eq!(injector.on_block(1), BlockVerdict::Proceed);
        }
        assert_eq!(injector.live_devices(), 2);
        assert_eq!(injector.attempts(0), 10);
    }

    #[test]
    fn permanent_fault_kills_after_threshold_and_stays_dead() {
        let injector = FaultInjector::new(FaultPlan::new().kill_device(1, 3), 2);
        for _ in 0..3 {
            assert_eq!(injector.on_block(1), BlockVerdict::Proceed);
        }
        let verdict = injector.on_block(1);
        assert_eq!(
            verdict,
            BlockVerdict::Fail(DeviceFault {
                device: 1,
                permanent: true
            })
        );
        assert!(!injector.is_alive(1));
        assert_eq!(injector.live_devices(), 1);
        // Dead devices refuse everything, forever.
        for _ in 0..5 {
            assert!(matches!(injector.on_block(1), BlockVerdict::Fail(f) if f.permanent));
        }
        // The other device is unaffected.
        assert_eq!(injector.on_block(0), BlockVerdict::Proceed);
    }

    #[test]
    fn transient_fault_fires_exactly_once() {
        let injector = FaultInjector::new(FaultPlan::new().drop_block(0, 2), 1);
        assert_eq!(injector.on_block(0), BlockVerdict::Proceed);
        assert_eq!(injector.on_block(0), BlockVerdict::Proceed);
        assert_eq!(
            injector.on_block(0),
            BlockVerdict::Fail(DeviceFault {
                device: 0,
                permanent: false
            })
        );
        assert!(injector.is_alive(0));
        for _ in 0..5 {
            assert_eq!(injector.on_block(0), BlockVerdict::Proceed);
        }
    }

    #[test]
    fn latency_spike_slows_every_block_after_threshold() {
        let injector = FaultInjector::new(FaultPlan::new().slow_device(0, 1, 4.0), 1);
        assert_eq!(injector.on_block(0), BlockVerdict::Proceed);
        for _ in 0..3 {
            assert_eq!(injector.on_block(0), BlockVerdict::Slow(4.0));
        }
        assert!(injector.is_alive(0));
    }

    #[test]
    fn stacked_latency_spikes_compound() {
        let plan = FaultPlan::new()
            .slow_device(0, 0, 2.0)
            .slow_device(0, 0, 3.0);
        let injector = FaultInjector::new(plan, 1);
        assert_eq!(injector.on_block(0), BlockVerdict::Slow(6.0));
    }

    #[test]
    fn out_of_range_faults_never_trigger() {
        let injector = FaultInjector::new(FaultPlan::new().kill_device(7, 0), 2);
        assert_eq!(injector.on_block(0), BlockVerdict::Proceed);
        assert_eq!(injector.on_block(7), BlockVerdict::Proceed);
        assert_eq!(injector.live_devices(), 2);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(42, 8, 100);
        let b = FaultPlan::seeded(42, 8, 100);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 8, 100);
        assert_ne!(a, c, "different seeds should give different plans");
        for fault in &a.faults {
            assert!(fault.device < 8);
            assert!(fault.after_blocks < 100);
        }
    }

    #[test]
    fn seeded_plans_always_leave_a_survivor() {
        for seed in 0..512u64 {
            for devices in 1..5usize {
                let plan = FaultPlan::seeded(seed, devices, 16);
                let mut doomed = vec![false; devices];
                for fault in &plan.faults {
                    if fault.kind == FaultKind::Permanent {
                        doomed[fault.device] = true;
                    }
                }
                assert!(
                    doomed.iter().any(|&d| !d),
                    "seed {seed} with {devices} devices permanently kills the whole pool"
                );
            }
        }
    }

    #[test]
    fn plan_builders_record_faults_in_order() {
        let plan = FaultPlan::new()
            .kill_device(1, 5)
            .drop_block(0, 2)
            .slow_device(2, 0, 8.0);
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(
            plan.faults[0],
            Fault {
                device: 1,
                after_blocks: 5,
                kind: FaultKind::Permanent
            }
        );
        assert_eq!(
            plan.faults[1],
            Fault {
                device: 0,
                after_blocks: 2,
                kind: FaultKind::Transient
            }
        );
        assert_eq!(
            plan.faults[2],
            Fault {
                device: 2,
                after_blocks: 0,
                kind: FaultKind::LatencySpike { factor: 8.0 }
            }
        );
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }
}
