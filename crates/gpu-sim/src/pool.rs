//! Multi-device pools.
//!
//! The paper's scale targets (LOFAR's central processor, volumetric
//! ultrasound) need more than one accelerator; a [`DevicePool`] models a
//! host with several simulated GPUs attached.  Pools may be heterogeneous —
//! any mix of catalog entries, e.g. an A100 next to an MI300X; the
//! sharding layer weights work by each member's peak at the session
//! precision.

use crate::device::{Device, Gpu};
use std::fmt;

/// A pool of simulated GPUs attached to one host.
///
/// Pools are never empty, are cheap to clone, and may mix vendors and
/// generations freely.  Member order is significant: shard plans address
/// devices by their index in the pool.
///
/// ```
/// use gpu_sim::{DevicePool, Gpu};
///
/// let pool = DevicePool::from_gpus(&[Gpu::A100, Gpu::Mi300x]);
/// assert_eq!(pool.len(), 2);
/// assert_eq!(pool.gpus(), vec![Gpu::A100, Gpu::Mi300x]);
/// ```
#[derive(Clone, Debug)]
pub struct DevicePool {
    devices: Vec<Device>,
}

impl DevicePool {
    /// Creates a pool from device instances.
    ///
    /// # Panics
    /// Panics if `devices` is empty: a pool models at least one attached
    /// accelerator.
    pub fn new(devices: Vec<Device>) -> Self {
        assert!(!devices.is_empty(), "a device pool cannot be empty");
        DevicePool { devices }
    }

    /// Creates a pool of catalog devices, one per entry of `gpus` (repeats
    /// allowed: `&[Gpu::A100, Gpu::A100]` is a dual-A100 host).
    ///
    /// # Panics
    /// Panics if `gpus` is empty.
    pub fn from_gpus(gpus: &[Gpu]) -> Self {
        Self::new(gpus.iter().map(|g| g.device()).collect())
    }

    /// Number of devices in the pool.
    #[allow(clippy::len_without_is_empty)] // pools are never empty
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// The pool members, in index order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The device at `index`.
    pub fn get(&self, index: usize) -> &Device {
        &self.devices[index]
    }

    /// Iterates over the members in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, Device> {
        self.devices.iter()
    }

    /// The catalog identifiers of the members, in index order.
    pub fn gpus(&self) -> Vec<Gpu> {
        self.devices.iter().map(|d| d.gpu()).collect()
    }

    /// Whether every member supports 1-bit tensor-core operations.
    pub fn supports_int1(&self) -> bool {
        self.devices.iter().all(|d| d.spec().supports_int1())
    }
}

impl fmt::Display for DevicePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.devices.iter().map(|d| d.spec().gpu.name()).collect();
        write!(f, "pool[{}]", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_pool_replicates_one_device() {
        let pool = DevicePool::from_gpus(&[Gpu::A100; 4]);
        assert_eq!(pool.len(), 4);
        assert!(pool.supports_int1());
        assert_eq!(pool.gpus(), vec![Gpu::A100; 4]);
    }

    #[test]
    fn heterogeneous_pool_mixes_vendors() {
        let pool = DevicePool::from_gpus(&[Gpu::Gh200, Gpu::Mi300x, Gpu::A100]);
        // The AMD member has no 1-bit support, so the pool does not either.
        assert!(!pool.supports_int1());
        assert_eq!(pool.gpus(), vec![Gpu::Gh200, Gpu::Mi300x, Gpu::A100]);
        assert_eq!(pool.get(2).gpu(), Gpu::A100);
        assert!(pool.to_string().contains("MI300X"));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_pools_are_rejected() {
        DevicePool::new(Vec::new());
    }
}
