//! UDP beacon discovery: workers announce themselves, clients collect the
//! live fleet.
//!
//! Each serving worker periodically broadcasts a small datagram —
//! `{address, engine topology, precision menu, capacity}` — to a beacon
//! target (a broadcast address in production, a concrete discoverer
//! address in tests).  [`Discovery`] binds a UDP socket and
//! [`Discovery::collect`]s beacons for a timeout, deduplicating by worker
//! address (latest beacon wins), so a load balancer or client can find the
//! fleet without configuration.

use ccglib::Precision;
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

use crate::wire::{precision_code, precision_from_code};

/// Magic bytes opening every beacon datagram.
const BEACON_MAGIC: &[u8; 4] = b"TCBF";
/// Beacon format version.
const BEACON_VERSION: u8 = 1;
/// Beacons larger than this are ignored (a beacon is a few hundred bytes).
const MAX_BEACON_BYTES: usize = 2048;

/// What one worker announces about itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerInfo {
    /// The TCP address the worker serves on.
    pub addr: String,
    /// Device names of the engine topology (e.g. `["A100", "A100"]`).
    pub gpus: Vec<String>,
    /// The precision menu the worker serves.
    pub precisions: Vec<Precision>,
    /// Engines built per precision.
    pub engines_per_precision: u32,
    /// Session capacity.
    pub max_sessions: u32,
    /// Sessions active when the beacon was sent.
    pub active_sessions: u32,
}

impl WorkerInfo {
    /// Encodes the beacon datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128);
        buf.extend_from_slice(BEACON_MAGIC);
        buf.push(BEACON_VERSION);
        push_string(&mut buf, &self.addr);
        buf.push(self.gpus.len() as u8);
        for gpu in &self.gpus {
            push_string(&mut buf, gpu);
        }
        buf.push(self.precisions.len() as u8);
        for &precision in &self.precisions {
            buf.push(precision_code(precision));
        }
        buf.extend_from_slice(&self.engines_per_precision.to_le_bytes());
        buf.extend_from_slice(&self.max_sessions.to_le_bytes());
        buf.extend_from_slice(&self.active_sessions.to_le_bytes());
        buf
    }

    /// Decodes a beacon datagram; `None` for foreign or malformed
    /// datagrams (discovery shares the network with other traffic, so
    /// garbage is ignored, not an error).
    pub fn decode(datagram: &[u8]) -> Option<WorkerInfo> {
        if datagram.len() > MAX_BEACON_BYTES {
            return None;
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let slice = datagram.get(*pos..pos.saturating_add(n))?;
            *pos += n;
            Some(slice)
        };
        let take_u8 = |pos: &mut usize| -> Option<u8> { take(pos, 1)?.first().copied() };
        if take(&mut pos, 4)? != BEACON_MAGIC {
            return None;
        }
        if take_u8(&mut pos)? != BEACON_VERSION {
            return None;
        }
        let addr = take_string(datagram, &mut pos)?;
        let num_gpus = take_u8(&mut pos)? as usize;
        let mut gpus = Vec::with_capacity(num_gpus);
        for _ in 0..num_gpus {
            gpus.push(take_string(datagram, &mut pos)?);
        }
        let num_precisions = take_u8(&mut pos)? as usize;
        let mut precisions = Vec::with_capacity(num_precisions);
        for _ in 0..num_precisions {
            precisions.push(precision_from_code(take_u8(&mut pos)?)?);
        }
        let engines_per_precision = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let max_sessions = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let active_sessions = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        if pos != datagram.len() {
            return None;
        }
        Some(WorkerInfo {
            addr,
            gpus,
            precisions,
            engines_per_precision,
            max_sessions,
            active_sessions,
        })
    }
}

fn push_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn take_string(datagram: &[u8], pos: &mut usize) -> Option<String> {
    let len_bytes = datagram.get(*pos..pos.saturating_add(2))?;
    let len = u16::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    *pos += 2;
    let body = datagram.get(*pos..pos.saturating_add(len))?;
    let s = String::from_utf8(body.to_vec()).ok()?;
    *pos += len;
    Some(s)
}

/// Where and how often a server announces itself.
#[derive(Clone, Debug)]
pub struct BeaconConfig {
    /// The UDP address beacons are sent to (a broadcast address in
    /// production; a concrete discoverer address in tests).
    pub target: SocketAddr,
    /// Time between beacons.  The first beacon is sent immediately.
    pub interval: Duration,
}

/// Sends one beacon datagram for `info` to `target`.
pub(crate) fn announce_once(info: &WorkerInfo, target: SocketAddr) -> std::io::Result<()> {
    let socket = UdpSocket::bind(("0.0.0.0", 0))?;
    socket.set_broadcast(true)?;
    socket.send_to(&info.encode(), target)?;
    Ok(())
}

/// A bound UDP socket collecting worker beacons.
///
/// Public for `tests/serve_conformance.rs`, which must know the beacon
/// target before the workers it discovers start announcing.
#[derive(Debug)]
pub struct Discovery {
    socket: UdpSocket,
}

impl Discovery {
    /// Binds the discovery socket (use port 0 for an ephemeral port and
    /// read it back with [`Discovery::local_addr`]).  Public for
    /// `tests/serve_conformance.rs`, like [`Discovery`].
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Discovery> {
        Ok(Discovery {
            socket: UdpSocket::bind(addr)?,
        })
    }

    /// The bound address (the beacon target for tests).  Public for
    /// `tests/serve_conformance.rs`, like [`Discovery`].
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Collects beacons until `timeout` elapses, deduplicating by worker
    /// address — the latest beacon for an address wins, so `active_sessions`
    /// reflects each worker's most recent announcement.
    pub fn collect(&self, timeout: Duration) -> std::io::Result<Vec<WorkerInfo>> {
        let deadline = Instant::now() + timeout;
        let mut workers: BTreeMap<String, WorkerInfo> = BTreeMap::new();
        let mut buf = [0u8; MAX_BEACON_BYTES];
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.socket.set_read_timeout(Some(deadline - now))?;
            match self.socket.recv_from(&mut buf) {
                Ok((len, _)) => {
                    if let Some(info) = buf.get(..len).and_then(WorkerInfo::decode) {
                        workers.insert(info.addr.clone(), info);
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(workers.into_values().collect())
    }
}

/// One-shot convenience: bind `listen`, collect beacons for `timeout`,
/// return the deduplicated fleet.
pub fn discover_workers(
    listen: impl ToSocketAddrs,
    timeout: Duration,
) -> std::io::Result<Vec<WorkerInfo>> {
    Discovery::bind(listen)?.collect(timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(addr: &str, active: u32) -> WorkerInfo {
        WorkerInfo {
            addr: addr.into(),
            gpus: vec!["A100".into(), "A100".into()],
            precisions: vec![Precision::Float16, Precision::Int1],
            engines_per_precision: 2,
            max_sessions: 8,
            active_sessions: active,
        }
    }

    #[test]
    fn beacons_round_trip() {
        let original = info("127.0.0.1:31934", 3);
        let decoded = WorkerInfo::decode(&original.encode()).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn foreign_datagrams_are_ignored() {
        assert_eq!(WorkerInfo::decode(b""), None);
        assert_eq!(WorkerInfo::decode(b"HTTP/1.1 200 OK"), None);
        let mut truncated = info("x", 0).encode();
        truncated.pop();
        assert_eq!(WorkerInfo::decode(&truncated), None);
        let mut trailing = info("x", 0).encode();
        trailing.push(0);
        assert_eq!(WorkerInfo::decode(&trailing), None);
    }

    #[test]
    fn discovery_dedups_by_address_latest_wins() {
        let discovery = Discovery::bind("127.0.0.1:0").unwrap();
        let target = discovery.local_addr().unwrap();
        announce_once(&info("10.0.0.1:31934", 1), target).unwrap();
        announce_once(&info("10.0.0.2:31934", 0), target).unwrap();
        announce_once(&info("10.0.0.1:31934", 5), target).unwrap();

        let fleet = discovery.collect(Duration::from_millis(300)).unwrap();
        assert_eq!(fleet.len(), 2);
        let first = fleet.iter().find(|w| w.addr == "10.0.0.1:31934").unwrap();
        assert_eq!(first.active_sessions, 5, "latest beacon wins");
        assert!(fleet.iter().any(|w| w.addr == "10.0.0.2:31934"));
    }
}
