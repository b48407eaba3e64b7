//! Set-up of the path a workload's blocks travel: a direct
//! `Box<dyn Engine>` or a loopback `tcbf_serve` server with one `Client`
//! per caller.  Only public API of the program under test is used.

use crate::workloads::{Inputs, Workload, GPU};
use beamform::Engine;
use ccglib::matrix::HostComplexMatrix;
use tcbf::BeamformerBuilder;
use tcbf_serve::{serve, Client, FleetReport, ServeConfig, ServerHandle};

/// Tenant names of the served callers, in caller order.
pub const TENANTS: [&str; 2] = ["a", "b"];

pub fn build_engine(w: &Workload, weights: &HostComplexMatrix) -> Result<Box<dyn Engine>, String> {
    BeamformerBuilder::new(GPU)
        .weights(weights.clone())
        .samples_per_block(w.n)
        .precision(w.precision)
        .build_engine()
        .map_err(|e| format!("build_engine: {e}"))
}

/// One precision, one engine: every session shares the same slot, which
/// is what makes the pool and the lazy weight swap visible.
pub fn serve_config(w: &Workload, weights: &HostComplexMatrix) -> ServeConfig {
    ServeConfig {
        gpus: vec![GPU],
        precisions: vec![w.precision],
        engines_per_precision: 1,
        weights: weights.clone(),
        samples_per_block: w.n,
        max_sessions: 8,
        queue_depth: 4,
        tenant_max_streams: 4,
        tenant_blocks_per_sec: None,
        workers: 2,
        fault_plan: None,
    }
}

fn start_server(w: &Workload, weights: &HostComplexMatrix) -> Result<ServerHandle, String> {
    serve("127.0.0.1:0", serve_config(w, weights)).map_err(|e| format!("serve: {e}"))
}

/// One closed-loop caller: issues a block, waits for its output.
pub enum Caller {
    Direct(Box<dyn Engine>),
    Served(Client),
}

impl Caller {
    /// Call → output in hand.  A served block that needed a throttle
    /// retry is an `Err`: it missed any latency limit.
    pub fn run(&mut self, block: &HostComplexMatrix) -> Result<HostComplexMatrix, String> {
        match self {
            Caller::Direct(engine) => engine
                .process_batch(&[block])
                .map_err(|e| e.to_string())?
                .pop()
                .map(|output| output.beams)
                .ok_or_else(|| "engine returned no output".to_string()),
            Caller::Served(client) => {
                let retries = client.throttle_retries();
                let mut beams = client
                    .stream_blocks(std::slice::from_ref(block))
                    .map_err(|e| e.to_string())?;
                if client.throttle_retries() != retries {
                    return Err("block needed a throttle retry".to_string());
                }
                beams
                    .pop()
                    .ok_or_else(|| "server returned no output".to_string())
            }
        }
    }
}

/// A workload's path, set up and ready for its first block.
pub struct Rig {
    pub server: Option<ServerHandle>,
    pub callers: Vec<Caller>,
}

impl Rig {
    pub fn setup(w: &Workload, inputs: &Inputs) -> Result<Rig, String> {
        if w.served {
            return Rig::setup_served(w, inputs);
        }
        let callers = inputs
            .blocks
            .iter()
            .map(|_| build_engine(w, &inputs.weights).map(Caller::Direct))
            .collect::<Result<_, _>>()?;
        Ok(Rig {
            server: None,
            callers,
        })
    }

    /// The served path at `w`'s shape and precision, whatever `w.served`
    /// says: the traced run also probes the serve layers of a direct
    /// workload's shape.
    pub fn setup_served(w: &Workload, inputs: &Inputs) -> Result<Rig, String> {
        let server = start_server(w, &inputs.weights)?;
        let callers = TENANTS
            .iter()
            .take(inputs.blocks.len())
            .map(|tenant| {
                let mut client = Client::connect(server.addr(), tenant, w.precision, w.k, w.n)
                    .map_err(|e| format!("connect: {e}"))?;
                client.set_window(1);
                Ok(Caller::Served(client))
            })
            .collect::<Result<_, String>>()?;
        Ok(Rig {
            server: Some(server),
            callers,
        })
    }

    /// Ends the callers' sessions; returns the throttle retries their
    /// clients rode out.  The server, if any, keeps running.
    pub fn finish_callers(&mut self) -> Result<u64, String> {
        let mut retries = 0;
        for caller in self.callers.drain(..) {
            if let Caller::Served(client) = caller {
                retries += client.throttle_retries();
                client.finish().map_err(|e| format!("finish: {e}"))?;
            }
        }
        Ok(retries)
    }

    /// Ends the sessions and stops the server (joining its threads);
    /// returns the served fleet's final report.
    pub fn teardown(mut self) -> Result<Option<FleetReport>, String> {
        self.finish_callers()?;
        Ok(self.server.map(ServerHandle::shutdown))
    }
}
