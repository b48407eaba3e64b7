//! Regenerates Fig. 2: the auto-tuning scatter.  For every catalog GPU and
//! every precision it supports, the [`Tuner`] searches the paper's
//! launch-geometry space exhaustively on the paper's tuning shape against
//! the device model and prints how many configurations are valid and what
//! the best one reaches.
//!
//! Usage: `fig2_autotune` (no options).

#![forbid(unsafe_code)]

use ccglib::Precision;
use gpu_sim::Gpu;
use tcbf_bench::header;
use tuner::{Objective, Strategy, Tuner};

fn main() {
    header("Fig. 2 — modelled GPU scatter (launch-geometry search, device model)");
    for gpu in Gpu::ALL {
        let mut precisions = vec![Precision::Float16];
        if gpu.spec().supports_int1() {
            precisions.push(Precision::Int1);
        }
        for precision in precisions {
            let tuner = Tuner::new(
                gpu.device(),
                Tuner::paper_tuning_shape(precision),
                precision,
            );
            let Some(outcome) = tuner.tune(Strategy::Exhaustive, Objective::Performance) else {
                continue;
            };
            println!();
            println!(
                "{gpu} {precision}: {} valid configurations, best {:.0} TOPs/s",
                outcome.evaluated.len(),
                outcome.best.tops
            );
        }
    }
}
