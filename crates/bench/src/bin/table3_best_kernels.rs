//! Regenerates Table III: the best matrix-multiplication kernel per GPU —
//! throughput, energy efficiency and the optimal tuning-parameter values.

#![forbid(unsafe_code)]

use ccglib::Precision;
use gpu_sim::Gpu;
use tcbf_bench::{header, print_table};
use tuner::{Objective, Strategy, Tuner};

fn main() {
    header("Table III — best kernel per GPU (exhaustively tuned)");
    let columns = [
        "GPU",
        "Precision",
        "TOPs/s",
        "TOPs/J",
        "M/block",
        "M/warp",
        "N/block",
        "N/warp",
        "Buffers",
    ];
    let mut rows = Vec::new();
    for precision in [Precision::Float16, Precision::Int1] {
        for gpu in Gpu::ALL {
            if precision == Precision::Int1 && !gpu.spec().supports_int1() {
                continue;
            }
            let tuner = Tuner::new(
                gpu.device(),
                Tuner::paper_tuning_shape(precision),
                precision,
            );
            let Some(outcome) = tuner.tune(Strategy::Exhaustive, Objective::Performance) else {
                continue;
            };
            let p = outcome.best.params;
            rows.push(vec![
                gpu.name().to_string(),
                precision.to_string(),
                format!("{:.0}", outcome.best.tops),
                format!("{:.1}", outcome.best.tops_per_joule),
                p.m_per_block.to_string(),
                p.m_per_warp.to_string(),
                p.n_per_block.to_string(),
                p.n_per_warp.to_string(),
                p.buffers.to_string(),
            ]);
        }
    }
    print_table(&columns, &rows);
    println!();
    println!(
        "Paper values for comparison (Table III): AD4000 93/0.7, A100 173/0.8, GH200 335/0.8,"
    );
    println!(
        "W7700 45/0.3, MI210 147/1.3, MI300X 603/0.9, MI300A 518/0.8 (float16 TOPs/s / TOPs/J);"
    );
    println!("AD4000 1400/10.7, A100 3080/12.3, GH200 3780/6.0 (int1).");
}
