//! Regenerates Fig. 4: performance and energy efficiency of the complex
//! GEMM across a range of matrix sizes, with the Table III kernel
//! parameters — float16 on all seven GPUs, 1-bit on the NVIDIA GPUs
//! (separate M/N and K sweeps).

#![forbid(unsafe_code)]

use ccglib::benchmark::{sweep_int1, sweep_square};
use ccglib::Precision;
use gpu_sim::Gpu;
use tcbf_bench::{header, print_table};

fn main() {
    let sizes: Vec<usize> = (1..=16).map(|i| i * 1000).collect();

    header("Fig. 4a — 16-bit float: TFLOPs/s and TFLOPs/J vs matrix size (all axes)");
    let mut rows = Vec::new();
    for &size in &sizes {
        let mut row = vec![size.to_string()];
        for gpu in Gpu::ALL {
            let r = sweep_square(&gpu.device(), Precision::Float16, &[size]).unwrap()[0];
            row.push(format!("{:.0}/{:.2}", r.tops, r.tops_per_joule));
        }
        rows.push(row);
    }
    print_table(
        &[
            "size", "AD4000", "A100", "GH200", "W7700", "MI210", "MI300X", "MI300A",
        ],
        &rows,
    );

    header("Fig. 4b — 1-bit int: TOPs/s and TOPs/J vs matrix size (M, N), K = 524288");
    let mut rows = Vec::new();
    for &size in &sizes {
        let mut row = vec![size.to_string()];
        for gpu in Gpu::NVIDIA {
            let (mn, _) = sweep_int1(&gpu.device(), &[size], 524_288, &[], 8192).unwrap();
            row.push(format!("{:.0}/{:.1}", mn[0].tops, mn[0].tops_per_joule));
        }
        rows.push(row);
    }
    print_table(&["size (M,N)", "AD4000", "A100", "GH200"], &rows);

    header("Fig. 4b — 1-bit int: TOPs/s and TOPs/J vs matrix size (K), M = N = 8192");
    let k_sizes: Vec<usize> = (1..=10).map(|i| i * 100_000).collect();
    let mut rows = Vec::new();
    for &k in &k_sizes {
        let mut row = vec![k.to_string()];
        for gpu in Gpu::NVIDIA {
            let (_, ks) = sweep_int1(&gpu.device(), &[], 524_288, &[k], 8192).unwrap();
            row.push(format!("{:.0}/{:.1}", ks[0].tops, ks[0].tops_per_joule));
        }
        rows.push(row);
    }
    print_table(&["size (K)", "AD4000", "A100", "GH200"], &rows);
    println!();
    println!("Each cell is TOPs/s / TOPs/J.  The dips at sizes that are not multiples of the");
    println!("per-block tile reproduce the sawtooth pattern caused by padding.");
}
