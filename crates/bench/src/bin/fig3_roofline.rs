//! Regenerates Fig. 3: roofline analysis of the ccglib GEMM kernel — the
//! float16/int1 tensor-core and float32 ceilings per GPU, plus the measured
//! small/big evaluation points.

#![forbid(unsafe_code)]

use ccglib::benchmark::roofline_points;
use gpu_sim::Gpu;
use tcbf_bench::{header, print_table};

fn main() {
    header("Fig. 3 — roofline analysis");
    for gpu in Gpu::ALL {
        let device = gpu.device();
        let roofline = device.roofline();
        println!();
        println!(
            "{gpu} (memory bandwidth {:.0} GB/s)",
            roofline.mem_bandwidth_gbs
        );
        let ceiling_rows: Vec<Vec<String>> = roofline
            .ceilings
            .iter()
            .map(|c| {
                vec![
                    c.label.clone(),
                    format!("{:.0}", c.peak_tops),
                    format!("{:.1}", roofline.ridge_point(&c.label).unwrap_or(0.0)),
                ]
            })
            .collect();
        print_table(
            &["ceiling", "peak TOPs/s", "ridge AI (op/B)"],
            &ceiling_rows,
        );

        let points = roofline_points(&device).expect("roofline points");
        let point_rows: Vec<Vec<String>> = points
            .iter()
            .map(|(label, ai, tops)| {
                let ceiling = if label.starts_with("int1") {
                    "int1 tensor"
                } else {
                    "float16 tensor"
                };
                let attainable = roofline.attainable_tops(ceiling, *ai).unwrap_or(0.0);
                vec![
                    label.clone(),
                    format!("{ai:.1}"),
                    format!("{tops:.0}"),
                    format!("{attainable:.0}"),
                    format!("{:.0}%", 100.0 * tops / attainable.max(1e-9)),
                ]
            })
            .collect();
        print_table(
            &[
                "point",
                "AI (op/B)",
                "achieved TOPs/s",
                "roofline limit",
                "% of limit",
            ],
            &point_rows,
        );
    }
}
