//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * XOR vs AND 1-bit formulation per architecture (Section III-E);
//! * 8×8×128 vs 16×8×256 1-bit fragment layout (Section III-A);
//! * number of asynchronous-copy pipeline buffers (Section III-C);
//! * planar vs interleaved complex input (the transpose-kernel cost the
//!   paper lists as future work to eliminate);
//! * padding overhead for ragged problem sizes.

#![forbid(unsafe_code)]

use ccglib::benchmark::{measure, measure_with_params};
use ccglib::{transpose, Precision, TuningParameters};
use gpu_sim::{BitFragmentShape, BitOp, ExecutionModel, Gpu};
use tcbf_bench::{header, print_table};
use tcbf_types::GemmShape;

fn main() {
    // --- 1-bit operand and fragment choice --------------------------------
    header("Ablation 1 — 1-bit tensor-core instruction throughput: fragment layout x operand");
    let mut rows = Vec::new();
    for gpu in Gpu::NVIDIA {
        let spec = gpu.spec();
        let mut row = vec![
            gpu.name().to_string(),
            BitOp::preferred_for(spec.arch).to_string(),
        ];
        for fragment in [BitFragmentShape::M8N8K128, BitFragmentShape::M16N8K256] {
            for op in [BitOp::Xor, BitOp::And] {
                let useful = spec.int1_useful_peak_tops(fragment, op).unwrap_or(0.0);
                row.push(format!("{useful:.0}"));
            }
        }
        rows.push(row);
    }
    print_table(
        &[
            "GPU",
            "auto op",
            "8x8x128 XOR",
            "8x8x128 AND",
            "16x8x256 XOR",
            "16x8x256 AND",
        ],
        &rows,
    );
    println!(
        "(useful TOPs/s after accounting for the AND formulation's doubled instruction count)"
    );

    // --- Pipeline buffer count --------------------------------------------
    header("Ablation 2 — asynchronous-copy pipeline depth (float16, 8192^3)");
    let shape = GemmShape::new(8192, 8192, 8192);
    let mut rows = Vec::new();
    for gpu in [Gpu::A100, Gpu::Gh200, Gpu::Mi300x] {
        let device = gpu.device();
        let mut row = vec![gpu.name().to_string()];
        for buffers in [1usize, 2, 4] {
            let mut params = TuningParameters::default_for(gpu, Precision::Float16);
            params.buffers = buffers;
            match measure_with_params(&device, shape, Precision::Float16, params) {
                Ok(r) => row.push(format!("{:.0}", r.tops)),
                Err(_) => row.push("invalid".to_string()),
            }
        }
        rows.push(row);
    }
    print_table(&["GPU", "1 buffer", "2 buffers", "4 buffers"], &rows);
    println!("(AMD devices are forced to a single buffer: no asynchronous copies)");

    // --- Planar vs interleaved input ---------------------------------------
    header("Ablation 3 — transpose (interleaved -> planar) overhead per GEMM");
    let mut rows = Vec::new();
    for gpu in [Gpu::A100, Gpu::Mi300x] {
        let exec = ExecutionModel::new(gpu.spec());
        for (label, shape) in [
            (
                "LOFAR 1024x1024x512 (batch 256)",
                GemmShape::batched(256, 1024, 1024, 512),
            ),
            ("square 8192^3", GemmShape::new(8192, 8192, 8192)),
        ] {
            let gemm_s = measure(&gpu.device(), shape, Precision::Float16)
                .unwrap()
                .elapsed_s;
            let transpose_s = exec
                .time(&transpose::transpose_profile(
                    shape.k,
                    shape.n * shape.batch,
                    16,
                ))
                .elapsed_s;
            rows.push(vec![
                gpu.name().to_string(),
                label.to_string(),
                format!("{:.3}", gemm_s * 1e3),
                format!("{:.3}", transpose_s * 1e3),
                format!("{:.1}%", 100.0 * transpose_s / gemm_s),
            ]);
        }
    }
    print_table(
        &["GPU", "shape", "GEMM ms", "transpose ms", "overhead"],
        &rows,
    );
    println!(
        "(an interleaved-input kernel, listed as future work in the paper, would remove this cost)"
    );

    // --- Padding -----------------------------------------------------------
    header("Ablation 4 — padding overhead for ragged sizes (float16, A100)");
    let device = Gpu::A100.device();
    let mut rows = Vec::new();
    for (aligned, ragged) in [(4096usize, 4100usize), (8192, 8200)] {
        let a = measure(
            &device,
            GemmShape::new(aligned, aligned, aligned),
            Precision::Float16,
        )
        .unwrap();
        let r = measure(
            &device,
            GemmShape::new(ragged, ragged, ragged),
            Precision::Float16,
        )
        .unwrap();
        rows.push(vec![
            format!("{aligned} vs {ragged}"),
            format!("{:.0}", a.tops),
            format!("{:.0}", r.tops),
            format!("{:.1}%", 100.0 * (a.tops - r.tops) / a.tops),
        ]);
    }
    print_table(&["sizes", "aligned TOPs/s", "ragged TOPs/s", "loss"], &rows);
}
