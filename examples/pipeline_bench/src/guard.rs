//! Correctness guard: no number is printed for an output that was not
//! checked.  Before timing, every distinct input's output is compared in
//! full against the repo's references; during timing every output is
//! compared by checksum, outside the timed interval.

use crate::rig::{build_engine, Rig};
use crate::workloads::{Inputs, Workload, GPU};
use beamform::{Beamformer, BeamformerConfig, WeightMatrix};
use ccglib::matrix::HostComplexMatrix;
use ccglib::{reference_gemm, Gemm, GemmInput, Precision};

/// XOR-fold of the output's `f32` bit patterns.
pub fn checksum(m: &HostComplexMatrix) -> u64 {
    m.data().iter().fold(0u64, |acc, v| {
        acc ^ (u64::from(v.re.to_bits()) << 32 | u64::from(v.im.to_bits()))
    })
}

/// Bit identity (`==` on `f32` would accept `-0.0` for `0.0`).
pub fn bits_equal(a: &HostComplexMatrix, b: &HostComplexMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Proves the guard can fail: one flipped bit in a scratch copy of a real
/// output must be caught by both comparisons.
fn prove_it_can_fail(output: &HostComplexMatrix) -> Result<(), String> {
    let mut data = output.data().to_vec();
    let victim = data.len() / 2;
    data[victim].im = f32::from_bits(data[victim].im.to_bits() ^ 1);
    let corrupt = HostComplexMatrix::from_data(output.rows(), output.cols(), data)
        .map_err(|e| e.to_string())?;
    if checksum(&corrupt) == checksum(output) || bits_equal(&corrupt, output) {
        return Err("guard self-test: a flipped output bit went unnoticed".to_string());
    }
    Ok(())
}

/// Documented f16 tolerance against the full-precision reference
/// (`tests/hotpath_conformance.rs`): two operands rounded to 11
/// significant bits, `2·K` real products of magnitude ≤ 2 per component.
fn f16_tolerance(k: usize) -> f32 {
    2.0 * 2.0f32.powi(-11) * 2.0 * k as f32
}

/// Checks every distinct input in full and returns the expected checksum
/// of each `[caller][block]` output.
pub fn verify(w: &Workload, inputs: &Inputs) -> Result<Vec<Vec<u64>>, String> {
    let mut engine = build_engine(w, &inputs.weights)?;
    let a = w.quantise(&inputs.weights);
    let reference_beamformer = Beamformer::new(
        &GPU.device(),
        WeightMatrix::from_matrix(inputs.weights.clone()),
        w.n,
        BeamformerConfig::float16(),
    )
    .map_err(|e| e.to_string())?;
    let gemm = Gemm::new(&GPU.device(), w.shape(), w.precision).map_err(|e| e.to_string())?;
    let mut served = if w.served {
        Some(Rig::setup(w, inputs)?)
    } else {
        None
    };

    let mut proven = false;
    let mut expected = Vec::with_capacity(inputs.blocks.len());
    for (c, blocks) in inputs.blocks.iter().enumerate() {
        let mut sums = Vec::with_capacity(blocks.len());
        for (i, block) in blocks.iter().enumerate() {
            let at = format!("{} caller {c} block {i}", w.name);
            let direct = engine
                .process_batch(&[block])
                .map_err(|e| format!("{at}: {e}"))?
                .pop()
                .ok_or_else(|| format!("{at}: no output"))?
                .beams;
            let b_t = w.quantise(&block.transposed());
            match (w.precision, &a, &b_t) {
                (Precision::Int1, GemmInput::Int1(qa), GemmInput::Int1(qb)) => {
                    let reference = reference_gemm(&qa.to_host(), &qb.to_host())
                        .map_err(|e| format!("{at}: {e}"))?;
                    if !bits_equal(&direct, &reference) {
                        return Err(format!("{at}: int1 output differs from reference_gemm"));
                    }
                }
                _ => {
                    let reference = reference_beamformer.delay_and_sum_reference(block);
                    let diff = direct.max_abs_diff(&reference);
                    if diff.is_nan() || diff >= f16_tolerance(w.k) {
                        return Err(format!(
                            "{at}: f16 output is {diff} from delay_and_sum_reference"
                        ));
                    }
                    let (one_shot, _) = gemm.run(&a, &b_t).map_err(|e| format!("{at}: {e}"))?;
                    if !bits_equal(&direct, &one_shot) {
                        return Err(format!("{at}: output differs from one-shot Gemm::run"));
                    }
                }
            }
            if let Some(rig) = served.as_mut() {
                let beams = rig.callers[c]
                    .run(block)
                    .map_err(|e| format!("{at}: {e}"))?;
                if !bits_equal(&beams, &direct) {
                    return Err(format!("{at}: served beams differ from the direct engine"));
                }
            }
            if !proven {
                prove_it_can_fail(&direct)?;
                proven = true;
            }
            sums.push(checksum(&direct));
        }
        expected.push(sums);
    }
    if let Some(rig) = served {
        rig.teardown()?;
    }
    Ok(expected)
}
