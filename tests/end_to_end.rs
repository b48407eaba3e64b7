//! Cross-crate integration tests: exercise the full stack — signal
//! generation → quantisation → (simulated) tensor-core GEMM → application
//! post-processing — and check consistency between the layers.

use beamform::geometry::SPEED_OF_LIGHT;
use beamform::{
    ArrayGeometry, Beamformer, BeamformerConfig, PlaneWaveSource, SignalGenerator, WeightMatrix,
};
use ccglib::matrix::HostComplexMatrix;
use ccglib::{reference_gemm, Gemm, GemmInput, Precision};
use gpu_sim::{Gpu, KernelKind, PowerModel};
use tcbf::BeamformerBuilder;
use tcbf_types::{Complex, GemmShape};

const FREQ: f64 = 150e6;

fn linear_array(n: usize) -> ArrayGeometry {
    ArrayGeometry::uniform_linear(n, SPEED_OF_LIGHT / FREQ / 2.0, SPEED_OF_LIGHT)
}

#[test]
fn facade_and_low_level_api_agree() {
    // The same weights and samples through the builder-configured facade
    // and through the raw ccglib GEMM must give the same beams.
    let weights = HostComplexMatrix::from_fn(6, 24, |b, r| {
        Complex::from_polar(1.0 / 24.0, (b * r) as f32 * 0.05)
    });
    let samples = HostComplexMatrix::from_fn(24, 16, |r, s| {
        Complex::new((r as f32 - 12.0) * 0.1, (s as f32 - 8.0) * 0.05)
    });

    let mut facade = BeamformerBuilder::new(Gpu::A100)
        .weights(weights.clone())
        .samples_per_block(16)
        .precision(Precision::Float16)
        .build_engine()
        .unwrap();
    let high_level = facade.process_batch(&[&samples]).unwrap().remove(0);

    let gemm = Gemm::new(
        &Gpu::A100.device(),
        GemmShape::new(6, 16, 24),
        Precision::Float16,
    )
    .unwrap();
    let (low_level, _) = gemm
        .run(
            &GemmInput::quantise_f16(&weights),
            &GemmInput::quantise_f16(&samples.transposed()),
        )
        .unwrap();

    assert_eq!(high_level.beams, low_level);
}

#[test]
fn session_streams_blocks_with_mid_stream_weight_swap() {
    // Acceptance: a builder-built engine streams several blocks, swaps the
    // weights mid-stream, and its unified report aggregates exactly the
    // per-block reports.
    let geometry = linear_array(48);
    let azimuths: Vec<f64> = (0..6).map(|i| -0.25 + 0.1 * i as f64).collect();
    let fan = WeightMatrix::steering(&geometry, FREQ, &azimuths, true);
    let mut engine = BeamformerBuilder::new(Gpu::Gh200)
        .weight_matrix(fan)
        .samples_per_block(32)
        .precision(Precision::Float16)
        .build_engine()
        .unwrap();
    let mut generator = SignalGenerator::new(geometry.clone(), FREQ, 1e5, 0.1, 29);
    let source = PlaneWaveSource {
        azimuth: 0.15,
        amplitude: 1.0,
        baseband_frequency: 800.0,
    };

    let mut per_block = Vec::new();
    for _ in 0..2 {
        let block = generator.sensor_samples(&[source], 32);
        per_block.push(engine.process_block(&block).unwrap());
    }
    // Re-steer to a mirrored fan without re-planning the kernel.
    let mirrored: Vec<f64> = azimuths.iter().map(|a| -a).collect();
    engine
        .swap_weights(WeightMatrix::steering(&geometry, FREQ, &mirrored, true))
        .unwrap();
    for _ in 0..2 {
        let block = generator.sensor_samples(&[source], 32);
        per_block.push(engine.process_block(&block).unwrap());
    }

    let report = engine.finish();
    assert_eq!(report.total_blocks(), 4);
    assert_eq!(report.weight_swaps(), 1);
    assert_eq!(report.per_device().len(), 1);
    let serial = report.merged_serial();
    let elapsed: f64 = per_block.iter().map(|o| o.report.predicted.elapsed_s).sum();
    let joules: f64 = per_block.iter().map(|o| o.report.energy.joules).sum();
    let worst = per_block
        .iter()
        .map(|o| o.report.achieved_tops)
        .fold(f64::INFINITY, f64::min);
    assert!((serial.total_elapsed_s - elapsed).abs() < 1e-15);
    assert!((serial.total_joules - joules).abs() < 1e-12);
    assert!((report.worst_tops() - worst).abs() < 1e-9);
    assert!(report.aggregate_tops() > 0.0);
    // Single device: wall clock is that device's serial kernel time.
    assert_eq!(report.wall_clock_s(), serial.total_elapsed_s);
}

#[test]
fn sharded_session_hot_swaps_weights_on_every_pool_member() {
    // Acceptance: after a mid-stream swap_weights on a sharded engine,
    // *all* pool members beamform the next blocks with the new weights —
    // verified by checking every post-swap block (each device owns at
    // least one) against a single-device beamformer built directly on the
    // new weights.
    let geometry = linear_array(32);
    let azimuths: Vec<f64> = (0..5).map(|i| -0.2 + 0.1 * i as f64).collect();
    let initial = WeightMatrix::steering(&geometry, FREQ, &azimuths, true);
    let mirrored: Vec<f64> = azimuths.iter().map(|a| -a).collect();
    let swapped = WeightMatrix::steering(&geometry, FREQ, &mirrored, true);

    let mut engine = BeamformerBuilder::new(Gpu::A100)
        .weight_matrix(initial.clone())
        .samples_per_block(16)
        .devices(&[Gpu::A100, Gpu::Gh200, Gpu::Mi210])
        .build_engine()
        .unwrap();

    // Six blocks over three devices: capacity weighting gives the A100, the
    // GH200 and the MI210 two, three and one.
    let mut generator = SignalGenerator::new(geometry.clone(), FREQ, 1e5, 0.1, 41);
    let source = PlaneWaveSource {
        azimuth: 0.1,
        amplitude: 1.0,
        baseband_frequency: 600.0,
    };
    let blocks: Vec<HostComplexMatrix> = (0..6)
        .map(|_| generator.sensor_samples(&[source], 16))
        .collect();
    let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();

    let before = engine.process_batch(&refs).unwrap();
    engine.swap_weights(swapped.clone()).unwrap();
    let after = engine.process_batch(&refs).unwrap();

    let reference = Beamformer::new(
        &Gpu::A100.device(),
        swapped,
        16,
        BeamformerConfig::float16(),
    )
    .unwrap();
    for ((post, pre), samples) in after.iter().zip(&before).zip(&blocks) {
        // The swap changed the output of every block…
        assert!(pre.beams.max_abs_diff(&post.beams) > 1e-3);
        // …and every member (each owns blocks in this stream) produces
        // exactly the new-weights result.
        assert_eq!(post.beams, reference.beamform(samples).unwrap().beams);
    }
    let report = engine.finish();
    assert_eq!(report.total_blocks(), 12);
    assert_eq!(report.weight_swaps(), 1);
    // All three members took part both before and after the swap.
    let per_device: Vec<usize> = report
        .per_device()
        .iter()
        .map(|shard| shard.report.blocks)
        .collect();
    assert_eq!(per_device, [4, 6, 2]);
}

#[test]
fn every_nvidia_device_runs_both_precisions() {
    let geometry = linear_array(32);
    let weights = WeightMatrix::uniform_fan(&geometry, FREQ, 4, -0.3, 0.3);
    let mut generator = SignalGenerator::new(geometry, FREQ, 1e5, 0.1, 21);
    let samples = generator.sensor_samples(
        &[PlaneWaveSource {
            azimuth: 0.0,
            amplitude: 1.0,
            baseband_frequency: 500.0,
        }],
        32,
    );
    for gpu in Gpu::NVIDIA {
        for config in [BeamformerConfig::float16(), BeamformerConfig::int1()] {
            let beamformer = Beamformer::new(&gpu.device(), weights.clone(), 32, config).unwrap();
            let output = beamformer.beamform(&samples).unwrap();
            assert_eq!(output.beams.rows(), 4);
            assert_eq!(output.beams.cols(), 32);
            assert!(output.report.predicted.elapsed_s > 0.0);
            assert!(output.report.tops_per_joule > 0.0);
        }
    }
}

#[test]
fn amd_devices_run_float16_and_reject_int1() {
    let geometry = linear_array(16);
    let weights = WeightMatrix::uniform_fan(&geometry, FREQ, 4, -0.2, 0.2);
    for gpu in [Gpu::W7700, Gpu::Mi210, Gpu::Mi300x, Gpu::Mi300a] {
        assert!(Beamformer::new(
            &gpu.device(),
            weights.clone(),
            16,
            BeamformerConfig::float16()
        )
        .is_ok());
        assert!(
            Beamformer::new(&gpu.device(), weights.clone(), 16, BeamformerConfig::int1()).is_err()
        );
    }
}

#[test]
fn tensor_core_and_reference_beamformers_agree_across_devices() {
    // The functional result must not depend on which device model is
    // selected — only the timing does.
    let weights = HostComplexMatrix::from_fn(8, 48, |b, r| {
        Complex::from_polar(1.0, (b as f32 - 4.0) * (r as f32) * 0.01)
    });
    let samples_t = HostComplexMatrix::from_fn(24, 48, |s, r| {
        Complex::new((s + r) as f32 * 0.01, (s as f32 - r as f32) * 0.02)
    });
    let expected = reference_gemm(&weights, &samples_t).unwrap();
    let mut elapsed = Vec::new();
    for gpu in [Gpu::Ad4000, Gpu::A100, Gpu::Mi300x] {
        let gemm = Gemm::new(&gpu.device(), GemmShape::new(8, 24, 48), Precision::Float16).unwrap();
        let (result, report) = gemm
            .run(
                &GemmInput::quantise_f16(&weights),
                &GemmInput::quantise_f16(&samples_t),
            )
            .unwrap();
        assert!(result.max_abs_diff(&expected) < 0.05, "{gpu}");
        elapsed.push(report.predicted.elapsed_s);
    }
    // Timings differ between devices even though results agree.
    assert!(elapsed
        .iter()
        .any(|&t| (t - elapsed[0]).abs() > 0.0 || elapsed.len() == 1));
}

#[test]
fn one_bit_quantisation_degrades_gracefully() {
    // Beamform the same scene in float16 and int1: the 1-bit result is
    // noisier but the beam powers must be strongly correlated (robustness
    // claim of Section III).
    let geometry = linear_array(96);
    let azimuths: Vec<f64> = (0..9).map(|i| -0.4 + 0.1 * i as f64).collect();
    let weights = WeightMatrix::steering(&geometry, FREQ, &azimuths, false);
    let mut generator = SignalGenerator::new(geometry, FREQ, 1e5, 0.4, 33);
    let samples = generator.sensor_samples(
        &[PlaneWaveSource {
            azimuth: -0.1,
            amplitude: 1.0,
            baseband_frequency: 2000.0,
        }],
        96,
    );

    let powers = |config: BeamformerConfig| -> Vec<f64> {
        let beamformer = Beamformer::new(&Gpu::A100.device(), weights.clone(), 96, config).unwrap();
        let output = beamformer.beamform(&samples).unwrap();
        (0..9)
            .map(|b| Beamformer::beam_power(&output.beams, b))
            .collect()
    };
    let p16 = powers(BeamformerConfig::float16());
    let p1 = powers(BeamformerConfig::int1());

    let argmax = |v: &[f64]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
    };
    assert_eq!(argmax(&p16), 3, "float16 powers {p16:?}");
    assert_eq!(argmax(&p1), argmax(&p16), "int1 powers {p1:?}");
}

#[test]
fn run_report_energy_is_the_power_models_energy() {
    // Every GEMM of a multi-kernel pipeline reports the power model's
    // energy over its own predicted timings, bit for bit, whether it is
    // predicted or run.
    let weights = HostComplexMatrix::from_fn(8, 256, |b, r| {
        Complex::from_polar(1.0 / 256.0, (b * r) as f32 * 0.02)
    });
    let samples_t = HostComplexMatrix::from_fn(32, 256, |s, r| {
        Complex::new((s + r) as f32 * 0.01, (s as f32 - r as f32) * 0.02)
    });
    for (gpu, precision, kind) in [
        (Gpu::Gh200, Precision::Float16, KernelKind::GemmF16),
        (Gpu::A100, Precision::Int1, KernelKind::GemmInt1),
    ] {
        let power = PowerModel::new(gpu.spec());
        let quantise = |m: &HostComplexMatrix| match precision {
            Precision::Int1 => GemmInput::quantise_int1(m),
            _ => GemmInput::quantise_f16(m),
        };
        let small = Gemm::new(&gpu.device(), GemmShape::new(8, 32, 256), precision).unwrap();
        let (_, run) = small
            .run(&quantise(&weights), &quantise(&samples_t))
            .unwrap();
        let large = Gemm::new(&gpu.device(), GemmShape::new(512, 512, 512), precision).unwrap();
        for report in [run, small.predict(), large.predict()] {
            let joules = power.energy_joules(kind, &report.predicted);
            assert_eq!(
                report.energy.joules.to_bits(),
                joules.to_bits(),
                "{gpu} {precision}"
            );
            assert_eq!(report.energy.seconds, report.predicted.elapsed_s);
        }
    }
}
