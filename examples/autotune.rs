//! Auto-tuning example: explore the kernel parameter space on two devices,
//! compare search strategies, and show that the shipped defaults are close
//! to the tuned optimum (Section IV-A / Fig. 2 / Table III).
//!
//! Run with: `cargo run --release --example autotune`

use tcbf::prelude::*;
use tcbf_types::GemmShape;

fn main() {
    let shape = GemmShape::new(8192, 8192, 8192);
    for gpu in [Gpu::A100, Gpu::Mi300x] {
        println!("=== {gpu}: tuning the float16 kernel on {shape} ===");
        let tuner = Tuner::new(gpu.device(), shape, Precision::Float16);

        let exhaustive = tuner
            .tune(Strategy::Exhaustive, Objective::Performance)
            .unwrap();
        println!(
            "exhaustive search : {} configurations, best {:.0} TOPs/s / {:.2} TOPs/J with {}",
            exhaustive.evaluated.len(),
            exhaustive.best.tops,
            exhaustive.best.tops_per_joule,
            exhaustive.best.params
        );

        let random = tuner
            .tune(
                Strategy::Random {
                    samples: 20,
                    seed: 1,
                },
                Objective::Performance,
            )
            .unwrap();
        println!(
            "random (20 samples): best {:.0} TOPs/s with {}",
            random.best.tops, random.best.params
        );

        let greedy = tuner
            .tune(
                Strategy::GreedyLocalSearch { max_steps: 10 },
                Objective::Performance,
            )
            .unwrap();
        println!(
            "greedy local search: {} evaluations, best {:.0} TOPs/s with {}",
            greedy.evaluated.len(),
            greedy.best.tops,
            greedy.best.params
        );

        let default = TuningParameters::default_for(gpu, Precision::Float16);
        let default_result = tuner.evaluate(default).unwrap();
        println!(
            "shipped default    : {:.0} TOPs/s with {} ({}% of tuned optimum)",
            default_result.tops,
            default,
            (100.0 * default_result.tops / exhaustive.best.tops).round()
        );

        // The paper notes the fastest configuration is typically also the
        // most energy-efficient one.
        let best_energy = exhaustive.best_under(Objective::EnergyEfficiency).unwrap();
        println!(
            "most energy-efficient configuration: {} ({:.2} TOPs/J)",
            best_energy.params, best_energy.tops_per_joule
        );

        // Close the loop: hand the tuned parameters straight to the fluent
        // builder — the whole configuration is re-validated at
        // build_engine() — and run one block under them.
        let weights = HostComplexMatrix::from_fn(64, 128, |b, r| {
            Complex::from_polar(1.0 / 128.0, (b * r) as f32 * 0.01)
        });
        let mut engine = BeamformerBuilder::new(gpu)
            .weights(weights)
            .samples_per_block(256)
            .precision(Precision::Float16)
            .params(exhaustive.best.params)
            .build_engine()
            .expect("tuned parameters are valid for the device");
        let block = HostComplexMatrix::from_fn(128, 256, |r, s| {
            Complex::new(((r + s) % 7) as f32 * 0.1, ((r * 3 + s) % 5) as f32 * 0.1)
        });
        let output = engine.process_batch(&[&block]).expect("one block runs");
        println!(
            "tuned engine       : one {} block ran at {:.2} TOPs/s",
            GemmShape::new(64, 256, 128),
            output[0].report.achieved_tops
        );
        println!();
    }
}
