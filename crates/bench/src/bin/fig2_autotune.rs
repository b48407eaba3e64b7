//! Regenerates Fig. 2: the auto-tuning scatter — now measured against the
//! **real** host micro-kernels instead of the modelled GPU occupancy
//! surface.  For every (precision, shape band) pair the benchmark-driven
//! [`MicroTuner`] times the [`ccglib::MicroKernelConfig`] menu on
//! the band's representative shape, prints the scatter, and persists the
//! winners to the micro-tuning cache file.  (While neither kernel has a
//! searchable axis the menu is the default alone, so a scatter is one
//! point: the throughput of the kernel that runs.)  The run then closes the loop
//! the tuner exists for: it asserts that the lookup the public builder
//! performs returns the winner just written, and builds an engine through
//! the builder with only the cache path.
//!
//! Usage: `fig2_autotune [--smoke] [--out PATH] [--model-scatter]`
//!
//! * `--smoke` shrinks the budget for CI: one shape band, a random
//!   4-candidate search, a single timed repetition per candidate.
//! * `--out PATH` writes the cache somewhere other than
//!   [`tuner::default_cache_path`] (which itself honours
//!   `TCBF_MICROTUNE_CACHE`).
//! * `--model-scatter` appends the original modelled per-GPU
//!   tuning-parameter scatter (launch-geometry search on the device
//!   model), kept for comparison with the paper figure.

#![forbid(unsafe_code)]

use ccglib::synth::pseudo_random_matrix;
use ccglib::Precision;
use gpu_sim::Gpu;
use std::path::PathBuf;
use tcbf::BeamformerBuilder;
use tcbf_bench::{header, print_table};
use tuner::{MicroTuneCache, MicroTuner, Objective, ShapeClass, Strategy, Tuner};

/// Prints one tuning scatter: every measured candidate, fastest first.
fn print_scatter(outcome: &tuner::MicroTuneOutcome) {
    let mut sorted = outcome.evaluated.clone();
    sorted.sort_by(|a, b| b.gelems_per_s.total_cmp(&a.gelems_per_s));
    let rows: Vec<Vec<String>> = sorted
        .iter()
        .map(|r| {
            vec![
                r.config.to_string(),
                format!("{:.3}", r.elapsed_s * 1e3),
                format!("{:.2}", r.gelems_per_s),
                if r.config == outcome.best.config {
                    "<- winner".to_string()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    print_table(&["configuration", "median ms", "GElem/s", ""], &rows);
}

/// The original modelled scatter (kernel launch geometry on the GPU
/// model), kept behind `--model-scatter` for comparison with the paper.
fn model_scatter() {
    header("Modelled GPU scatter (launch-geometry search, device model)");
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cache_path: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(tuner::default_cache_path);

    let (classes, strategy, reps, mode): (&[ShapeClass], Strategy, usize, &str) = if smoke {
        (
            &[ShapeClass::Small],
            Strategy::Random {
                samples: 4,
                seed: 0x7CBF,
            },
            1,
            "smoke",
        )
    } else {
        (&ShapeClass::ALL, Strategy::Exhaustive, 3, "full")
    };

    header(&format!(
        "Fig. 2 — auto-tuning the host micro-kernels ({mode} budget)"
    ));
    let mut cache = MicroTuneCache::for_this_host();
    println!("host: {}", cache.fingerprint);

    for precision in [Precision::Float16, Precision::Int1] {
        for &class in classes {
            let micro_tuner = MicroTuner::new(precision, class, reps);
            let Some(outcome) = micro_tuner.tune(strategy) else {
                continue;
            };
            println!();
            println!(
                "{precision} / {class} band (measured on {}): {} candidates",
                micro_tuner.shape(),
                outcome.evaluated.len()
            );
            print_scatter(&outcome);
            cache.record(&outcome);
        }
    }

    cache.store(&cache_path).expect("write micro-tuning cache");
    println!();
    println!(
        "wrote {} ({} entries)",
        cache_path.display(),
        cache.entries.len()
    );

    // Close the loop: the lookup the public builder performs must return
    // the winner just written (`tcbf::builder`'s configure() test pins
    // that the builder hands it to the engine), and an engine builds with
    // only the cache path.
    let class = classes[0];
    let shape = class.representative_shape();
    let expected = cache
        .lookup(Precision::Float16, class)
        .expect("float16 entry was just recorded");
    assert_eq!(
        tuner::tuned_micro_config(Some(&cache_path), Precision::Float16, shape),
        Some(expected.config),
        "the builder's cache lookup must return the winner"
    );
    let engine = BeamformerBuilder::new(Gpu::A100)
        .weights(pseudo_random_matrix(shape.m, shape.k, 0xF16, 1.0))
        .samples_per_block(shape.n)
        .precision(Precision::Float16)
        .micro_cache(&cache_path)
        .build_engine()
        .expect("tuned engine build succeeds");
    println!(
        "winning config {} ({} / {} band, {:.2} GElem/s) consumed by build_engine() \
         [{:?} topology]",
        expected.config,
        Precision::Float16,
        class,
        expected.gelems_per_s,
        engine.topology(),
    );

    if args.iter().any(|a| a == "--model-scatter") {
        println!();
        model_scatter();
    }
}
