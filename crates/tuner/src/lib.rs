//! Kernel auto-tuner — the Kernel Tuner analogue of Section IV-A.
//!
//! The GPU kernels of ccglib expose tunable parameters (work per thread
//! block and per warp along `M` and `N`, and the number of pipeline
//! buffers).  The optimal values depend on the device, the input sizes and
//! the precision, so the paper tunes each kernel with Kernel Tuner,
//! measuring both run time and — through PMT — energy.
//!
//! This crate re-creates that workflow against the simulated devices:
//!
//! * a [`Tuner`] owns the device, problem shape, precision and the
//!   parameter search space;
//! * every candidate configuration is *benchmarked* by building a ccglib
//!   plan for it and asking the execution/power models for throughput and
//!   energy efficiency, exactly the two observables Fig. 2 plots;
//! * several [`Strategy`] options mirror Kernel Tuner's search strategies
//!   (brute force, random sampling, greedy local search);
//! * [`json`] is the workspace's one JSON reader and writer (the bench
//!   artefacts go through it).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;

use ccglib::benchmark::measure_with_params;
use ccglib::{ParameterSpace, Precision, TuningParameters};
use gpu_sim::Device;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use tcbf_types::GemmShape;

/// What the tuner optimises for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Maximise throughput (TeraOps/s).
    Performance,
    /// Maximise energy efficiency (TeraOps/J).
    EnergyEfficiency,
}

/// Search strategy over the parameter space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Evaluate every valid configuration, in candidate order (what the
    /// paper does: "we need to explore a vast search space").
    Exhaustive,
    /// Evaluate the shipped default first, then `samples - 1` further
    /// configurations drawn at random from the rest, so the winner is
    /// measured against the default even under a tiny budget.
    Random {
        /// Number of configurations to evaluate, the default included.
        samples: usize,
        /// RNG seed, so tuning runs are reproducible.
        seed: u64,
    },
    /// Greedy neighbourhood search: start from the shipped default and move
    /// to the best neighbour (one parameter changed one step) until no
    /// neighbour improves.  No configuration is evaluated twice.
    GreedyLocalSearch {
        /// Maximum number of moves.
        max_steps: usize,
    },
}

/// Measurement of one evaluated configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TuneResult {
    /// The configuration.
    pub params: TuningParameters,
    /// Achieved throughput in TeraOps/s.
    pub tops: f64,
    /// Energy efficiency in TeraOps/J.
    pub tops_per_joule: f64,
    /// Predicted kernel time in seconds.
    pub elapsed_s: f64,
}

impl TuneResult {
    /// The objective value of this result.
    pub(crate) fn objective_value(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Performance => self.tops,
            Objective::EnergyEfficiency => self.tops_per_joule,
        }
    }
}

/// Outcome of a tuning run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TuneOutcome {
    /// Device short name.
    pub device: String,
    /// Precision tuned for.
    pub precision: String,
    /// Problem shape tuned on.
    pub shape: GemmShape,
    /// The best configuration found under the requested objective.
    pub best: TuneResult,
    /// Every evaluated configuration (the points of the Fig. 2 scatter).
    pub evaluated: Vec<TuneResult>,
}

impl TuneOutcome {
    /// The best configuration under a *different* objective than the one
    /// tuned for (the paper observes that the fastest configuration is
    /// typically also the most energy efficient).
    ///
    /// Ties are broken deterministically towards the earliest evaluated
    /// configuration, so the selection is stable across runs regardless
    /// of how many candidates measure identically.
    pub fn best_under(&self, objective: Objective) -> Option<TuneResult> {
        first_best(&self.evaluated, |r| r.objective_value(objective))
    }
}

/// First-wins selection of the best result under `value`: strictly better
/// candidates replace the incumbent, equal ones do not — so the earliest
/// evaluated configuration wins ties deterministically.
/// (`Iterator::max_by` returns the *last* maximum, which made tie-breaking
/// depend on evaluation order tail-first.)
fn first_best<T: Copy>(evaluated: &[T], value: impl Fn(&T) -> f64) -> Option<T> {
    evaluated.iter().copied().reduce(|best, candidate| {
        if value(&candidate) > value(&best) {
            candidate
        } else {
            best
        }
    })
}

/// Pushes the neighbours of `config` along one tuning axis: `config` with
/// the axis `set` to the value one step below and one step above `current`
/// (to every value if `current` is not on the axis).
fn push_axis_neighbours<C: Copy>(
    out: &mut Vec<C>,
    config: C,
    values: &[usize],
    current: usize,
    set: impl Fn(&mut C, usize),
) {
    let steps = match values.iter().position(|&v| v == current) {
        Some(i) => &values[i.saturating_sub(1)..(i + 2).min(values.len())],
        None => values,
    };
    for &v in steps.iter().filter(|&&v| v != current) {
        let mut moved = config;
        set(&mut moved, v);
        out.push(moved);
    }
}

/// The auto-tuner for one (device, shape, precision) combination.
#[derive(Clone)]
pub struct Tuner {
    device: Device,
    shape: GemmShape,
    precision: Precision,
    space: ParameterSpace,
}

impl Tuner {
    /// Creates a tuner over the paper's search space.
    pub fn new(device: Device, shape: GemmShape, precision: Precision) -> Self {
        Tuner {
            device,
            shape,
            precision,
            space: ParameterSpace::paper_space(),
        }
    }

    /// The paper's tuning shape for a precision (Section IV-A): `8192³` for
    /// float16, `32768×8192×524288` for 1-bit.  Delegates to
    /// [`ccglib::calibration_shape`], the single source of truth shared
    /// with the efficiency-model calibration points.
    pub fn paper_tuning_shape(precision: Precision) -> GemmShape {
        ccglib::calibration_shape(precision)
    }

    /// Evaluates a single configuration, returning `None` if it is not
    /// launchable on the device.
    pub fn evaluate(&self, params: TuningParameters) -> Option<TuneResult> {
        let r = measure_with_params(&self.device, self.shape, self.precision, params).ok()?;
        Some(TuneResult {
            params,
            tops: r.tops,
            tops_per_joule: r.tops_per_joule,
            elapsed_s: r.elapsed_s,
        })
    }

    /// Runs the tuning process from the device's shipped default (see
    /// [`Strategy`] for the three rules), skipping configurations that are
    /// not launchable, and returns the first-best result under `objective`
    /// with every result in evaluation order — `None` if nothing could be
    /// evaluated.
    pub fn tune(&self, strategy: Strategy, objective: Objective) -> Option<TuneOutcome> {
        let start = TuningParameters::default_for(self.device.gpu(), self.precision);
        let candidates = self
            .space
            .valid_combinations(self.device.spec(), self.precision);
        let evaluate = |p| self.evaluate(p);
        let value = |r: &TuneResult| r.objective_value(objective);
        let evaluated: Vec<TuneResult> = match strategy {
            Strategy::Exhaustive => candidates.into_iter().filter_map(evaluate).collect(),
            Strategy::Random { samples, seed } => {
                let mut picked: Vec<_> = candidates.into_iter().filter(|&c| c != start).collect();
                picked.shuffle(&mut StdRng::seed_from_u64(seed));
                picked.truncate(samples.saturating_sub(1));
                picked.insert(0, start);
                picked.into_iter().filter_map(evaluate).collect()
            }
            Strategy::GreedyLocalSearch { max_steps } => {
                let mut current = (start, evaluate(start)?);
                let (mut seen, mut evaluated) = (vec![start], vec![current.1]);
                for _ in 0..max_steps {
                    let step_start = current.0;
                    for candidate in self.neighbours(step_start) {
                        if seen.contains(&candidate) {
                            continue;
                        }
                        seen.push(candidate);
                        if let Some(result) = evaluate(candidate) {
                            evaluated.push(result);
                            if value(&result) > value(&current.1) {
                                current = (candidate, result);
                            }
                        }
                    }
                    if current.0 == step_start {
                        break;
                    }
                }
                evaluated
            }
        };
        Some(TuneOutcome {
            device: self.device.gpu().name().to_string(),
            precision: self.precision.to_string(),
            shape: self.shape,
            best: first_best(&evaluated, value)?,
            evaluated,
        })
    }

    /// One parameter moved one step along its axis of the search space.
    fn neighbours(&self, p: TuningParameters) -> Vec<TuningParameters> {
        let (mut out, s) = (Vec::new(), &self.space);
        push_axis_neighbours(&mut out, p, &s.m_per_block, p.m_per_block, |q, v| {
            q.m_per_block = v
        });
        push_axis_neighbours(&mut out, p, &s.m_per_warp, p.m_per_warp, |q, v| {
            q.m_per_warp = v
        });
        push_axis_neighbours(&mut out, p, &s.n_per_block, p.n_per_block, |q, v| {
            q.n_per_block = v
        });
        push_axis_neighbours(&mut out, p, &s.n_per_warp, p.n_per_warp, |q, v| {
            q.n_per_warp = v
        });
        push_axis_neighbours(&mut out, p, &s.buffers, p.buffers, |q, v| q.buffers = v);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Gpu;

    fn small_shape() -> GemmShape {
        // Big enough to be compute bound, small enough to keep the test
        // suite fast (only the analytic model runs, no functional GEMM).
        GemmShape::new(4096, 4096, 4096)
    }

    #[test]
    fn exhaustive_tuning_finds_a_best_configuration() {
        let tuner = Tuner::new(Gpu::A100.device(), small_shape(), Precision::Float16);
        let outcome = tuner
            .tune(Strategy::Exhaustive, Objective::Performance)
            .unwrap();
        assert!(!outcome.evaluated.is_empty());
        assert!(outcome
            .evaluated
            .iter()
            .all(|r| r.tops <= outcome.best.tops + 1e-9));
        assert_eq!(outcome.device, "A100");
        assert_eq!(outcome.precision, "float16");
    }

    #[test]
    fn best_configuration_close_to_shipped_default() {
        // The tuner's optimum should not beat the shipped default by much
        // (the defaults are the Table III tuned values).
        let device = Gpu::Gh200.device();
        let tuner = Tuner::new(device.clone(), small_shape(), Precision::Float16);
        let outcome = tuner
            .tune(Strategy::Exhaustive, Objective::Performance)
            .unwrap();
        let default = tuner
            .evaluate(TuningParameters::default_for(
                Gpu::Gh200,
                Precision::Float16,
            ))
            .unwrap();
        assert!(
            outcome.best.tops <= default.tops * 1.10,
            "{} vs {}",
            outcome.best.tops,
            default.tops
        );
    }

    #[test]
    fn random_strategy_is_reproducible_and_bounded() {
        let tuner = Tuner::new(Gpu::Mi210.device(), small_shape(), Precision::Float16);
        let a = tuner
            .tune(
                Strategy::Random {
                    samples: 10,
                    seed: 7,
                },
                Objective::Performance,
            )
            .unwrap();
        let b = tuner
            .tune(
                Strategy::Random {
                    samples: 10,
                    seed: 7,
                },
                Objective::Performance,
            )
            .unwrap();
        assert_eq!(a.evaluated.len(), 10);
        assert_eq!(a.best.params, b.best.params);
        let exhaustive = tuner
            .tune(Strategy::Exhaustive, Objective::Performance)
            .unwrap();
        assert!(a.best.tops <= exhaustive.best.tops + 1e-9);
    }

    #[test]
    fn greedy_search_converges_and_evaluates_few_configs() {
        let tuner = Tuner::new(Gpu::Ad4000.device(), small_shape(), Precision::Float16);
        let exhaustive = tuner
            .tune(Strategy::Exhaustive, Objective::Performance)
            .unwrap();
        let greedy = tuner
            .tune(
                Strategy::GreedyLocalSearch { max_steps: 8 },
                Objective::Performance,
            )
            .unwrap();
        assert!(greedy.evaluated.len() < exhaustive.evaluated.len());
        // Local search should get within 15% of the global optimum.
        assert!(greedy.best.tops >= 0.85 * exhaustive.best.tops);
    }

    #[test]
    fn random_and_greedy_measure_the_default_first_and_nothing_twice() {
        let tuner = Tuner::new(Gpu::A100.device(), small_shape(), Precision::Float16);
        let default = TuningParameters::default_for(Gpu::A100, Precision::Float16);
        let distinct = |outcome: &TuneOutcome| {
            let seen: Vec<_> = outcome.evaluated.iter().map(|r| r.params).collect();
            (0..seen.len()).all(|i| !seen[..i].contains(&seen[i]))
        };
        for samples in [0, 1, 6] {
            let strategy = Strategy::Random { samples, seed: 11 };
            let random = tuner.tune(strategy, Objective::Performance).unwrap();
            assert_eq!(random.evaluated[0].params, default);
            assert_eq!(random.evaluated.len(), samples.max(1));
            assert!(distinct(&random));
        }
        let greedy = tuner
            .tune(
                Strategy::GreedyLocalSearch { max_steps: 10 },
                Objective::Performance,
            )
            .unwrap();
        assert_eq!(greedy.evaluated[0].params, default);
        assert!(greedy.evaluated.len() > 1);
        assert!(distinct(&greedy), "greedy re-measured a configuration");
    }

    #[test]
    fn best_under_breaks_ties_towards_the_first_evaluated() {
        // Two configurations with identical objective values: the stable
        // choice is the first one evaluated, not the last.
        let params_a = TuningParameters::default_for(Gpu::A100, Precision::Float16);
        let params_b = TuningParameters {
            buffers: params_a.buffers + 1,
            ..params_a
        };
        let result = |params: TuningParameters| TuneResult {
            params,
            tops: 100.0,
            tops_per_joule: 2.0,
            elapsed_s: 0.5,
        };
        let outcome = TuneOutcome {
            device: "A100".to_string(),
            precision: "float16".to_string(),
            shape: small_shape(),
            best: result(params_a),
            evaluated: vec![result(params_a), result(params_b)],
        };
        for objective in [Objective::Performance, Objective::EnergyEfficiency] {
            let best = outcome.best_under(objective).unwrap();
            assert_eq!(best.params, params_a, "{objective:?}");
        }
        // A strictly better late candidate still wins.
        let mut improved = outcome.clone();
        improved.evaluated.push(TuneResult {
            tops: 101.0,
            ..result(params_b)
        });
        assert_eq!(
            improved.best_under(Objective::Performance).unwrap().params,
            params_b
        );
    }

    #[test]
    fn paper_tuning_shape_matches_the_calibration_points() {
        // Section IV: M = N = K = 8192 in float16, and M = 32768,
        // N = 8192, K = 524288 in 1-bit.
        assert_eq!(
            Tuner::paper_tuning_shape(Precision::Float16),
            GemmShape::new(8192, 8192, 8192)
        );
        assert_eq!(
            Tuner::paper_tuning_shape(Precision::Int1),
            GemmShape::new(32_768, 8192, 524_288)
        );
    }

    #[test]
    fn energy_objective_typically_agrees_with_performance() {
        // "Typically, the most performant combination of parameters is also
        // the most energy efficient solution."
        let tuner = Tuner::new(Gpu::A100.device(), small_shape(), Precision::Float16);
        let by_perf = tuner
            .tune(Strategy::Exhaustive, Objective::Performance)
            .unwrap();
        let best_energy = by_perf.best_under(Objective::EnergyEfficiency).unwrap();
        assert!(by_perf.best.tops_per_joule >= 0.9 * best_energy.tops_per_joule);
    }

    #[test]
    fn int1_tuning_runs_on_nvidia_only() {
        let shape = GemmShape::new(8192, 4096, 65_536);
        let nv = Tuner::new(Gpu::A100.device(), shape, Precision::Int1);
        assert!(nv
            .tune(
                Strategy::Random {
                    samples: 5,
                    seed: 1
                },
                Objective::Performance
            )
            .is_some());
        let amd = Tuner::new(Gpu::Mi300x.device(), shape, Precision::Int1);
        assert!(amd
            .tune(Strategy::Exhaustive, Objective::Performance)
            .is_none());
    }

    #[test]
    fn json_roundtrip_preserves_non_ascii_and_non_finite() {
        use json::Value;
        // Device names are free-form strings; non-ASCII and escapes must
        // survive the trip.  Non-finite floats become null and read back
        // as NaN (serde_json's convention).
        let device = "Café \"β\"-GPU\n±1\u{1}";
        let best = Value::object([
            ("tops", f64::INFINITY.into()),
            ("tops_per_joule", f64::NAN.into()),
            ("elapsed_s", 0.1.into()),
            ("buffers", 4usize.into()),
        ]);
        let tree = Value::object([
            ("device", device.into()),
            ("best", best),
            ("evaluated", Value::Array(vec![Value::Null, 2.5e-7.into()])),
        ]);
        let text = tree.to_string();
        assert_eq!(tree.to_string(), text, "the writer is deterministic");
        let restored = json::parse(&text).unwrap();
        assert_eq!(restored.get("device").unwrap().as_str().unwrap(), device);
        let best = restored.get("best").unwrap();
        assert_eq!(best.get("tops").unwrap(), &Value::Null);
        assert!(best.get("tops").unwrap().as_f64().unwrap().is_nan());
        assert!(best
            .get("tops_per_joule")
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
        assert_eq!(best.get("elapsed_s").unwrap().as_f64().unwrap(), 0.1);
        assert_eq!(best.get("buffers").unwrap().as_usize().unwrap(), 4);
        assert_eq!(
            restored.get("evaluated").unwrap(),
            tree.get("evaluated").unwrap()
        );
        // What was written parses back to text that writes the same again.
        assert_eq!(restored.to_string(), text);
        // Explicit \u escapes (including a surrogate pair) also parse.
        let escaped = text.replacen("Café", "Caf\\u00e9 \\ud83d\\ude00", 1);
        let from_escaped = json::parse(&escaped).unwrap();
        let device = from_escaped.get("device").unwrap().as_str().unwrap();
        assert!(device.starts_with("Café 😀"));
    }

    #[test]
    fn json_treats_every_document_as_hostile() {
        // Unbounded recursion used to abort the process (SIGABRT) on a
        // tower of brackets; nesting up to the cap still parses.
        for tower in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            let error = json::parse(&tower).unwrap_err();
            assert!(error.to_string().contains("nesting"), "{error}");
        }
        let deep = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(json::parse(&deep(json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&deep(json::MAX_DEPTH + 1)).is_err());
        // A count is an integer or an error — `as usize` used to turn
        // these into 0 / 2 / 0 and accept them.
        for hostile in ["-3.7", "2.9", "null", "1e300", "4294967296", "\"2\"", "[]"] {
            let error = json::parse(hostile).unwrap().as_usize().unwrap_err();
            assert!(error.to_string().contains("integer"), "{hostile}: {error}");
        }
        assert_eq!(
            json::parse("4294967295").unwrap().as_usize(),
            Ok(4294967295)
        );
    }
}
