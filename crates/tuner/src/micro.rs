//! Real-measurement autotuning of the host micro-kernels.
//!
//! The [`crate::Tuner`] searches the *simulated* GPU kernel's parameters
//! against the analytic execution model.  This module retargets the same
//! search ([`Strategy`]) at the kernels that actually burn wall clock:
//! every candidate [`MicroKernelConfig`] is benchmarked by running the
//! real [`ccglib::gemm::gemm_f16_on`] / [`ccglib::gemm::gemm_int1_on`]
//! hot path on deterministic synthetic operands and timing it with a
//! monotonic clock ([`median_secs`], the workspace's one stopwatch).
//! Winners are persisted per (host fingerprint, precision, shape class) in
//! a JSON cache ([`crate::json`]) — the Kernel Tuner cache-file analogue —
//! and looked up automatically by the beamformer builder, with graceful
//! fallback to the default blocking whenever the cache is missing, corrupt
//! or was tuned on a different host.
//!
//! The search selects by measured throughput: the host has no energy
//! counter, and the paper observes that the fastest configuration is
//! typically also the most energy-efficient one (Section IV-A).

use crate::json::{JsonError, Value};
use crate::{search, Strategy};
use ccglib::gemm::{gemm_f16_on, gemm_int1_on};
use ccglib::matrix::{F16Matrix, Int1Matrix};
use ccglib::synth::pseudo_random_matrix;
use ccglib::{GemmInput, Isa, MicroKernelConfig, Precision};
use gpu_sim::BitOp;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tcbf_types::GemmShape;

/// Schema identifier written into (and required from) every micro-tuning
/// cache file.
pub const MICRO_CACHE_SCHEMA: &str = "tcbf-microtune/v3";

/// Identity of the machine a tuning result was measured on.  Tuned
/// blockings are CPU-specific (cache sizes, core count), so a cache written
/// on one host is ignored — without error — on another.  The SIMD path
/// ([`ccglib::Isa`]) is not part of it while [`MicroKernelConfig`] has no
/// axis whose best value could depend on the path; the first axis that
/// does must add the detected path's name here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostFingerprint {
    /// Target architecture the binary was compiled for (`x86_64`,
    /// `aarch64`, …).
    pub arch: String,
    /// Available hardware parallelism (the rayon pool the kernels span).
    pub threads: usize,
}

impl HostFingerprint {
    /// Fingerprints the current host.
    pub fn detect() -> Self {
        HostFingerprint {
            arch: std::env::consts::ARCH.to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl std::fmt::Display for HostFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}t", self.arch, self.threads)
    }
}

/// Coarse problem-size band a tuning result applies to.  The optimal
/// blocking depends on whether the working set fits in cache, which is a
/// function of total work rather than exact dimensions, so results are
/// cached per band instead of per exact shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShapeClass {
    /// Under ~4M multiply-accumulates per batch element.
    Small,
    /// ~4M to ~64M multiply-accumulates.
    Medium,
    /// Above ~64M multiply-accumulates.
    Large,
}

impl ShapeClass {
    /// Classifies a GEMM shape by its multiply-accumulate count.
    pub fn classify(shape: GemmShape) -> Self {
        let macs = shape.batch as u128 * shape.m as u128 * shape.n as u128 * shape.k as u128;
        if macs < 1 << 22 {
            ShapeClass::Small
        } else if macs < 1 << 26 {
            ShapeClass::Medium
        } else {
            ShapeClass::Large
        }
    }

    /// The benchmark shape one candidate evaluation of this band runs —
    /// small enough that a full menu sweep stays affordable, sized so it
    /// classifies into its own band.  `K` is a multiple of the 1-bit
    /// packing granularity, so the same shape serves both precisions.
    pub fn representative_shape(self) -> GemmShape {
        match self {
            ShapeClass::Small => GemmShape::new(64, 64, 512),
            ShapeClass::Medium => GemmShape::new(128, 128, 2048),
            ShapeClass::Large => GemmShape::new(256, 256, 4096),
        }
    }

    /// All bands, smallest first.
    pub const ALL: [ShapeClass; 3] = [ShapeClass::Small, ShapeClass::Medium, ShapeClass::Large];

    /// Cache-file spelling of the band.
    pub fn as_str(self) -> &'static str {
        match self {
            ShapeClass::Small => "small",
            ShapeClass::Medium => "medium",
            ShapeClass::Large => "large",
        }
    }

    /// Parses the cache-file spelling.
    pub fn parse(text: &str) -> Option<Self> {
        ShapeClass::ALL.into_iter().find(|c| c.as_str() == text)
    }
}

impl std::fmt::Display for ShapeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parses the [`Precision`] display spelling used in cache files.
fn precision_from_str(text: &str) -> Option<Precision> {
    [
        Precision::Float16,
        Precision::Int1,
        Precision::Float32Reference,
    ]
    .into_iter()
    .find(|p| p.to_string() == text)
}

/// One measured micro-kernel candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MicroTuneResult {
    /// The blocking measured.
    pub config: MicroKernelConfig,
    /// Median wall-clock time of one GEMM execution, in seconds.
    pub elapsed_s: f64,
    /// Measured throughput in giga complex multiply-accumulates per
    /// second.
    pub gelems_per_s: f64,
}

/// Outcome of one real-measurement tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct MicroTuneOutcome {
    /// Host the measurements were taken on.
    pub fingerprint: HostFingerprint,
    /// Precision tuned.
    pub precision: Precision,
    /// Shape band tuned for.
    pub shape_class: ShapeClass,
    /// The winning configuration (first measured among ties).
    pub best: MicroTuneResult,
    /// Every measured candidate, in evaluation order.
    pub evaluated: Vec<MicroTuneResult>,
}

/// Median wall-clock seconds of `reps` (at least one) timed runs of `f`,
/// after one warm-up run that pages in the operands and spins up the
/// thread pool — the one stopwatch of the tuner and `hotpath_bench`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Pre-quantised benchmark operands, built once per tuner so every
/// candidate measures kernel time only.
enum Operands {
    F16 { a: F16Matrix, b_t: F16Matrix },
    Int1 { a: Int1Matrix, b_t: Int1Matrix },
}

/// Benchmark-driven tuner of the host micro-kernels for one
/// (precision, shape band) pair.
pub struct MicroTuner {
    precision: Precision,
    shape: GemmShape,
    bit_op: BitOp,
    isa: Isa,
    reps: usize,
    operands: Operands,
}

impl MicroTuner {
    /// Creates a tuner measuring on the band's representative shape with
    /// `reps` timed repetitions per candidate (see [`median_secs`]).
    ///
    /// No kernel has a searchable blocking at present
    /// ([`MicroKernelConfig::menu`] is the default alone), so tuning
    /// degenerates to measuring the default configuration.
    pub fn new(precision: Precision, shape_class: ShapeClass, reps: usize) -> Self {
        let shape = shape_class.representative_shape();
        Self::for_shape(precision, shape, BitOp::Xor, reps)
    }

    /// Creates a tuner measuring on an explicit `M × N × K` shape
    /// (`shape.batch` is not run) and, for 1-bit, an explicit formulation;
    /// outcomes are filed under the band `shape` classifies into.
    pub fn for_shape(precision: Precision, shape: GemmShape, bit_op: BitOp, reps: usize) -> Self {
        let a_host = pseudo_random_matrix(shape.m, shape.k, 0xA11CE, 1.0);
        let b_host = pseudo_random_matrix(shape.n, shape.k, 0xB0B, 1.0);
        let operands = match precision {
            Precision::Int1 => Operands::Int1 {
                a: Int1Matrix::from_host_padded(&a_host, GemmInput::DEFAULT_INT1_K_GRANULARITY),
                b_t: Int1Matrix::from_host_padded(&b_host, GemmInput::DEFAULT_INT1_K_GRANULARITY),
            },
            _ => Operands::F16 {
                a: F16Matrix::from_host(&a_host),
                b_t: F16Matrix::from_host(&b_host),
            },
        };
        MicroTuner {
            precision,
            shape,
            bit_op,
            isa: Isa::detected(),
            reps,
            operands,
        }
    }

    /// Measures candidates on `isa` instead of the detected one (what
    /// production runs) — for reporting every path a host has side by side.
    pub fn on_isa(mut self, isa: Isa) -> Self {
        self.isa = isa;
        self
    }

    /// The shape every candidate is measured on.
    pub fn shape(&self) -> GemmShape {
        self.shape
    }

    /// Measures one candidate with [`median_secs`].  Returns `None` for
    /// configurations outside the compiled menu.
    pub fn evaluate(&self, config: MicroKernelConfig) -> Option<MicroTuneResult> {
        config.validate().ok()?;
        let elapsed_s = median_secs(self.reps, || match &self.operands {
            Operands::F16 { a, b_t } => {
                black_box(gemm_f16_on(self.isa, a, b_t))
                    .expect("benchmark operands conform to the shape");
            }
            Operands::Int1 { a, b_t } => {
                black_box(gemm_int1_on(self.isa, a, b_t, self.bit_op))
                    .expect("benchmark operands conform to the shape");
            }
        })
        .max(f64::MIN_POSITIVE);
        let macs = self.shape.m as f64 * self.shape.n as f64 * self.shape.k as f64;
        Some(MicroTuneResult {
            config,
            elapsed_s,
            gelems_per_s: macs / elapsed_s / 1e9,
        })
    }

    /// Runs the search from the default blocking over the menu of compiled
    /// configurations (a configuration has no axis to step along at present,
    /// hence no neighbours).  Under every [`Strategy`] the
    /// default is measured first (it leads the menu), so a winner is never
    /// worse than the default on the shape it was measured on, and ties
    /// select the first candidate measured.
    pub fn tune(&self, strategy: Strategy) -> Option<MicroTuneOutcome> {
        let (best, evaluated) = search(
            strategy,
            MicroKernelConfig::default(),
            MicroKernelConfig::menu(),
            |_| Vec::new(),
            |c| self.evaluate(c),
            |r| r.gelems_per_s,
        )?;
        Some(MicroTuneOutcome {
            fingerprint: HostFingerprint::detect(),
            precision: self.precision,
            shape_class: ShapeClass::classify(self.shape),
            best,
            evaluated,
        })
    }
}

/// One cached winner: the best blocking for a (precision, shape band)
/// pair on the cache's host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MicroCacheEntry {
    /// Precision the entry was tuned for.
    pub precision: Precision,
    /// Shape band the entry was tuned for.
    pub shape_class: ShapeClass,
    /// The winning blocking.
    pub config: MicroKernelConfig,
    /// Throughput it measured, for reporting.
    pub gelems_per_s: f64,
}

/// The persisted micro-tuning results of one host — the Kernel Tuner
/// cache-file analogue for the real kernels.
#[derive(Clone, Debug, PartialEq)]
pub struct MicroTuneCache {
    /// Host the entries were measured on.
    pub fingerprint: HostFingerprint,
    /// Cached winners, one per (precision, shape band) pair.
    pub entries: Vec<MicroCacheEntry>,
}

impl MicroTuneCache {
    /// An empty cache for the current host.
    pub fn for_this_host() -> Self {
        MicroTuneCache {
            fingerprint: HostFingerprint::detect(),
            entries: Vec::new(),
        }
    }

    /// Records a tuning outcome, replacing any previous entry for the
    /// same (precision, shape band) pair.
    pub fn record(&mut self, outcome: &MicroTuneOutcome) {
        self.entries.retain(|e| {
            !(e.precision == outcome.precision && e.shape_class == outcome.shape_class)
        });
        self.entries.push(MicroCacheEntry {
            precision: outcome.precision,
            shape_class: outcome.shape_class,
            config: outcome.best.config,
            gelems_per_s: outcome.best.gelems_per_s,
        });
    }

    /// The cached winner for a (precision, shape band) pair, if any.
    pub fn lookup(
        &self,
        precision: Precision,
        shape_class: ShapeClass,
    ) -> Option<&MicroCacheEntry> {
        self.entries
            .iter()
            .find(|e| e.precision == precision && e.shape_class == shape_class)
    }

    /// Serialises the cache to its JSON schema ([`MICRO_CACHE_SCHEMA`]):
    /// a schema tag, the host fingerprint, and one flat entry per
    /// (precision, shape band) winner.
    pub fn to_json(&self) -> String {
        let entry = |e: &MicroCacheEntry| {
            // Exhaustive on purpose: a new axis must be written here (and
            // read below) before this compiles.
            let MicroKernelConfig {} = e.config;
            let config = Value::object([]);
            Value::object([
                ("precision", Value::String(e.precision.to_string())),
                ("shape_class", e.shape_class.as_str().into()),
                ("config", config),
                ("gelems_per_s", e.gelems_per_s.into()),
            ])
        };
        let fingerprint = Value::object([
            ("arch", self.fingerprint.arch.as_str().into()),
            ("threads", self.fingerprint.threads.into()),
        ]);
        Value::object([
            ("schema", MICRO_CACHE_SCHEMA.into()),
            ("fingerprint", fingerprint),
            (
                "entries",
                Value::Array(self.entries.iter().map(entry).collect()),
            ),
        ])
        .to_string()
    }

    /// Restores a cache from JSON, rejecting unknown schemas and
    /// malformed documents.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let root = crate::json::parse(text)?;
        let schema = root.get("schema")?.as_str()?;
        if schema != MICRO_CACHE_SCHEMA {
            return Err(JsonError(format!(
                "unsupported schema '{schema}' (expected '{MICRO_CACHE_SCHEMA}')"
            )));
        }
        let entry = |v: &Value| -> Result<MicroCacheEntry, JsonError> {
            let precision = v.get("precision")?.as_str()?;
            let shape_class = v.get("shape_class")?.as_str()?;
            let Value::Object(_) = v.get("config")? else {
                return Err(JsonError("expected object for field 'config'".into()));
            };
            Ok(MicroCacheEntry {
                precision: precision_from_str(precision)
                    .ok_or_else(|| JsonError(format!("unknown precision '{precision}'")))?,
                shape_class: ShapeClass::parse(shape_class)
                    .ok_or_else(|| JsonError(format!("unknown shape class '{shape_class}'")))?,
                config: MicroKernelConfig {},
                gelems_per_s: v.get("gelems_per_s")?.as_f64()?,
            })
        };
        let fingerprint = root.get("fingerprint")?;
        Ok(MicroTuneCache {
            fingerprint: HostFingerprint {
                arch: fingerprint.get("arch")?.as_str()?.to_string(),
                threads: fingerprint.get("threads")?.as_usize()?,
            },
            entries: root
                .get("entries")?
                .as_array()?
                .iter()
                .map(entry)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Loads a cache file; `None` if the file is missing, unreadable or
    /// malformed (callers fall back to the default blocking — a stale or
    /// corrupt cache must never break engine construction).
    pub fn load(path: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(path).ok()?;
        Self::from_json(&text).ok()
    }

    /// Writes the cache file, creating parent directories as needed.
    pub fn store(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// The cache location used when none is given explicitly: the
/// `TCBF_MICROTUNE_CACHE` environment variable if set, else
/// `$HOME/.cache/tcbf/microtune.json`, else a file in the system temp
/// directory.
pub fn default_cache_path() -> PathBuf {
    if let Ok(path) = std::env::var("TCBF_MICROTUNE_CACHE") {
        if !path.is_empty() {
            return PathBuf::from(path);
        }
    }
    if let Ok(home) = std::env::var("HOME") {
        if !home.is_empty() {
            return Path::new(&home)
                .join(".cache")
                .join("tcbf")
                .join("microtune.json");
        }
    }
    std::env::temp_dir().join("tcbf-microtune.json")
}

/// Looks up the tuned blocking for a (precision, shape) pair: loads the
/// cache at `path` (or the [`default_cache_path`]), ignores it unless it
/// was measured on this host, classifies `shape` into its band and
/// returns the cached winner if it still validates.  Every failure mode —
/// missing file, corrupt JSON, foreign host, no matching entry, config
/// outside the compiled menu — yields `None`, i.e. the default blocking.
pub fn tuned_micro_config(
    path: Option<&Path>,
    precision: Precision,
    shape: GemmShape,
) -> Option<MicroKernelConfig> {
    let path = path
        .map(Path::to_path_buf)
        .unwrap_or_else(default_cache_path);
    let cache = MicroTuneCache::load(&path)?;
    if cache.fingerprint != HostFingerprint::detect() {
        return None;
    }
    let entry = cache.lookup(precision, ShapeClass::classify(shape))?;
    entry.config.validate().ok()?;
    Some(entry.config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tcbf-microtune-test-{}-{name}", std::process::id()));
        dir.join("cache.json")
    }

    fn sample_cache() -> MicroTuneCache {
        let mut cache = MicroTuneCache::for_this_host();
        cache.entries.push(MicroCacheEntry {
            precision: Precision::Float16,
            shape_class: ShapeClass::Small,
            config: MicroKernelConfig::default(),
            gelems_per_s: 12.5,
        });
        cache.entries.push(MicroCacheEntry {
            precision: Precision::Int1,
            shape_class: ShapeClass::Large,
            config: MicroKernelConfig::default(),
            gelems_per_s: 480.0,
        });
        cache
    }

    #[test]
    fn shape_classes_cover_their_representative_shapes() {
        for class in ShapeClass::ALL {
            assert_eq!(ShapeClass::classify(class.representative_shape()), class);
            assert_eq!(ShapeClass::parse(class.as_str()), Some(class));
        }
        assert_eq!(ShapeClass::parse("huge"), None);
        // The beamformer shapes the conformance tests use are Small.
        assert_eq!(
            ShapeClass::classify(GemmShape::batched(1, 8, 64, 32)),
            ShapeClass::Small
        );
    }

    #[test]
    fn cache_round_trips_through_json_and_disk() {
        let cache = sample_cache();
        let restored = MicroTuneCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(restored, cache);

        // Any other layout of the same document loads to the same cache.
        let HostFingerprint { arch, threads } = &cache.fingerprint;
        let reformatted = format!(
            "{{\n  \"schema\": \"tcbf-microtune/v3\",\n  \"fingerprint\": {{\"arch\": \"{arch}\", \"threads\": {threads}}},\n  \"entries\": [\n    \
             {{\"precision\": \"float16\", \"shape_class\": \"small\", \"config\": {{ }}, \"gelems_per_s\": 12.5}},\n    \
             {{\"precision\": \"int1\", \"shape_class\": \"large\", \"config\": {{}}, \"gelems_per_s\": 480.0}}\n  ]\n}}"
        );
        assert_eq!(MicroTuneCache::from_json(&reformatted).unwrap(), cache);

        let path = temp_path("roundtrip");
        cache.store(&path).unwrap();
        assert_eq!(MicroTuneCache::load(&path), Some(cache));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corrupt_or_missing_cache_files_fall_back_to_defaults() {
        let path = temp_path("corrupt");
        // Missing file.
        assert_eq!(MicroTuneCache::load(&path), None);
        assert_eq!(
            tuned_micro_config(Some(&path), Precision::Float16, GemmShape::new(8, 8, 8)),
            None
        );
        // Corrupt contents (truncated JSON, wrong schema, random bytes).
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        for garbage in [
            "{\"schema\": \"tcbf-microtune/v3\", \"finge",
            "not json",
            "{}",
        ] {
            std::fs::write(&path, garbage).unwrap();
            assert_eq!(MicroTuneCache::load(&path), None, "{garbage:?}");
            assert_eq!(
                tuned_micro_config(Some(&path), Precision::Float16, GemmShape::new(8, 8, 8)),
                None,
                "{garbage:?}"
            );
        }
        // A valid document with a foreign schema is also rejected.
        let foreign = sample_cache()
            .to_json()
            .replace(MICRO_CACHE_SCHEMA, "tcbf-microtune/v999");
        std::fs::write(&path, foreign).unwrap();
        assert_eq!(MicroTuneCache::load(&path), None);
        // So is a cache the previous release wrote for this very host: its
        // schema (`v2`) carried the three axes of the f16 row kernel, which
        // no longer exists.
        let HostFingerprint { arch, threads } = HostFingerprint::detect();
        let v2 = format!(
            "{{\"schema\": \"tcbf-microtune/v2\", \"fingerprint\": {{\"arch\": \"{arch}\", \"threads\": {threads}}}, \"entries\": [\
             {{\"precision\": \"float16\", \"shape_class\": \"small\", \"config\": {{\"f16_j_tile\": 4, \"f16_lanes\": 16, \"f16_k_tile\": 1024}}, \"gelems_per_s\": 5.3}}]}}"
        );
        let shape = ShapeClass::Small.representative_shape();
        std::fs::write(&path, v2).unwrap();
        assert_eq!(MicroTuneCache::load(&path), None);
        assert_eq!(
            tuned_micro_config(Some(&path), Precision::Float16, shape),
            None
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn out_of_range_integer_fields_are_rejected_not_truncated() {
        // `as usize` used to turn these into 0 / 2 / 0 and accept them.
        let valid = sample_cache().to_json();
        assert!(MicroTuneCache::from_json(&valid).is_ok());
        let threads = format!("\"threads\": {}", sample_cache().fingerprint.threads);
        for (field, hostile, complaint) in [
            (threads.as_str(), "\"threads\": -3.7", "integer"),
            (threads.as_str(), "\"threads\": 2.9", "integer"),
            (threads.as_str(), "\"threads\": null", "integer"),
            (threads.as_str(), "\"threads\": 1e300", "integer"),
            (threads.as_str(), "\"threads\": 4294967296", "integer"),
            (threads.as_str(), "\"threads\": \"2\"", "integer"),
            ("\"config\": {}", "\"config\": 2.9", "object"),
            ("\"config\": {}", "\"config\": []", "object"),
        ] {
            assert!(valid.contains(field), "{field} is written");
            let error = MicroTuneCache::from_json(&valid.replacen(field, hostile, 1)).unwrap_err();
            assert!(error.to_string().contains(complaint), "{hostile}: {error}");
        }
        let path = temp_path("hostile-integers");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(
            &path,
            valid.replacen("\"config\": {}", "\"config\": 2.9", 1),
        )
        .unwrap();
        let shape = ShapeClass::Small.representative_shape();
        assert_eq!(
            tuned_micro_config(Some(&path), Precision::Float16, shape),
            None
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn bracket_towers_are_a_typed_error_not_a_stack_overflow() {
        // Unbounded recursion used to abort the process (SIGABRT) inside
        // every build_engine() that found such a file.
        let path = temp_path("towers");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        for tower in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            let error = MicroTuneCache::from_json(&tower).unwrap_err();
            assert!(error.to_string().contains("nesting"), "{error}");
            std::fs::write(&path, &tower).unwrap();
            assert_eq!(
                tuned_micro_config(Some(&path), Precision::Float16, GemmShape::new(8, 8, 8)),
                None
            );
        }
        // Nesting up to the cap still parses.
        let deep = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(crate::json::parse(&deep(crate::json::MAX_DEPTH)).is_ok());
        assert!(crate::json::parse(&deep(crate::json::MAX_DEPTH + 1)).is_err());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn foreign_host_caches_are_ignored_without_error() {
        let mut cache = sample_cache();
        cache.fingerprint = HostFingerprint {
            arch: "z80".to_string(),
            threads: 1,
        };
        let path = temp_path("foreign");
        cache.store(&path).unwrap();
        // The file itself loads fine…
        assert!(MicroTuneCache::load(&path).is_some());
        // …but the lookup refuses to apply another machine's tuning.
        let shape = ShapeClass::Small.representative_shape();
        assert_eq!(
            tuned_micro_config(Some(&path), Precision::Float16, shape),
            None
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn matching_host_cache_supplies_the_tuned_config() {
        let cache = sample_cache();
        let path = temp_path("hit");
        cache.store(&path).unwrap();
        let shape = ShapeClass::Small.representative_shape();
        let tuned = tuned_micro_config(Some(&path), Precision::Float16, shape).unwrap();
        assert_eq!(tuned, cache.entries[0].config);
        // No entry for this (precision, band) pair → defaults.
        assert_eq!(
            tuned_micro_config(Some(&path), Precision::Int1, shape),
            None
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn record_replaces_the_matching_entry() {
        let mut cache = MicroTuneCache::for_this_host();
        let outcome = |gelems: f64| MicroTuneOutcome {
            fingerprint: HostFingerprint::detect(),
            precision: Precision::Float16,
            shape_class: ShapeClass::Small,
            best: MicroTuneResult {
                config: MicroKernelConfig::default(),
                elapsed_s: 1.0,
                gelems_per_s: gelems,
            },
            evaluated: Vec::new(),
        };
        cache.record(&outcome(5.0));
        cache.record(&outcome(9.0));
        assert_eq!(cache.entries.len(), 1);
        assert_eq!(cache.entries[0].gelems_per_s, 9.0);
    }

    #[test]
    fn tuning_measures_the_default_alone_on_every_path() {
        for precision in [Precision::Float16, Precision::Int1] {
            for isa in Isa::available() {
                let tuner = MicroTuner::new(precision, ShapeClass::Small, 1).on_isa(isa);
                for strategy in [
                    Strategy::Exhaustive,
                    Strategy::Random {
                        samples: 3,
                        seed: 7,
                    },
                    Strategy::GreedyLocalSearch { max_steps: 3 },
                ] {
                    let outcome = tuner.tune(strategy).unwrap();
                    assert_eq!(outcome.evaluated.len(), 1, "{precision} on {isa}");
                    assert_eq!(outcome.best, outcome.evaluated[0]);
                    assert_eq!(outcome.best.config, MicroKernelConfig::default());
                    assert!(outcome.best.gelems_per_s > 0.0, "{precision} on {isa}");
                }
            }
        }
    }
}
