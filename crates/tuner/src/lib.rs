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
//! * results serialise to JSON, as Kernel Tuner's cache files do.

#![deny(missing_docs)]

pub mod micro;

pub use micro::{
    default_cache_path, tuned_micro_config, HostFingerprint, MicroCacheEntry, MicroTuneCache,
    MicroTuneOutcome, MicroTuneResult, MicroTuner, ShapeClass, MICRO_CACHE_SCHEMA,
};

use ccglib::benchmark::{measure_with_params, ThroughputResult};
use ccglib::{ParameterSpace, Precision, TuningParameters};
use gpu_sim::{Device, Gpu};
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
    /// Evaluate every valid configuration (what the paper does: "we need to
    /// explore a vast search space").
    Exhaustive,
    /// Evaluate a random subset of the valid configurations.
    Random {
        /// Number of configurations to sample.
        samples: usize,
        /// RNG seed, so tuning runs are reproducible.
        seed: u64,
    },
    /// Greedy neighbourhood search: start from the shipped default and move
    /// to the best neighbour (one parameter changed one step) until no
    /// neighbour improves.
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
    fn from_throughput(params: TuningParameters, r: &ThroughputResult) -> Self {
        TuneResult {
            params,
            tops: r.tops,
            tops_per_joule: r.tops_per_joule,
            elapsed_s: r.elapsed_s,
        }
    }

    /// The objective value of this result.
    pub fn objective_value(&self, objective: Objective) -> f64 {
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
    /// Serialises the outcome to JSON (the analogue of Kernel Tuner's cache
    /// files).
    pub fn to_json(&self) -> String {
        json::write_outcome(self)
    }

    /// Restores an outcome from JSON.
    pub fn from_json(text: &str) -> Result<Self, json::JsonError> {
        json::read_outcome(text)
    }

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

/// The neighbours of `current` on one tuning axis: the values one step
/// below and above it (every value if `current` is not on the axis).
fn axis_neighbours(values: &[usize], current: usize) -> Vec<usize> {
    match values.iter().position(|&v| v == current) {
        Some(i) => {
            let mut out = Vec::new();
            if i > 0 {
                out.push(values[i - 1]);
            }
            if i + 1 < values.len() {
                out.push(values[i + 1]);
            }
            out
        }
        None => values.to_vec(),
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

    /// Replaces the search space.
    pub fn with_space(mut self, space: ParameterSpace) -> Self {
        self.space = space;
        self
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
        measure_with_params(&self.device, self.shape, self.precision, params)
            .ok()
            .map(|r| TuneResult::from_throughput(params, &r))
    }

    fn valid_configurations(&self) -> Vec<TuningParameters> {
        self.space
            .valid_combinations(self.device.spec(), self.precision)
    }

    /// Runs the tuning process.
    pub fn tune(&self, strategy: Strategy, objective: Objective) -> Option<TuneOutcome> {
        let evaluated: Vec<TuneResult> = match strategy {
            Strategy::Exhaustive => self
                .valid_configurations()
                .into_iter()
                .filter_map(|p| self.evaluate(p))
                .collect(),
            Strategy::Random { samples, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut configs = self.valid_configurations();
                configs.shuffle(&mut rng);
                configs.truncate(samples.max(1));
                configs
                    .into_iter()
                    .filter_map(|p| self.evaluate(p))
                    .collect()
            }
            Strategy::GreedyLocalSearch { max_steps } => self.greedy_search(max_steps, objective),
        };
        let best = first_best(&evaluated, |r| r.objective_value(objective))?;
        Some(TuneOutcome {
            device: self.device.gpu().name().to_string(),
            precision: self.precision.to_string(),
            shape: self.shape,
            best,
            evaluated,
        })
    }

    fn neighbours(&self, params: TuningParameters) -> Vec<TuningParameters> {
        let mut out = Vec::new();
        for v in axis_neighbours(&self.space.m_per_block, params.m_per_block) {
            out.push(TuningParameters {
                m_per_block: v,
                ..params
            });
        }
        for v in axis_neighbours(&self.space.m_per_warp, params.m_per_warp) {
            out.push(TuningParameters {
                m_per_warp: v,
                ..params
            });
        }
        for v in axis_neighbours(&self.space.n_per_block, params.n_per_block) {
            out.push(TuningParameters {
                n_per_block: v,
                ..params
            });
        }
        for v in axis_neighbours(&self.space.n_per_warp, params.n_per_warp) {
            out.push(TuningParameters {
                n_per_warp: v,
                ..params
            });
        }
        for v in axis_neighbours(&self.space.buffers, params.buffers) {
            out.push(TuningParameters {
                buffers: v,
                ..params
            });
        }
        out
    }

    fn greedy_search(&self, max_steps: usize, objective: Objective) -> Vec<TuneResult> {
        let start = TuningParameters::default_for(self.device.gpu(), self.precision);
        let mut evaluated = Vec::new();
        let Some(mut current) = self.evaluate(start) else {
            // The default may be invalid for exotic spaces; fall back to the
            // first valid configuration.
            let Some(first) = self.valid_configurations().into_iter().next() else {
                return evaluated;
            };
            let Some(result) = self.evaluate(first) else {
                return evaluated;
            };
            evaluated.push(result);
            return evaluated;
        };
        evaluated.push(current);
        for _ in 0..max_steps {
            let mut improved = false;
            for candidate in self.neighbours(current.params) {
                if let Some(result) = self.evaluate(candidate) {
                    evaluated.push(result);
                    if result.objective_value(objective) > current.objective_value(objective) {
                        current = result;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        evaluated
    }
}

/// Tunes the float16 kernel on every device and the 1-bit kernel on the
/// NVIDIA devices, exhaustively — the runs behind Fig. 2 and Table III.
pub fn tune_all_devices(objective: Objective) -> Vec<TuneOutcome> {
    let mut out = Vec::new();
    for gpu in Gpu::ALL {
        let device = gpu.device();
        let tuner = Tuner::new(
            device.clone(),
            Tuner::paper_tuning_shape(Precision::Float16),
            Precision::Float16,
        );
        if let Some(outcome) = tuner.tune(Strategy::Exhaustive, objective) {
            out.push(outcome);
        }
        if device.spec().supports_int1() {
            let tuner = Tuner::new(
                device,
                Tuner::paper_tuning_shape(Precision::Int1),
                Precision::Int1,
            );
            if let Some(outcome) = tuner.tune(Strategy::Exhaustive, objective) {
                out.push(outcome);
            }
        }
    }
    out
}

pub mod json {
    //! Hand-rolled JSON round-trip for [`TuneOutcome`].
    //!
    //! The build environment has no crates.io access, so instead of
    //! `serde_json` the cache-file format is written and parsed directly.
    //! The schema is flat and fixed (strings, numbers, two object shapes,
    //! one array), which a small recursive-descent parser covers fully.

    use super::{TuneOutcome, TuneResult};
    use ccglib::TuningParameters;
    use tcbf_types::GemmShape;

    /// Error produced when a tuning-cache JSON document cannot be parsed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JsonError(String);

    impl std::fmt::Display for JsonError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "invalid tuning JSON: {}", self.0)
        }
    }

    impl std::error::Error for JsonError {}

    /// JSON string literal with standard escaping (quotes, backslashes,
    /// control characters); other characters — including non-ASCII — are
    /// emitted verbatim, which JSON permits in UTF-8 documents.
    fn write_string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// JSON number; non-finite values (which JSON cannot represent) are
    /// written as `null` and read back as NaN, matching serde_json.
    fn write_f64(v: f64) -> String {
        if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_string()
        }
    }

    fn write_params(p: &TuningParameters) -> String {
        format!(
            "{{\"m_per_block\": {}, \"m_per_warp\": {}, \"n_per_block\": {}, \"n_per_warp\": {}, \"buffers\": {}}}",
            p.m_per_block, p.m_per_warp, p.n_per_block, p.n_per_warp, p.buffers
        )
    }

    fn write_result(r: &TuneResult, indent: &str) -> String {
        format!(
            "{indent}{{\n{indent}  \"params\": {},\n{indent}  \"tops\": {},\n{indent}  \"tops_per_joule\": {},\n{indent}  \"elapsed_s\": {}\n{indent}}}",
            write_params(&r.params),
            write_f64(r.tops),
            write_f64(r.tops_per_joule),
            write_f64(r.elapsed_s)
        )
    }

    pub(super) fn write_outcome(o: &TuneOutcome) -> String {
        let evaluated: Vec<String> = o
            .evaluated
            .iter()
            .map(|r| write_result(r, "    "))
            .collect();
        format!(
            "{{\n  \"device\": {},\n  \"precision\": {},\n  \"shape\": {{\"batch\": {}, \"m\": {}, \"n\": {}, \"k\": {}}},\n  \"best\":\n{},\n  \"evaluated\": [\n{}\n  ]\n}}",
            write_string(&o.device),
            write_string(&o.precision),
            o.shape.batch,
            o.shape.m,
            o.shape.n,
            o.shape.k,
            write_result(&o.best, "  "),
            evaluated.join(",\n")
        )
    }

    // ---- micro-kernel tuning cache ----------------------------------------

    use crate::micro::{
        precision_from_str, HostFingerprint, MicroCacheEntry, MicroTuneCache, ShapeClass,
        MICRO_CACHE_SCHEMA,
    };
    use ccglib::MicroKernelConfig;

    fn write_micro_config(c: &MicroKernelConfig) -> String {
        format!(
            "{{\"f16_j_tile\": {}, \"f16_lanes\": {}, \"f16_k_tile\": {}, \"int1_unroll\": {}}}",
            c.f16_j_tile, c.f16_lanes, c.f16_k_tile, c.int1_unroll
        )
    }

    /// Serialises a [`MicroTuneCache`] under the `tcbf-microtune/v1`
    /// schema: a schema tag, the host fingerprint, and one flat entry per
    /// (precision, shape class) winner.
    pub(crate) fn write_micro_cache(cache: &MicroTuneCache) -> String {
        let entries: Vec<String> = cache
            .entries
            .iter()
            .map(|e| {
                format!(
                    "    {{\"precision\": {}, \"shape_class\": {}, \"config\": {}, \"gelems_per_s\": {}}}",
                    write_string(&e.precision.to_string()),
                    write_string(e.shape_class.as_str()),
                    write_micro_config(&e.config),
                    write_f64(e.gelems_per_s)
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": {},\n  \"fingerprint\": {{\"arch\": {}, \"threads\": {}}},\n  \"entries\": [\n{}\n  ]\n}}",
            write_string(MICRO_CACHE_SCHEMA),
            write_string(&cache.fingerprint.arch),
            cache.fingerprint.threads,
            entries.join(",\n")
        )
    }

    fn read_micro_entry(v: &Value) -> Result<MicroCacheEntry, JsonError> {
        let precision_text = as_string(get(v, "precision")?)?;
        let precision = precision_from_str(&precision_text)
            .ok_or_else(|| JsonError(format!("unknown precision '{precision_text}'")))?;
        let class_text = as_string(get(v, "shape_class")?)?;
        let shape_class = ShapeClass::parse(&class_text)
            .ok_or_else(|| JsonError(format!("unknown shape class '{class_text}'")))?;
        let c = get(v, "config")?;
        Ok(MicroCacheEntry {
            precision,
            shape_class,
            config: MicroKernelConfig {
                f16_j_tile: as_usize(get(c, "f16_j_tile")?)?,
                f16_lanes: as_usize(get(c, "f16_lanes")?)?,
                f16_k_tile: as_usize(get(c, "f16_k_tile")?)?,
                int1_unroll: as_usize(get(c, "int1_unroll")?)?,
            },
            gelems_per_s: as_f64(get(v, "gelems_per_s")?)?,
        })
    }

    /// Parses a `tcbf-microtune/v1` document, rejecting other schemas.
    pub(crate) fn read_micro_cache(text: &str) -> Result<MicroTuneCache, JsonError> {
        let mut parser = Parser::new(text);
        let root = parser.value()?;
        let schema = as_string(get(&root, "schema")?)?;
        if schema != MICRO_CACHE_SCHEMA {
            return Err(JsonError(format!(
                "unsupported schema '{schema}' (expected '{MICRO_CACHE_SCHEMA}')"
            )));
        }
        let fp = get(&root, "fingerprint")?;
        let entries = match get(&root, "entries")? {
            Value::Array(items) => items
                .iter()
                .map(read_micro_entry)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(JsonError("'entries' must be an array".into())),
        };
        Ok(MicroTuneCache {
            fingerprint: HostFingerprint {
                arch: as_string(get(fp, "arch")?)?,
                threads: as_usize(get(fp, "threads")?)?,
            },
            entries,
        })
    }

    // ---- parsing ----------------------------------------------------------

    #[derive(Debug, Clone, PartialEq)]
    enum Value {
        String(String),
        Number(f64),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn new(text: &'a str) -> Self {
            Parser {
                bytes: text.as_bytes(),
                pos: 0,
            }
        }

        fn err<T>(&self, msg: &str) -> Result<T, JsonError> {
            Err(JsonError(format!("{msg} at byte {}", self.pos)))
        }

        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                self.err(&format!("expected '{}'", byte as char))
            }
        }

        fn value(&mut self) -> Result<Value, JsonError> {
            match self.peek() {
                Some(b'n') => {
                    if self.bytes[self.pos..].starts_with(b"null") {
                        self.pos += 4;
                        Ok(Value::Number(f64::NAN))
                    } else {
                        self.err("expected 'null'")
                    }
                }
                Some(b'"') => self.string().map(Value::String),
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => self.err("expected a JSON value"),
            }
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            // Accumulate raw bytes and validate as UTF-8 once at the end,
            // so multi-byte characters survive intact.
            let mut raw: Vec<u8> = Vec::new();
            loop {
                let Some(&c) = self.bytes.get(self.pos) else {
                    return self.err("unterminated string");
                };
                self.pos += 1;
                match c {
                    b'"' => {
                        return String::from_utf8(raw)
                            .map_err(|_| JsonError("string is not valid UTF-8".into()));
                    }
                    b'\\' => {
                        let Some(&esc) = self.bytes.get(self.pos) else {
                            return self.err("unterminated escape");
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => raw.push(b'"'),
                            b'\\' => raw.push(b'\\'),
                            b'/' => raw.push(b'/'),
                            b'n' => raw.push(b'\n'),
                            b't' => raw.push(b'\t'),
                            b'r' => raw.push(b'\r'),
                            b'u' => {
                                let ch = self.unicode_escape()?;
                                let mut buf = [0u8; 4];
                                raw.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                            }
                            _ => return self.err("unsupported escape"),
                        }
                    }
                    _ => raw.push(c),
                }
            }
        }

        /// Decodes the four hex digits after `\u`, combining UTF-16
        /// surrogate pairs (`😀`) into one scalar value.
        fn unicode_escape(&mut self) -> Result<char, JsonError> {
            let first = self.hex4()?;
            let code = if (0xD800..0xDC00).contains(&first) {
                // High surrogate: a `\uXXXX` low surrogate must follow.
                if self.bytes.get(self.pos) == Some(&b'\\')
                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                {
                    self.pos += 2;
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return self.err("invalid low surrogate");
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    return self.err("unpaired surrogate");
                }
            } else {
                first
            };
            char::from_u32(code).ok_or_else(|| JsonError(format!("invalid scalar U+{code:04X}")))
        }

        fn hex4(&mut self) -> Result<u32, JsonError> {
            let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
                return self.err("truncated \\u escape");
            };
            let text = std::str::from_utf8(digits)
                .ok()
                .filter(|t| t.chars().all(|c| c.is_ascii_hexdigit()));
            let Some(text) = text else {
                return self.err("non-hex \\u escape");
            };
            self.pos += 4;
            Ok(u32::from_str_radix(text, 16).expect("validated hex digits"))
        }

        fn number(&mut self) -> Result<Value, JsonError> {
            self.skip_ws();
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| JsonError("non-UTF8 number".into()))?;
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| JsonError(format!("bad number '{text}'")))
        }

        fn array(&mut self) -> Result<Value, JsonError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return self.err("expected ',' or ']'"),
                }
            }
        }

        fn object(&mut self) -> Result<Value, JsonError> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                fields.push((key, self.value()?));
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return self.err("expected ',' or '}'"),
                }
            }
        }
    }

    fn get<'v>(obj: &'v Value, key: &str) -> Result<&'v Value, JsonError> {
        match obj {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError(format!("missing field '{key}'"))),
            _ => Err(JsonError(format!("expected object for field '{key}'"))),
        }
    }

    fn as_f64(v: &Value) -> Result<f64, JsonError> {
        match v {
            Value::Number(n) => Ok(*n),
            _ => Err(JsonError("expected number".into())),
        }
    }

    fn as_usize(v: &Value) -> Result<usize, JsonError> {
        Ok(as_f64(v)? as usize)
    }

    fn as_string(v: &Value) -> Result<String, JsonError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(JsonError("expected string".into())),
        }
    }

    fn read_result(v: &Value) -> Result<TuneResult, JsonError> {
        let p = get(v, "params")?;
        Ok(TuneResult {
            params: TuningParameters {
                m_per_block: as_usize(get(p, "m_per_block")?)?,
                m_per_warp: as_usize(get(p, "m_per_warp")?)?,
                n_per_block: as_usize(get(p, "n_per_block")?)?,
                n_per_warp: as_usize(get(p, "n_per_warp")?)?,
                buffers: as_usize(get(p, "buffers")?)?,
            },
            tops: as_f64(get(v, "tops")?)?,
            tops_per_joule: as_f64(get(v, "tops_per_joule")?)?,
            elapsed_s: as_f64(get(v, "elapsed_s")?)?,
        })
    }

    pub(super) fn read_outcome(text: &str) -> Result<TuneOutcome, JsonError> {
        let mut parser = Parser::new(text);
        let root = parser.value()?;
        let shape = get(&root, "shape")?;
        let evaluated = match get(&root, "evaluated")? {
            Value::Array(items) => items
                .iter()
                .map(read_result)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(JsonError("'evaluated' must be an array".into())),
        };
        Ok(TuneOutcome {
            device: as_string(get(&root, "device")?)?,
            precision: as_string(get(&root, "precision")?)?,
            shape: GemmShape {
                batch: as_usize(get(shape, "batch")?)?,
                m: as_usize(get(shape, "m")?)?,
                n: as_usize(get(shape, "n")?)?,
                k: as_usize(get(shape, "k")?)?,
            },
            best: read_result(get(&root, "best")?)?,
            evaluated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            Tuner::paper_tuning_shape(Precision::Float16),
            ccglib::GemmPlan::f16_calibration_shape()
        );
        assert_eq!(
            Tuner::paper_tuning_shape(Precision::Int1),
            ccglib::GemmPlan::int1_calibration_shape()
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
        let tuner = Tuner::new(Gpu::A100.device(), small_shape(), Precision::Float16);
        let mut outcome = tuner
            .tune(
                Strategy::Random {
                    samples: 2,
                    seed: 7,
                },
                Objective::Performance,
            )
            .unwrap();
        // Device names are free-form strings; non-ASCII and escapes must
        // survive the trip.  Non-finite floats become null and read back
        // as NaN (serde_json's convention).
        outcome.device = "Café \"β\"-GPU\n±1".to_string();
        outcome.best.tops = f64::INFINITY;
        outcome.best.tops_per_joule = f64::NAN;
        let text = outcome.to_json();
        let restored = TuneOutcome::from_json(&text).unwrap();
        assert_eq!(restored.device, outcome.device);
        assert!(restored.best.tops.is_nan());
        assert!(restored.best.tops_per_joule.is_nan());
        // Explicit \u escapes (including a surrogate pair) also parse.
        let escaped = text.replacen("Café", "Caf\\u00e9 \\ud83d\\ude00", 1);
        let from_escaped = TuneOutcome::from_json(&escaped).unwrap();
        assert!(from_escaped.device.starts_with("Café 😀"));
    }

    #[test]
    fn outcome_serialises_to_json_and_back() {
        let tuner = Tuner::new(Gpu::W7700.device(), small_shape(), Precision::Float16);
        let outcome = tuner
            .tune(
                Strategy::Random {
                    samples: 4,
                    seed: 3,
                },
                Objective::EnergyEfficiency,
            )
            .unwrap();
        let json = outcome.to_json();
        let restored = TuneOutcome::from_json(&json).unwrap();
        // Floats may lose their last digit through the JSON text form, so
        // compare the structure rather than bit-exact values.
        assert_eq!(outcome.device, restored.device);
        assert_eq!(outcome.precision, restored.precision);
        assert_eq!(outcome.best.params, restored.best.params);
        assert_eq!(outcome.evaluated.len(), restored.evaluated.len());
        assert!((outcome.best.tops - restored.best.tops).abs() < 1e-6);
        assert!(json.contains("m_per_block"));
    }
}
