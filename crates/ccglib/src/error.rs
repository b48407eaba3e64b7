//! The one error type of the workspace.
//!
//! Everything that can go wrong when configuring or running a GEMM or an
//! engine — builder misuse, unsupported precision/device combinations,
//! shapes that do not fit in device memory, invalid tuning parameters,
//! operand mismatches at run time, device loss — surfaces as one
//! [`TcbfError`] with an actionable message, from this crate up to the
//! facade (`tcbf` re-exports it) and the serving layer, so `?` needs no
//! conversion anywhere.

use tcbf_types::GemmShape;

/// Error returned by every layer: ccglib, the beamforming engines, the
/// facade's builder and sessions, and the serving layer.
#[derive(Clone, Debug, PartialEq)]
pub enum TcbfError {
    /// `build_engine()` was called without supplying a weight matrix.
    MissingWeights,
    /// The weight matrix has a zero dimension.
    EmptyWeights {
        /// Number of beams (rows) supplied.
        beams: usize,
        /// Number of receivers (columns) supplied.
        receivers: usize,
    },
    /// The number of samples per block is zero (or was never set).
    ZeroSamplesPerBlock,
    /// The requested precision is not supported on the selected device
    /// (1-bit mode on AMD GPUs).
    UnsupportedPrecision {
        /// Device name.
        device: String,
        /// Requested precision.
        precision: String,
    },
    /// The operands would not fit in device memory.
    OutOfDeviceMemory {
        /// Problem shape.
        shape: GemmShape,
        /// Required bytes.
        required_bytes: u128,
        /// Available bytes.
        available_bytes: u128,
    },
    /// The tuning parameters are invalid for the device (shared memory
    /// overflow, too many warps per block, register pressure, …).
    InvalidParameters {
        /// Human-readable reason.
        reason: String,
    },
    /// An operand's dimensions do not match the shape it is used in.
    ShapeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it received.
        actual: String,
    },
    /// An operand was supplied in the wrong precision.
    PrecisionMismatch {
        /// Expected precision.
        expected: String,
        /// Supplied precision.
        actual: String,
    },
    /// A device refused work mid-stream (injected or real fault).  When
    /// `permanent` is false the failure is retryable on the same device.
    DeviceLost {
        /// Pool index of the lost device.
        device: usize,
        /// True when the device is gone for good.
        permanent: bool,
    },
    /// The serving fleet is degraded: too few healthy engines remain to
    /// take on this work right now.  Retryable once capacity recovers.
    Degraded {
        /// Healthy engines remaining.
        healthy: usize,
        /// Fleet size when at full strength.
        total: usize,
    },
    /// An internal invariant was violated.  No layer panics on one: when a
    /// "cannot happen" state is reached anyway (a bug, not a user error),
    /// it surfaces as this typed error instead of an `unwrap`.
    Internal {
        /// Which invariant broke.
        reason: String,
    },
}

impl TcbfError {
    /// A stable numeric code identifying the variant, for wire protocols
    /// that must round-trip errors without string matching.
    ///
    /// Codes are append-only: existing assignments never change, new
    /// variants take the next free code, and the codes of deleted variants
    /// (4, 5, 6) are retired, never reused.  0 is reserved for "no error" and
    /// codes the receiving side does not know map onto a generic remote
    /// error, so old clients stay compatible with newer servers.
    // One explicit arm per variant: no wildcard can absorb a new one.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn code(&self) -> u16 {
        match self {
            TcbfError::MissingWeights => 1,
            TcbfError::EmptyWeights { .. } => 2,
            TcbfError::ZeroSamplesPerBlock => 3,
            TcbfError::UnsupportedPrecision { .. } => 7,
            TcbfError::OutOfDeviceMemory { .. } => 8,
            TcbfError::InvalidParameters { .. } => 9,
            TcbfError::ShapeMismatch { .. } => 10,
            TcbfError::PrecisionMismatch { .. } => 11,
            TcbfError::DeviceLost { .. } => 12,
            TcbfError::Degraded { .. } => 13,
            TcbfError::Internal { .. } => 14,
        }
    }
}

impl std::fmt::Display for TcbfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcbfError::MissingWeights => {
                write!(
                    f,
                    "no weight matrix configured: call .weights(...) before .build_engine()"
                )
            }
            TcbfError::EmptyWeights { beams, receivers } => write!(
                f,
                "weight matrix is {beams} beams x {receivers} receivers: both dimensions must be non-zero"
            ),
            TcbfError::ZeroSamplesPerBlock => write!(
                f,
                "samples per block must be non-zero: call .samples_per_block(n) with n > 0"
            ),
            TcbfError::UnsupportedPrecision { device, precision } => {
                write!(f, "{precision} precision is not supported on {device}")
            }
            TcbfError::OutOfDeviceMemory {
                shape,
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "problem {shape} needs {required_bytes} bytes but only {available_bytes} are available: shrink the batch, block length or beam count"
            ),
            TcbfError::InvalidParameters { reason } => {
                write!(f, "invalid tuning parameters: {reason}")
            }
            TcbfError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            TcbfError::PrecisionMismatch { expected, actual } => {
                write!(f, "operand precision mismatch: expected {expected}, got {actual}")
            }
            TcbfError::DeviceLost { device, permanent } => {
                if *permanent {
                    write!(f, "device {device} lost mid-stream (permanent fault)")
                } else {
                    write!(f, "device {device} refused work (transient fault, retryable)")
                }
            }
            TcbfError::Degraded { healthy, total } => write!(
                f,
                "fleet degraded: {healthy} of {total} engines healthy — retry once capacity recovers"
            ),
            TcbfError::Internal { reason } => {
                write!(f, "internal invariant violated (this is a bug): {reason}")
            }
        }
    }
}

impl std::error::Error for TcbfError {}

/// Convenience result alias of every layer.
pub type Result<T> = std::result::Result<T, TcbfError>;

#[cfg(test)]
mod tests {
    use super::*;

    /// One exemplar per variant, used to sweep the whole enum.
    fn exemplars() -> Vec<TcbfError> {
        vec![
            TcbfError::MissingWeights,
            TcbfError::EmptyWeights {
                beams: 0,
                receivers: 4,
            },
            TcbfError::ZeroSamplesPerBlock,
            TcbfError::UnsupportedPrecision {
                device: "MI300X".into(),
                precision: "int1".into(),
            },
            TcbfError::OutOfDeviceMemory {
                shape: GemmShape::new(1, 2, 3),
                required_bytes: 10,
                available_bytes: 5,
            },
            TcbfError::InvalidParameters {
                reason: "bad".into(),
            },
            TcbfError::ShapeMismatch {
                expected: "a".into(),
                actual: "b".into(),
            },
            TcbfError::PrecisionMismatch {
                expected: "float16".into(),
                actual: "int1".into(),
            },
            TcbfError::DeviceLost {
                device: 1,
                permanent: true,
            },
            TcbfError::Degraded {
                healthy: 1,
                total: 4,
            },
            TcbfError::Internal {
                reason: "bug".into(),
            },
        ]
    }

    #[test]
    fn error_codes_are_unique_stable_and_nonzero() {
        let errors = exemplars();
        let mut codes: Vec<u16> = errors.iter().map(TcbfError::code).collect();
        // 0 is reserved for "no error" on the wire.
        assert!(codes.iter().all(|&c| c != 0));
        codes.sort_unstable();
        let before = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), before, "duplicate TcbfError codes");
        // Stability pins: these assignments are append-only and must never
        // change, or deployed clients would misreport remote failures.
        assert_eq!(TcbfError::MissingWeights.code(), 1);
        // 4, 5 and 6 are retired: the gap's neighbours stay where they were.
        assert_eq!(TcbfError::ZeroSamplesPerBlock.code(), 3);
        assert_eq!(
            TcbfError::UnsupportedPrecision {
                device: String::new(),
                precision: String::new(),
            }
            .code(),
            7
        );
        assert_eq!(
            TcbfError::ShapeMismatch {
                expected: String::new(),
                actual: String::new(),
            }
            .code(),
            10
        );
        assert_eq!(
            TcbfError::DeviceLost {
                device: 0,
                permanent: false,
            }
            .code(),
            12
        );
        assert_eq!(
            TcbfError::Degraded {
                healthy: 0,
                total: 2,
            }
            .code(),
            13
        );
        assert_eq!(
            TcbfError::Internal {
                reason: String::new(),
            }
            .code(),
            14
        );
        // The code depends only on the variant, not its payload.
        assert_eq!(
            TcbfError::EmptyWeights {
                beams: 7,
                receivers: 9,
            }
            .code(),
            TcbfError::EmptyWeights {
                beams: 0,
                receivers: 0,
            }
            .code()
        );
    }

    /// The variant's name in docs/PROTOCOL.md.  The match is exhaustive, so
    /// a new variant does not compile until it is named here.
    fn protocol_name(error: &TcbfError) -> &'static str {
        match error {
            TcbfError::MissingWeights => "MissingWeights",
            TcbfError::EmptyWeights { .. } => "EmptyWeights",
            TcbfError::ZeroSamplesPerBlock => "ZeroSamplesPerBlock",
            TcbfError::UnsupportedPrecision { .. } => "UnsupportedPrecision",
            TcbfError::OutOfDeviceMemory { .. } => "OutOfDeviceMemory",
            TcbfError::InvalidParameters { .. } => "InvalidParameters",
            TcbfError::ShapeMismatch { .. } => "ShapeMismatch",
            TcbfError::PrecisionMismatch { .. } => "PrecisionMismatch",
            TcbfError::DeviceLost { .. } => "DeviceLost",
            TcbfError::Degraded { .. } => "Degraded",
            TcbfError::Internal { .. } => "Internal",
        }
    }

    #[test]
    fn the_protocol_table_lists_every_variant_with_its_code() {
        // Rows `| code | `Variant` | meaning |`; retired codes are not.
        let table: Vec<(u16, &str)> = include_str!("../../../docs/PROTOCOL.md")
            .lines()
            .filter_map(|line| {
                let mut cells = line.split('|').map(str::trim).skip(1);
                let code = cells.next()?.parse().ok()?;
                let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
                Some((code, name))
            })
            .collect();
        // `code()` names each variant once (rustc's exhaustiveness check and
        // its two wildcard lints), so counting its arms ties the exemplars,
        // and with them the table, to the enum itself.
        let code_body = include_str!("error.rs")
            .split("pub fn code(&self) -> u16 {")
            .nth(1)
            .and_then(|rest| rest.split("\n    }\n").next())
            .expect("error.rs defines code()");
        let exemplars = exemplars();
        assert_eq!(
            exemplars.len(),
            code_body.matches("TcbfError::").count(),
            "exemplars() needs one exemplar per variant"
        );
        let variants: Vec<(u16, &str)> = exemplars
            .iter()
            .map(|error| (error.code(), protocol_name(error)))
            .collect();
        assert_eq!(table, variants, "docs/PROTOCOL.md's error-code table");
    }

    #[test]
    fn messages_are_actionable() {
        assert!(TcbfError::MissingWeights.to_string().contains(".weights("));
        assert!(TcbfError::ZeroSamplesPerBlock
            .to_string()
            .contains(".samples_per_block("));
        let oom = TcbfError::OutOfDeviceMemory {
            shape: GemmShape::new(1, 2, 3),
            required_bytes: 100,
            available_bytes: 10,
        };
        assert!(oom.to_string().contains("shrink"));
    }
}
