//! Tuning knobs of the UniClean pipeline.

use std::num::NonZeroUsize;

use crate::error::ConfigError;

/// Thresholds and limits for the three cleaning phases.
///
/// Paper defaults (§8, "Experimental Setting" / "Experimental Results"): the
/// confidence threshold was 1.0 and the entropy threshold 0.8 in the
/// evaluation.
#[derive(Clone, Debug)]
pub struct CleanConfig {
    /// Confidence threshold `η`: a cell is *asserted* (assumed correct) when
    /// `cf ≥ η`; deterministic fixes only fire from fully asserted premises
    /// (§5.1).
    pub eta: f64,
    /// Update threshold `δ1`: `eRepair` stops touching a cell once it has
    /// been changed this many times ("not often changed by rules that may
    /// not converge on its value", §6.2).
    pub delta_update: usize,
    /// Entropy threshold `δ2`: a variable-CFD conflict set is resolved only
    /// when `H(ϕ|Y=ȳ) < δ2` (§6.2).
    pub delta_entropy: f64,
    /// Safety cap on `eRepair` outer rounds (the δ1 counters already bound
    /// the work; this guards against pathological rule sets).
    pub max_erepair_rounds: usize,
    /// Safety cap on `hRepair` resolution rounds (termination is guaranteed
    /// by the ␣→const→null upgrade order, §7; this is a backstop).
    pub max_hrepair_rounds: usize,
    /// Worker threads for the parallel phase internals (MD premise
    /// verification, 2-in-1 structure construction). `None` uses every
    /// available core; `1` runs the phases exactly as the single-threaded
    /// path does. Output is bit-identical for every setting — see the
    /// chunk–merge–apply design in [`crate::parallel`].
    pub parallelism: Option<NonZeroUsize>,
    /// Ignored: the engine never reads it. The columnar store is
    /// symbol-native, so every index and group key is keyed by interned
    /// symbols. Only the benchmark harness (`benchmark/src/batch.rs`) reads
    /// it, to pass on to
    /// [`MasterIndex::build_parallel`](crate::MasterIndex::build_parallel) and
    /// [`TwoInOne::build_with`](crate::two_in_one::TwoInOne::build_with),
    /// which ignore it too.
    pub interning: bool,
}

impl Default for CleanConfig {
    fn default() -> Self {
        CleanConfig {
            eta: 1.0,
            delta_update: 2,
            delta_entropy: 0.8,
            max_erepair_rounds: 10,
            max_hrepair_rounds: 50,
            parallelism: None,
            interning: true,
        }
    }
}

impl CleanConfig {
    /// The worker count the phases will actually use: the
    /// [`parallelism`](Self::parallelism) knob, or all available cores.
    pub fn effective_parallelism(&self) -> usize {
        crate::parallel::effective_parallelism(self.parallelism)
    }

    /// Validate thresholds and limits; [`crate::CleanerBuilder::build`]
    /// runs this before any cleaning can start.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [("eta", self.eta), ("delta_entropy", self.delta_entropy)] {
            if !value.is_finite() {
                return Err(ConfigError::NonFinite { field, value });
            }
            if !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::OutOfRange { field, value });
            }
        }
        for (field, value) in [
            ("max_erepair_rounds", self.max_erepair_rounds),
            ("max_hrepair_rounds", self.max_hrepair_rounds),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroLimit { field });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CleanConfig::default();
        assert_eq!(c.eta, 1.0);
        assert_eq!(c.delta_entropy, 0.8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn out_of_range_thresholds_rejected() {
        let c = CleanConfig {
            eta: 1.5,
            ..CleanConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "eta",
                value: 1.5
            })
        );
        let c = CleanConfig {
            delta_entropy: -0.1,
            ..CleanConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "delta_entropy",
                value: -0.1
            })
        );
    }

    #[test]
    fn non_finite_thresholds_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let c = CleanConfig {
                eta: bad,
                ..CleanConfig::default()
            };
            assert!(
                matches!(
                    c.validate(),
                    Err(ConfigError::NonFinite { field: "eta", .. })
                ),
                "{bad}"
            );
            let c = CleanConfig {
                delta_entropy: bad,
                ..CleanConfig::default()
            };
            assert!(
                matches!(
                    c.validate(),
                    Err(ConfigError::NonFinite {
                        field: "delta_entropy",
                        ..
                    })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn zero_round_caps_rejected() {
        let c = CleanConfig {
            max_erepair_rounds: 0,
            ..CleanConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroLimit {
                field: "max_erepair_rounds"
            })
        );
        let c = CleanConfig {
            max_hrepair_rounds: 0,
            ..CleanConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroLimit {
                field: "max_hrepair_rounds"
            })
        );
    }
}
