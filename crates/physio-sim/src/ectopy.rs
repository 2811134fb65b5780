//! Ectopic beats (premature contractions).
//!
//! Real recordings — especially from the Fantasia elderly cohort —
//! contain occasional premature beats: a beat arrives early, followed by
//! a compensatory pause. Because SIFT keys on ECG/ABP *joint* timing, a
//! premature beat perturbs both channels coherently and should *not*
//! trigger the detector; this module provides the workload to test that
//! robustness claim.

use crate::record::{beat_train, Record};
use crate::subject::Subject;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the ectopy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EctopyParams {
    /// Expected premature beats per minute.
    pub rate_per_min: f64,
    /// How early the ectopic beat arrives, as a fraction of the running
    /// RR interval (0.3 = 30 % early).
    pub prematurity: f64,
}

impl Default for EctopyParams {
    fn default() -> Self {
        Self {
            rate_per_min: 3.0,
            prematurity: 0.35,
        }
    }
}

/// Inject premature beats into a beat-time train: selected beats move
/// earlier by `prematurity · RR`; the following beat stays put, creating
/// the classic compensatory pause.
///
/// The first and last beats are never modified, and the output remains
/// strictly increasing.
///
/// # Panics
///
/// Panics if `prematurity` is outside `(0, 0.9)`.
pub fn inject_premature_beats(
    times: &[f64],
    params: &EctopyParams,
    seed: u64,
) -> (Vec<f64>, Vec<usize>) {
    assert!(
        params.prematurity > 0.0 && params.prematurity < 0.9,
        "prematurity must lie in (0, 0.9)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = times.to_vec();
    let mut ectopic_indices = Vec::new();
    for k in 1..out.len().saturating_sub(1) {
        let rr_prev = out[k] - out[k - 1];
        // Probability that this beat is ectopic given the target rate.
        let p = (params.rate_per_min / 60.0) * rr_prev;
        if rng.gen_range(0.0..1.0) < p {
            let shifted = out[k] - params.prematurity * rr_prev;
            // Keep strict ordering with a small guard interval.
            if shifted > out[k - 1] + 0.15 {
                out[k] = shifted;
                ectopic_indices.push(k);
            }
        }
    }
    (out, ectopic_indices)
}

/// Synthesize a record whose beat train contains premature beats.
/// Returns the record and the beat indices that were ectopic.
pub fn synthesize_with_ectopy(
    subject: &Subject,
    duration_s: f64,
    seed: u64,
    params: &EctopyParams,
) -> (Record, Vec<usize>) {
    let clean = beat_train(subject, seed, duration_s);
    let (times, ectopic) = inject_premature_beats(&clean, params, seed ^ 0xEC7);
    (
        Record::synthesize_from_times(subject, &times, duration_s, seed, crate::SAMPLE_RATE_HZ),
        ectopic,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::bank;

    #[test]
    fn injection_preserves_ordering_and_count() {
        let times: Vec<f64> = (0..100).map(|k| 0.4 + 0.9 * k as f64).collect();
        let (out, ectopic) = inject_premature_beats(
            &times,
            &EctopyParams {
                rate_per_min: 10.0,
                prematurity: 0.35,
            },
            7,
        );
        assert_eq!(out.len(), times.len());
        assert!(out.windows(2).all(|w| w[1] > w[0]));
        assert!(!ectopic.is_empty(), "rate 10/min over 90 s should inject");
        // Only flagged beats moved.
        for (k, (&a, &b)) in times.iter().zip(&out).enumerate() {
            if ectopic.contains(&k) {
                assert!(b < a);
            } else {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn rate_parameter_scales_injections() {
        let times: Vec<f64> = (0..300).map(|k| 0.4 + 0.9 * k as f64).collect();
        let count = |rate: f64| {
            inject_premature_beats(
                &times,
                &EctopyParams {
                    rate_per_min: rate,
                    prematurity: 0.3,
                },
                3,
            )
            .1
            .len()
        };
        assert!(count(12.0) > 2 * count(2.0));
        assert_eq!(count(0.0), 0);
    }

    #[test]
    fn ectopic_record_stays_well_formed() {
        let b = bank();
        let (r, ectopic) = synthesize_with_ectopy(&b[0], 60.0, 5, &EctopyParams::default());
        assert!(r.r_peaks.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.ecg.len(), r.abp.len());
        assert!(!ectopic.is_empty(), "a minute at 3/min should show ectopy");
    }

    #[test]
    fn ectopy_is_coherent_across_channels() {
        // The premature beat shifts BOTH the R peak and its systolic
        // pulse — that coherence is why SIFT should tolerate it.
        let b = bank();
        let (r, _) = synthesize_with_ectopy(&b[2], 30.0, 9, &EctopyParams {
            rate_per_min: 12.0,
            prematurity: 0.35,
        });
        let lag = (b[2].abp.ptt_s * r.fs).round() as usize;
        for (&rp, &sp) in r.r_peaks.iter().zip(&r.sys_peaks) {
            assert!(sp.abs_diff(rp + lag) <= 1, "r={rp} sys={sp}");
        }
    }

    #[test]
    #[should_panic(expected = "prematurity")]
    fn bad_prematurity_panics() {
        let _ = inject_premature_beats(
            &[0.0, 1.0],
            &EctopyParams {
                rate_per_min: 1.0,
                prematurity: 0.95,
            },
            0,
        );
    }
}
