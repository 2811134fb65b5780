//! Population-scale seeded subject generation.
//!
//! The paper validates SIFT on 12 Fantasia subjects — exactly the
//! weak-validation pattern the zero-interaction-security critique warns
//! against. This module grows [`crate::subject::bank`] into a
//! parameterized generator: [`population`] samples any number of
//! synthetic subjects from the same per-cohort distributions over
//! [`EcgMorphology`]/[`AbpMorphology`]/[`RrParams`]/[`NoiseParams`]
//! fields the legacy bank used, with one subject per seeded RNG stream.
//!
//! # Legacy-bank compatibility
//!
//! `population(12, LEGACY_BANK_SEED)` reproduces the original
//! 12-subject bank **bit for bit**: same cohort split (young first),
//! same age ladders, same per-subject RNG seeds (`seed + index`), and
//! the same draw order inside `sample_subject`. `bank()` now
//! delegates here, so the equality is structural, not coincidental.

use crate::abp::AbpMorphology;
use crate::ecg::{EcgMorphology, Wave};
use crate::noise::NoiseParams;
use crate::rr::RrParams;
use crate::subject::{AgeGroup, Subject, SubjectId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The population seed that reproduces the legacy 12-subject bank
/// bit-for-bit: subject `i` draws from `StdRng::seed_from_u64(seed + i)`,
/// and this is the base the original `make_subject` used.
pub const LEGACY_BANK_SEED: u64 = 0xF0_57_00;

/// Sample a deterministic population of `n` synthetic subjects.
///
/// The first `ceil(n/2)` subjects are young (ages interpolated over
/// 21–34), the rest elderly (60–80), mirroring Fantasia's design. Every
/// subject draws its morphology, pressure profile, beat-timing process
/// and channel noise from its own RNG stream seeded `seed + index`, so
/// populations are reproducible and subjects are decorrelated.
///
/// `population(12, LEGACY_BANK_SEED)` equals `subject::bank()` exactly.
pub fn population(n: usize, seed: u64) -> Vec<Subject> {
    let young = n - n / 2;
    let elderly = n / 2;
    let mut subjects = Vec::with_capacity(n);
    for j in 0..young {
        let age = cohort_age(young, j, AgeGroup::Young);
        subjects.push(sample_subject(j, j, age, AgeGroup::Young, seed));
    }
    for j in 0..elderly {
        let age = cohort_age(elderly, j, AgeGroup::Elderly);
        subjects.push(sample_subject(young + j, j, age, AgeGroup::Elderly, seed));
    }
    subjects
}

/// Age of cohort member `j` out of `len`: integer interpolation over the
/// cohort's range (young 21–34, elderly 60–80). For `len == 6` this
/// reproduces the legacy ladders `[21, 23, 26, 28, 31, 34]` and
/// `[60, 64, 68, 72, 76, 80]` exactly.
fn cohort_age(len: usize, j: usize, group: AgeGroup) -> u32 {
    let (lo, span) = match group {
        AgeGroup::Young => (21u32, 13u32),
        AgeGroup::Elderly => (60u32, 20u32),
    };
    if len <= 1 {
        lo + span / 2
    } else {
        lo + (span * j as u32) / (len as u32 - 1)
    }
}

/// Construct subject `index` (cohort member `cohort_index`) from the
/// population stream seeded at `seed`.
///
/// Parameters are drawn from physiologically motivated ranges with a
/// per-subject RNG; elderly subjects get lower heart-rate variability,
/// higher systolic pressure, flatter T waves and longer pulse-transit
/// times, consistent with the cardiovascular-aging literature. The draw
/// order is frozen: it is what makes the legacy bank reproducible.
fn sample_subject(
    index: usize,
    cohort_index: usize,
    age: u32,
    group: AgeGroup,
    seed: u64,
) -> Subject {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(index as u64));
    let elderly = matches!(group, AgeGroup::Elderly);

    let mean_hr_bpm = if elderly {
        rng.gen_range(57.0..67.0)
    } else {
        rng.gen_range(59.0..70.0)
    };
    let rsa_depth = if elderly {
        rng.gen_range(0.015..0.04)
    } else {
        rng.gen_range(0.05..0.12)
    };
    let drift_sigma = if elderly {
        rng.gen_range(0.004..0.010)
    } else {
        rng.gen_range(0.008..0.018)
    };

    let base = EcgMorphology::default();
    let ecg = EcgMorphology {
        p: Wave {
            amplitude_mv: base.p.amplitude_mv * rng.gen_range(0.8..1.2),
            offset_s: base.p.offset_s * rng.gen_range(0.94..1.06),
            width_s: base.p.width_s * rng.gen_range(0.9..1.12),
        },
        q: Wave {
            amplitude_mv: base.q.amplitude_mv * rng.gen_range(0.75..1.25),
            offset_s: base.q.offset_s * rng.gen_range(0.94..1.06),
            width_s: base.q.width_s * rng.gen_range(0.92..1.1),
        },
        r: Wave {
            amplitude_mv: base.r.amplitude_mv * rng.gen_range(0.88..1.14),
            offset_s: 0.0,
            width_s: base.r.width_s * rng.gen_range(0.9..1.12),
        },
        s: Wave {
            amplitude_mv: base.s.amplitude_mv * rng.gen_range(0.75..1.25),
            offset_s: base.s.offset_s * rng.gen_range(0.94..1.06),
            width_s: base.s.width_s * rng.gen_range(0.92..1.1),
        },
        t: Wave {
            amplitude_mv: base.t.amplitude_mv
                * if elderly {
                    rng.gen_range(0.7..0.95)
                } else {
                    rng.gen_range(0.92..1.2)
                },
            offset_s: base.t.offset_s * rng.gen_range(0.94..1.07),
            width_s: base.t.width_s * rng.gen_range(0.9..1.15),
        },
    };

    let systolic = if elderly {
        rng.gen_range(122.0..140.0)
    } else {
        rng.gen_range(108.0..126.0)
    };
    let diastolic = systolic - rng.gen_range(38.0..50.0);
    let abp = AbpMorphology {
        systolic_mmhg: systolic,
        diastolic_mmhg: diastolic,
        ptt_s: if elderly {
            rng.gen_range(0.20..0.27)
        } else {
            rng.gen_range(0.17..0.23)
        },
        rise_s: rng.gen_range(0.08..0.10),
        decay_s: rng.gen_range(0.30..0.40),
        notch_frac: rng.gen_range(0.08..0.15),
        notch_delay_s: rng.gen_range(0.20..0.25),
    };

    let rr = RrParams {
        mean_hr_bpm,
        rsa_depth,
        breath_hz: rng.gen_range(0.18..0.30),
        drift_sigma,
        drift_pole: rng.gen_range(0.90..0.97),
    };

    let ecg_noise = NoiseParams {
        white_sigma: rng.gen_range(0.015..0.03),
        wander_amp: rng.gen_range(0.05..0.11),
        wander_hz: rr.breath_hz,
        hum_amp: rng.gen_range(0.004..0.01),
        hum_hz: 60.0,
    };
    // ABP noise in mmHg: white noise plus respiratory modulation.
    let abp_noise = NoiseParams {
        white_sigma: rng.gen_range(0.6..1.4),
        wander_amp: rng.gen_range(1.5..3.5),
        wander_hz: rr.breath_hz,
        hum_amp: 0.0,
        hum_hz: 60.0,
    };

    let name = if elderly {
        format!("f1o{:02}", cohort_index + 1)
    } else {
        format!("f1y{:02}", cohort_index + 1)
    };

    Subject {
        id: SubjectId(index),
        name,
        age,
        group,
        ecg,
        abp,
        rr,
        ecg_noise,
        abp_noise,
    }
}

/// Parameter-space distance between two subjects, used for
/// morphology-fitted donor selection (mimicry attacks pick the donor
/// whose waveform parameters sit closest to the victim's).
///
/// Each term is a squared difference scaled by a fixed, physiologically
/// typical spread, so no single field dominates: ECG wave amplitudes
/// (0.1 mV), offsets and widths (10 ms), mean heart rate (5 bpm), RSA
/// depth (0.03), systolic pressure (10 mmHg) and pulse-transit time
/// (30 ms). Pure and symmetric; `morphology_distance(a, a) == 0`.
pub fn morphology_distance(a: &Subject, b: &Subject) -> f64 {
    let mut d2 = 0.0f64;
    let waves = |m: &EcgMorphology| [m.p, m.q, m.r, m.s, m.t];
    for (wa, wb) in waves(&a.ecg).iter().zip(waves(&b.ecg).iter()) {
        d2 += ((wa.amplitude_mv - wb.amplitude_mv) / 0.1).powi(2);
        d2 += ((wa.offset_s - wb.offset_s) / 0.01).powi(2);
        d2 += ((wa.width_s - wb.width_s) / 0.01).powi(2);
    }
    d2 += ((a.rr.mean_hr_bpm - b.rr.mean_hr_bpm) / 5.0).powi(2);
    d2 += ((a.rr.rsa_depth - b.rr.rsa_depth) / 0.03).powi(2);
    d2 += ((a.abp.systolic_mmhg - b.abp.systolic_mmhg) / 10.0).powi(2);
    d2 += ((a.abp.ptt_s - b.abp.ptt_s) / 0.03).powi(2);
    d2.sqrt()
}

/// Index of the subject closest to `victim` under
/// [`morphology_distance`], excluding the victim itself. Ties break to
/// the lowest index; `None` when the population has no other subject.
pub fn nearest_neighbor(subjects: &[Subject], victim: usize) -> Option<usize> {
    let target = subjects.get(victim)?;
    let mut best: Option<(usize, f64)> = None;
    for (i, s) in subjects.iter().enumerate() {
        if i == victim {
            continue;
        }
        let d = morphology_distance(target, s);
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::bank;

    #[test]
    fn legacy_bank_is_a_special_case_bit_for_bit() {
        assert_eq!(population(12, LEGACY_BANK_SEED), bank());
    }

    #[test]
    fn population_is_deterministic_and_seed_sensitive() {
        let a = population(50, 7);
        assert_eq!(a, population(50, 7));
        let b = population(50, 8);
        assert_eq!(a.len(), 50);
        assert!(a != b, "different seeds must move the population");
    }

    #[test]
    fn cohort_split_and_ages() {
        let p = population(13, 1);
        assert_eq!(
            p.iter().filter(|s| s.group == AgeGroup::Young).count(),
            7,
            "young cohort takes the ceiling of an odd split"
        );
        for s in &p {
            match s.group {
                AgeGroup::Young => assert!((21..=34).contains(&s.age), "{}", s.age),
                AgeGroup::Elderly => assert!((60..=80).contains(&s.age), "{}", s.age),
            }
        }
        // Legacy age ladders come out of the interpolation exactly.
        let ages: Vec<u32> = population(12, 0).iter().map(|s| s.age).collect();
        assert_eq!(ages, [21, 23, 26, 28, 31, 34, 60, 64, 68, 72, 76, 80]);
        // Degenerate cohorts land mid-range.
        assert_eq!(population(1, 0)[0].age, 27);
    }

    #[test]
    fn large_population_has_unique_ids_and_names() {
        let p = population(1000, 0xCA11);
        let mut names: Vec<&str> = p.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 1000);
        for (i, s) in p.iter().enumerate() {
            assert_eq!(s.id, SubjectId(i));
        }
    }

    #[test]
    fn distance_is_a_premetric() {
        let p = population(20, 3);
        assert_eq!(morphology_distance(&p[0], &p[0]), 0.0);
        let d01 = morphology_distance(&p[0], &p[1]);
        assert!(d01 > 0.0);
        assert_eq!(d01, morphology_distance(&p[1], &p[0]));
    }

    #[test]
    fn nearest_neighbor_excludes_the_victim() {
        let p = population(30, 9);
        for v in 0..p.len() {
            let n = nearest_neighbor(&p, v).unwrap();
            assert_ne!(n, v);
        }
        assert_eq!(nearest_neighbor(&p[..1], 0), None);
        assert_eq!(nearest_neighbor(&p, 999), None);
    }
}
