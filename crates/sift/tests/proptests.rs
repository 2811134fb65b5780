//! Property-based tests for the SIFT core: portrait/grid invariants,
//! feature well-formedness, and attack-set construction.

use ml::Label;
use proptest::prelude::*;
use sift::config::SiftConfig;
use sift::features::{extract, Version};
use sift::flavor::extract_amulet_f32;
use sift::portrait::{GridMatrix, Portrait};
use sift::snippet::Snippet;

/// Strategy: a random but structurally valid snippet (non-constant
/// channels, sorted in-range peaks).
#[allow(clippy::expect_used)] // test helper outside any #[test] fn
fn snippet_strategy() -> impl Strategy<Value = Snippet> {
    (20usize..400, any::<u64>()).prop_map(|(len, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let ecg: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let abp: Vec<f64> = (0..len).map(|_| rng.gen_range(60.0..130.0)).collect();
        let mut r_peaks: Vec<usize> = (0..rng.gen_range(0..6)).map(|_| rng.gen_range(0..len)).collect();
        r_peaks.sort_unstable();
        r_peaks.dedup();
        let mut sys_peaks: Vec<usize> = (0..rng.gen_range(0..6)).map(|_| rng.gen_range(0..len)).collect();
        sys_peaks.sort_unstable();
        sys_peaks.dedup();
        Snippet::new(ecg, abp, r_peaks, sys_peaks).expect("constructed valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn portrait_points_in_unit_square(sn in snippet_strategy()) {
        let p = Portrait::from_snippet(&sn).unwrap();
        for &(x, y) in p.points() {
            prop_assert!((0.0..=1.0).contains(&x));
            prop_assert!((0.0..=1.0).contains(&y));
        }
        prop_assert_eq!(p.len(), sn.len());
    }

    #[test]
    fn grid_conserves_mass_for_any_n(sn in snippet_strategy(), n in 2usize..80) {
        let p = Portrait::from_snippet(&sn).unwrap();
        let g = GridMatrix::from_portrait(&p, n).unwrap();
        let total: u32 = (0..n).flat_map(|r| (0..n).map(move |c| (r, c)))
            .map(|(r, c)| g.count(r, c))
            .sum();
        prop_assert_eq!(total, sn.len() as u32);
        prop_assert_eq!(g.total(), sn.len() as u32);
    }

    #[test]
    fn features_are_finite_for_all_versions(sn in snippet_strategy()) {
        let cfg = SiftConfig::default();
        for v in Version::ALL {
            let f = extract(v, &sn, &cfg).unwrap();
            prop_assert_eq!(f.len(), v.feature_count());
            prop_assert!(f.iter().all(|x| x.is_finite()), "{}: {:?}", v, f);
        }
    }

    #[test]
    fn amulet_features_finite_and_close(sn in snippet_strategy()) {
        let cfg = SiftConfig::default();
        for v in Version::ALL {
            let amulet = extract_amulet_f32(v, &sn, &cfg).unwrap();
            prop_assert!(amulet.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn features_invariant_to_affine_channel_scaling(
        sn in snippet_strategy(),
        gain in 0.1f64..10.0,
        offset in -5.0f64..5.0,
    ) {
        // Min–max normalization makes the portrait invariant to per-
        // channel affine rescaling — the property that lets the detector
        // survive amplifier gain differences.
        let cfg = SiftConfig::default();
        let scaled = Snippet::new(
            sn.ecg.iter().map(|&v| gain * v + offset).collect(),
            sn.abp.clone(),
            sn.r_peaks.clone(),
            sn.sys_peaks.clone(),
        ).unwrap();
        let f1 = extract(Version::Simplified, &sn, &cfg).unwrap();
        let f2 = extract(Version::Simplified, &scaled, &cfg).unwrap();
        for (a, b) in f1.iter().zip(&f2) {
            prop_assert!((a - b).abs() < 1e-6 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn paired_peaks_are_causal_and_unique(sn in snippet_strategy()) {
        let pairs = sn.paired_peaks();
        for w in pairs.windows(2) {
            prop_assert!(w[1].0 > w[0].0);
            prop_assert!(w[1].1 > w[0].1);
        }
        for (r, s) in &pairs {
            prop_assert!(s >= r);
        }
        prop_assert!(pairs.len() <= sn.r_peaks.len());
        prop_assert!(pairs.len() <= sn.sys_peaks.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn substitution_set_fraction_respected(frac_pct in 0u32..=100, seed in any::<u64>()) {
        use physio_sim::record::Record;
        use physio_sim::subject::bank;
        let b = bank();
        let victim = Record::synthesize(&b[0], 30.0, 1);
        let donor = Record::synthesize(&b[1], 30.0, 2);
        let frac = frac_pct as f64 / 100.0;
        let set = sift::attack::substitution_test_set(&victim, &donor, 3.0, frac, seed).unwrap();
        prop_assert_eq!(set.len(), 10);
        let positives = set.iter().filter(|w| w.truth == Label::Positive).count();
        prop_assert_eq!(positives, (frac * 10.0).round() as usize);
    }
}
