//! Property-based tests for the physiological-signal substrate.

use physio_sim::dataset::{sliding_windows, windows};
use physio_sim::noise::NoiseParams;
use physio_sim::population::population;
use physio_sim::record::Record;
use physio_sim::subject::Subject;
use physio_sim::rr::{RrParams, RrProcess};
use physio_sim::subject::bank;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rr_intervals_always_physiologic(
        hr in 30.0f64..150.0,
        rsa in 0.0f64..0.3,
        sigma in 0.0f64..0.05,
        seed in any::<u64>(),
    ) {
        let params = RrParams {
            mean_hr_bpm: hr,
            rsa_depth: rsa,
            drift_sigma: sigma,
            ..RrParams::default()
        };
        let mut p = RrProcess::new(params, seed);
        for _ in 0..200 {
            let rr = p.next_rr();
            prop_assert!((0.4..=2.0).contains(&rr));
        }
    }

    #[test]
    fn beat_times_strictly_increasing(seed in any::<u64>(), duration in 5.0f64..60.0) {
        let mut p = RrProcess::new(RrParams::default(), seed);
        let times = p.beat_times(0.4, duration);
        for w in times.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        prop_assert!(*times.last().unwrap() > duration);
    }

    #[test]
    fn record_peaks_always_sorted_in_range(subject in 0usize..12, seed in any::<u64>(), secs in 3.0f64..30.0) {
        let b = bank();
        let r = Record::synthesize(&b[subject], secs, seed);
        prop_assert_eq!(r.ecg.len(), r.abp.len());
        prop_assert!(r.r_peaks.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(r.sys_peaks.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(r.r_peaks.iter().all(|&p| p < r.len()));
        prop_assert!(r.sys_peaks.iter().all(|&p| p < r.len()));
        prop_assert!(r.ecg.iter().all(|v| v.is_finite()));
        prop_assert!(r.abp.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn windows_tile_without_overlap(subject in 0usize..12, seed in any::<u64>()) {
        let b = bank();
        let r = Record::synthesize(&b[subject], 24.0, seed);
        let ws = windows(&r, 3.0).unwrap();
        prop_assert_eq!(ws.len(), 8);
        let mut reassembled = Vec::new();
        for w in &ws {
            prop_assert_eq!(w.len(), 1080);
            reassembled.extend_from_slice(&w.ecg);
        }
        prop_assert_eq!(&reassembled[..], &r.ecg[..reassembled.len()]);
    }

    #[test]
    fn sliding_windows_count_formula(step_ds in 1u32..30, seed in any::<u64>()) {
        let b = bank();
        let r = Record::synthesize(&b[0], 12.0, seed);
        let step_s = step_ds as f64 / 10.0;
        let ws = sliding_windows(&r, 3.0, step_s).unwrap();
        let wlen = 1080usize;
        let step = ((step_s * r.fs).round() as usize).max(1);
        let expect = if r.len() >= wlen { (r.len() - wlen) / step + 1 } else { 0 };
        prop_assert_eq!(ws.len(), expect);
    }

    #[test]
    fn slice_is_consistent_with_original(seed in any::<u64>(), a in 0usize..3000, len in 1usize..2000) {
        let b = bank();
        let r = Record::synthesize(&b[1], 15.0, seed);
        let start = a.min(r.len() - 1);
        let end = (start + len).min(r.len());
        let s = r.slice(start, end);
        prop_assert_eq!(&s.ecg[..], &r.ecg[start..end]);
        prop_assert_eq!(&s.abp[..], &r.abp[start..end]);
        for &p in &s.r_peaks {
            prop_assert!(r.r_peaks.contains(&(p + start)));
        }
    }
}

/// The sample range a case asks for, from a `shape` selector and two
/// session fractions: empty, the whole session, ranges ending at `n`,
/// ranges running past `n` (partly or wholly), and arbitrary ones.
fn case_range(shape: u8, a: f64, b: f64, n: usize) -> std::ops::Range<usize> {
    let at = |f: f64| (f * n as f64) as usize;
    let (lo, hi) = (at(a.min(b)), at(a.max(b)));
    match shape {
        0 => lo..lo,
        1 => 0..n,
        2 => lo..n,
        3 => lo..n + 1 + hi,
        4 => n + lo..n + 1 + hi + lo,
        _ => lo..hi,
    }
}

/// `Record::ecg_span` against the whole record it stands in for: the
/// span holds exactly `synthesize(..).ecg[range]` (clamped to the
/// session), bit for bit, and exactly the R peaks inside it.
fn check_span(
    subject: &Subject,
    secs: f64,
    seed: u64,
    range: std::ops::Range<usize>,
) {
    let whole = Record::synthesize(subject, secs, seed);
    let span = Record::ecg_span(subject, secs, seed, range.clone());
    let n = whole.len();
    let (lo, hi) = (range.start.min(n), range.end.min(n).max(range.start.min(n)));
    prop_assert_eq!(span.session_len(), n);
    prop_assert_eq!(span.range(), lo..hi);
    let (samples, peaks) = span.read(lo, hi - lo);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(samples), bits(&whole.ecg[lo..hi]));
    let expected: Vec<usize> = whole
        .r_peaks
        .iter()
        .filter(|&&p| (lo..hi).contains(&p))
        .map(|&p| p - lo)
        .collect();
    prop_assert_eq!(peaks.collect::<Vec<_>>(), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ecg_span_is_the_record_ecg_bit_for_bit(
        cohort_seed in any::<u64>(),
        subject in 0usize..32,
        seed in any::<u64>(),
        secs in 1.0f64..60.0,
        shape in 0u8..6,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let subjects = population(32, cohort_seed);
        let n = Record::synthesize(&subjects[subject], secs, seed).len();
        check_span(&subjects[subject], secs, seed, case_range(shape, a, b, n));
    }

    /// With the noise silenced no per-sample draw happens, so a span
    /// must not advance the stream for the samples before it either.
    #[test]
    fn ecg_span_of_a_noiseless_subject_skips_no_draw(
        subject in 0usize..12,
        seed in any::<u64>(),
        shape in 0u8..6,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let mut quiet = bank()[subject].clone();
        quiet.ecg_noise = NoiseParams::none();
        let n = Record::synthesize(&quiet, 20.0, seed).len();
        check_span(&quiet, 20.0, seed, case_range(shape, a, b, n));
    }
}
