//! Property suites for the Tsetlin machine backend: integer-only
//! clause logic, vote bounds, training idempotence, and the codec's
//! size formula and version byte.
//!
//! Codec fuzzing (truncation, bit flips, arbitrary bytes) lives in the
//! workspace's one mutation harness, `tests/decoder_mutations.rs`,
//! which runs the same mutations against every CRC-guarded decoder.

use ml::tsetlin::{
    encoded_len, f32_key, TsetlinModel, TsetlinTrainer, MAGIC, MAX_CLAUSE_PAIRS, MAX_FEATURES,
    THRESHOLDS_PER_FEATURE,
};
use ml::{DetectorBackend, Label, MlError};
use proptest::prelude::*;

/// A small labeled training set with both classes present: `dim`
/// features per row, cluster centers far enough apart that training
/// has something to latch onto, jitter from the case's own values.
fn training_set(dim: usize) -> impl Strategy<Value = (Vec<f32>, Vec<Label>)> {
    prop::collection::vec((prop::collection::vec(-1.0f32..1.0, dim), any::<bool>()), 8..24).prop_map(
        move |points| {
            let mut rows = Vec::with_capacity(points.len() * dim);
            let mut labels = Vec::with_capacity(points.len() + 2);
            for (jitter, pos) in &points {
                let center = if *pos { 3.0 } else { -3.0 };
                rows.extend(jitter.iter().map(|j| center + j));
                labels.push(if *pos { Label::Positive } else { Label::Negative });
            }
            // Guarantee both classes regardless of the drawn booleans.
            rows.extend(std::iter::repeat_n(3.5, dim));
            labels.push(Label::Positive);
            rows.extend(std::iter::repeat_n(-3.5, dim));
            labels.push(Label::Negative);
            (rows, labels)
        },
    )
}

fn trainer(pairs: u32, seed: u64) -> TsetlinTrainer {
    TsetlinTrainer {
        pairs,
        epochs: 8,
        seed,
        ..TsetlinTrainer::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The total-order key is exactly order-preserving over finite
    /// floats: compare keys ⇔ compare floats.
    #[test]
    fn f32_key_is_order_isomorphic(a in -1.0e30f32..1.0e30, b in -1.0e30f32..1.0e30) {
        prop_assert_eq!(a.partial_cmp(&b), Some(f32_key(a).cmp(&f32_key(b))));
    }

    /// Training twice from the same seed yields byte-identical models;
    /// re-fitting the produced model's own training set again (same
    /// seed) is idempotent too.
    #[test]
    fn training_is_idempotent_at_fixed_seed(
        set in training_set(3),
        seed in 0u64..1000,
        pairs in 1u32..=8,
    ) {
        let (rows, labels) = set;
        let t = trainer(pairs, seed);
        let a = t.fit(3, &rows, &labels).unwrap();
        let b = t.fit(3, &rows, &labels).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.encode(), b.encode());
    }

    /// Clause votes are bounded by ±pairs for *any* literal bitmap, and
    /// the f32 score surface is exactly the widened integer vote — the
    /// backend introduces no float arithmetic of its own.
    #[test]
    fn vote_is_bounded_and_score_is_integral(
        set in training_set(4),
        bits in any::<u64>(),
        probe in prop::collection::vec(-1.0e6f32..1.0e6, 4),
    ) {
        let (rows, labels) = set;
        let model = trainer(6, 5).fit(4, &rows, &labels).unwrap();
        let v = model.vote(bits);
        prop_assert!(v.abs() <= model.pairs() as i32, "vote {v} exceeds ±{}", model.pairs());
        let score = model.score_f32(&probe);
        prop_assert_eq!(score, score.trunc(), "score {} is not an integer vote", score);
        prop_assert!(score.abs() <= model.pairs() as f32);
        // Booleanization sets exactly one of literal/negation per
        // (feature, threshold): a fixed popcount, all integer.
        let popcount = model.booleanize(&probe).count_ones() as usize;
        prop_assert_eq!(popcount, model.dim() * THRESHOLDS_PER_FEATURE);
    }
}

/// The encoded-size formula is exact and strictly monotone in both
/// shape knobs across the whole supported range.
#[test]
fn encoded_len_is_monotone_in_both_knobs() {
    for dim in 1..=MAX_FEATURES {
        for pairs in 1..=MAX_CLAUSE_PAIRS {
            if dim > 1 {
                assert!(encoded_len(dim, pairs) > encoded_len(dim - 1, pairs));
            }
            if pairs > 1 {
                assert!(encoded_len(dim, pairs) > encoded_len(dim, pairs - 1));
            }
        }
    }
}

/// A foreign format version is the one corruption with its own typed
/// variant, so flash images from a future build are distinguishable
/// from rot.
#[test]
fn foreign_format_version_is_its_own_error() {
    let rows: Vec<f32> = (0..30).map(|i| if i % 2 == 0 { 2.0 } else { -2.0 }).collect();
    let labels: Vec<Label> = (0..10)
        .map(|i| if i % 2 == 0 { Label::Positive } else { Label::Negative })
        .collect();
    let model = trainer(2, 3).fit(3, &rows, &labels).unwrap();
    let mut blob = model.encode();
    blob[MAGIC.len()] = 200;
    assert_eq!(
        TsetlinModel::decode(&blob),
        Err(MlError::UnsupportedModelVersion { found: 200 })
    );
}
