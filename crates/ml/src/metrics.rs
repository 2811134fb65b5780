//! Detection metrics, using exactly the paper's definitions (§IV):
//!
//! * **false-positive rate** — fraction of *unaltered* measurements
//!   misclassified as altered: `FP / (FP + TN)`,
//! * **false-negative rate** — fraction of *altered* measurements
//!   misclassified as unaltered: `FN / (FN + TP)`,
//! * **accuracy** — fraction classified correctly,
//! * **F1** — harmonic mean of precision and recall (paper's footnote 1).

use crate::{Dataset, Label};

/// 2×2 confusion matrix for the positive = *altered* convention.
///
/// # Examples
///
/// ```
/// use ml::metrics::ConfusionMatrix;
/// use ml::Label;
///
/// let mut m = ConfusionMatrix::default();
/// m.record(Label::Positive, Label::Positive); // attack caught
/// m.record(Label::Negative, Label::Positive); // false alarm
/// assert_eq!(m.accuracy(), Some(0.5));
/// assert_eq!(m.false_positive_rate(), Some(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Altered, classified altered.
    pub tp: usize,
    /// Unaltered, classified altered.
    pub fp: usize,
    /// Unaltered, classified unaltered.
    pub tn: usize,
    /// Altered, classified unaltered.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Record one observation.
    pub fn record(&mut self, truth: Label, predicted: Label) {
        match (truth, predicted) {
            (Label::Positive, Label::Positive) => self.tp += 1,
            (Label::Negative, Label::Positive) => self.fp += 1,
            (Label::Negative, Label::Negative) => self.tn += 1,
            (Label::Positive, Label::Negative) => self.fn_ += 1,
        }
    }

    /// Merge another matrix into this one (used to average subjects).
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Paper's false-positive rate: `FP / (FP + TN)`. `None` when there
    /// were no negatives.
    pub fn false_positive_rate(&self) -> Option<f64> {
        let denom = self.fp + self.tn;
        (denom > 0).then(|| self.fp as f64 / denom as f64)
    }

    /// Paper's false-negative rate: `FN / (FN + TP)`. `None` when there
    /// were no positives.
    pub fn false_negative_rate(&self) -> Option<f64> {
        let denom = self.fn_ + self.tp;
        (denom > 0).then(|| self.fn_ as f64 / denom as f64)
    }

    /// Accuracy: `(TP + TN) / total`. `None` for an empty matrix.
    pub fn accuracy(&self) -> Option<f64> {
        let total = self.total();
        (total > 0).then(|| (self.tp + self.tn) as f64 / total as f64)
    }

    /// Precision: `TP / (TP + FP)`. `None` when nothing was classified
    /// positive.
    pub fn precision(&self) -> Option<f64> {
        let denom = self.tp + self.fp;
        (denom > 0).then(|| self.tp as f64 / denom as f64)
    }

    /// Recall (sensitivity): `TP / (TP + FN)`. `None` with no positives.
    pub fn recall(&self) -> Option<f64> {
        let denom = self.tp + self.fn_;
        (denom > 0).then(|| self.tp as f64 / denom as f64)
    }

    /// F1 score: harmonic mean of precision and recall. `None` when
    /// either is undefined or both are zero.
    pub fn f1(&self) -> Option<f64> {
        let p = self.precision()?;
        let r = self.recall()?;
        if p + r == 0.0 {
            return None;
        }
        Some(2.0 * p * r / (p + r))
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tp={} fp={} tn={} fn={}",
            self.tp, self.fp, self.tn, self.fn_
        )
    }
}

/// Evaluate a classifier over a labeled dataset.
pub fn evaluate<C: crate::Classifier + ?Sized>(model: &C, data: &Dataset) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::default();
    for (x, y) in data.iter() {
        m.record(y, model.predict(x));
    }
    m
}

/// Area under the ROC curve from `(score, truth)` pairs, by the
/// Mann–Whitney statistic (ties count half). Returns `None` when either
/// class is absent.
pub fn roc_auc(scored: &[(f64, Label)]) -> Option<f64> {
    let pos: Vec<f64> = scored
        .iter()
        .filter(|(_, y)| *y == Label::Positive)
        .map(|(s, _)| *s)
        .collect();
    let neg: Vec<f64> = scored
        .iter()
        .filter(|(_, y)| *y == Label::Negative)
        .map(|(s, _)| *s)
        .collect();
    if pos.is_empty() || neg.is_empty() {
        return None;
    }
    let mut wins = 0.0f64;
    for p in &pos {
        for n in &neg {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    Some(wins / (pos.len() * neg.len()) as f64)
}

/// One point of an ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// False-positive rate at the threshold.
    pub fpr: f64,
    /// True-positive rate at the threshold.
    pub tpr: f64,
}

/// The full ROC curve from `(score, truth)` pairs: one point per unique
/// score threshold, ordered from the most permissive (fpr = tpr = 1) to
/// the most conservative (fpr = tpr = 0). Returns `None` when either
/// class is absent.
pub fn roc_curve(scored: &[(f64, Label)]) -> Option<Vec<RocPoint>> {
    let n_pos = scored.iter().filter(|(_, y)| *y == Label::Positive).count();
    let n_neg = scored.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    let mut sorted: Vec<(f64, Label)> = scored.to_vec();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut points = Vec::with_capacity(sorted.len() + 1);
    // Threshold below the minimum: everything classified positive.
    points.push(RocPoint {
        threshold: f64::NEG_INFINITY,
        fpr: 1.0,
        tpr: 1.0,
    });
    let (mut tp, mut fp) = (n_pos, n_neg);
    let mut i = 0;
    while i < sorted.len() {
        let t = sorted[i].0;
        // Raise the threshold past every sample scoring exactly `t`.
        while i < sorted.len() && sorted[i].0 == t {
            match sorted[i].1 {
                Label::Positive => tp -= 1,
                Label::Negative => fp -= 1,
            }
            i += 1;
        }
        points.push(RocPoint {
            threshold: t,
            fpr: fp as f64 / n_neg as f64,
            tpr: tp as f64 / n_pos as f64,
        });
    }
    Some(points)
}

/// The point of `curve` whose FP rate does not exceed `max_fpr` with
/// the highest TP rate. Returns `None` if no point qualifies.
pub fn threshold_for_fpr(curve: &[RocPoint], max_fpr: f64) -> Option<RocPoint> {
    curve
        .iter()
        .filter(|p| p.fpr <= max_fpr)
        .max_by(|a, b| {
            a.tpr
                .partial_cmp(&b.tpr)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .copied()
}

/// Averages of the four Table II metrics over a set of per-subject
/// confusion matrices (the paper reports per-subject averages).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AveragedMetrics {
    /// Mean false-positive rate.
    pub fp_rate: f64,
    /// Mean false-negative rate.
    pub fn_rate: f64,
    /// Mean accuracy.
    pub accuracy: f64,
    /// Mean F1.
    pub f1: f64,
}

impl AveragedMetrics {
    /// Average the metrics of `matrices`, skipping undefined entries.
    /// Returns `None` if the slice is empty.
    pub fn from_matrices(matrices: &[ConfusionMatrix]) -> Option<Self> {
        if matrices.is_empty() {
            return None;
        }
        let avg = |f: fn(&ConfusionMatrix) -> Option<f64>| -> f64 {
            let vals: Vec<f64> = matrices.iter().filter_map(f).collect();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        Some(Self {
            fp_rate: avg(ConfusionMatrix::false_positive_rate),
            fn_rate: avg(ConfusionMatrix::false_negative_rate),
            accuracy: avg(ConfusionMatrix::accuracy),
            f1: avg(ConfusionMatrix::f1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        ConfusionMatrix {
            tp: 8,
            fp: 2,
            tn: 18,
            fn_: 4,
        }
    }

    #[test]
    fn rates_match_paper_definitions() {
        let m = sample();
        assert!((m.false_positive_rate().unwrap() - 0.1).abs() < 1e-12);
        assert!((m.false_negative_rate().unwrap() - 4.0 / 12.0).abs() < 1e-12);
        assert!((m.accuracy().unwrap() - 26.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let m = sample();
        let p = 0.8; // 8 / 10
        let r = 8.0 / 12.0;
        assert!((m.f1().unwrap() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_metrics_undefined() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), None);
        assert_eq!(m.false_positive_rate(), None);
        assert_eq!(m.false_negative_rate(), None);
        assert_eq!(m.f1(), None);
    }

    #[test]
    fn record_counts_each_cell() {
        use Label::*;
        let mut m = ConfusionMatrix::default();
        for (t, p) in [(Positive, Positive), (Positive, Negative), (Negative, Positive), (Negative, Negative)] {
            m.record(t, p);
        }
        assert_eq!(
            m,
            ConfusionMatrix {
                tp: 1,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
    }

    #[test]
    fn merge_adds() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.tp, 16);
        assert_eq!(a.total(), 64);
    }

    #[test]
    fn display_nonempty() {
        assert!(!sample().to_string().is_empty());
    }

    #[test]
    fn threshold_selection_respects_fpr_budget() {
        let curve = vec![
            RocPoint {
                threshold: -1.0,
                fpr: 1.0,
                tpr: 1.0,
            },
            RocPoint {
                threshold: 0.0,
                fpr: 0.2,
                tpr: 0.9,
            },
            RocPoint {
                threshold: 0.5,
                fpr: 0.05,
                tpr: 0.7,
            },
            RocPoint {
                threshold: 1.0,
                fpr: 0.0,
                tpr: 0.4,
            },
        ];
        let p = threshold_for_fpr(&curve, 0.1).unwrap();
        assert_eq!(p.threshold, 0.5);
        assert!(threshold_for_fpr(&curve, -0.1).is_none());
    }

    #[test]
    fn perfect_classifier_auc_is_one() {
        let scored = [
            (0.9, Label::Positive),
            (0.8, Label::Positive),
            (0.2, Label::Negative),
            (0.1, Label::Negative),
        ];
        assert_eq!(roc_auc(&scored), Some(1.0));
    }

    #[test]
    fn random_classifier_auc_is_half() {
        let scored = [
            (0.5, Label::Positive),
            (0.5, Label::Negative),
            (0.5, Label::Positive),
            (0.5, Label::Negative),
        ];
        assert_eq!(roc_auc(&scored), Some(0.5));
    }

    #[test]
    fn inverted_classifier_auc_is_zero() {
        let scored = [(0.1, Label::Positive), (0.9, Label::Negative)];
        assert_eq!(roc_auc(&scored), Some(0.0));
    }

    #[test]
    fn auc_none_with_single_class() {
        assert_eq!(roc_auc(&[(0.5, Label::Positive)]), None);
        assert_eq!(roc_auc(&[]), None);
    }

    #[test]
    fn roc_curve_endpoints_and_monotonicity() {
        let scored = [
            (0.9, Label::Positive),
            (0.7, Label::Positive),
            (0.6, Label::Negative),
            (0.4, Label::Positive),
            (0.2, Label::Negative),
        ];
        let curve = roc_curve(&scored).unwrap();
        assert_eq!(curve.first().map(|p| (p.fpr, p.tpr)), Some((1.0, 1.0)));
        assert_eq!(curve.last().map(|p| (p.fpr, p.tpr)), Some((0.0, 0.0)));
        // Raising the threshold can only lower both rates.
        for w in curve.windows(2) {
            assert!(w[1].fpr <= w[0].fpr);
            assert!(w[1].tpr <= w[0].tpr);
        }
    }

    #[test]
    fn roc_curve_perfect_classifier_passes_through_corner() {
        let scored = [
            (0.9, Label::Positive),
            (0.8, Label::Positive),
            (0.2, Label::Negative),
        ];
        let curve = roc_curve(&scored).unwrap();
        assert!(curve.iter().any(|p| p.fpr == 0.0 && p.tpr == 1.0));
    }

    #[test]
    fn roc_curve_handles_ties() {
        let scored = [
            (0.5, Label::Positive),
            (0.5, Label::Negative),
            (0.5, Label::Positive),
        ];
        let curve = roc_curve(&scored).unwrap();
        // One shared threshold: the curve jumps from (1,1) to (0,0).
        assert_eq!(curve.len(), 2);
    }

    #[test]
    fn roc_curve_single_class_is_none() {
        assert!(roc_curve(&[(0.5, Label::Positive)]).is_none());
        assert!(roc_curve(&[]).is_none());
    }

    #[test]
    fn averaged_metrics_means() {
        let a = ConfusionMatrix {
            tp: 10,
            fp: 0,
            tn: 10,
            fn_: 0,
        };
        let b = ConfusionMatrix {
            tp: 5,
            fp: 5,
            tn: 5,
            fn_: 5,
        };
        let avg = AveragedMetrics::from_matrices(&[a, b]).unwrap();
        assert!((avg.accuracy - 0.75).abs() < 1e-12);
        assert!((avg.fp_rate - 0.25).abs() < 1e-12);
        assert_eq!(AveragedMetrics::from_matrices(&[]), None);
    }
}
