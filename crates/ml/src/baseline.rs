//! Baseline classifiers.
//!
//! The paper states the SVM "performed the best among the algorithms we
//! tried" without listing them; these are the standard candidates such a
//! study would try. They feed the `ablation` bench's model-comparison
//! table.

use crate::{Classifier, Dataset, Label, MlError};

/// Logistic regression trained by batch gradient descent with L2
/// regularization.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionTrainer {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of gradient steps.
    pub iterations: usize,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for LogisticRegressionTrainer {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            iterations: 500,
            l2: 1e-3,
        }
    }
}

impl LogisticRegressionTrainer {
    /// Fit on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] or [`MlError::SingleClass`].
    pub fn fit(&self, data: &Dataset) -> Result<LogisticRegression, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if !data.has_both_classes() {
            return Err(MlError::SingleClass);
        }
        let dim = data.dim();
        let n = data.len() as f64;
        let mut w = vec![0.0f64; dim];
        let mut b = 0.0f64;
        for _ in 0..self.iterations {
            let mut gw = vec![0.0f64; dim];
            let mut gb = 0.0f64;
            for (x, y) in data.iter() {
                let t = if y == Label::Positive { 1.0 } else { 0.0 };
                let z: f64 = w.iter().zip(x).map(|(a, c)| a * c).sum::<f64>() + b;
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - t;
                for (g, xv) in gw.iter_mut().zip(x) {
                    *g += err * xv;
                }
                gb += err;
            }
            for (wj, gj) in w.iter_mut().zip(&gw) {
                *wj -= self.learning_rate * (gj / n + self.l2 * *wj);
            }
            b -= self.learning_rate * gb / n;
        }
        Ok(LogisticRegression { weights: w, bias: b })
    }
}

/// A trained logistic-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl Classifier for LogisticRegression {
    fn decision_function(&self, x: &[f64]) -> f64 {
        self.weights.iter().zip(x).map(|(a, c)| a * c).sum::<f64>() + self.bias
    }
}

/// k-nearest-neighbour classifier (stores the training set).
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    k: usize,
    data: Dataset,
}

impl KnnClassifier {
    /// Build a k-NN classifier over `data`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for empty data and
    /// [`MlError::InvalidParameter`] for `k == 0`.
    pub fn new(k: usize, data: Dataset) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if k == 0 {
            return Err(MlError::InvalidParameter {
                name: "k",
                reason: "k must be positive",
            });
        }
        Ok(Self { k, data })
    }
}

impl Classifier for KnnClassifier {
    /// Signed vote share in `[-1, 1]`: (positive − negative) / k.
    fn decision_function(&self, x: &[f64]) -> f64 {
        let mut dists: Vec<(f64, Label)> = self
            .data
            .iter()
            .map(|(xi, yi)| {
                let d2: f64 = xi.iter().zip(x).map(|(a, c)| (a - c) * (a - c)).sum();
                (d2, yi)
            })
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let k = self.k.min(dists.len());
        let pos = dists[..k]
            .iter()
            .filter(|(_, y)| *y == Label::Positive)
            .count() as f64;
        (2.0 * pos - k as f64) / k as f64
    }
}

/// Nearest-centroid classifier: label by the closer class mean.
#[derive(Debug, Clone, PartialEq)]
pub struct NearestCentroid {
    positive: Vec<f64>,
    negative: Vec<f64>,
}

impl NearestCentroid {
    /// Fit the two class centroids.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] or [`MlError::SingleClass`].
    pub fn fit(data: &Dataset) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if !data.has_both_classes() {
            return Err(MlError::SingleClass);
        }
        let dim = data.dim();
        let mut pos = vec![0.0f64; dim];
        let mut neg = vec![0.0f64; dim];
        let (mut np, mut nn) = (0usize, 0usize);
        for (x, y) in data.iter() {
            match y {
                Label::Positive => {
                    for (p, v) in pos.iter_mut().zip(x) {
                        *p += v;
                    }
                    np += 1;
                }
                Label::Negative => {
                    for (p, v) in neg.iter_mut().zip(x) {
                        *p += v;
                    }
                    nn += 1;
                }
            }
        }
        for p in &mut pos {
            *p /= np as f64;
        }
        for p in &mut neg {
            *p /= nn as f64;
        }
        Ok(Self {
            positive: pos,
            negative: neg,
        })
    }
}

impl Classifier for NearestCentroid {
    /// Difference of squared distances: `d²(x, neg) − d²(x, pos)`, so
    /// positive values mean `x` is closer to the positive centroid.
    fn decision_function(&self, x: &[f64]) -> f64 {
        let d2 = |c: &[f64]| -> f64 { c.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum() };
        d2(&self.negative) - d2(&self.positive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Dataset {
        let mut d = Dataset::new(2).unwrap();
        for i in 0..20 {
            let t = (i % 5) as f64 * 0.05;
            d.push(vec![t, -t], Label::Negative).unwrap();
            d.push(vec![2.0 + t, 2.0 - t], Label::Positive).unwrap();
        }
        d
    }

    #[test]
    fn logreg_separates_blobs() {
        let d = blobs();
        let m = LogisticRegressionTrainer::default().fit(&d).unwrap();
        for (x, y) in d.iter() {
            assert_eq!(m.predict(x), y);
        }
    }

    #[test]
    fn knn_classifies_blobs() {
        let d = blobs();
        let m = KnnClassifier::new(3, d.clone()).unwrap();
        for (x, y) in d.iter() {
            assert_eq!(m.predict(x), y);
        }
    }

    #[test]
    fn knn_rejects_zero_k() {
        assert!(KnnClassifier::new(0, blobs()).is_err());
    }

    #[test]
    fn knn_decision_bounded() {
        let d = blobs();
        let m = KnnClassifier::new(5, d).unwrap();
        let v = m.decision_function(&[1.0, 1.0]);
        assert!((-1.0..=1.0).contains(&v));
    }

    #[test]
    fn centroid_classifies_blobs() {
        let d = blobs();
        let m = NearestCentroid::fit(&d).unwrap();
        for (x, y) in d.iter() {
            assert_eq!(m.predict(x), y);
        }
    }

    #[test]
    fn centroid_means_are_correct() {
        let mut d = Dataset::new(1).unwrap();
        d.push(vec![0.0], Label::Negative).unwrap();
        d.push(vec![2.0], Label::Negative).unwrap();
        d.push(vec![10.0], Label::Positive).unwrap();
        let m = NearestCentroid::fit(&d).unwrap();
        // Centroids 1 and 10 put the boundary at their midpoint, 5.5.
        assert_eq!(m.predict(&[5.4]), Label::Negative);
        assert_eq!(m.predict(&[5.6]), Label::Positive);
    }

    #[test]
    fn all_baselines_reject_single_class() {
        let mut d = Dataset::new(1).unwrap();
        d.push(vec![1.0], Label::Positive).unwrap();
        assert_eq!(
            LogisticRegressionTrainer::default().fit(&d),
            Err(MlError::SingleClass)
        );
        assert_eq!(NearestCentroid::fit(&d), Err(MlError::SingleClass));
    }
}
