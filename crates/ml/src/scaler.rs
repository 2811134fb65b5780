//! Feature standardization.
//!
//! SVMs are scale-sensitive, and SIFT's eight features span wildly
//! different ranges (a spatial-filling index vs. squared distances in the
//! unit square), so the pipeline standardizes features to zero mean and
//! unit variance before training. The fitted parameters ship with the
//! model to the Amulet (see [`crate::embedded`]).

use crate::{Dataset, MlError};

/// Zero-mean / unit-variance standardizer fitted on a training set.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit a scaler on `data`.
    ///
    /// Constant features get a standard deviation of `1` so transformation
    /// never divides by zero (the feature then contributes a constant 0).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] if `data` has no rows.
    pub fn fit(data: &Dataset) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let dim = data.dim();
        let n = data.len() as f64;
        let mut means = vec![0.0; dim];
        for (x, _) in data.iter() {
            for (m, v) in means.iter_mut().zip(x) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; dim];
        for (x, _) in data.iter() {
            for ((var, v), m) in vars.iter_mut().zip(x).zip(&means) {
                *var += (v - m) * (v - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(Self { means, stds })
    }

    /// Identity scaler for `dim` features.
    // lint:allow(cg-unreached, fixture: the no-op scaler the codec, metrics and portrait tests build models with)
    pub fn identity(dim: usize) -> Self {
        Self {
            means: vec![0.0; dim],
            stds: vec![1.0; dim],
        }
    }

    /// Transform one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `x` has the wrong length.
    pub fn transform(&self, x: &[f64]) -> Result<Vec<f64>, MlError> {
        if x.len() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.means.len(),
                actual: x.len(),
            });
        }
        Ok(x.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect())
    }

    /// Transform a whole dataset, preserving labels.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on dimension mismatch.
    pub fn transform_dataset(&self, data: &Dataset) -> Result<Dataset, MlError> {
        let mut out = Dataset::new(self.means.len())?;
        for (x, y) in data.iter() {
            out.push(self.transform(x)?, y)?;
        }
        Ok(out)
    }

    /// Fitted per-feature means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted per-feature standard deviations (constant features report
    /// `1`).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Feature dimension the scaler was fitted for.
    pub fn dim(&self) -> usize {
        self.means.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Label;

    fn sample_data() -> Dataset {
        let mut d = Dataset::new(2).unwrap();
        d.push(vec![1.0, 10.0], Label::Negative).unwrap();
        d.push(vec![2.0, 20.0], Label::Negative).unwrap();
        d.push(vec![3.0, 30.0], Label::Positive).unwrap();
        d
    }

    #[test]
    fn fitted_statistics() {
        let s = StandardScaler::fit(&sample_data()).unwrap();
        assert_eq!(s.means(), &[2.0, 20.0]);
        let expect = (2.0f64 / 3.0).sqrt();
        assert!((s.stds()[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn transformed_data_zero_mean_unit_var() {
        let d = sample_data();
        let s = StandardScaler::fit(&d).unwrap();
        let t = s.transform_dataset(&d).unwrap();
        for j in 0..2 {
            let col: Vec<f64> = t.iter().map(|(r, _)| r[j]).collect();
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let mut d = Dataset::new(1).unwrap();
        d.push(vec![5.0], Label::Positive).unwrap();
        d.push(vec![5.0], Label::Negative).unwrap();
        let s = StandardScaler::fit(&d).unwrap();
        assert_eq!(s.transform(&[5.0]).unwrap(), vec![0.0]);
        assert_eq!(s.stds(), &[1.0]);
    }

    #[test]
    fn identity_is_noop() {
        let s = StandardScaler::identity(3);
        assert_eq!(
            s.transform(&[1.0, -2.0, 3.0]).unwrap(),
            vec![1.0, -2.0, 3.0]
        );
    }

    #[test]
    fn empty_dataset_rejected() {
        let d = Dataset::new(2).unwrap();
        assert_eq!(StandardScaler::fit(&d), Err(MlError::EmptyDataset));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let s = StandardScaler::fit(&sample_data()).unwrap();
        assert!(s.transform(&[1.0]).is_err());
    }

    #[test]
    fn labels_preserved_through_transform() {
        let d = sample_data();
        let s = StandardScaler::fit(&d).unwrap();
        let t = s.transform_dataset(&d).unwrap();
        assert_eq!(t.labels(), d.labels());
    }
}
