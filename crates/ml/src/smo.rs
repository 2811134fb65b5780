//! Kernelized SVM trained with (simplified) Sequential Minimal
//! Optimization.
//!
//! The paper reports choosing the SVM "as it performed the best among the
//! algorithms we tried" with a **linear kernel**; this trainer exists so
//! the repository can actually run that comparison (see the `ablation`
//! bench), including non-linear kernels the authors would plausibly have
//! tried.

use crate::{Classifier, Dataset, MlError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Kernel functions for [`SmoTrainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `k(a, b) = a·b`.
    Linear,
    /// `k(a, b) = exp(−γ‖a−b‖²)`.
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
    /// `k(a, b) = (a·b + c)^d`.
    Polynomial {
        /// Degree `d`.
        degree: u32,
        /// Offset `c`.
        coef0: f64,
    },
}

impl Kernel {
    /// Evaluate the kernel on two vectors.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => dot(a, b),
            Kernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
            Kernel::Polynomial { degree, coef0 } => (dot(a, b) + coef0).powi(degree as i32),
        }
    }
}

/// Configuration for the simplified-SMO trainer (Platt's algorithm with
/// the Stanford CS229 simplification).
#[derive(Debug, Clone, PartialEq)]
pub struct SmoTrainer {
    /// Soft-margin cost `C`.
    pub c: f64,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Passes without any α change before declaring convergence.
    pub max_quiet_passes: usize,
    /// Hard cap on total passes.
    pub max_passes: usize,
    /// Kernel to use.
    pub kernel: Kernel,
    /// RNG seed for partner selection.
    pub seed: u64,
}

impl Default for SmoTrainer {
    fn default() -> Self {
        Self {
            c: 1.0,
            tol: 1e-3,
            max_quiet_passes: 5,
            max_passes: 200,
            kernel: Kernel::Linear,
            seed: 0x5305,
        }
    }
}

impl SmoTrainer {
    /// Train a kernel SVM on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`], [`MlError::SingleClass`], or
    /// [`MlError::InvalidParameter`] for a non-positive `c`.
    pub fn fit(&self, data: &Dataset) -> Result<KernelSvm, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if !data.has_both_classes() {
            return Err(MlError::SingleClass);
        }
        if self.c <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "c",
                reason: "cost must be positive",
            });
        }
        let n = data.len();
        let x: Vec<&[f64]> = data.features().iter().map(Vec::as_slice).collect();
        let y: Vec<f64> = data.labels().iter().map(|l| l.sign()).collect();

        // Cache the kernel matrix (training sets here are modest).
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let v = self.kernel.eval(x[i], x[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let f = |alpha: &[f64], b: f64, k: &[f64], y: &[f64], i: usize| -> f64 {
            let mut s = b;
            for j in 0..y.len() {
                if alpha[j] != 0.0 {
                    s += alpha[j] * y[j] * k[j * y.len() + i];
                }
            }
            s
        };

        let mut quiet = 0usize;
        let mut total = 0usize;
        while quiet < self.max_quiet_passes && total < self.max_passes {
            total += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let ei = f(&alpha, b, &k, &y, i) - y[i];
                let violates = (y[i] * ei < -self.tol && alpha[i] < self.c)
                    || (y[i] * ei > self.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&alpha, b, &k, &y, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if y[i] != y[j] {
                    ((aj_old - ai_old).max(0.0), (self.c + aj_old - ai_old).min(self.c))
                } else {
                    ((ai_old + aj_old - self.c).max(0.0), (ai_old + aj_old).min(self.c))
                };
                if lo >= hi {
                    continue;
                }
                let eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                let b1 = b - ei
                    - y[i] * (ai - ai_old) * k[i * n + i]
                    - y[j] * (aj - aj_old) * k[i * n + j];
                let b2 = b - ej
                    - y[i] * (ai - ai_old) * k[i * n + j]
                    - y[j] * (aj - aj_old) * k[j * n + j];
                b = if ai > 0.0 && ai < self.c {
                    b1
                } else if aj > 0.0 && aj < self.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                quiet += 1;
            } else {
                quiet = 0;
            }
        }

        // Keep only support vectors.
        let mut support = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-9 {
                support.push(SupportVector {
                    x: x[i].to_vec(),
                    coef: alpha[i] * y[i],
                });
            }
        }
        Ok(KernelSvm {
            kernel: self.kernel,
            support,
            bias: b,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
struct SupportVector {
    x: Vec<f64>,
    coef: f64, // αᵢ yᵢ
}

/// A trained kernel SVM: `f(x) = Σ αᵢ yᵢ k(xᵢ, x) + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSvm {
    kernel: Kernel,
    support: Vec<SupportVector>,
    bias: f64,
}

impl KernelSvm {
    /// The kernel this model evaluates.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

impl Classifier for KernelSvm {
    fn decision_function(&self, x: &[f64]) -> f64 {
        self.support
            .iter()
            .map(|sv| sv.coef * self.kernel.eval(&sv.x, x))
            .sum::<f64>()
            + self.bias
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Label;

    fn separable() -> Dataset {
        let mut d = Dataset::new(2).unwrap();
        for i in 0..15 {
            let t = i as f64 * 0.06;
            d.push(vec![t, t * 0.5], Label::Negative).unwrap();
            d.push(vec![2.0 + t, 2.0 + t * 0.5], Label::Positive).unwrap();
        }
        d
    }

    #[test]
    fn linear_kernel_separates() {
        let d = separable();
        let m = SmoTrainer::default().fit(&d).unwrap();
        let correct = d.iter().filter(|(x, y)| m.predict(x) == *y).count();
        assert_eq!(correct, d.len());
    }

    #[test]
    fn rbf_solves_xor() {
        // XOR is not linearly separable; RBF handles it.
        let mut d = Dataset::new(2).unwrap();
        for (a, b) in [(0.0, 0.0), (1.0, 1.0)] {
            for e in 0..4 {
                d.push(vec![a + 0.01 * e as f64, b], Label::Negative).unwrap();
            }
        }
        for (a, b) in [(0.0, 1.0), (1.0, 0.0)] {
            for e in 0..4 {
                d.push(vec![a + 0.01 * e as f64, b], Label::Positive).unwrap();
            }
        }
        let t = SmoTrainer {
            kernel: Kernel::Rbf { gamma: 2.0 },
            c: 10.0,
            ..SmoTrainer::default()
        };
        let m = t.fit(&d).unwrap();
        let correct = d.iter().filter(|(x, y)| m.predict(x) == *y).count();
        assert!(correct >= d.len() - 1, "correct={correct}/{}", d.len());
    }

    #[test]
    fn polynomial_kernel_evaluates() {
        let k = Kernel::Polynomial {
            degree: 2,
            coef0: 1.0,
        };
        // (1·2 + 0·0 + 1)² = 9
        assert_eq!(k.eval(&[1.0, 0.0], &[2.0, 0.0]), 9.0);
    }

    #[test]
    fn rbf_kernel_is_one_at_zero_distance() {
        let k = Kernel::Rbf { gamma: 0.7 };
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!(k.eval(&[0.0, 0.0], &[3.0, 4.0]) < 1e-7);
    }

    #[test]
    fn support_vector_count_is_sparse() {
        let d = separable();
        let m = SmoTrainer::default().fit(&d).unwrap();
        assert!(m.support.len() < d.len());
        assert!(m.support.len() >= 2);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let d = Dataset::new(1).unwrap();
        assert_eq!(SmoTrainer::default().fit(&d), Err(MlError::EmptyDataset));
        let mut one = Dataset::new(1).unwrap();
        one.push(vec![1.0], Label::Positive).unwrap();
        assert_eq!(SmoTrainer::default().fit(&one), Err(MlError::SingleClass));
    }
}
