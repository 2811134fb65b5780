// cg-unreached's type rule: `KernelTrainer`'s only methods are a derived
// `Default` and a `fit` that a `LinearTrainer` caller reaches by name.

pub trait Classifier {
    fn fit(&self, data: &[f64]) -> f64;
}

#[derive(Debug, Default)]
pub struct KernelTrainer;

impl Classifier for KernelTrainer {
    fn fit(&self, data: &[f64]) -> f64 {
        data.iter().sum()
    }
}

#[derive(Debug, Default)]
pub struct LinearTrainer;

impl Classifier for LinearTrainer {
    fn fit(&self, data: &[f64]) -> f64 {
        data.iter().product()
    }
}
