//! Extension figure: ROC analysis of the three detector versions — the
//! threshold-independent view behind Table II, plus operating points for
//! explicit false-alarm budgets.
//!
//! Run: `cargo run --release -p bench --bin roc` (accepts `--smoke`).

use bench::{run_table2, Context, Failure, Scale};
use ml::metrics::{roc_auc, roc_curve, threshold_for_fpr, RocPoint};
use physio_sim::subject::SubjectId;
use sift::flavor::PlatformFlavor;
use sift::pipeline::EvaluationResult;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let scale = Scale::parse("roc")?;
    println!(
        "ROC analysis ({:?} scale, amulet flavor, {} subjects)\n",
        scale,
        scale.subject_count()
    );
    for row in run_table2(scale, &[PlatformFlavor::Amulet]).context("evaluation failed")? {
        let (aucs, curve) = roc_summary(&row.result)?;
        let mean_auc = aucs.iter().map(|(_, a)| a).sum::<f64>() / aucs.len() as f64;
        let per_subject: Vec<String> = aucs.iter().map(|(id, a)| format!("{id}:{a:.3}")).collect();
        println!("=== {} ===", row.version);
        println!("  mean per-subject AUC : {mean_auc:.4}");
        println!("  per subject          : {}", per_subject.join("  "));
        for budget in [0.01, 0.05, 0.10] {
            match threshold_for_fpr(&curve, budget) {
                Some(p) => println!(
                    "  at FP budget {:>4.0}%   : threshold {:+.3}, TP rate {:.1}%",
                    budget * 100.0,
                    p.threshold,
                    p.tpr * 100.0
                ),
                None => println!("  at FP budget {:>4.0}%   : unreachable", budget * 100.0),
            }
        }
        println!();
    }
    Ok(())
}

/// Each subject's AUC, in subject order.
type SubjectAucs = Vec<(SubjectId, f64)>;

/// Each subject's AUC and the ROC curve of all subjects' windows pooled.
fn roc_summary(ev: &EvaluationResult) -> Result<(SubjectAucs, Vec<RocPoint>), Failure> {
    let mut aucs = Vec::with_capacity(ev.per_subject.len());
    let mut pooled = Vec::new();
    for s in &ev.per_subject {
        // Degenerate windows carry f64::MAX; cap for numeric hygiene.
        let scored: Vec<_> = s.scored.iter().map(|&(v, y)| (v.clamp(-1e6, 1e6), y)).collect();
        let auc = roc_auc(&scored).ok_or("both classes required").context(s.subject)?;
        aucs.push((s.subject, auc));
        pooled.extend(scored);
    }
    let curve = roc_curve(&pooled).ok_or("both classes required").context("pooled")?;
    Ok((aucs, curve))
}

#[cfg(test)]
mod tests {
    use super::*;
    use physio_sim::subject::bank;
    use sift::config::SiftConfig;
    use sift::features::Version;
    use sift::pipeline::{evaluate_with_models, train_models, EvalProtocol};

    /// Pooled Amulet scores, degenerate windows clamped, still give a
    /// curve from (1, 1) to (0, 0).
    #[test]
    fn pooled_curve_spans_both_corners() {
        let subjects = &bank()[..2];
        let cfg = SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(15),
            ..SiftConfig::default()
        };
        let models = train_models(subjects, Version::Reduced, &cfg).unwrap();
        let ev = evaluate_with_models(
            subjects,
            &models,
            PlatformFlavor::Amulet,
            &cfg,
            &EvalProtocol::default(),
        )
        .unwrap();
        let (aucs, curve) = roc_summary(&ev).unwrap();
        assert_eq!(aucs.len(), 2);
        let (first, last) = (curve.first().unwrap(), curve.last().unwrap());
        assert_eq!((first.fpr, first.tpr), (1.0, 1.0));
        assert_eq!((last.fpr, last.tpr), (0.0, 0.0));
        assert!(curve[1..].iter().all(|p| p.threshold.abs() <= 1e6), "scores are clamped");
    }
}
