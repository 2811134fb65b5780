//! Table II reproduction: detection performance of the three detector
//! versions on both platforms (Amulet flavor vs. MATLAB gold standard).
//!
//! Protocol (paper §IV): 12 subjects; Δ = 20 min of training data per
//! subject; 2 min of unseen test data with 50 % of windows altered by
//! substituting another subject's ECG at random locations; w = 3 s
//! windows ⇒ 40 test examples per subject; linear-kernel SVM.
//!
//! Run: `cargo run --release -p bench --bin table2` (add `--smoke` for a
//! fast 4-subject / 1-minute-training variant).

use bench::{format_table2, paper_table2_reference, run_table2, Context, Failure, Scale};
use sift::flavor::PlatformFlavor;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let scale = Scale::parse("table2")?;
    println!(
        "TABLE II reproduction ({:?} scale: {} subjects, {:.0} s training)\n",
        scale,
        scale.subject_count(),
        scale.config().train_s
    );
    let started = std::time::Instant::now();
    let flavors = [PlatformFlavor::Amulet, PlatformFlavor::Gold];
    let rows = run_table2(scale, &flavors).context("experiment failed")?;
    println!("{}", format_table2(&rows));
    println!("{}", paper_table2_reference());
    eprintln!("completed in {:.1} s", started.elapsed().as_secs_f64());
    Ok(())
}
