//! Shared harness code for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` §3 for the index); this library
//! holds the experiment drivers and the text-table formatting they
//! share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ml::metrics::AveragedMetrics;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::pipeline::{evaluate_with_models, train_models, EvalProtocol, EvaluationResult};
use sift::SiftError;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's protocol: 12 subjects, Δ = 20 min training.
    Paper,
    /// A fast smoke-scale run (4 subjects, 1 min training) for CI and
    /// quick iteration.
    Smoke,
}

impl Scale {
    /// Parse from the CLI arguments (`--smoke` selects the fast run).
    /// Unrecognized arguments abort with a usage message rather than
    /// being silently ignored (a typo'd `--smok` must not quietly start
    /// the 12-subject run).
    pub fn from_args() -> Self {
        let mut scale = Scale::Paper;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--smoke" => scale = Scale::Smoke,
                other => {
                    eprintln!("unrecognized argument `{other}` (supported: --smoke)");
                    std::process::exit(2);
                }
            }
        }
        scale
    }

    /// Pipeline configuration for this scale.
    pub fn config(self) -> SiftConfig {
        match self {
            Scale::Paper => SiftConfig::default(),
            Scale::Smoke => SiftConfig {
                train_s: 60.0,
                max_positive_per_donor: Some(15),
                ..SiftConfig::default()
            },
        }
    }

    /// Number of subjects evaluated at this scale.
    pub fn subject_count(self) -> usize {
        match self {
            Scale::Paper => 12,
            Scale::Smoke => 4,
        }
    }
}

/// One row of the Table II reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Detector version.
    pub version: Version,
    /// Platform flavor.
    pub flavor: PlatformFlavor,
    /// Subject-averaged metrics.
    pub metrics: AveragedMetrics,
}

/// Run the full Table II experiment: every version × flavor cell.
///
/// Models are trained once per version (training is platform-independent,
/// as in the paper) and evaluated under both flavors.
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn run_table2(scale: Scale) -> Result<Vec<Table2Row>, SiftError> {
    let subjects: Vec<_> = bank().into_iter().take(scale.subject_count()).collect();
    let config = scale.config();
    let protocol = EvalProtocol::default();
    let mut rows = Vec::new();
    for version in Version::ALL {
        let models = train_models(&subjects, version, &config)?;
        for flavor in [PlatformFlavor::Amulet, PlatformFlavor::Gold] {
            let result: EvaluationResult =
                evaluate_with_models(&subjects, &models, flavor, &config, &protocol)?;
            rows.push(Table2Row {
                version,
                flavor,
                metrics: result.averaged,
            });
        }
    }
    Ok(rows)
}

/// Format the Table II rows in the paper's layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {:<10} | {:<8} | {:>7} | {:>7} | {:>8} | {:>7} |",
        "Version", "Platform", "Avg FP", "Avg FN", "Avg Acc", "Avg F1"
    );
    let _ = writeln!(out, "|{}|", "-".repeat(66));
    for r in rows {
        let m = &r.metrics;
        let _ = writeln!(
            out,
            "| {:<10} | {:<8} | {:>6.2}% | {:>6.2}% | {:>7.2}% | {:>6.2}% |",
            r.version.to_string(),
            r.flavor.to_string(),
            m.fp_rate * 100.0,
            m.fn_rate * 100.0,
            m.accuracy * 100.0,
            m.f1 * 100.0,
        );
    }
    out
}

/// Paper reference values for Table II (for the side-by-side print).
pub fn paper_table2_reference() -> &'static str {
    "paper reference (Table II):\n\
     | original   | amulet   |   0.83% |  12.50% |   93.06% |  92.77% |\n\
     | original   | matlab   |   5.83% |  10.23% |   91.97% |  91.97% |\n\
     | simplified | amulet   |   6.67% |   7.58% |   92.86% |  93.43% |\n\
     | simplified | matlab   |   5.00% |  12.88% |   91.06% |  90.28% |\n\
     | reduced    | amulet   |  12.08% |  15.15% |   86.31% |  87.10% |\n\
     | reduced    | matlab   |  22.08% |  14.39% |   81.76% |  84.04% |"
}

/// Everything the fleet bench measured: the deterministic report plus
/// the wall-clock numbers that stay out of it.
#[derive(Debug, Clone)]
pub struct FleetBenchResult {
    /// The deterministic fleet report.
    pub report: wiot::fleet::FleetReport,
    /// Worker threads used.
    pub threads: usize,
    /// Per-device session length, seconds.
    pub duration_s: f64,
    /// Wall-clock spent training the model bank, seconds.
    pub train_wall_s: f64,
    /// Wall-clock spent simulating the fleet, seconds.
    pub sim_wall_s: f64,
}

impl FleetBenchResult {
    /// Simulated device-seconds per wall-second of fleet simulation —
    /// the bench's headline throughput number.
    pub fn throughput(&self) -> f64 {
        if self.sim_wall_s > 0.0 {
            self.report.simulated_device_s / self.sim_wall_s
        } else {
            0.0
        }
    }
}

/// Render the fleet bench result as the `BENCH_fleet.json` payload.
///
/// Deterministic fields (digest, windows, recovery) come straight from
/// the report; wall-clock fields (`*_wall_s`, `throughput_*`) vary per
/// machine, which is why the baseline diff in `scripts/verify.sh` is
/// warn-only.
pub fn fleet_bench_json(r: &FleetBenchResult) -> String {
    let rep = &r.report;
    format!(
        "{{\n  \"devices\": {},\n  \"threads\": {},\n  \"seed\": {},\n  \"duration_s\": {},\n  \"simulated_device_s\": {},\n  \"train_wall_s\": {:.3},\n  \"sim_wall_s\": {:.3},\n  \"throughput_device_s_per_wall_s\": {:.1},\n  \"digest\": \"{:#018x}\",\n  \"windows_scored\": {},\n  \"sink_flagged\": {},\n  \"dropped_windows\": {},\n  \"salvaged_windows\": {},\n  \"mean_window_recovery\": {:.6},\n  \"detections\": {},\n  \"stall_alerts\": {},\n  \"outliers\": {},\n  \"mean_battery_left\": {:.6}\n}}\n",
        rep.devices,
        r.threads,
        rep.seed,
        r.duration_s,
        rep.simulated_device_s,
        r.train_wall_s,
        r.sim_wall_s,
        r.throughput(),
        rep.digest(),
        rep.windows_scored,
        rep.sink_flagged,
        rep.dropped_windows,
        rep.salvaged_windows,
        rep.mean_window_recovery,
        rep.detections,
        rep.stall_alerts,
        rep.outliers.len(),
        rep.usage.mean_battery_left(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_table2_runs_and_beats_chance() {
        let rows = run_table2(Scale::Smoke).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.metrics.accuracy > 0.6,
                "{} {} accuracy {}",
                r.version,
                r.flavor,
                r.metrics.accuracy
            );
        }
        let table = format_table2(&rows);
        assert!(table.contains("original"));
        assert!(table.contains("amulet"));
        assert_eq!(table.lines().count(), 8);
    }

    #[test]
    fn scale_parameters() {
        assert_eq!(Scale::Paper.subject_count(), 12);
        assert_eq!(Scale::Paper.config().train_s, 1200.0);
        assert_eq!(Scale::Smoke.config().train_s, 60.0);
    }

    #[test]
    fn reference_table_is_complete() {
        let r = paper_table2_reference();
        assert_eq!(r.lines().count(), 7);
    }

    #[test]
    fn fleet_json_is_well_formed_and_deterministic_fields_match() {
        use sift::trainer::ModelBank;
        use wiot::fleet::{run_fleet_with_bank, FleetSpec};
        let spec = FleetSpec::new(2, 9.0).with_seed(5);
        let models = ModelBank::train(
            &physio_sim::subject::bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        let report = run_fleet_with_bank(&spec, &models).unwrap();
        let digest = report.digest();
        let result = FleetBenchResult {
            report,
            threads: 2,
            duration_s: 9.0,
            train_wall_s: 1.0,
            sim_wall_s: 0.5,
        };
        let json = fleet_bench_json(&result);
        assert!(json.contains("\"devices\": 2"));
        assert!(json.contains(&format!("\"digest\": \"{digest:#018x}\"")));
        assert!(json.contains("\"throughput_device_s_per_wall_s\": 36.0"));
        // Crude structural check: balanced braces, one top-level object.
        assert!(json.trim().starts_with('{') && json.trim().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
