//! Shared harness code for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` §3 for the index); this library
//! holds the experiment drivers, the text-table formatting they share,
//! and the one harness every binary runs on: a flag parser ([`Flags`]),
//! one exit path ([`main`]), a thread-invariance gate ([`thread_gate`])
//! and an artifact writer ([`write_artifact`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ml::metrics::AveragedMetrics;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::pipeline::{evaluate_with_models, train_models, EvalProtocol, EvaluationResult};
use sift::SiftError;
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;
use telemetry::TelemetryReport;
use wiot::fleet::FleetReport;
use wiot::scenario::{DeviceOptions, DeviceSim, Scenario};

/// Why a bench binary stopped: the message is its one stderr line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The command line does not fit the binary's flags (exit 2).
    Usage(String),
    /// A run, an artifact write or a gate failed (exit 1).
    Run(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Usage(msg) | Failure::Run(msg) => f.write_str(msg),
        }
    }
}

/// Turns any displayable error into a [`Failure::Run`] that says what
/// was being done.
pub trait Context<T> {
    /// Map `Err(e)` to `Failure::Run("{msg}: {e}")`.
    fn context(self, msg: impl fmt::Display) -> Result<T, Failure>;
}

impl<T, E: fmt::Display> Context<T> for Result<T, E> {
    fn context(self, msg: impl fmt::Display) -> Result<T, Failure> {
        self.map_err(|e| Failure::Run(format!("{msg}: {e}")))
    }
}

/// `Err(Failure::Run(msg))`: a run or gate failed.
pub fn fail<T>(msg: impl Into<String>) -> Result<T, Failure> {
    Err(Failure::Run(msg.into()))
}

/// The one exit path of every bench binary: run `body`, and on failure
/// print its message to stderr and exit 2 (usage) or 1 (anything else).
pub fn main(body: impl FnOnce() -> Result<(), Failure>) -> ExitCode {
    match body() {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("{failure}");
            ExitCode::from(if matches!(failure, Failure::Usage(_)) { 2 } else { 1 })
        }
    }
}

/// A bench binary's command line, checked against the flags it
/// declares. A flag given twice keeps its last value.
#[derive(Debug)]
pub struct Flags {
    usage: String,
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse the process arguments against `spec`, which lists the flags
    /// as the usage line shows them: `--name VALUE` takes a value, a bare
    /// `--name` is a switch. An unknown flag or a missing value is a
    /// [`Failure::Usage`].
    pub fn parse(bin: &str, spec: &str) -> Result<Self, Failure> {
        Self::parse_from(bin, spec, std::env::args().skip(1))
    }

    fn parse_from(
        bin: &str,
        spec: &str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, Failure> {
        let spec = format!(" {spec}");
        let decls: Vec<String> = spec.split(" --").skip(1).map(|d| format!("--{d}")).collect();
        let usage = decls.iter().fold(format!("usage: {bin}"), |u, d| format!("{u} [{d}]"));
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let Some(decl) = decls.iter().find(|d| d.split(' ').next() == Some(&*flag)) else {
                return Err(Failure::Usage(format!("unknown flag {flag}; {usage}")));
            };
            let value = if decl.contains(' ') {
                let missing = || Failure::Usage(format!("{flag} needs a value; {usage}"));
                Some(args.next().ok_or_else(missing)?)
            } else {
                None
            };
            given.push((flag, value));
        }
        Ok(Flags { usage, given })
    }

    /// The value given for `name`, or `default`; an unparsable value is
    /// a [`Failure::Usage`].
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, Failure> {
        self.value(name)
            .map_or(Ok(default), |v| v.parse().map_err(|_| self.bad(name, v)))
    }

    /// The choice named by the value given for `name`, or the first
    /// choice; a name not among `choices` is a [`Failure::Usage`].
    pub fn choice<T: Copy>(&self, name: &str, choices: &[(&str, T)]) -> Result<T, Failure> {
        let Some(v) = self.value(name) else {
            return Ok(choices[0].1);
        };
        let found = choices.iter().find(|(id, _)| *id == v);
        found.map(|c| c.1).ok_or_else(|| self.bad(name, v))
    }

    /// Whether the bare switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let last = self.given.iter().rev().find(|(flag, _)| flag == name);
        last.and_then(|(_, v)| v.as_deref())
    }

    fn bad(&self, name: &str, value: &str) -> Failure {
        Failure::Usage(format!("bad value {value} for {name}; {}", self.usage))
    }
}

/// Run `pass` once per entry of `threads` and require one digest:
/// fails on the first pass whose `digest` differs from the first
/// pass's, else returns every pass in order.
pub fn thread_gate<R>(
    threads: &[usize],
    digest: impl Fn(&R) -> u64,
    mut pass: impl FnMut(usize) -> Result<R, Failure>,
) -> Result<Vec<R>, Failure> {
    let mut passes: Vec<R> = Vec::with_capacity(threads.len());
    for &t in threads {
        let r = pass(t)?;
        if let Some(first) = passes.first().filter(|first| digest(first) != digest(&r)) {
            return fail(format!(
                "digest drifted with thread count: {:#018x} at {} threads vs {:#018x} at {t}",
                digest(first),
                threads[0],
                digest(&r)
            ));
        }
        passes.push(r);
    }
    Ok(passes)
}

/// Write `contents` to `path`, creating its parent directory first.
pub fn write_artifact(path: &str, contents: &str) -> Result<(), Failure> {
    let parent = std::path::Path::new(path).parent();
    let made = parent.map_or(Ok(()), std::fs::create_dir_all);
    made.context(format!("failed to create the directory of {path}"))?;
    std::fs::write(path, contents).context(format!("failed to write {path}"))
}

/// One SplitMix64 step: advance `state` by the golden-ratio increment
/// and return its mix. The bins draw every seeded schedule from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One traced single-device session of `scenario`: its telemetry
/// report, whose stage spans are cost-model MSP430 cycles.
pub fn traced_session(scenario: &Scenario) -> Result<TelemetryReport, Failure> {
    let options = DeviceOptions {
        telemetry: true,
        ..DeviceOptions::default()
    };
    let report = DeviceSim::with_options(scenario, options)
        .and_then(DeviceSim::into_report)
        .context("traced session failed")?;
    report.telemetry.ok_or("no telemetry").context("traced session")
}

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
    /// Parse a paper binary's one flag, `--smoke`, which selects the
    /// fast run.
    pub fn parse(bin: &str) -> Result<Self, Failure> {
        let smoke = Flags::parse(bin, "--smoke")?.switch("--smoke");
        Ok(if smoke { Scale::Smoke } else { Scale::Paper })
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
    pub report: FleetReport,
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
        "{{\n  \"devices\": {},\n  \"threads\": {},\n  \"seed\": {},\n  \"duration_s\": {},\n  \"simulated_device_s\": {},\n  \"train_wall_s\": {:.3},\n  \"sim_wall_s\": {:.3},\n  \"throughput_device_s_per_wall_s\": {:.1},\n  \"digest\": \"{:#018x}\",\n{}",
        rep.devices,
        r.threads,
        rep.seed,
        r.duration_s,
        rep.simulated_device_s,
        r.train_wall_s,
        r.sim_wall_s,
        r.throughput(),
        rep.digest(),
        fleet_report_tail(rep),
    )
}

/// The nine deterministic report fields every fleet JSON artifact ends
/// with (`windows_scored` … `mean_battery_left`), closing brace included.
pub fn fleet_report_tail(rep: &FleetReport) -> String {
    format!(
        "  \"windows_scored\": {},\n  \"sink_flagged\": {},\n  \"dropped_windows\": {},\n  \"salvaged_windows\": {},\n  \"mean_window_recovery\": {:.6},\n  \"detections\": {},\n  \"stall_alerts\": {},\n  \"outliers\": {},\n  \"mean_battery_left\": {:.6}\n}}\n",
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

    fn demo(args: &[&str]) -> Result<Flags, Failure> {
        let spec = "--devices N --backend svm|tsetlin --smoke";
        Flags::parse_from("demo", spec, args.iter().map(|a| a.to_string()))
    }

    const DEMO_USAGE: &str = "usage: demo [--devices N] [--backend svm|tsetlin] [--smoke]";

    #[test]
    fn unknown_flag_is_a_usage_error() {
        let err = demo(&["--devices", "3", "--no-such-flag"]).unwrap_err();
        assert_eq!(err, Failure::Usage(format!("unknown flag --no-such-flag; {DEMO_USAGE}")));
    }

    #[test]
    fn missing_value_is_a_usage_error() {
        let err = demo(&["--smoke", "--devices"]).unwrap_err();
        assert_eq!(err, Failure::Usage(format!("--devices needs a value; {DEMO_USAGE}")));
    }

    #[test]
    fn unparsable_value_is_a_usage_error() {
        let flags = demo(&["--devices", "many", "--backend", "forest"]).unwrap();
        let err = flags.get("--devices", 1usize).unwrap_err();
        assert_eq!(err, Failure::Usage(format!("bad value many for --devices; {DEMO_USAGE}")));
        let err = flags.choice("--backend", &[("svm", 0), ("tsetlin", 1)]).unwrap_err();
        assert_eq!(err, Failure::Usage(format!("bad value forest for --backend; {DEMO_USAGE}")));
    }

    #[test]
    fn bare_switch_takes_no_value_and_absent_flags_default() {
        let flags = demo(&["--smoke", "--devices", "4"]).unwrap();
        assert!(flags.switch("--smoke"));
        assert_eq!(flags.get("--devices", 1usize), Ok(4));
        let flags = demo(&[]).unwrap();
        assert!(!flags.switch("--smoke"));
        assert_eq!(flags.get("--devices", 1usize), Ok(1));
        assert_eq!(flags.choice("--backend", &[("svm", 0), ("tsetlin", 1)]), Ok(0));
    }

    #[test]
    fn repeated_flag_keeps_the_last_value() {
        let flags = demo(&["--devices", "2", "--backend", "svm", "--devices", "5"]).unwrap();
        assert_eq!(flags.get("--devices", 1usize), Ok(5));
        let flags = demo(&["--backend", "tsetlin", "--backend", "svm"]).unwrap();
        assert_eq!(flags.choice("--backend", &[("svm", 0), ("tsetlin", 1)]), Ok(0));
    }

    #[test]
    fn thread_gate_fails_on_the_first_digest_that_moves() {
        let mut ran = Vec::new();
        let err = thread_gate(&[1, 2, 8, 16], |d: &u64| *d, |t| {
            ran.push(t);
            Ok(if t < 8 { 7 } else { 9 })
        })
        .unwrap_err();
        assert_eq!(
            err,
            Failure::Run(
                "digest drifted with thread count: 0x0000000000000007 at 1 threads vs \
                 0x0000000000000009 at 8"
                    .into()
            )
        );
        assert_eq!(ran, [1, 2, 8]);
        assert_eq!(thread_gate(&[1, 2, 8], |d: &u64| *d, |_| Ok(7)), Ok(vec![7, 7, 7]));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
    }
}
