//! Shared harness code for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` §3 for the index); this library
//! holds the experiment drivers, the text-table formatting they share,
//! and the one harness every binary runs on: a flag parser ([`Flags`]),
//! one exit path ([`main`]), a thread-invariance gate ([`thread_gate`]),
//! the bench matrix ([`Sweep`]), one JSON writer ([`Json`]) and an
//! artifact writer ([`write_artifact`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::pipeline::{evaluate_with_models, train_models, EvalProtocol, EvaluationResult};
use sift::trainer::ModelBank;
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;
use telemetry::{Stage, StageStats, TelemetryReport};
use wiot::fleet::{FleetReport, FleetSpec};
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
    /// Per-subject outcomes and their subject-averaged metrics.
    pub result: EvaluationResult,
}

/// Run the Table II cells of `flavors`, version-major: a [`Sweep`] over
/// the versions, each trained once (training is platform-independent,
/// as in the paper) and evaluated under every flavor.
pub fn run_table2(scale: Scale, flavors: &[PlatformFlavor]) -> Result<Vec<Table2Row>, Failure> {
    let subjects: Vec<_> = bank().into_iter().take(scale.subject_count()).collect();
    let config = scale.config();
    let protocol = EvalProtocol::default();
    let versions = Sweep {
        cells: Version::ALL.into(),
        axes: |v| vec![("version", Json::Str(v.to_string()))],
    };
    let cells = versions.run(|&version| {
        let models = train_models(&subjects, version, &config).context("training failed")?;
        let row = |&flavor| {
            let result = evaluate_with_models(&subjects, &models, flavor, &config, &protocol);
            let result = result.context(format!("{flavor} evaluation failed"))?;
            Ok(Table2Row { version, flavor, result })
        };
        flavors.iter().map(row).collect::<Result<Vec<_>, Failure>>()
    })?;
    Ok(cells.concat())
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
        let m = &r.result.averaged;
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

/// One value of a bench artifact's JSON document. A number keeps the
/// text it was formatted to, so each field keeps its own precision.
///
/// [`Json::render`] lays out every artifact by one rule: the root
/// object, and each object element of a root-level array, is a block
/// with one field per line; an array that holds objects puts one
/// element per line; everything else is inline (`{ "k": v }`, `[a, b]`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number or a literal (`true`, `false`), as written.
    Num(String),
    /// A string; `"` and `\` are escaped when written.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its fields in order.
    Obj(Vec<(&'static str, Json)>),
}

impl From<&str> for Json {
    fn from(text: &str) -> Self {
        Json::Str(text.into())
    }
}

impl Json {
    /// An object with `fields` in order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        Json::Obj(fields.into_iter().collect())
    }

    /// A number or literal as `Display` writes it (an `f64` in its
    /// shortest form: `56.0` is `56`).
    pub fn num(x: impl fmt::Display) -> Self {
        Json::Num(x.to_string())
    }

    /// `x` with `decimals` digits after the point.
    pub fn fixed(x: f64, decimals: usize) -> Self {
        Json::Num(format!("{x:.decimals$}"))
    }

    /// A 64-bit digest: the string `0x` and 16 hex digits.
    pub fn hex(digest: u64) -> Self {
        Json::Str(format!("{digest:#018x}"))
    }

    /// The whole document, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out + "\n"
    }

    /// Write `self` into a line indented by `indent`. `block` is set on
    /// the root object and on its arrays, whose object elements are
    /// blocks.
    fn write(&self, out: &mut String, indent: usize, block: bool) {
        let (open, close, items): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Num(text) => return out.push_str(text),
            Json::Str(text) => return write_str(out, text),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(*k), v)).collect()),
        };
        let object = open == '{';
        let holds_objects = items.iter().any(|(_, v)| matches!(v, Json::Obj(_)));
        let lines = if object { block } else { holds_objects };
        let pad = |depth| {
            if lines {
                format!("\n{:depth$}", "")
            } else {
                " ".repeat(usize::from(object))
            }
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&if lines || i == 0 { pad(indent + 2) } else { " ".into() });
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            // The root hands `block` to its arrays, they to their elements.
            let root_array = object && block && indent == 0 && matches!(value, Json::Arr(_));
            value.write(out, indent + 2, root_array || !object && block);
        }
        out.push_str(&pad(indent));
        out.push(close);
    }
}

fn write_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        if matches!(c, '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

/// A bench matrix: `cells` over named axes, whose values `axes` gives.
/// Each cell runs one closure; a cell whose result must not depend on
/// the worker count runs its passes through [`thread_gate`] inside it.
/// A cell's axis values name it when it fails and lead its artifact row.
pub struct Sweep<C> {
    /// The cells, in run and row order.
    pub cells: Vec<C>,
    /// A cell's axis names and values.
    pub axes: fn(&C) -> Vec<(&'static str, Json)>,
}

impl<C> Sweep<C> {
    /// Run `cell` on every cell in order; the first failure stops the
    /// sweep and names its cell.
    pub fn run<R>(
        &self,
        mut cell: impl FnMut(&C) -> Result<R, Failure>,
    ) -> Result<Vec<R>, Failure> {
        let label = |c| {
            let mut label = String::from("cell ");
            Json::Obj((self.axes)(c)).write(&mut label, 0, false);
            label
        };
        self.cells.iter().map(|c| cell(c).context(label(c))).collect()
    }

    /// One artifact row per cell: its axis values, then `fields` of the
    /// result [`Sweep::run`] returned for it.
    pub fn rows<R>(
        &self,
        results: &[R],
        fields: impl Fn(&R) -> Vec<(&'static str, Json)>,
    ) -> Json {
        let row = |(c, r)| Json::Obj([(self.axes)(c), fields(r)].concat());
        Json::Arr(self.cells.iter().zip(results).map(row).collect())
    }
}

/// The nearest-rank `p`-quantile (`0 ≤ p ≤ 1`) of `sorted`, an
/// ascending slice: the element at index `round((len − 1) · p)`, or 0.0
/// for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The spans `tele` observed on `stage`, checked against the cost
/// model: a stage with no spans fails, as does one whose mean span is
/// not `model_cycles`.
pub fn observed_stage(
    tele: &TelemetryReport,
    stage: Stage,
    model_cycles: f64,
) -> Result<StageStats, Failure> {
    let (observed, model) = (tele.stage(stage), model_cycles as u64);
    if observed.spans == 0 || observed.mean_units() != model {
        let (name, spans, mean) = (stage.name(), observed.spans, observed.mean_units());
        return fail(format!("{name}: {spans} spans of mean {mean} cycles, model {model} cycles"));
    }
    Ok(observed)
}

/// The model bank the fleet `spec` deploys: the bank's subjects enrolled
/// for its template's version and backend, at the fleet seed.
pub fn enroll_fleet(spec: &FleetSpec) -> Result<ModelBank, Failure> {
    let t = &spec.template;
    let models = ModelBank::train_backend(&bank(), t.version, t.backend, &t.config, spec.seed);
    models.context("enrollment failed")
}

/// The nine deterministic report fields every fleet artifact ends with.
pub fn fleet_totals(rep: &FleetReport) -> [(&'static str, Json); 9] {
    [
        ("windows_scored", Json::num(rep.windows_scored)),
        ("sink_flagged", Json::num(rep.sink_flagged)),
        ("dropped_windows", Json::num(rep.dropped_windows)),
        ("salvaged_windows", Json::num(rep.salvaged_windows)),
        ("mean_window_recovery", Json::fixed(rep.mean_window_recovery, 6)),
        ("detections", Json::num(rep.detections)),
        ("stall_alerts", Json::num(rep.stall_alerts)),
        ("outliers", Json::num(rep.outliers.len())),
        ("mean_battery_left", Json::fixed(rep.usage.mean_battery_left(), 6)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_table2_runs_and_beats_chance() {
        let flavors = [PlatformFlavor::Amulet, PlatformFlavor::Gold];
        let rows = run_table2(Scale::Smoke, &flavors).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.result.averaged.accuracy > 0.6,
                "{} {} accuracy {}",
                r.version,
                r.flavor,
                r.result.averaged.accuracy
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
        let spec = FleetSpec::new(2, 9.0).with_seed(5);
        let bank = enroll_fleet(&spec).unwrap();
        let report = wiot::fleet::run_fleet_with_bank(&spec, &bank).unwrap();
        let head = [
            ("devices", Json::num(report.devices)),
            ("throughput_device_s_per_wall_s", Json::fixed(report.simulated_device_s / 0.5, 1)),
            ("digest", Json::hex(report.digest())),
        ];
        let json = Json::obj(head.into_iter().chain(fleet_totals(&report))).render();
        assert!(json.starts_with("{\n  \"devices\": 2,\n"));
        assert!(json.contains("\"throughput_device_s_per_wall_s\": 36.0,\n"));
        assert!(json.contains(&format!("\"digest\": \"{:#018x}\",\n", report.digest())));
        assert!(json.contains(&format!("\"windows_scored\": {},\n", report.windows_scored)));
        let battery = format!("{:.6}", report.usage.mean_battery_left());
        assert!(json.ends_with(&format!("\"mean_battery_left\": {battery}\n}}\n")));
        assert_eq!(json.lines().count(), 14);
    }

    #[test]
    fn writer_lays_out_blocks_rows_and_inline_values_by_one_rule() {
        let doc = Json::obj([
            ("name", "t".into()),
            ("pair", Json::Arr(vec![Json::num(1), Json::num(2)])),
            (
                "inline",
                Json::obj([
                    ("a", Json::num(1)),
                    ("b", Json::Arr(vec![Json::num(0.5), Json::num(2.0)])),
                ]),
            ),
            (
                "rows",
                Json::Arr(vec![Json::obj([
                    ("id", Json::num(0u64)),
                    (
                        "parts",
                        Json::Arr(vec![
                            Json::obj([("x", Json::fixed(0.5, 3))]),
                            Json::obj([("x", Json::hex(255))]),
                        ]),
                    ),
                    ("scalars", Json::Arr(vec![Json::num(true), Json::num(false)])),
                ])]),
            ),
        ]);
        let expected = "{
  \"name\": \"t\",
  \"pair\": [1, 2],
  \"inline\": { \"a\": 1, \"b\": [0.5, 2] },
  \"rows\": [
    {
      \"id\": 0,
      \"parts\": [
        { \"x\": 0.500 },
        { \"x\": \"0x00000000000000ff\" }
      ],
      \"scalars\": [true, false]
    }
  ]
}
";
        assert_eq!(doc.render(), expected);
    }

    #[test]
    fn writer_escapes_quotes_and_backslashes() {
        let doc = Json::obj([("path", r#"a"b\c"#.into())]);
        assert_eq!(doc.render(), "{\n  \"path\": \"a\\\"b\\\\c\"\n}\n");
        let doc = Json::obj([("a", Json::Arr(vec![r#"\""#.into()]))]);
        assert_eq!(doc.render(), "{\n  \"a\": [\"\\\\\\\"\"]\n}\n");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let sorted: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 0.0);
        assert_eq!(percentile(&sorted, 1.0), 199.0);
        // round(199 · p): 9.95 → 10, 99.5 → 100, 189.05 → 189.
        assert_eq!(percentile(&sorted, 0.05), 10.0);
        assert_eq!(percentile(&sorted, 0.50), 100.0);
        assert_eq!(percentile(&sorted, 0.95), 189.0);
    }

    #[test]
    fn sweep_names_the_failed_cell_and_leads_rows_with_axis_values() {
        let sweep = Sweep {
            cells: vec![(1usize, "svm"), (2, "tsetlin")],
            axes: |&(n, kind)| vec![("n", Json::num(n)), ("kind", kind.into())],
        };
        let doubled = sweep.run(|&(n, _)| Ok(n * 2)).unwrap();
        let rows = Json::obj([("rows", sweep.rows(&doubled, |&d| vec![("d", Json::num(d))]))]);
        let second = "\"n\": 2,\n      \"kind\": \"tsetlin\",\n      \"d\": 4\n";
        assert!(rows.render().contains(second));
        let err = sweep.run(|&(n, _)| if n == 2 { fail("no") } else { Ok(n) }).unwrap_err();
        assert_eq!(err, Failure::Run("cell { \"n\": 2, \"kind\": \"tsetlin\" }: no".into()));
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
