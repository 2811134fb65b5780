//! `wearbench`: the repository's performance benchmark.
//!
//! ```text
//! wearbench run     --workload W [--seed S] [--seconds N] [--smoke] [--out FILE]
//! wearbench trace   --workload W [--seed S] [--seconds N] [--smoke] [--out FILE]
//! wearbench compare --base FILE... --change FILE...
//! wearbench --workload W --seed S --seconds N --trace 0|1
//! ```
//!
//! `run` measures one workload once, with tracing off, and prints its
//! end-to-end metrics; `trace` replays a sample of the same workload
//! with spans and prints the per-layer metrics; `compare` judges a
//! change's result files against its parent's. The last form is `run`
//! (`--trace 0`) or `trace` (`--trace 1`). Both measuring commands
//! print `name value unit` lines and, last, a one-line JSON summary
//! `{"correct", "attempted", "failed", "metrics"}` carrying the
//! metrics `BENCHMARK.json` declares; they exit nonzero when a
//! correctness check fails.
//!
//! `--seconds` sets the workload length: at the default 10 a run
//! simulates the device counts `BENCHMARK.json`'s workloads describe,
//! which take about that long on a 2-core host; other values scale the
//! device count in proportion, so both sides of a comparison always do
//! the same work. `--smoke` divides the length by 200. See `README.md`
//! beside this file for the metrics, workloads and trace method.

mod compare;
mod json;
mod run;
mod shadow;
mod trace;
mod workload;

use json::{obj, Json};
use std::process::ExitCode;
use workload::Workload;

/// The benchmark's contract: workloads, metrics, units, bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Devices of the untimed warm-up that precedes every measurement.
pub const WARM_UP_DEVICES: usize = 200;

/// Worker threads every workload runs: two, never more than the host
/// has.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What a measuring command was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Workload length relative to the default 10-second run.
    pub scale: f64,
    pub smoke: bool,
}

/// Everything one `run` or `trace` produced.
#[derive(Debug)]
pub struct Report {
    pub mode: &'static str,
    pub workload: &'static str,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Engine digest of every timed round (`run` only).
    pub digests: Vec<u64>,
    pub meta: Vec<(&'static str, String)>,
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn new(w: &Workload, mode: &'static str, opts: &Opts, devices: usize, threads: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut rep = Self {
            mode,
            workload: w.name,
            seed: opts.seed,
            correct: true,
            attempted: devices as u64,
            failed: 0,
            digests: Vec::new(),
            meta: Vec::new(),
            checks: Vec::new(),
            metrics: Vec::new(),
        };
        rep.meta("workload", w.name.to_string());
        rep.meta("seed", opts.seed.to_string());
        rep.meta("available_parallelism", cores.to_string());
        rep.meta("worker_threads", threads.to_string());
        rep.meta("devices", devices.to_string());
        rep.meta("params", w.params());
        rep.meta("rustc", command_output("rustc", &["-V"]));
        rep.meta("git_head", git_head());
        rep
    }

    fn meta(&mut self, key: &'static str, value: String) {
        self.meta.push((key, value));
    }

    /// Record a correctness check; any failure makes the run incorrect.
    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.correct &= ok;
        self.checks.push((what.into(), ok));
    }

    /// Set (or add) a metric.
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.metrics.push(Metric::new(name, value, unit)),
        }
    }

    /// The result file: metadata, checks, digests and every metric.
    fn to_json(&self) -> Json {
        obj([
            ("mode", Json::Str(self.mode.into())),
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Str(self.seed.to_string())),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "digests",
                Json::Arr(
                    self.digests
                        .iter()
                        .map(|d| Json::Str(format!("{d:#018x}")))
                        .collect(),
                ),
            ),
            (
                "meta",
                obj(self.meta.iter().map(|(k, v)| (*k, Json::Str(v.clone())))),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|(c, ok)| {
                            obj([("check", Json::Str(c.clone())), ("ok", Json::Bool(*ok))])
                        })
                        .collect(),
                ),
            ),
            ("metrics", metrics_json(self.metrics.iter())),
        ])
    }

    /// The last line of standard output: the metrics of `section` in
    /// `BENCHMARK.json` (`end_to_end` for `run`, `per_layer` for
    /// `trace`), in its order. A declared metric the run did not
    /// produce makes the summary incorrect.
    fn summary(&self, section: &str) -> Json {
        let names = declared(section);
        let picked: Vec<&Metric> = names
            .iter()
            .filter_map(|n| self.metrics.iter().find(|m| m.name == n.as_str()))
            .collect();
        let complete = picked.len() == names.len() && picked.iter().all(|m| m.value.is_finite());
        obj([
            ("correct", Json::Bool(self.correct && complete)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(picked.into_iter())),
        ])
    }

    /// The human-readable output: `meta`, `check` and `name value unit`
    /// lines.
    fn text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.meta {
            out += &format!("meta {k} {v}\n");
        }
        for (c, ok) in &self.checks {
            out += &format!("check {} {c}\n", if *ok { "ok" } else { "FAILED" });
        }
        for m in &self.metrics {
            out += &format!("{} {} {}\n", m.name, m.value, m.unit);
        }
        out
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Json {
    obj(metrics.map(|m| {
        (
            m.name,
            obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }))
}

/// Metric names `BENCHMARK.json` declares in `section`.
pub fn declared(section: &str) -> Vec<String> {
    Json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|doc| {
            doc.get(section)?
                .as_arr()?
                .iter()
                .map(|m| m.get("name")?.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// First line of a tool's standard output, or `unavailable`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".into())
}

/// The checked-out commit, when the working directory is a git
/// checkout's root (git is not asked to search parent directories).
fn git_head() -> String {
    if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unavailable".into()
    }
}

const USAGE: &str = "usage:
  wearbench run     --workload W [--seed S] [--seconds N] [--smoke] [--out FILE]
  wearbench trace   --workload W [--seed S] [--seconds N] [--smoke] [--out FILE]
  wearbench compare --base FILE... --change FILE...
  wearbench --workload W --seed S --seconds N --trace 0|1
workloads: fleet-turbo, fleet-fidelity, hostile-link, campaign";

/// A parsed measuring command.
#[derive(Debug)]
struct Measure {
    traced: bool,
    workload: &'static Workload,
    opts: Opts,
    out: Option<String>,
}

fn parse_measure(traced: bool, args: &[String]) -> Result<Measure, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut smoke = false;
    let mut out = None;
    let mut traced = traced;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: &'static Workload = workload.ok_or("--workload is required")?;
    let scale = seconds / 10.0 / if smoke { 200.0 } else { 1.0 };
    Ok(Measure {
        traced,
        workload,
        opts: Opts {
            seed: seed.unwrap_or(workload.default_seed),
            scale,
            smoke,
        },
        out,
    })
}

/// Run or trace, print, and write the result file.
fn measure(m: &Measure) -> Result<bool, String> {
    let (rep, section) = if m.traced {
        (trace::trace(m.workload, &m.opts), "per_layer")
    } else {
        (run::run(m.workload, &m.opts), "end_to_end")
    };
    print!("{}", rep.text());
    if let Some(path) = &m.out {
        std::fs::write(path, format!("{}\n", rep.to_json()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let summary = rep.summary(section);
    println!("{summary}");
    Ok(summary.get("correct").and_then(Json::as_bool) == Some(true))
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let mut side = None;
    for a in args {
        match a.as_str() {
            "--base" => side = Some(&mut base),
            "--change" => side = Some(&mut change),
            _ => side
                .as_mut()
                .ok_or(format!("{a}: expected --base or --change first"))?
                .push(a.clone()),
        }
    }
    if base.is_empty() || change.is_empty() {
        return Err("compare needs --base and --change result files".into());
    }
    compare::compare(&base, &change)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_measure(false, &args[1..]).and_then(|m| measure(&m)),
        Some("trace") => parse_measure(true, &args[1..]).and_then(|m| measure(&m)),
        Some("compare") => compare_files(&args[1..]),
        Some(a) if a.starts_with("--") => parse_measure(false, &args).and_then(|m| measure(&m)),
        _ => Err("missing command".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wearbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str) -> Opts {
        let w = workload::find(workload).unwrap();
        Opts {
            seed: w.default_seed,
            scale: 1.0 / 200.0,
            smoke: true,
        }
    }

    /// A smoke-scale run and trace of one workload: both correct, every
    /// declared metric present with its declared unit, the 1-vs-2-worker
    /// digest check and the replay's faithfulness checks passing.
    fn smoke_workload(name: &str) {
        let w = workload::find(name).unwrap();
        let opts = smoke(name);
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        for (rep, section) in [
            (run::run(w, &opts), "end_to_end"),
            (trace::trace(w, &opts), "per_layer"),
        ] {
            assert!(rep.correct, "{name} {}: {:?}", rep.mode, rep.checks);
            let text = rep.text();
            for m in doc.get(section).and_then(Json::as_arr).unwrap() {
                let want = m.get("name").and_then(Json::as_str).unwrap();
                let unit = m.get("unit").and_then(Json::as_str).unwrap();
                let printed = text.lines().find_map(|l| {
                    let [n, v, u] = l.split(' ').collect::<Vec<_>>()[..] else {
                        return None;
                    };
                    (n == want && u == unit).then(|| v.parse::<f64>().ok())?
                });
                assert!(
                    printed.is_some_and(f64::is_finite),
                    "{name}: no `{want} <value> {unit}` line in\n{text}"
                );
            }
            let summary = rep.summary(section);
            assert_eq!(summary.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(Json::parse(&summary.to_string()).unwrap(), summary);
        }
    }

    #[test]
    fn fleet_turbo_smoke() {
        smoke_workload("fleet-turbo");
    }

    #[test]
    fn fleet_fidelity_smoke() {
        smoke_workload("fleet-fidelity");
    }

    #[test]
    fn hostile_link_smoke() {
        smoke_workload("hostile-link");
    }

    #[test]
    fn campaign_smoke() {
        smoke_workload("campaign");
    }

    #[test]
    fn benchmark_json_declares_the_four_workloads() {
        let names = declared("workloads");
        let expected: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, expected);
        assert!(declared("end_to_end").iter().any(|n| n == "setup_s"));
    }

    #[test]
    fn flag_form_selects_run_or_trace() {
        let args: Vec<String> = [
            "--workload",
            "campaign",
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let m = parse_measure(false, &args).unwrap();
        assert!(m.traced);
        assert_eq!(m.opts.seed, 7);
        assert_eq!(m.opts.scale, 0.5);
        assert!(parse_measure(false, &args[..1]).is_err());
        assert!(parse_measure(false, &["--workload".into(), "nope".into()]).is_err());
    }
}
