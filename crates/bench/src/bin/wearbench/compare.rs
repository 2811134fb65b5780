//! `wearbench compare`: parent runs against change runs, per workload
//! and end-to-end metric, with verdict rules that stay sound on a
//! small, shared host:
//!
//! * **unresolved** — the run-to-run spread (interquartile range over
//!   median, the wider of the two sides) exceeds the metric's bound,
//!   unless every change run reads better than every parent run;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **improved** — the change wins at least 9/10 of the pairs and the
//!   medians differ by more than the parent's interquartile range;
//! * **unchanged** — otherwise.
//!
//! Runs are paired by seed where both sides ran the same seeds, else in
//! file order. A metric whose paired values are all identical is
//! unchanged whatever its spread across seeds.
//!
//! The modelled-device statistics and `failed_ratio` are pure functions
//! of the seed, so they are judged exactly, on same-seed pairs only: a
//! host-only change must leave every pair identical. Any pair that reads
//! worse is a regression, and pairs that differ but none for the worse
//! are an improvement. A same-seed pair whose digests differ also fails
//! the comparison.

use crate::json::Json;
use crate::BENCHMARK_JSON;
use std::collections::BTreeMap;

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` of sorted values.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First quartile, median and third quartile by the "exclusive" method
/// (Python's `statistics.quantiles(values, n=4)`); one value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut q = [0.0; 3];
    for (i, out) in (1..4).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *out = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `base` (paired by index) for a metric with
/// regression `bound` (a share of the parent's median; 0 judges the
/// metric exactly). Returns the verdict and the fraction of pairs the
/// change won.
fn judge(base: &[f64], change: &[f64], bound: f64, higher_is_better: bool) -> (Verdict, f64) {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let pairs = base.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], base[i])).count();
    let won = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    if pairs > 0 && (0..pairs).all(|i| change[i] == base[i]) {
        return (Verdict::Unchanged, won);
    }
    if bound == 0.0 {
        let v = if (0..pairs).any(|i| better(base[i], change[i])) {
            Verdict::Regressed
        } else {
            Verdict::Improved
        };
        return (v, won);
    }
    let [b1, bm, b3] = quartiles(base);
    let cm = median(change);
    let all_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    if spread(base).max(spread(change)) > bound {
        let v = if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
        return (v, won);
    }
    let worse_by = if higher_is_better { bm - cm } else { cm - bm };
    if worse_by > bound * bm.abs() {
        return (Verdict::Regressed, won);
    }
    if won >= 0.9 && better(cm, bm) && (cm - bm).abs() > b3 - b1 {
        return (Verdict::Improved, won);
    }
    (Verdict::Unchanged, won)
}

/// One end-to-end metric's contract: name, direction, bound.
struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// End-to-end metrics judged exactly: `(name, unit, higher is better)`.
/// `BENCHMARK.json` gives three of them small bounds, which cover their
/// spread across different seeds; on a same-seed pair they must not move
/// at all. The other three are not in its summary line: `failed_ratio`
/// is 0 on every good run, `false_alarm_rate` can be 0, and
/// `attack_recall` exists only for the campaign.
const EXACT: [(&str, &str, bool); 6] = [
    ("failed_ratio", "fraction", false),
    ("mcu_cycles_per_window", "cycles", false),
    ("mcu_mah_per_device_hour", "mAh", false),
    ("false_alarm_rate", "fraction", false),
    ("window_recovery", "fraction", true),
    ("attack_recall", "fraction", true),
];

/// The end-to-end metrics of `BENCHMARK.json` with their bounds, the
/// [`EXACT`] ones at bound 0, followed by the exact ones it does not
/// list.
fn bounds() -> Result<Vec<Bound>, String> {
    let doc = Json::parse(BENCHMARK_JSON)?;
    let exact = |name: &str| EXACT.iter().any(|e| e.0 == name);
    let mut out = Vec::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
        let name = field("name")?.as_str().unwrap_or_default().to_string();
        let bound = field("bound")?.as_f64().ok_or("non-numeric bound")?;
        out.push(Bound {
            bound: if exact(&name) { 0.0 } else { bound },
            name,
            unit: field("unit")?.as_str().unwrap_or_default().to_string(),
            higher_is_better: field("better")?.as_str() == Some("higher"),
        });
    }
    for (name, unit, higher) in EXACT {
        if !out.iter().any(|b| b.name == name) {
            out.push(Bound {
                name: name.into(),
                unit: unit.into(),
                higher_is_better: higher,
                bound: 0.0,
            });
        }
    }
    Ok(out)
}

/// A result file written by `wearbench run --out`.
struct RunFile {
    workload: String,
    seed: String,
    /// Engine digest of every timed round.
    digests: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("mode").and_then(Json::as_str) != Some("run") {
        return Err(format!("{path}: not a `wearbench run` result"));
    }
    let text_of = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_string);
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or(format!("{path}: no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let digests = doc
        .get("digests")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    Ok(RunFile {
        workload: text_of("workload").ok_or(format!("{path}: no workload"))?,
        seed: text_of("seed").unwrap_or_default(),
        digests,
        metrics,
    })
}

/// Pair parent and change runs of one workload: by seed when both sides
/// ran the same multiset of seeds, else in file order.
fn paired<'a>(base: &[&'a RunFile], change: &[&'a RunFile]) -> Vec<(&'a RunFile, &'a RunFile)> {
    let mut b = base.to_vec();
    let mut c = change.to_vec();
    let seeds = |v: &[&RunFile]| {
        let mut s: Vec<String> = v.iter().map(|r| r.seed.clone()).collect();
        s.sort();
        s
    };
    if seeds(&b) == seeds(&c) {
        b.sort_by(|x, y| x.seed.cmp(&y.seed));
        c.sort_by(|x, y| x.seed.cmp(&y.seed));
    }
    b.into_iter().zip(c).collect()
}

/// Compare result files; prints one row per workload and metric and
/// returns whether every metric is improved or unchanged and every
/// same-seed pair has identical digests.
pub fn compare(base_paths: &[String], change_paths: &[String]) -> Result<bool, String> {
    let load_all = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    Ok(judge_runs(
        &bounds()?,
        &load_all(base_paths)?,
        &load_all(change_paths)?,
    ))
}

fn judge_runs(bounds: &[Bound], base: &[RunFile], change: &[RunFile]) -> bool {
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let mut clean = true;
    println!(
        "{:<15} {:<24} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13} {:>5} verdict",
        "workload",
        "metric",
        "parent_q1",
        "parent_med",
        "parent_q3",
        "change_q1",
        "change_med",
        "change_q3",
        "won"
    );
    for wl in workloads {
        let b: Vec<&RunFile> = base.iter().filter(|r| r.workload == wl).collect();
        let c: Vec<&RunFile> = change.iter().filter(|r| r.workload == wl).collect();
        if c.is_empty() {
            println!("{wl:<15} no change runs");
            clean = false;
            continue;
        }
        let pairs = paired(&b, &c);
        for m in bounds {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter(|(x, y)| m.bound > 0.0 || x.seed == y.seed)
                .filter_map(|(x, y)| Some((*x.metrics.get(&m.name)?, *y.metrics.get(&m.name)?)))
                .collect();
            if values.is_empty() {
                continue;
            }
            let (bv, cv): (Vec<f64>, Vec<f64>) = values.into_iter().unzip();
            let (verdict, won) = judge(&bv, &cv, m.bound, m.higher_is_better);
            let [b1, bm, b3] = quartiles(&bv);
            let [c1, cm, c3] = quartiles(&cv);
            println!(
                "{wl:<15} {:<24} {b1:>13.6} {bm:>13.6} {b3:>13.6} {c1:>13.6} {cm:>13.6} {c3:>13.6} \
                 {won:>5.2} {} ({}, bound {})",
                m.name,
                verdict.name(),
                m.unit,
                m.bound
            );
            clean &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
        }
        let same_digests = pairs
            .iter()
            .filter(|(x, y)| x.seed == y.seed)
            .all(|(x, y)| x.digests == y.digests);
        println!(
            "{wl:<15} digests {} on same-seed pairs",
            if same_digests { "identical" } else { "DIFFER" }
        );
        clean &= same_digests;
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    /// Ten parent runs of a throughput with ±1 % run-to-run noise.
    fn parent() -> Vec<f64> {
        [
            1.0, 0.995, 1.004, 0.991, 1.008, 0.999, 1.002, 0.994, 1.006, 0.997,
        ]
        .iter()
        .map(|x| 100.0 * x)
        .collect()
    }

    /// The bound `compare` applies to `name`, from `BENCHMARK.json`.
    fn bound_of(name: &str) -> f64 {
        bounds()
            .unwrap()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap()
            .bound
    }

    #[test]
    fn a_throughput_drop_beyond_its_bound_regresses() {
        let bound = bound_of("throughput");
        assert!(bound > 0.0);
        let base = parent();
        let change: Vec<f64> = base.iter().rev().map(|x| x * (0.95 - bound)).collect();
        assert_eq!(judge(&base, &change, bound, true).0, Verdict::Regressed);
    }

    #[test]
    fn a_two_percent_throughput_drop_is_unchanged() {
        let base = parent();
        let change: Vec<f64> = base.iter().rev().map(|x| x * 0.98).collect();
        assert_eq!(
            judge(&base, &change, bound_of("throughput"), true).0,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_consistent_gain_improves_and_noise_is_unresolved() {
        let bound = bound_of("throughput");
        let base = parent();
        let faster: Vec<f64> = base.iter().rev().map(|x| x * 1.05).collect();
        let (v, won) = judge(&base, &faster, bound, true);
        assert_eq!(v, Verdict::Improved);
        assert!(won >= 0.9);
        let noisy = [50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(
            judge(&base[..5], &noisy, bound, true).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn modelled_metrics_are_judged_exactly() {
        for (name, ..) in EXACT {
            assert_eq!(bound_of(name), 0.0, "{name}");
        }
        // Identical pairs are unchanged however widely they spread
        // across seeds; any pair that moves for the worse regresses.
        let cycles = [131_312.0, 2_227_040.0, 2_225_716.0];
        assert_eq!(judge(&cycles, &cycles, 0.0, false).0, Verdict::Unchanged);
        let mut worse = cycles;
        worse[1] += 1.0;
        assert_eq!(judge(&cycles, &worse, 0.0, false).0, Verdict::Regressed);
        let mut better = cycles;
        better[2] -= 1.0;
        assert_eq!(judge(&cycles, &better, 0.0, false).0, Verdict::Improved);
    }

    #[test]
    fn a_digest_mismatch_fails_the_comparison() {
        let run = |digest: &str| RunFile {
            workload: "fleet-turbo".into(),
            seed: "1".into(),
            digests: vec!["0x1".into(), digest.into()],
            metrics: BTreeMap::from([("throughput".to_string(), 100.0)]),
        };
        let bounds = bounds().unwrap();
        assert!(judge_runs(&bounds, &[run("0x2")], &[run("0x2")]));
        assert!(!judge_runs(&bounds, &[run("0x2")], &[run("0x3")]));
    }
}
