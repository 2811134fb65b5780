//! Adversary-campaign gate: the per-attack-class detection matrix over
//! population-scale victim cohorts, across detector backends.
//!
//! Run: `cargo run --release -p bench --bin campaign`
//!
//! For each cell of {population size} × {detector backend} the bin
//! stages the full nine-class attack schedule (the paper's four legacy
//! vulnerability classes plus mimicry, replay-at-SNR, partial-window,
//! coordinated, adaptive) across a device fleet, and:
//!
//! 1. runs the campaign at 1, 2, and 8 worker threads and **exits
//!    nonzero** unless the campaign digest (fleet digest + per-class
//!    matrix) is identical at every thread count,
//! 2. checks the substitution class detects at all (the Table II
//!    attack must not silently regress to zero), and
//! 3. emits the detection matrix — windows TP/FN/FP/TN, device-level
//!    detections, mean latency, and integer Wilson 95 % bounds per
//!    class — as deterministic JSON.
//!
//! Writes `results/BENCH_campaign.json` (override with `--out PATH`);
//! every field is a pure function of the seeds, so `scripts/verify.sh`
//! hard-fails on any drift from the committed copy.

use bench::{fail, thread_gate, write_artifact, Context, Failure, Flags};
use ml::BackendKind;
use physio_sim::population::LEGACY_BANK_SEED;
use sift::features::Version;
use std::fmt::Write as _;
use std::process::ExitCode;
use wiot::attacker::ATTACK_CLASS_COUNT;
use wiot::campaign::{run_campaign, AttackClass, AttackWave, CampaignPlan, CampaignReport};

/// Session seconds per device: 7 detection windows of 8 s.
const DURATION_S: f64 = 56.0;
/// Attack interval: windows 2, 3, 4 fully covered (3 positives per
/// device), windows 0–1 and 5–6 genuine.
const ATTACK_START_S: f64 = 16.0;
const ATTACK_END_S: f64 = 40.0;
/// Devices per attack wave.
const WAVE_DEVICES: usize = 8;
/// Victims enrolled per cell (devices round-robin over the pool).
const VICTIM_POOL: usize = 8;
/// Donor subjects enrolled against each pool victim.
const DONORS_PER_VICTIM: usize = 6;
/// Campaign master seed.
const SEED: u64 = 0x00CA_4FA1;
/// Seed of the population-scale cohorts (the 12-subject cells use
/// [`LEGACY_BANK_SEED`] and therefore wear the legacy bank exactly).
const POPULATION_SEED: u64 = 0x090B_1A7E;

/// The full nine-class schedule, one wave per class.
fn waves() -> Vec<AttackWave> {
    let classes = [
        AttackClass::Substitution,
        AttackClass::Replay { offset_s: 10.0 },
        AttackClass::Freeze,
        AttackClass::NoiseInject { amplitude_mv: 0.6 },
        AttackClass::Mimicry {
            blend_permille: 700,
        },
        AttackClass::ReplaySnr {
            offset_s: 10.0,
            snr_db: 6.0,
        },
        AttackClass::PartialWindow {
            coverage_permille: 600,
        },
        AttackClass::Coordinated,
        AttackClass::Adaptive,
    ];
    classes
        .into_iter()
        .map(|class| AttackWave {
            class,
            devices: WAVE_DEVICES,
            start_s: ATTACK_START_S,
            end_s: ATTACK_END_S,
        })
        .collect()
}

fn plan(population_size: usize, population_seed: u64, backend: BackendKind) -> CampaignPlan {
    CampaignPlan {
        population_size,
        population_seed,
        victim_pool: VICTIM_POOL,
        donors_per_victim: DONORS_PER_VICTIM,
        seed: SEED,
        threads: 1,
        backend,
        version: Version::Simplified,
        duration_s: DURATION_S,
        waves: waves(),
    }
}

/// Run one cell at 1, 2, and 8 threads; fail on digest drift.
fn run_cell(p: &CampaignPlan) -> Result<CampaignReport, Failure> {
    let cell = format!("campaign cell (pop {}, {})", p.population_size, p.backend.id());
    let pass = |threads| run_campaign(&CampaignPlan { threads, ..p.clone() }).context(&cell);
    let mut passes = thread_gate(&[1, 2, 8], CampaignReport::digest, pass).context(&cell)?;
    Ok(passes.swap_remove(0))
}

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let flags = Flags::parse("campaign", "--out PATH")?;
    let out: String = flags.get("--out", "results/BENCH_campaign.json".into())?;
    let cells = [
        (12usize, LEGACY_BANK_SEED, BackendKind::Svm),
        (12, LEGACY_BANK_SEED, BackendKind::Tsetlin),
        (1024, POPULATION_SEED, BackendKind::Svm),
        (1024, POPULATION_SEED, BackendKind::Tsetlin),
    ];

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"campaign\",");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"duration_s\": {DURATION_S},");
    let _ = writeln!(
        json,
        "  \"attack_interval_s\": [{ATTACK_START_S}, {ATTACK_END_S}],"
    );
    let _ = writeln!(json, "  \"wave_devices\": {WAVE_DEVICES},");
    let _ = writeln!(json, "  \"victim_pool\": {VICTIM_POOL},");
    let _ = writeln!(json, "  \"donors_per_victim\": {DONORS_PER_VICTIM},");
    let _ = writeln!(json, "  \"cells\": [");

    for (ci, &(population, pop_seed, backend)) in cells.iter().enumerate() {
        let p = plan(population, pop_seed, backend);
        let report = run_cell(&p)?;

        // The Table II attack class must never silently regress to a
        // detector that misses everything.
        let sub = &report.classes[AttackClass::Substitution.index()];
        if sub.windows_tp == 0 {
            let cell = format!("pop {population}, {}", backend.id());
            return fail(format!("substitution class detected nothing ({cell})"));
        }
        let staged = report.classes.iter().filter(|c| c.devices > 0).count();
        if staged < ATTACK_CLASS_COUNT {
            return fail(format!("only {staged} of {ATTACK_CLASS_COUNT} classes staged"));
        }

        println!(
            "pop {population:>5} {:<8} digest {:#018x} (identical at 1, 2, and 8 threads)",
            backend.id(),
            report.digest()
        );
        println!(
            "  {:<15} {:>5} {:>5} {:>5} {:>5} {:>9} {:>15}",
            "class", "tp", "fn", "fp", "tn", "rate", "wilson95"
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"population\": {population},");
        let _ = writeln!(json, "      \"population_seed\": {pop_seed},");
        let _ = writeln!(json, "      \"backend\": \"{}\",", backend.id());
        let _ = writeln!(json, "      \"devices\": {},", report.fleet.devices);
        let _ = writeln!(json, "      \"digest\": \"{:#018x}\",", report.digest());
        let _ = writeln!(json, "      \"classes\": [");
        for (k, w) in p.waves.iter().enumerate() {
            let c = &report.classes[w.class.index()];
            let mean_latency = if c.detected_devices == 0 {
                0
            } else {
                c.latency_sum_ms / c.detected_devices as u64
            };
            println!(
                "  {:<15} {:>5} {:>5} {:>5} {:>5} {:>8}‰ [{:>4}‰, {:>4}‰]",
                w.class.name(),
                c.windows_tp,
                c.windows_fn,
                c.windows_fp,
                c.windows_tn,
                c.detection_permille,
                c.wilson_lo_permille,
                c.wilson_hi_permille
            );
            let _ = writeln!(
                json,
                "        {{ \"class\": \"{}\", \"devices\": {}, \"tp\": {}, \"fn\": {}, \
                 \"fp\": {}, \"tn\": {}, \"detected_devices\": {}, \"mean_latency_ms\": {}, \
                 \"detection_permille\": {}, \"wilson_lo_permille\": {}, \
                 \"wilson_hi_permille\": {} }}{}",
                w.class.name(),
                c.devices,
                c.windows_tp,
                c.windows_fn,
                c.windows_fp,
                c.windows_tn,
                c.detected_devices,
                mean_latency,
                c.detection_permille,
                c.wilson_lo_permille,
                c.wilson_hi_permille,
                if k + 1 == p.waves.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if ci + 1 == cells.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    write_artifact(&out, &json)?;
    println!("wrote {out}");
    Ok(())
}
