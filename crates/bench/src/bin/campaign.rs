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

use bench::{fail, thread_gate, write_artifact, Context, Failure, Flags, Json, Sweep};
use ml::BackendKind;
use physio_sim::population::LEGACY_BANK_SEED;
use sift::features::Version;
use std::process::ExitCode;
use wiot::attacker::ATTACK_CLASS_COUNT;
use wiot::campaign::{
    run_campaign, AttackClass, AttackWave, CampaignPlan, CampaignReport, ClassOutcome,
};

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

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let flags = Flags::parse("campaign", "--out PATH")?;
    let out: String = flags.get("--out", "results/BENCH_campaign.json".into())?;
    let sweep = Sweep {
        cells: vec![
            (12usize, LEGACY_BANK_SEED, BackendKind::Svm),
            (12, LEGACY_BANK_SEED, BackendKind::Tsetlin),
            (1024, POPULATION_SEED, BackendKind::Svm),
            (1024, POPULATION_SEED, BackendKind::Tsetlin),
        ],
        axes: |&(population, pop_seed, backend)| {
            vec![
                ("population", Json::num(population)),
                ("population_seed", Json::num(pop_seed)),
                ("backend", backend.id().into()),
            ]
        },
    };
    let classes: Vec<AttackClass> = waves().iter().map(|w| w.class).collect();

    let reports = sweep.run(|&(population, pop_seed, backend)| {
        let p = plan(population, pop_seed, backend);
        let pass = |threads| run_campaign(&CampaignPlan { threads, ..p.clone() }).context("run");
        let report = thread_gate(&[1, 2, 8], CampaignReport::digest, pass)?.swap_remove(0);

        // The Table II attack class must never silently regress to a
        // detector that misses everything.
        if report.classes[AttackClass::Substitution.index()].windows_tp == 0 {
            return fail("substitution class detected nothing");
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
        for class in &classes {
            let c = &report.classes[class.index()];
            println!(
                "  {:<15} {:>5} {:>5} {:>5} {:>5} {:>8}‰ [{:>4}‰, {:>4}‰]",
                class.name(),
                c.windows_tp,
                c.windows_fn,
                c.windows_fp,
                c.windows_tn,
                c.detection_permille,
                c.wilson_lo_permille,
                c.wilson_hi_permille
            );
        }
        Ok(report)
    })?;

    let class_row = |class: &AttackClass, c: &ClassOutcome| {
        let mean_latency = c.latency_sum_ms.checked_div(c.detected_devices as u64).unwrap_or(0);
        Json::obj([
            ("class", class.name().into()),
            ("devices", Json::num(c.devices)),
            ("tp", Json::num(c.windows_tp)),
            ("fn", Json::num(c.windows_fn)),
            ("fp", Json::num(c.windows_fp)),
            ("tn", Json::num(c.windows_tn)),
            ("detected_devices", Json::num(c.detected_devices)),
            ("mean_latency_ms", Json::num(mean_latency)),
            ("detection_permille", Json::num(c.detection_permille)),
            ("wilson_lo_permille", Json::num(c.wilson_lo_permille)),
            ("wilson_hi_permille", Json::num(c.wilson_hi_permille)),
        ])
    };
    let cells = sweep.rows(&reports, |r| {
        let rows = classes.iter().map(|k| class_row(k, &r.classes[k.index()])).collect();
        vec![
            ("devices", Json::num(r.fleet.devices)),
            ("digest", Json::hex(r.digest())),
            ("classes", Json::Arr(rows)),
        ]
    });
    let doc = Json::obj([
        ("bench", "campaign".into()),
        ("seed", Json::num(SEED)),
        ("duration_s", Json::num(DURATION_S)),
        ("attack_interval_s", Json::Arr(vec![Json::num(ATTACK_START_S), Json::num(ATTACK_END_S)])),
        ("wave_devices", Json::num(WAVE_DEVICES)),
        ("victim_pool", Json::num(VICTIM_POOL)),
        ("donors_per_victim", Json::num(DONORS_PER_VICTIM)),
        ("cells", cells),
    ]);
    write_artifact(&out, &doc.render())?;
    println!("wrote {out}");
    Ok(())
}
