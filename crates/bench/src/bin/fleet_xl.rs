//! Extra-large fleet bench: drive ≥100 000 devices through the slab
//! streaming engine ([`wiot::slab`]) and prove the bounded-memory and
//! determinism claims at scale.
//!
//! Run: `cargo run --release -p bench --bin fleet_xl -- --devices 100000
//! --threads 8 --seed 61455 --duration 30`
//!
//! The bin runs the full fleet once per thread count in `1, 2, threads`
//! and **exits nonzero** unless every pass produces the same slab
//! digest, the reorder window's high-water mark stays within its
//! `workers × 4` cap, and the per-pass aggregate reports are identical.
//! The spec trades fidelity knobs the 100-device `fleet` bench keeps —
//! [`SynthProfile::Turbo`] waveforms, the `Reduced` detector flavor,
//! FRAM persistence off — for the throughput a million-device campaign
//! needs; its digest is pinned by its **own** baseline
//! (`results/BENCH_fleet_xl.json`), not the `fleet` one. For the same
//! reason its throughput is not compared with `fleet`'s.
//!
//! Writes `results/BENCH_fleet_xl.json` (override with `--out PATH`).
//! The digest and count fields are deterministic; wall-clock fields
//! (`*_wall_s`, throughput, `pending_high_water`) vary per machine and
//! run, which is why `scripts/verify.sh` hard-gates only the digest and
//! warns on the rest.

use bench::{
    enroll_fleet, fail, fleet_totals, thread_gate, write_artifact, Context, Failure, Flags, Json,
};
use ml::BackendKind;
use physio_sim::record::SynthProfile;
use sift::features::Version;
use std::process::ExitCode;
use std::time::Instant;
use wiot::fleet::FleetSpec;
use wiot::slab::{run_fleet_streamed, SlabReport};

fn main() -> ExitCode {
    bench::main(run)
}

fn run() -> Result<(), Failure> {
    let spec = "--devices N --threads N --seed N --duration SECONDS \
                --backend svm|tsetlin --out PATH";
    let flags = Flags::parse("fleet_xl", spec)?;
    let threads = flags.get("--threads", 8)?;
    let duration_s = flags.get("--duration", 30.0)?;
    let backend = flags.choice("--backend", &BackendKind::ALL.map(|k| (k.id(), k)))?;
    let out: String = flags.get("--out", "results/BENCH_fleet_xl.json".into())?;
    // The throughput-first fleet spec: `Reduced` flavor, turbo synthesis,
    // no FRAM persistence (the slab's checkpoint swap still exercises the
    // codec on every device).
    let mut spec = FleetSpec::new(flags.get("--devices", 100_000)?, duration_s)
        .with_seed(flags.get("--seed", 61455)?);
    spec.template.version = Version::Reduced;
    spec.template.synth = SynthProfile::Turbo;
    spec.template.persist = false;
    spec.template.backend = backend;
    println!(
        "fleet_xl bench: {} devices x {:.0} s ({} backend, reduced flavor, turbo synthesis, seed {})",
        spec.devices,
        duration_s,
        backend.id(),
        spec.seed
    );

    let t0 = Instant::now();
    let models = enroll_fleet(&spec)?;
    let train_wall_s = t0.elapsed().as_secs_f64();
    println!(
        "enrolled {} subjects in {:.1} s (shared across all devices)",
        models.len(),
        train_wall_s
    );

    // Every pass replays the identical fleet; the slab digest (folded
    // per-device, in retirement order) must not depend on the worker
    // count. The last pass (the caller's thread count) is the headline.
    let mut thread_counts = vec![1usize, 2];
    if !thread_counts.contains(&threads) {
        thread_counts.push(threads);
    }
    let pass = |threads| -> Result<(SlabReport, f64), Failure> {
        let t = Instant::now();
        let report = run_fleet_streamed(&spec.clone().with_threads(threads), &models)
            .context(format!("fleet_xl run failed at {threads} threads"))?;
        let wall = t.elapsed().as_secs_f64();
        println!(
            "  {} threads: {:.1} s wall -> {:.1} device-s/wall-s, digest {:#018x}, \
             pending high-water {}/{}",
            threads,
            wall,
            report.report.simulated_device_s / wall,
            report.slab_digest,
            report.pending_high_water,
            report.window_cap
        );
        if report.pending_high_water > report.window_cap {
            return fail(format!(
                "fleet_xl: FAIL reorder window exceeded its cap: {} > {}",
                report.pending_high_water, report.window_cap
            ));
        }
        Ok((report, wall))
    };
    let passes = thread_gate(&thread_counts, |(r, _)| r.slab_digest, pass);
    let passes = passes.context("fleet_xl: FAIL slab")?;
    if passes.iter().any(|(r, _)| r.report != passes[0].0.report) {
        return fail("fleet_xl: FAIL aggregate report moved with the worker count");
    }
    println!(
        "slab digest {:#018x} identical across {:?} worker threads",
        passes[0].0.slab_digest, thread_counts
    );

    let (headline, sim_wall_s) = &passes[passes.len() - 1];
    let rep = &headline.report;
    let throughput = rep.simulated_device_s / sim_wall_s;
    println!(
        "simulated {:.0} device-seconds in {:.1} s wall -> {:.1} device-s/wall-s",
        rep.simulated_device_s, sim_wall_s, throughput
    );
    println!(
        "windows scored {} (sink flagged {}), recovery {:.3}, outliers {}, \
         retired checkpoint bytes {}",
        rep.windows_scored,
        rep.sink_flagged,
        rep.mean_window_recovery,
        rep.outliers.len(),
        headline.retired_checkpoint_bytes
    );

    let head = [
        ("devices", Json::num(rep.devices)),
        ("threads", Json::num(thread_counts[thread_counts.len() - 1])),
        ("digest_threads", Json::Arr(thread_counts.iter().map(Json::num).collect())),
        ("seed", Json::num(rep.seed)),
        ("duration_s", Json::num(duration_s)),
        ("backend", backend.id().into()),
        ("version", "reduced".into()),
        ("synth", "turbo".into()),
        ("persist", Json::num(false)),
        ("simulated_device_s", Json::num(rep.simulated_device_s)),
        ("train_wall_s", Json::fixed(train_wall_s, 3)),
        ("sim_wall_s", Json::fixed(*sim_wall_s, 3)),
        ("throughput_device_s_per_wall_s", Json::fixed(throughput, 1)),
        ("slab_digest", Json::hex(headline.slab_digest)),
        ("window_cap", Json::num(headline.window_cap)),
        ("pending_high_water", Json::num(headline.pending_high_water)),
        ("retired_checkpoint_bytes", Json::num(headline.retired_checkpoint_bytes)),
    ];
    let doc = Json::obj(head.into_iter().chain(fleet_totals(rep)));
    write_artifact(&out, &doc.render())?;
    println!("wrote {out}");
    Ok(())
}
