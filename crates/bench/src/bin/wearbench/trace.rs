//! `wearbench trace`: the per-layer metrics.
//!
//! Every 10th device of the workload is replayed single-threaded. Each
//! sampled device is provisioned exactly as its engine provisions it
//! and run through the calls the engine makes per device —
//! `DeviceSim::with_options`, `run_to_completion`,
//! `take_uplinked_features`, `DetectorBackend::score_batch_f32`,
//! `into_report`, and (slab engine) the `DetectorCheckpoint` swap — with
//! a span around each. The layers nested inside those calls are timed
//! by a second, layer-by-layer run of the same device
//! ([`crate::shadow`]); a span's self time is its duration minus the
//! nested measurements.
//!
//! The replay must be faithful: its fold must equal the engine's run of
//! the same sample (fleet workloads), or each replayed device must equal
//! the engine's own row (campaign).

use crate::compare::{median, percentile};
use crate::shadow::{self, Layer};
use crate::workload::{
    Kind, SampledBank, SampledCampaign, Setup, Workload, CAMPAIGN_PROVISION_SYNTHS,
};
use crate::{worker_threads, Metric, Opts, Report, WARM_UP_DEVICES};
use amulet_sim::profiler::UsageSnapshot;
use ml::{DetectorBackend, Label};
use sift::checkpoint::DetectorCheckpoint;
use std::error::Error;
use std::time::{Duration, Instant};
use wiot::campaign::run_campaign;
use wiot::fleet::{
    run_fleet_provisioned, DeviceProvision, DeviceSummary, FleetProvisioner, FleetReport, FleetSpec,
};
use wiot::scenario::{DeviceOptions, DeviceSim};
use wiot::slab::run_fleet_streamed_provisioned;

/// Every `SAMPLE_STRIDE`-th device is traced.
const SAMPLE_STRIDE: usize = 10;

/// Sums over the sampled devices.
#[derive(Default)]
struct Acc {
    provision: Duration,
    checkpoint: Duration,
    build: Duration,
    run: Duration,
    uplink: Duration,
    score: Duration,
    report: Duration,
    /// Wall time of the span-covered part of the replay loop.
    traced: Duration,
    build_nested: Duration,
    run_nested: Duration,
    synth: Duration,
    station: Duration,
    link: Duration,
    persist: Duration,
    attacker: Duration,
    extract: Duration,
    dispatch: Duration,
    device_ms: Vec<f64>,
    build_self_ms: Vec<f64>,
    run_self_ms: Vec<f64>,
    synth_calls: u64,
    provision_synths: u64,
    extract_calls: u64,
    degenerate: u64,
    dispatch_calls: u64,
    usage: UsageSnapshot,
    score_rows: u64,
    roundtrips: u64,
    checkpoint_bytes: u64,
    commits: u64,
    recoveries: u64,
    rollbacks: u64,
    sent: u64,
    lost: u64,
    retransmits: u64,
    give_ups: u64,
    packets: u64,
    emitted: u64,
    salvaged: u64,
    dropped: u64,
    hijacked: u64,
    simulated_s: f64,
    /// Devices whose replay diverged from the device itself.
    unfaithful: Vec<String>,
}

impl Acc {
    /// Σ device spans over the sample.
    fn device_spans(&self) -> Duration {
        self.provision
            + self.checkpoint
            + self.build
            + self.run
            + self.uplink
            + self.score
            + self.report
    }
}

/// Trace `w` and collect its per-layer metrics.
pub fn trace(w: &Workload, opts: &Opts) -> Report {
    let threads = worker_threads();
    let units = w.units(opts.scale);
    let mut rep = Report::new(w, "trace", opts, w.devices(units), threads);
    let started = Instant::now();
    if let Err(e) = measure(w, opts, units, threads, &mut rep) {
        rep.check(format!("trace error: {e}"), false);
        rep.failed = rep.attempted;
    }
    rep.meta(
        "run_wall_s",
        format!("{:.3}", started.elapsed().as_secs_f64()),
    );
    rep
}

fn measure(
    w: &Workload,
    opts: &Opts,
    units: usize,
    threads: usize,
    rep: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let seed = opts.seed;
    let t = Instant::now();
    let setup = w.enroll(seed)?;
    let enroll = t.elapsed();
    w.run_engine(
        &setup,
        w.units_for(WARM_UP_DEVICES).min(units),
        threads,
        seed,
    )?;

    let sample: Vec<usize> = (0..w.devices(units)).step_by(SAMPLE_STRIDE).collect();
    let n = sample.len();
    rep.attempted = n as u64;
    rep.meta("sampled_devices", n.to_string());
    let spec = w.fleet_spec(n, 1, seed);
    let spec2 = spec.clone().with_threads(threads);
    let mut acc = Acc::default();

    // Campaign devices whose replayed row differs from the engine's.
    let mut differing = Vec::new();
    let engine = match (&w.kind, &setup) {
        (Kind::Fleet { .. }, Setup::Bank(models)) => {
            let prov = SampledBank {
                models,
                sample: &sample,
            };
            let (one, wall1) = timed(|| run_fleet_streamed_provisioned(&spec, &prov))?;
            let (two, wall2) = timed(|| run_fleet_streamed_provisioned(&spec2, &prov))?;
            rep.check(
                format!(
                    "sample digest {:#018x} on 1 worker, {:#018x} on {threads}",
                    one.slab_digest, two.slab_digest
                ),
                one.slab_digest == two.slab_digest,
            );
            let rows = replay(&spec, &prov, &sample, true, &mut acc)?;
            check_fold(rep, &rows, &one.report);
            Engine {
                wall1,
                wall2,
                high_water: two.pending_high_water,
                retired_bytes: two.retired_checkpoint_bytes,
            }
        }
        (Kind::Campaign, Setup::Campaign(cs)) => {
            let plan = w.campaign_plan(units, threads, seed);
            let prov = SampledCampaign {
                plan: &plan,
                setup: cs,
                sample: &sample,
            };
            let (_, wall1) = timed(|| run_fleet_provisioned(&spec, &prov))?;
            let (_, wall2) = timed(|| run_fleet_provisioned(&spec2, &prov))?;
            let full = run_campaign(&plan)?;
            let rows = replay(&spec, &prov, &sample, false, &mut acc)?;
            differing = rows
                .iter()
                .filter(|r| full.fleet.per_device.get(r.device) != Some(*r))
                .map(|r| r.device)
                .collect();
            rep.check(
                format!(
                    "{} of {n} replayed devices equal the campaign's rows{}",
                    n - differing.len(),
                    first_few(&differing)
                ),
                differing.is_empty(),
            );
            acc.provision_synths = CAMPAIGN_PROVISION_SYNTHS * n as u64;
            Engine {
                wall1,
                wall2,
                high_water: 0,
                retired_bytes: 0,
            }
        }
        _ => return Err("workload given an enrollment of another kind".into()),
    };

    rep.check(
        format!(
            "{} of {n} layer replays reproduce their device{}",
            n - acc.unfaithful.len(),
            first_few(&acc.unfaithful)
        ),
        acc.unfaithful.is_empty(),
    );
    rep.failed = (acc.unfaithful.len() + differing.len()).min(n) as u64;
    let (metrics, px_label) = per_layer(&acc, &engine, enroll, threads);
    rep.meta("device.ms_pX", format!("{px_label} of {n} devices"));
    rep.meta("device_spans_ms", format!("{:.3}", ms(acc.device_spans())));
    rep.metrics = metrics;
    Ok(())
}

/// The engine's own runs of the sample, untraced.
struct Engine {
    wall1: Duration,
    wall2: Duration,
    high_water: usize,
    retired_bytes: u64,
}

fn timed<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<(T, Duration), E> {
    let t = Instant::now();
    let v = f()?;
    Ok((v, t.elapsed()))
}

fn first_few<T: std::fmt::Debug>(items: &[T]) -> String {
    match items {
        [] => String::new(),
        _ => format!(" (differing: {:?})", &items[..items.len().min(5)]),
    }
}

/// Replay every sampled device; returns the rows the engine would have
/// produced.
fn replay(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
    sample: &[usize],
    slab: bool,
    acc: &mut Acc,
) -> Result<Vec<DeviceSummary>, Box<dyn Error>> {
    let mut slot_buf = Vec::new();
    sample
        .iter()
        .enumerate()
        .map(|(slot, &device)| trace_device(spec, prov, slot, device, slab, &mut slot_buf, acc))
        .collect()
}

/// One sampled device: the spanned engine calls, then the layer-by-layer
/// replay of the same device.
fn trace_device(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
    slot: usize,
    device: usize,
    slab: bool,
    buf: &mut Vec<u8>,
    acc: &mut Acc,
) -> Result<DeviceSummary, Box<dyn Error>> {
    let t0 = Instant::now();
    let DeviceProvision {
        scenario,
        subject,
        model,
        deployed,
    } = prov.provision(spec, slot)?;
    let t1 = Instant::now();
    // Slab swap-in: the device runs on the model decoded from the slot.
    let mut resident = None;
    let mut t2 = t1;
    if slab {
        let swap_in = DetectorCheckpoint::new(scenario.version, deployed.clone())?;
        if buf.len() < swap_in.encoded_len() {
            buf.resize(swap_in.encoded_len(), 0);
        }
        let n = swap_in.encode_into(buf)?;
        acc.checkpoint_bytes += n as u64;
        resident = Some(DetectorCheckpoint::decode(&buf[..n])?);
        t2 = Instant::now();
    }
    let run_model = resident.as_ref().map_or(deployed, |r| &r.model);
    let mut sim = DeviceSim::with_options(
        &scenario,
        DeviceOptions {
            model,
            deployed: Some(run_model),
            feature_uplink: true,
            telemetry: false,
            subject,
        },
    )?;
    let t3 = Instant::now();
    sim.run_to_completion()?;
    let t4 = Instant::now();
    let features = sim.take_uplinked_features();
    let t5 = Instant::now();
    let mut flat = Vec::with_capacity(features.len() * run_model.dim());
    for (_, f) in &features {
        flat.extend_from_slice(f);
    }
    let margins = run_model.score_batch_f32(&flat)?;
    let t6 = Instant::now();
    let usage = sim.station().os().usage_snapshot();
    let stats = sim.station().stats();
    let alerts = sim.station().alerts().len();
    let window_log: Vec<_> = sim.window_log().iter().copied().collect();
    let t7 = Instant::now();
    let report = sim.into_report()?;
    let t8 = Instant::now();
    // Slab swap-out: the final stream position leaves through the slot.
    let mut t9 = t8;
    if let Some(r) = resident.as_mut() {
        let c = &report.confusion;
        r.windows_seen = u32::try_from(c.tp + c.fp + c.tn + c.fn_).unwrap_or(u32::MAX);
        r.alerts_raised = u32::try_from(report.sink.alerts().len()).unwrap_or(u32::MAX);
        acc.checkpoint_bytes += r.encode_into(buf)? as u64;
        acc.roundtrips += 1;
        t9 = Instant::now();
    }

    let summary = DeviceSummary {
        device,
        victim: scenario.victim,
        seed: scenario.seed,
        confusion: report.confusion,
        ambiguous_windows: report.ambiguous_windows,
        dropped_windows: report.dropped_windows,
        salvaged_windows: report.salvaged_windows,
        window_recovery_rate: report.window_recovery_rate,
        detection_latency_ms: report.detection_latency_ms,
        channel: report.channel,
        transport: report.transport,
        stall_alerts: report.stall_alerts,
        faults: report.faults,
        alerts: report.sink.alerts().len(),
        usage,
        windows_scored: margins.len(),
        sink_flagged: margins
            .iter()
            .filter(|&&m| Label::from_sign(f64::from(m)) == Label::Positive)
            .count(),
        margin_min: margins
            .iter()
            .fold(f64::INFINITY, |a, &m| a.min(f64::from(m))),
        margin_sum: margins.iter().map(|&m| f64::from(m)).sum(),
        telemetry: None,
    };

    let (provision, swap) = (t1 - t0, (t2 - t1) + (t9 - t8));
    let (build, run, uplink, score, into_report) = (t3 - t2, t4 - t3, t5 - t4, t6 - t5, t8 - t7);
    let total = provision + swap + build + run + uplink + score + into_report;
    acc.provision += provision;
    acc.checkpoint += swap;
    acc.build += build;
    acc.run += run;
    acc.uplink += uplink;
    acc.score += score;
    acc.report += into_report;
    acc.traced += (t9 - t0) - (t7 - t6);
    acc.device_ms.push(ms(total));

    // The nested layers, measured by replaying the same device.
    let run_model = resident.as_ref().map_or(deployed, |r| &r.model);
    let mut sh = shadow::replay(&scenario, subject, run_model)?;
    let mut faults = sh.faults;
    faults.attack_windows_tp = report.faults.attack_windows_tp;
    faults.attack_windows_fn = report.faults.attack_windows_fn;
    let features_again = shadow::replay_features(&sh.events, scenario.version, &scenario.config);
    let events = std::mem::take(&mut sh.events);
    let (dispatch, dispatched) = shadow::replay_dispatch(events, &scenario, run_model)?;
    let faithful = sh.window_log == window_log
        && sh.stats == stats
        && sh.alerts == alerts
        && sh.usage == usage
        && sh.uplinked == features
        && sh.channel == report.channel
        && sh.transport == report.transport
        && faults == report.faults
        && features_again.mismatches == 0
        && dispatched == usage.dispatched;
    if !faithful {
        acc.unfaithful.push(format!("device {device}"));
    }

    let build_nested = sh.time(Layer::Synth)
        + sh.time(Layer::StationBuild)
        + sh.time(Layer::LinkBuild)
        + sh.time(Layer::PersistBuild)
        + sh.time(Layer::AttackerBuild);
    let station = sh.time(Layer::Station).saturating_sub(sh.probe);
    let run_nested =
        station + sh.time(Layer::Link) + sh.time(Layer::Persist) + sh.time(Layer::Attacker);
    acc.build_nested += build_nested;
    acc.run_nested += run_nested;
    acc.build_self_ms.push(ms(build) - ms(build_nested));
    acc.run_self_ms.push(ms(run) - ms(run_nested));
    acc.synth += sh.time(Layer::Synth);
    acc.station += station + sh.time(Layer::StationBuild);
    acc.link += sh.time(Layer::Link) + sh.time(Layer::LinkBuild);
    acc.persist += sh.time(Layer::Persist) + sh.time(Layer::PersistBuild);
    acc.attacker += sh.time(Layer::Attacker) + sh.time(Layer::AttackerBuild);
    acc.extract += features_again.time;
    acc.dispatch += dispatch;

    acc.synth_calls += 1;
    acc.extract_calls += features_again.calls;
    acc.degenerate += features_again.degenerate;
    acc.dispatch_calls += dispatched;
    acc.usage.merge(&usage);
    acc.score_rows += margins.len() as u64;
    acc.commits += sh.commits;
    acc.recoveries += report.faults.recoveries;
    acc.rollbacks += report.faults.rollbacks;
    acc.sent += report.channel.sent;
    acc.lost += report.channel.lost;
    if let Some(t) = report.transport {
        acc.retransmits += t.retransmits;
        acc.give_ups += t.give_ups;
    }
    acc.packets += stats.packets_received;
    acc.emitted += stats.windows_emitted;
    acc.salvaged += stats.windows_salvaged;
    acc.dropped += stats.windows_dropped;
    acc.hijacked += sh.hijacked;
    acc.simulated_s += scenario.duration_s;
    Ok(summary)
}

/// The replay's fold must equal the engine's aggregates over the same
/// sample.
fn check_fold(rep: &mut Report, rows: &[DeviceSummary], engine: &FleetReport) {
    let mut usage = UsageSnapshot::default();
    let (mut scored, mut flagged, mut tp, mut fp, mut tn, mut fn_) = (0, 0, 0, 0, 0, 0);
    for r in rows {
        usage.merge(&r.usage);
        scored += r.windows_scored;
        flagged += r.sink_flagged;
        tp += r.confusion.tp;
        fp += r.confusion.fp;
        tn += r.confusion.tn;
        fn_ += r.confusion.fn_;
    }
    let c = &engine.confusion;
    rep.check(
        format!(
            "replay fold: {scored} windows scored, {flagged} flagged, confusion {tp}/{fp}/{tn}/{fn_}; \
             engine: {} scored, {} flagged, confusion {}/{}/{}/{}",
            engine.windows_scored, engine.sink_flagged, c.tp, c.fp, c.tn, c.fn_
        ),
        scored == engine.windows_scored
            && flagged == engine.sink_flagged
            && (tp, fp, tn, fn_) == (c.tp, c.fp, c.tn, c.fn_)
            && usage == engine.usage
            && rows.len() == engine.devices,
    );
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The per-layer metrics, and which percentile `device.ms_pX` is.
fn per_layer(
    acc: &Acc,
    engine: &Engine,
    enroll: Duration,
    threads: usize,
) -> (Vec<Metric>, &'static str) {
    let n = acc.device_ms.len().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let devices_total = ms(acc.device_spans());
    let build_self = ms(acc.build) - ms(acc.build_nested);
    let run_self = ms(acc.run) - ms(acc.run_nested);
    let mut sorted = acc.device_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let (px, px_label) = tail_percentile(&sorted);
    let first_time_sends = acc.sent.saturating_sub(acc.retransmits);
    let metrics = vec![
        Metric::new("record.synth_calls", acc.synth_calls as f64, "count"),
        Metric::new("record.synth_ms", ms(acc.synth), "ms"),
        Metric::new(
            "record.synth_us_per_sim_s",
            ratio(ms(acc.synth) * 1e3, acc.simulated_s),
            "us/s",
        ),
        Metric::new("flavor.extract_calls", acc.extract_calls as f64, "count"),
        Metric::new("flavor.extract_ms", ms(acc.extract), "ms"),
        Metric::new(
            "flavor.extract_us_per_window",
            ratio(ms(acc.extract) * 1e3, acc.extract_calls as f64),
            "us",
        ),
        Metric::new(
            "flavor.degenerate_ratio",
            ratio(acc.degenerate as f64, acc.extract_calls as f64),
            "fraction",
        ),
        Metric::new("os.dispatch_calls", acc.dispatch_calls as f64, "count"),
        Metric::new("os.dispatch_ms", ms(acc.dispatch), "ms"),
        Metric::new("mcu.dispatched", acc.usage.dispatched as f64, "count"),
        Metric::new("mcu.active_cycles", acc.usage.active_cycles, "cycles"),
        Metric::new("backend.score_rows", acc.score_rows as f64, "count"),
        Metric::new("backend.score_ms", ms(acc.score), "ms"),
        Metric::new(
            "backend.score_ns_per_row",
            ratio(ms(acc.score) * 1e6, acc.score_rows as f64),
            "ns",
        ),
        Metric::new("checkpoint.roundtrips", acc.roundtrips as f64, "count"),
        Metric::new("checkpoint.bytes", acc.checkpoint_bytes as f64, "bytes"),
        Metric::new("checkpoint.ms", ms(acc.checkpoint), "ms"),
        Metric::new("persist.commits", acc.commits as f64, "count"),
        Metric::new("persist.recoveries", acc.recoveries as f64, "count"),
        Metric::new("persist.rollbacks", acc.rollbacks as f64, "count"),
        Metric::new("persist.ms", ms(acc.persist), "ms"),
        Metric::new("link.sent", acc.sent as f64, "count"),
        Metric::new("link.lost", acc.lost as f64, "count"),
        Metric::new("link.retransmits", acc.retransmits as f64, "count"),
        Metric::new("link.give_ups", acc.give_ups as f64, "count"),
        Metric::new(
            "link.delivered_ratio",
            ratio(acc.packets as f64, first_time_sends as f64),
            "fraction",
        ),
        Metric::new("link.ms", ms(acc.link), "ms"),
        Metric::new("station.packets", acc.packets as f64, "count"),
        Metric::new("station.windows_emitted", acc.emitted as f64, "count"),
        Metric::new("station.windows_salvaged", acc.salvaged as f64, "count"),
        Metric::new("station.windows_dropped", acc.dropped as f64, "count"),
        Metric::new(
            "station.self_ms",
            ms(acc.station) - ms(acc.extract) - ms(acc.dispatch),
            "ms",
        ),
        Metric::new("attacker.hijacked_packets", acc.hijacked as f64, "count"),
        Metric::new("attacker.ms", ms(acc.attacker), "ms"),
        Metric::new("provision.ms", ms(acc.provision), "ms"),
        Metric::new(
            "provision.synth_calls",
            acc.provision_synths as f64,
            "count",
        ),
        Metric::new("enroll.ms", ms(enroll), "ms"),
        Metric::new("device.samples", acc.device_ms.len() as f64, "count"),
        Metric::new("device.ms_p50", median(&acc.device_ms), "ms"),
        Metric::new("device.ms_pX", px, "ms"),
        Metric::new("device.build_self_ms_p50", median(&acc.build_self_ms), "ms"),
        Metric::new("device.run_self_ms_p50", median(&acc.run_self_ms), "ms"),
        Metric::new(
            "engine.overhead_us_per_device",
            (ms(engine.wall1) - devices_total) * 1e3 / n,
            "us",
        ),
        Metric::new(
            "engine.parallel_efficiency",
            ratio(
                engine.wall1.as_secs_f64(),
                threads as f64 * engine.wall2.as_secs_f64(),
            ),
            "fraction",
        ),
        Metric::new("slab.pending_high_water", engine.high_water as f64, "count"),
        Metric::new(
            "slab.retired_checkpoint_bytes",
            engine.retired_bytes as f64,
            "bytes",
        ),
        Metric::new(
            "trace.unattributed_ratio",
            ratio(build_self.abs() + run_self.abs(), devices_total),
            "fraction",
        ),
        Metric::new(
            "trace.overhead_ratio",
            ratio(acc.traced.as_secs_f64(), engine.wall1.as_secs_f64()),
            "ratio",
        ),
    ];
    (metrics, px_label)
}

/// The highest of p90, p99 and p99.9 with at least ten samples above
/// it, and its label; the maximum when fewer than 100 samples exist.
fn tail_percentile(sorted: &[f64]) -> (f64, &'static str) {
    let n = sorted.len();
    for (q, label) in [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")] {
        if (n as f64 * (1.0 - q)).floor() >= 10.0 {
            return (percentile(sorted, q), label);
        }
    }
    (sorted.last().copied().unwrap_or(0.0), "max")
}
