//! The nested-layer measurements of the traced run.
//!
//! The device spans of the trace wrap `DeviceSim` calls, so everything
//! inside them — synthesis, link and ARQ, station reassembly, FRAM
//! commits, the attacker — runs as one opaque call. [`replay`] runs the
//! same device a second time through the public function of every
//! layer, in the order `DeviceSim` calls them and with the same seeds,
//! and charges the wall time of each call to its layer. A probe app in
//! the replayed station's OS records every window event, so that
//! [`replay_features`] and [`replay_dispatch`] can time feature
//! extraction and OS dispatch on exactly the inputs the device saw.
//!
//! The replay's outputs (window log, station counters, meters, uplinked
//! features, channel, transport and fault counters) are compared with
//! the real device's; a replay that diverges measures some other device
//! and fails the trace.

use amulet_sim::apps::{HeartRateApp, SiftApp, WatchdogApp};
use amulet_sim::event::AmuletEvent;
use amulet_sim::machine::{App, AppContext};
use amulet_sim::os::AmuletOs;
use amulet_sim::profiler::{AppResourceSpec, ResourceProfiler, UsageSnapshot};
use amulet_sim::toolchain::FirmwareImage;
use ml::DetectorModel;
use physio_sim::record::Record;
use physio_sim::subject::{bank, Subject};
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::extract_amulet_f32;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use wiot::attacker::Attacker;
use wiot::basestation::{BaseStation, BaseStationStats, WindowOutcome};
use wiot::channel::{Channel, ChannelConfig, ChannelStats, Delivery, LossModel};
use wiot::device::{SensorDevice, SensorPacket, Stream};
use wiot::faults::FaultSummary;
use wiot::persist::Persistence;
use wiot::scenario::{LinkParams, Scenario};
use wiot::transport::{ArqConfig, ArqLink, TransportStats};
use wiot::WiotError;

/// Where a slice of replay time is charged. `Glue` is the scenario's
/// own bookkeeping between layer calls (sensor polls, fault-plan
/// lookups); `ProbeInstall` is the probe's own set-up, which the real
/// device does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Glue,
    Synth,
    StationBuild,
    Station,
    ProbeInstall,
    LinkBuild,
    Link,
    PersistBuild,
    Persist,
    AttackerBuild,
    Attacker,
}

const LAYERS: usize = 11;

/// Charges the time since the previous mark to a layer: one clock read
/// per boundary.
struct Lap {
    last: Instant,
    time: [Duration; LAYERS],
}

impl Lap {
    fn new() -> Self {
        Self {
            last: Instant::now(),
            time: [Duration::ZERO; LAYERS],
        }
    }

    fn mark(&mut self, layer: Layer) {
        let now = Instant::now();
        self.time[layer as usize] += now - self.last;
        self.last = now;
    }
}

/// Everything one replay measured and produced.
pub struct Shadow {
    time: [Duration; LAYERS],
    /// Time the probe app spent recording events, inside `Station`.
    pub probe: Duration,
    /// Window and watchdog events the station posted to its OS, in
    /// order.
    pub events: Vec<AmuletEvent>,
    pub window_log: Vec<(usize, WindowOutcome)>,
    pub stats: BaseStationStats,
    pub alerts: usize,
    pub usage: UsageSnapshot,
    pub uplinked: Vec<(usize, Vec<f32>)>,
    pub channel: ChannelStats,
    pub transport: Option<TransportStats>,
    pub faults: FaultSummary,
    pub commits: u64,
    pub hijacked: u64,
}

impl Shadow {
    pub fn time(&self, layer: Layer) -> Duration {
        self.time[layer as usize]
    }
}

#[derive(Default)]
struct ProbeLog {
    events: Vec<AmuletEvent>,
    busy: Duration,
}

/// An observer app: records the events the station posts and charges
/// no cycles, so the device's meters and verdicts are unchanged.
struct Probe(Arc<Mutex<ProbeLog>>);

const PROBE_NAME: &str = "wearbench-probe";

impl App for Probe {
    fn name(&self) -> &str {
        PROBE_NAME
    }

    fn resource_spec(&self) -> AppResourceSpec {
        AppResourceSpec {
            name: PROBE_NAME.into(),
            fram_code_bytes: 0,
            fram_data_bytes: 0,
            sram_peak_bytes: 0,
            cycles_per_period: 0.0,
            period_s: 1.0,
            libs: Vec::new(),
        }
    }

    fn current_state(&self) -> &'static str {
        "observing"
    }

    fn handle(&mut self, event: &AmuletEvent, _ctx: &mut AppContext<'_>) {
        if matches!(
            event,
            AmuletEvent::SnippetReady(_)
                | AmuletEvent::SnippetScored(..)
                | AmuletEvent::StreamStalled { .. }
        ) {
            let t = Instant::now();
            let mut log = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            log.events.push(event.clone());
            log.busy += t.elapsed();
        }
    }
}

/// One sensor → station link, raw or ARQ-protected, as `DeviceSim`
/// builds it.
enum Link {
    Raw {
        channel: Channel,
        in_flight: Vec<Delivery>,
    },
    Arq(ArqLink),
}

impl Link {
    fn new(config: ChannelConfig, seed: u64, arq: Option<ArqConfig>) -> Result<Self, WiotError> {
        let channel = Channel::with_config(config, seed)?;
        Ok(match arq {
            Some(cfg) => Link::Arq(ArqLink::new(channel, cfg)?),
            None => Link::Raw {
                channel,
                in_flight: Vec::new(),
            },
        })
    }

    fn send(&mut self, now_ms: u64, packet: SensorPacket) {
        match self {
            Link::Raw { channel, in_flight } => in_flight.extend(channel.transmit(now_ms, packet)),
            Link::Arq(link) => link.send(now_ms, packet),
        }
    }

    fn pump(&mut self, now_ms: u64) -> Result<Vec<Delivery>, WiotError> {
        match self {
            Link::Raw { in_flight, .. } => {
                let (mut arrived, flying): (Vec<Delivery>, Vec<Delivery>) =
                    in_flight.drain(..).partition(|d| d.at_ms <= now_ms);
                *in_flight = flying;
                arrived.sort_by_key(|d| d.at_ms);
                Ok(arrived)
            }
            Link::Arq(link) => link.pump(now_ms),
        }
    }

    fn idle(&self) -> bool {
        match self {
            Link::Raw { in_flight, .. } => in_flight.is_empty(),
            Link::Arq(link) => link.idle(),
        }
    }

    fn channel(&self) -> &Channel {
        match self {
            Link::Raw { channel, .. } => channel,
            Link::Arq(link) => link.channel(),
        }
    }

    fn set_degrade(&mut self, loss: Option<LossModel>) -> Result<(), WiotError> {
        match self {
            Link::Raw { channel, .. } => channel.set_degrade(loss),
            Link::Arq(link) => link.channel_mut().set_degrade(loss),
        }
    }

    fn transport(&self) -> Option<TransportStats> {
        match self {
            Link::Raw { .. } => None,
            Link::Arq(link) => Some(link.stats()),
        }
    }
}

fn channel_config(link: &LinkParams) -> ChannelConfig {
    ChannelConfig {
        loss: link
            .loss
            .unwrap_or(LossModel::Bernoulli { p: link.loss_prob }),
        base_delay_ms: link.base_delay_ms,
        jitter_ms: link.jitter_ms,
        dup_prob: link.dup_prob,
        reorder_prob: link.reorder_prob,
        reorder_extra_ms: link.reorder_extra_ms,
        corrupt_prob: link.corrupt_prob,
        ..ChannelConfig::default()
    }
}

/// Stream position the detector checkpoint records.
fn position(station: &BaseStation) -> (u32, u32) {
    let s = station.stats();
    (
        (s.windows_emitted + s.windows_salvaged) as u32,
        station.alerts().len() as u32,
    )
}

/// Replay one provisioned device (survival policy off, telemetry off,
/// feature uplink on — the fleet engines' configuration) layer by
/// layer.
pub fn replay(
    scenario: &Scenario,
    subject: Option<&Subject>,
    deployed: &DetectorModel,
) -> Result<Shadow, WiotError> {
    let mut lap = Lap::new();
    let subjects = if subject.is_none() {
        bank()
    } else {
        Vec::new()
    };
    let wearer = match subject {
        Some(s) => s,
        None => subjects
            .get(scenario.victim)
            .ok_or(WiotError::InvalidScenario {
                reason: "victim index out of range",
            })?,
    };
    lap.mark(Layer::Glue);

    let app = SiftApp::new(scenario.version, deployed.clone(), scenario.config.clone())?;
    let mut station = BaseStation::new(app, scenario.config.clone(), scenario.chunk_s)?;
    if let Some(max_missing) = scenario.salvage_max_missing {
        station = station.with_salvage(max_missing);
    }
    if let Some(timeout_ms) = scenario.watchdog_timeout_ms {
        station = station.with_watchdog(timeout_ms, false)?;
    }
    station = station.with_feature_uplink(scenario.version);
    lap.mark(Layer::StationBuild);

    let log = Arc::new(Mutex::new(ProbeLog::default()));
    let probe = Probe(Arc::clone(&log));
    let image = FirmwareImage::build(vec![probe.resource_spec()], &ResourceProfiler::default())?;
    station
        .os_mut()
        .install_addon(&image, vec![Box::new(probe)])?;
    lap.mark(Layer::ProbeInstall);

    let mut persist = None;
    if scenario.persist {
        let mut p = Persistence::new(scenario.version, deployed.clone())?;
        p.reserve(&mut station)?;
        p.commit(0, 0)?;
        persist = Some(p);
        lap.mark(Layer::PersistBuild);
    }
    let mut commits = u64::from(persist.is_some());

    let live = Record::synthesize_profiled(
        wearer,
        scenario.duration_s,
        scenario.seed ^ 0x11FE,
        scenario.synth,
    );
    lap.mark(Layer::Synth);
    let mut ecg = SensorDevice::ecg(&live, scenario.chunk_s);
    let mut abp = SensorDevice::abp(&live, scenario.chunk_s);
    lap.mark(Layer::Glue);

    let mut attacker = None;
    if let Some(a) = &scenario.attack {
        attacker = Some(Attacker::new(
            a.mode.clone(),
            (a.start_s * 1000.0) as u64,
            (a.end_s * 1000.0) as u64,
            scenario.seed ^ 0xA77,
        ));
        lap.mark(Layer::AttackerBuild);
    }

    let config = channel_config(&scenario.link);
    let mut links = [
        Link::new(config.clone(), scenario.seed ^ 0xC41, scenario.arq)?,
        Link::new(config, scenario.seed ^ 0xC42, scenario.arq)?,
    ];
    lap.mark(Layer::LinkBuild);

    let plan = &scenario.faults;
    let chunk_ms = (scenario.chunk_s * 1000.0) as u64;
    let window_ms = (scenario.config.window_s * 1000.0) as u64;
    let mut faults = FaultSummary::default();
    let mut stuck_hold = [0.0f64; 2];
    let mut feedback_cursor = 0usize;
    let (mut now, mut prev) = (0u64, 0u64);

    loop {
        let pe = ecg.poll();
        let pa = abp.poll();
        if pe.is_none() && pa.is_none() {
            break;
        }
        if !plan.is_empty() {
            let rot = plan.bitrot_between(prev, now);
            let reboots = plan.reboots_between(prev, now);
            let torn = plan.torn_checkpoints_between(prev, now);
            lap.mark(Layer::Glue);
            if let Some(p) = persist.as_mut() {
                for (byte, bit) in rot {
                    p.flip_bit(byte, bit);
                    faults.bitrot_flips += 1;
                }
                lap.mark(Layer::Persist);
            }
            for _ in 0..reboots {
                power_cycle(
                    &mut station,
                    persist.as_mut(),
                    scenario,
                    &mut faults,
                    &mut lap,
                )?;
            }
            for cut in torn {
                if let Some(p) = persist.as_mut() {
                    let (windows, alerts) = position(&station);
                    p.commit_torn(windows, alerts, cut)?;
                    faults.torn_commits += 1;
                    lap.mark(Layer::Persist);
                }
                power_cycle(
                    &mut station,
                    persist.as_mut(),
                    scenario,
                    &mut faults,
                    &mut lap,
                )?;
            }
            let mut degraded = false;
            for (i, stream) in [Stream::Ecg, Stream::Abp].into_iter().enumerate() {
                let want = plan.degrade(stream, now).copied();
                if want.is_some() || links[i].channel().is_degraded() {
                    links[i].set_degrade(want)?;
                }
                degraded |= want.is_some();
            }
            if degraded {
                faults.degraded_link_ms += chunk_ms;
            }
            lap.mark(Layer::Link);
        }
        lap.mark(Layer::Glue);

        for (i, (stream, packet)) in [(Stream::Ecg, pe), (Stream::Abp, pa)]
            .into_iter()
            .enumerate()
        {
            let Some(mut p) = packet else { continue };
            if stream == Stream::Ecg {
                if let Some(att) = attacker.as_mut() {
                    p = att.intercept(now, p, live.fs);
                    lap.mark(Layer::Attacker);
                }
            }
            if plan.is_dropout(stream, now) {
                faults.dropout_chunks += 1;
                continue;
            }
            if plan.is_stuck(stream, now) {
                p.samples.iter_mut().for_each(|s| *s = stuck_hold[i]);
                p.peaks.clear();
                faults.stuck_chunks += 1;
            } else if let Some(&last) = p.samples.last() {
                stuck_hold[i] = last;
            }
            let skew_ms = plan.clock_skew_ms(stream, now);
            faults.max_clock_skew_ms = faults.max_clock_skew_ms.max(skew_ms);
            lap.mark(Layer::Glue);
            links[i].send(now + skew_ms, p);
            lap.mark(Layer::Link);
        }

        deliver(&mut links, &mut station, now, &mut lap)?;
        station.poll_watchdog(now)?;
        lap.mark(Layer::Station);

        if let Some(att) = attacker.as_mut().filter(|a| a.wants_feedback()) {
            let (a0, a1) = att.window_ms();
            let log = station.window_log();
            for &(idx, outcome) in log.iter().skip(feedback_cursor) {
                let w0 = idx as u64 * window_ms;
                if w0 + window_ms <= a0 || w0 >= a1 {
                    continue;
                }
                if let WindowOutcome::Emitted { alerted } | WindowOutcome::Salvaged { alerted } =
                    outcome
                {
                    att.feedback(alerted);
                }
            }
            feedback_cursor = log.len();
            lap.mark(Layer::Attacker);
        }

        if let Some(p) = persist.as_mut() {
            let (windows, alerts) = position(&station);
            p.commit(windows, alerts)?;
            commits += 1;
            lap.mark(Layer::Persist);
        }

        prev = now;
        now += chunk_ms;
        station.advance_time(chunk_ms);
        lap.mark(Layer::Station);
    }

    // Drain: in-flight packets and retransmissions may still complete
    // windows after the sensors stop.
    let mut drain_ticks = 0u32;
    while !links.iter().all(Link::idle) && drain_ticks < 1_000 {
        lap.mark(Layer::Link);
        now += chunk_ms;
        station.advance_time(chunk_ms);
        lap.mark(Layer::Station);
        deliver(&mut links, &mut station, now, &mut lap)?;
        drain_ticks += 1;
    }
    lap.mark(Layer::Link);
    station.flush()?;
    station.poll_watchdog(now)?;
    let uplinked = station.take_uplinked_features();
    lap.mark(Layer::Station);

    let [ecg_link, abp_link] = &links;
    let (a, b) = (ecg_link.channel().stats(), abp_link.channel().stats());
    let transport = match (ecg_link.transport(), abp_link.transport()) {
        (Some(a), Some(b)) => Some(TransportStats {
            data_sent: a.data_sent + b.data_sent,
            retransmits: a.retransmits + b.retransmits,
            nacks_sent: a.nacks_sent + b.nacks_sent,
            gap_recoveries: a.gap_recoveries + b.gap_recoveries,
            give_ups: a.give_ups + b.give_ups,
            duplicates_discarded: a.duplicates_discarded + b.duplicates_discarded,
            buffer_evictions: a.buffer_evictions + b.buffer_evictions,
        }),
        _ => None,
    };
    let ProbeLog { events, busy } =
        std::mem::take(&mut *log.lock().unwrap_or_else(PoisonError::into_inner));
    Ok(Shadow {
        time: lap.time,
        probe: busy,
        events,
        window_log: station.window_log().iter().copied().collect(),
        stats: station.stats(),
        alerts: station.alerts().len(),
        usage: station.os().usage_snapshot(),
        uplinked,
        channel: ChannelStats {
            sent: a.sent + b.sent,
            lost: a.lost + b.lost,
            duplicated: a.duplicated + b.duplicated,
            reordered: a.reordered + b.reordered,
            corrupted: a.corrupted + b.corrupted,
        },
        transport,
        faults,
        commits,
        hijacked: attacker.as_ref().map_or(0, Attacker::hijacked_packets),
    })
}

/// Pump both links and hand every arrival to the station in delivery
/// order (stable: equal times keep ECG first).
fn deliver(
    links: &mut [Link; 2],
    station: &mut BaseStation,
    now_ms: u64,
    lap: &mut Lap,
) -> Result<(), WiotError> {
    let mut arrivals = links[0].pump(now_ms)?;
    arrivals.extend(links[1].pump(now_ms)?);
    arrivals.sort_by_key(|d| d.at_ms);
    lap.mark(Layer::Link);
    for d in arrivals {
        station.receive(d)?;
    }
    lap.mark(Layer::Station);
    Ok(())
}

/// A brownout: the station loses its window assembly, then the
/// detector is rebuilt from the newest valid FRAM checkpoint.
fn power_cycle(
    station: &mut BaseStation,
    persist: Option<&mut Persistence>,
    scenario: &Scenario,
    faults: &mut FaultSummary,
    lap: &mut Lap,
) -> Result<(), WiotError> {
    station.reboot();
    faults.reboots += 1;
    lap.mark(Layer::Station);
    if let Some(p) = persist {
        p.recover(station, &scenario.config, faults)?;
        lap.mark(Layer::Persist);
    }
    Ok(())
}

/// Feature extraction re-run on the windows the station dispatched.
#[derive(Default)]
pub struct Features {
    pub time: Duration,
    pub calls: u64,
    /// Windows the extractor rejected as degenerate.
    pub degenerate: u64,
    /// Windows whose re-extracted vector differs from the one the
    /// station produced (0 unless the replay saw different inputs).
    pub mismatches: u64,
}

/// Extract every dispatched window's features again. A window posted
/// with features must re-extract to the identical vector; a window
/// posted without must fail to extract again.
pub fn replay_features(events: &[AmuletEvent], version: Version, config: &SiftConfig) -> Features {
    let mut f = Features::default();
    for e in events {
        let (snippet, expected) = match e {
            AmuletEvent::SnippetScored(s, features) => (s, Some(features)),
            AmuletEvent::SnippetReady(s) => (s, None),
            _ => continue,
        };
        let t = Instant::now();
        let got = extract_amulet_f32(version, snippet, config);
        f.time += t.elapsed();
        f.calls += 1;
        if got.is_err() {
            f.degenerate += 1;
        }
        if got.as_ref().ok() != expected {
            f.mismatches += 1;
        }
    }
    f
}

/// Dispatch the recorded events through a fresh OS carrying the same
/// apps as the device's station; returns the dispatch time and the
/// number of events dispatched (follow-up signals included).
pub fn replay_dispatch(
    events: Vec<AmuletEvent>,
    scenario: &Scenario,
    deployed: &DetectorModel,
) -> Result<(Duration, u64), WiotError> {
    let app = SiftApp::new(scenario.version, deployed.clone(), scenario.config.clone())?;
    let hr = HeartRateApp::with_sample_rate(scenario.config.fs);
    let profiler = ResourceProfiler::default();
    let image = FirmwareImage::build(vec![app.resource_spec(), hr.resource_spec()], &profiler)?;
    let mut os = AmuletOs::new();
    os.install(&image, vec![Box::new(app), Box::new(hr)])?;
    if scenario.watchdog_timeout_ms.is_some() {
        let wd = WatchdogApp::new();
        let image = FirmwareImage::build(vec![wd.resource_spec()], &profiler)?;
        os.install_addon(&image, vec![Box::new(wd)])?;
    }
    let t = Instant::now();
    for e in events {
        os.post(e);
        os.run_until_idle()?;
    }
    Ok((t.elapsed(), os.dispatched()))
}
