//! Fleet-scale parallel scenario engine.
//!
//! Simulates N wearable devices — each a full sensors → channel/ARQ →
//! base-station → SIFT pipeline ([`crate::scenario::DeviceSim`]) — on
//! the slab engine's worker pool ([`crate::slab`]), and reduces the
//! per-device results into one [`FleetReport`].
//!
//! # Determinism under parallelism
//!
//! The headline guarantee: the same fleet seed produces a byte-identical
//! [`FleetReport`] (same [`FleetReport::digest`]) at **any** thread
//! count. Three properties make that hold:
//!
//! 1. Every device's randomness derives from its own seed, split from
//!    the fleet seed with a SplitMix64 stream ([`device_seed`]), so a
//!    device's behaviour never depends on which worker ran it or in
//!    what order.
//! 2. Workers never share mutable state: each device sim is an owned
//!    value built by the worker that claimed the device, and workers
//!    only hand immutable summaries to the in-order folder.
//! 3. The reduction folds summaries strictly in device-index order
//!    (floating-point accumulation order is fixed), and nothing
//!    wall-clock-dependent enters the report — throughput numbers live
//!    in the bench harness, not here.
//!
//! # Enrollment and the sink
//!
//! Training is the expensive part of a scenario, and a fleet wearing
//! twelve subjects does not need to enroll twelve models per device:
//! the engine trains a [`ModelBank`] once up front and shares each
//! subject's model across every device wearing it (`Arc`, read-only).
//! Each device also uplinks its per-window feature vectors
//! ([`crate::basestation::BaseStation::with_feature_uplink`]); the sink
//! re-scores each device's whole window batch with **one** batched
//! backend call ([`ml::DetectorBackend::score_batch_f32`], bit-equal
//! to the scalar path for every backend) instead of per-window calls,
//! which is where fleet-scale margin statistics and per-device outlier
//! flags come from.

use crate::channel::ChannelStats;
use crate::faults::FaultSummary;
use crate::scenario::{DeviceOptions, DeviceSim, Scenario};
use crate::transport::TransportStats;
use crate::WiotError;
use amulet_sim::profiler::UsageSnapshot;
use ml::metrics::ConfusionMatrix;
use ml::{DetectorBackend, DetectorModel, Label};
use physio_sim::subject::{bank, Subject};
use sift::trainer::{ModelBank, SiftModel};

/// SplitMix64 output function (same constants as the vendored
/// `rand::SeedableRng` seeding path). Shared with the attacker's
/// per-instance seed split (`crate::attacker`).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `device`-th seed split from `fleet_seed`: element `device + 1`
/// of the SplitMix64 stream seeded at `fleet_seed`. O(1) per device,
/// no stream state to thread through workers, and devices draw from
/// well-separated generator states rather than `seed + i`-style
/// neighbouring ones.
pub fn device_seed(fleet_seed: u64, device: usize) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    splitmix64(fleet_seed.wrapping_add(GOLDEN.wrapping_mul(device as u64 + 1)))
}

/// A fleet to simulate: `devices` copies of `template`, each with its
/// own victim (round-robin over the subject bank) and its own seed
/// (split from `seed`).
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of simulated devices.
    pub devices: usize,
    /// Worker threads (clamped to `1..=devices`).
    pub threads: usize,
    /// Fleet master seed.
    pub seed: u64,
    /// Attach a telemetry sink to every device
    /// ([`DeviceOptions::telemetry`]). Observational only: the fleet
    /// digest is byte-identical with the sink on or off.
    pub telemetry: bool,
    /// Per-device scenario; `victim` and `seed` are overridden for each
    /// device.
    pub template: Scenario,
}

impl FleetSpec {
    /// A fleet of `devices` baseline scenarios of `duration_s` seconds
    /// on one worker thread.
    pub fn new(devices: usize, duration_s: f64) -> Self {
        Self {
            devices,
            threads: 1,
            seed: 0xF1EE7,
            telemetry: false,
            template: Scenario::new(0, sift::features::Version::Simplified, duration_s),
        }
    }

    /// Builder-style thread count, clamped to `1..=devices` at
    /// construction time so a zero or oversized request can never reach
    /// the engine (it clamps again defensively, but the spec a caller
    /// inspects should already be honest).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, self.devices.max(1));
        self
    }

    /// Builder-style fleet seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style telemetry toggle.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Everything the reduction keeps about one device. All fields are
/// deterministic functions of the device seed; none depend on thread
/// scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSummary {
    /// Fleet-wide device index.
    pub device: usize,
    /// Subject the device wears.
    pub victim: usize,
    /// The device's split seed.
    pub seed: u64,
    /// Window-level confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Windows excluded from scoring (partial attack overlap).
    pub ambiguous_windows: usize,
    /// Windows lost to the channel.
    pub dropped_windows: usize,
    /// Windows repaired by salvage.
    pub salvaged_windows: usize,
    /// Fraction of expected windows that reached the detector.
    pub window_recovery_rate: f64,
    /// Attack-start → first-alert latency, ms.
    pub detection_latency_ms: Option<u64>,
    /// Channel counters, both links.
    pub channel: ChannelStats,
    /// ARQ counters, both links (`None` when ARQ was off).
    pub transport: Option<TransportStats>,
    /// Stream-stalled alerts.
    pub stall_alerts: usize,
    /// Everything the fault plan did to this device, including
    /// checkpoint recovery counters. Deliberately **excluded** from
    /// [`FleetReport::digest`]: the digest format is frozen, and with
    /// zero faults these are all zero anyway.
    pub faults: FaultSummary,
    /// Alerts archived at the device's sink.
    pub alerts: usize,
    /// Energy/dispatch counters for this device.
    pub usage: UsageSnapshot,
    /// Windows re-scored by the sink's batched SVM call.
    pub windows_scored: usize,
    /// Windows the sink's batch margins flag as positive.
    pub sink_flagged: usize,
    /// Smallest sink margin (`f64::INFINITY` when nothing was scored).
    pub margin_min: f64,
    /// Sum of sink margins (index order within the device).
    pub margin_sum: f64,
    /// The device's telemetry snapshot (`None` unless
    /// [`FleetSpec::telemetry`] was set). Integer gauges, stage stats
    /// and event totals only, so the fleet merge is exact at any thread
    /// count; excluded from [`FleetReport::digest`] like
    /// [`DeviceSummary::faults`].
    pub telemetry: Option<telemetry::TelemetryReport>,
}

/// Why a device was flagged as a fleet outlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutlierReason {
    /// Window recovery below 80 %: the device's link is effectively
    /// down.
    LowRecovery,
    /// False-positive rate above 30 % on ≥ 5 genuine windows: the
    /// device's model misfits its wearer.
    HighFalsePositiveRate,
    /// Battery below 50 % after one session: the device is burning
    /// energy far faster than the fleet.
    LowBattery,
}

impl std::fmt::Display for OutlierReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OutlierReason::LowRecovery => "low window recovery",
            OutlierReason::HighFalsePositiveRate => "high false-positive rate",
            OutlierReason::LowBattery => "low battery",
        })
    }
}

/// One flagged device.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutlier {
    /// Fleet-wide device index.
    pub device: usize,
    /// Subject the device wears.
    pub victim: usize,
    /// Why it was flagged.
    pub reason: OutlierReason,
    /// The offending metric's value.
    pub value: f64,
}

/// Aggregate result of a fleet run. Contains nothing wall-clock
/// dependent: two runs with the same [`FleetSpec`] (any thread count)
/// produce equal reports — see [`FleetReport::digest`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Devices simulated.
    pub devices: usize,
    /// Fleet master seed.
    pub seed: u64,
    /// Total simulated device-time, seconds (`devices × duration`).
    pub simulated_device_s: f64,
    /// Confusion matrix summed over the fleet.
    pub confusion: ConfusionMatrix,
    /// Ambiguous windows summed over the fleet.
    pub ambiguous_windows: usize,
    /// Dropped windows summed over the fleet.
    pub dropped_windows: usize,
    /// Salvaged windows summed over the fleet.
    pub salvaged_windows: usize,
    /// Mean per-device window recovery (device-index fold order).
    pub mean_window_recovery: f64,
    /// Devices whose detector saw their attack.
    pub detections: usize,
    /// Mean detection latency over detecting devices, ms.
    pub mean_detection_latency_ms: Option<f64>,
    /// Channel counters summed over the fleet.
    pub channel: ChannelStats,
    /// ARQ counters summed over the fleet (`None` when ARQ was off).
    pub transport: Option<TransportStats>,
    /// Merged energy/dispatch counters.
    pub usage: UsageSnapshot,
    /// Windows re-scored by the sink's batched inference.
    pub windows_scored: usize,
    /// Windows the sink flagged positive.
    pub sink_flagged: usize,
    /// Smallest sink margin fleet-wide (`f64::INFINITY` when none).
    pub margin_min: f64,
    /// Mean sink margin fleet-wide (0.0 when none).
    pub margin_mean: f64,
    /// Stream-stalled alerts summed over the fleet.
    pub stall_alerts: usize,
    /// Fault and checkpoint-recovery counters merged over the fleet
    /// ([`FaultSummary::merged`], device-index order). Excluded from
    /// [`FleetReport::digest`] — see [`DeviceSummary::faults`].
    pub faults: FaultSummary,
    /// Devices flagged as outliers, in device order.
    pub outliers: Vec<FleetOutlier>,
    /// Telemetry merged over the fleet in device-index order (`None`
    /// unless [`FleetSpec::telemetry`] was set). The merge drops the
    /// per-device event rings and sums the integer gauges, stage stats
    /// and event totals, so it is thread-count-stable; excluded from
    /// [`FleetReport::digest`].
    pub telemetry: Option<telemetry::TelemetryReport>,
    /// Every device's summary, in device order.
    pub per_device: Vec<DeviceSummary>,
}

/// FNV-1a (64-bit) over a canonical encoding: `u64`s little-endian,
/// `f64`s via `to_bits`. Not cryptographic — a regression tripwire.
/// `pub(crate)` so the slab engine can fold the identical per-device
/// encoding while streaming ([`crate::slab`]).
pub(crate) struct Digest(pub(crate) u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn confusion(&mut self, c: &ConfusionMatrix) {
        self.usize(c.tp);
        self.usize(c.fp);
        self.usize(c.tn);
        self.usize(c.fn_);
    }

    fn channel(&mut self, s: &ChannelStats) {
        self.u64(s.sent);
        self.u64(s.lost);
        self.u64(s.duplicated);
        self.u64(s.reordered);
        self.u64(s.corrupted);
    }

    fn transport(&mut self, t: &Option<TransportStats>) {
        match t {
            None => self.u64(0),
            Some(t) => {
                self.u64(1);
                self.u64(t.data_sent);
                self.u64(t.retransmits);
                self.u64(t.nacks_sent);
                self.u64(t.gap_recoveries);
                self.u64(t.give_ups);
                self.u64(t.duplicates_discarded);
                self.u64(t.buffer_evictions);
            }
        }
    }

    fn usage(&mut self, u: &UsageSnapshot) {
        self.u64(u.devices);
        self.f64(u.active_cycles);
        self.f64(u.consumed_mah);
        self.f64(u.min_battery_left);
        self.f64(u.battery_left_sum);
        self.u64(u.dispatched);
    }
}

/// Fold one device summary into `d` — the per-device portion of the
/// canonical digest encoding, shared between [`FleetReport::digest`],
/// [`FleetReport::slab_digest`] and the slab engine's streaming fold.
pub(crate) fn digest_device(d: &mut Digest, s: &DeviceSummary) {
    d.usize(s.device);
    d.usize(s.victim);
    d.u64(s.seed);
    d.confusion(&s.confusion);
    d.usize(s.ambiguous_windows);
    d.usize(s.dropped_windows);
    d.usize(s.salvaged_windows);
    d.f64(s.window_recovery_rate);
    match s.detection_latency_ms {
        None => d.u64(0),
        Some(ms) => {
            d.u64(1);
            d.u64(ms);
        }
    }
    d.channel(&s.channel);
    d.transport(&s.transport);
    d.usize(s.stall_alerts);
    d.usize(s.alerts);
    d.usage(&s.usage);
    d.usize(s.windows_scored);
    d.usize(s.sink_flagged);
    d.f64(s.margin_min);
    d.f64(s.margin_sum);
}

impl FleetReport {
    /// Fold the aggregate (non-per-device) portion of the report into
    /// `d`, in the frozen canonical order.
    pub(crate) fn digest_aggregates_into(&self, d: &mut Digest) {
        d.usize(self.devices);
        d.u64(self.seed);
        d.f64(self.simulated_device_s);
        d.confusion(&self.confusion);
        d.usize(self.ambiguous_windows);
        d.usize(self.dropped_windows);
        d.usize(self.salvaged_windows);
        d.f64(self.mean_window_recovery);
        d.usize(self.detections);
        match self.mean_detection_latency_ms {
            None => d.u64(0),
            Some(ms) => {
                d.u64(1);
                d.f64(ms);
            }
        }
        d.channel(&self.channel);
        d.transport(&self.transport);
        d.usage(&self.usage);
        d.usize(self.windows_scored);
        d.usize(self.sink_flagged);
        d.f64(self.margin_min);
        d.f64(self.margin_mean);
        d.usize(self.stall_alerts);
        d.usize(self.outliers.len());
        for o in &self.outliers {
            d.usize(o.device);
            d.usize(o.victim);
            d.u64(o.reason as u64);
            d.f64(o.value);
        }
    }

    /// A 64-bit digest of the entire report (every aggregate and every
    /// per-device summary). Two runs of the same [`FleetSpec`] at any
    /// thread count produce the same digest; the deterministic test
    /// harness pins this value in golden traces.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        self.digest_aggregates_into(&mut d);
        d.usize(self.per_device.len());
        for s in &self.per_device {
            digest_device(&mut d, s);
        }
        d.0
    }

    /// The streaming-order digest: per-device entries first (index
    /// order), then the device count, then the aggregates. This is the
    /// ordering a bounded-memory engine can compute without ever
    /// holding `per_device` — the slab engine folds each summary as it
    /// retires and appends the aggregates at the end
    /// ([`crate::slab::run_fleet_streamed`]). On a report that kept its
    /// rows ([`run_fleet_provisioned`]) this method recomputes the
    /// identical value from the stored summaries, which is how the
    /// tests compare the collecting and the fold-only entry points.
    // lint:allow(cg-unreached, reference oracle: the slab tests recompute the streamed digest from a collected report with it)
    pub fn slab_digest(&self) -> u64 {
        let mut d = Digest::new();
        for s in &self.per_device {
            digest_device(&mut d, s);
        }
        d.usize(self.devices);
        self.digest_aggregates_into(&mut d);
        d.0
    }
}

/// Everything one device needs to run, decided by a
/// [`FleetProvisioner`]: the fully resolved scenario (victim and seed
/// set) plus the models to inject and, for campaign populations, the
/// subject the device wears.
pub struct DeviceProvision<'a> {
    /// The device's concrete scenario.
    pub scenario: Scenario,
    /// Subject override ([`DeviceOptions::subject`]); `None` wears
    /// `bank()[scenario.victim]` as always.
    pub subject: Option<&'a Subject>,
    /// Gold SVM model for sink-side comparison, when one exists.
    pub model: Option<&'a SiftModel>,
    /// Deployed detector backend for the device.
    pub deployed: &'a DetectorModel,
}

/// Decides, per device index, what that device runs. The engine calls
/// [`FleetProvisioner::provision`] from worker threads (hence `Sync`);
/// implementations must be pure functions of `(spec, device)` or the
/// determinism guarantee breaks. The legacy bank round-robin is
/// [`run_fleet_with_bank`]; the campaign engine provisions
/// population-scale victims and per-wave attacks through the same seam.
pub trait FleetProvisioner: Sync {
    /// Build the provision for `device`.
    ///
    /// # Errors
    ///
    /// Implementations return [`WiotError::InvalidScenario`] when the
    /// device cannot be provisioned (e.g. no model for its victim).
    fn provision(&self, spec: &FleetSpec, device: usize)
        -> Result<DeviceProvision<'_>, WiotError>;
}

/// The legacy provisioning policy: victims round-robin over the
/// subject bank, models shared from a pre-trained [`ModelBank`].
/// `pub(crate)` so the slab engine's bank entry point reuses it
/// ([`crate::slab::run_fleet_streamed`]).
pub(crate) struct BankProvisioner<'b> {
    models: &'b ModelBank,
    subjects_len: usize,
}

impl<'b> BankProvisioner<'b> {
    /// The bank policy for `spec`, after checking that `models` was
    /// trained for the template's detector version and backend.
    pub(crate) fn for_spec(spec: &FleetSpec, models: &'b ModelBank) -> Result<Self, WiotError> {
        if models.version() != spec.template.version {
            return Err(WiotError::InvalidScenario {
                reason: "model bank version does not match the fleet template",
            });
        }
        if models.kind() != spec.template.backend {
            return Err(WiotError::InvalidScenario {
                reason: "model bank backend does not match the fleet template",
            });
        }
        Ok(Self {
            models,
            subjects_len: bank().len(),
        })
    }
}

impl FleetProvisioner for BankProvisioner<'_> {
    fn provision(
        &self,
        spec: &FleetSpec,
        device: usize,
    ) -> Result<DeviceProvision<'_>, WiotError> {
        let mut scenario = spec.template.clone();
        scenario.victim = device % self.subjects_len;
        scenario.seed = device_seed(spec.seed, device);
        let deployed = self
            .models
            .deployed(scenario.victim)
            .ok_or(WiotError::InvalidScenario {
                reason: "model bank does not cover the device's victim",
            })?;
        let model = self.models.get(scenario.victim).map(|m| m.as_ref());
        Ok(DeviceProvision {
            scenario,
            subject: None,
            model,
            deployed: deployed.as_ref(),
        })
    }
}

/// Run one already-provisioned device end-to-end and batch-score its
/// uplinked features at the sink. The slab engine calls it with the
/// detector model it just round-tripped through the checkpoint codec
/// rather than the provisioner's reference ([`crate::slab`]).
pub(crate) fn simulate_provisioned(
    telemetry: bool,
    device: usize,
    scenario: Scenario,
    subject: Option<&Subject>,
    deployed: &DetectorModel,
) -> Result<DeviceSummary, WiotError> {
    let mut sim = DeviceSim::with_options(
        &scenario,
        DeviceOptions {
            deployed: Some(deployed),
            feature_uplink: true,
            telemetry,
            subject,
            ..DeviceOptions::default()
        },
    )?;
    sim.run_to_completion()?;

    // Sink-side batched inference: one margin computation over the
    // device's whole window batch instead of per-window calls.
    let features = sim.take_uplinked_features();
    let mut flat = Vec::with_capacity(features.len() * deployed.dim());
    for (_, f) in &features {
        flat.extend_from_slice(f);
    }
    let margins = deployed.score_batch_f32(&flat)?;
    let sink_flagged = margins
        .iter()
        .filter(|&&m| Label::from_sign(f64::from(m)) == Label::Positive)
        .count();
    let margin_min = margins
        .iter()
        .fold(f64::INFINITY, |acc, &m| acc.min(f64::from(m)));
    let margin_sum: f64 = margins.iter().map(|&m| f64::from(m)).sum();

    let usage = sim.station().os().usage_snapshot();
    let victim = scenario.victim;
    let seed = scenario.seed;
    let mut report = sim.into_report()?;
    let telemetry = report.telemetry.take();
    Ok(DeviceSummary {
        device,
        victim,
        seed,
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
        sink_flagged,
        margin_min,
        margin_sum,
        telemetry,
    })
}

/// Incremental fleet reduction: push per-device summaries **in
/// device-index order**, then [`Reducer::finish`]. The fold is the
/// exact sequential accumulation the fleet digest was frozen over —
/// f64 accumulation order never depends on how many threads produced
/// the summaries — and because it is incremental the slab engine can
/// retire each summary right after folding it instead of keeping the
/// whole fleet in memory ([`crate::slab`]).
#[derive(Default)]
pub(crate) struct Reducer {
    count: usize,
    confusion: ConfusionMatrix,
    ambiguous: usize,
    dropped: usize,
    salvaged: usize,
    recovery_sum: f64,
    detections: usize,
    latency_sum: f64,
    channel: ChannelStats,
    transport: Option<TransportStats>,
    usage: UsageSnapshot,
    windows_scored: usize,
    sink_flagged: usize,
    margin_min: f64,
    margin_sum: f64,
    stall_alerts: usize,
    faults: FaultSummary,
    telemetry: Option<telemetry::TelemetryReport>,
    outliers: Vec<FleetOutlier>,
}

impl Reducer {
    pub(crate) fn new() -> Self {
        Self {
            margin_min: f64::INFINITY,
            ..Self::default()
        }
    }

    /// Fold one device into the aggregate. Summaries must arrive in
    /// device-index order.
    pub(crate) fn push(&mut self, s: &DeviceSummary) {
        self.count += 1;
        self.confusion.tp += s.confusion.tp;
        self.confusion.fp += s.confusion.fp;
        self.confusion.tn += s.confusion.tn;
        self.confusion.fn_ += s.confusion.fn_;
        self.ambiguous += s.ambiguous_windows;
        self.dropped += s.dropped_windows;
        self.salvaged += s.salvaged_windows;
        self.recovery_sum += s.window_recovery_rate;
        if let Some(ms) = s.detection_latency_ms {
            self.detections += 1;
            self.latency_sum += ms as f64;
        }
        self.channel = self.channel.merged(s.channel);
        self.transport = match (self.transport, s.transport) {
            (Some(a), Some(b)) => Some(a.merged(b)),
            (None, b) => b,
            (a, None) => a,
        };
        self.usage.merge(&s.usage);
        self.windows_scored += s.windows_scored;
        self.sink_flagged += s.sink_flagged;
        self.margin_min = self.margin_min.min(s.margin_min);
        self.margin_sum += s.margin_sum;
        self.stall_alerts += s.stall_alerts;
        self.faults = self.faults.merged(s.faults);
        if let Some(t) = &s.telemetry {
            match self.telemetry.as_mut() {
                Some(m) => m.merge(t),
                None => {
                    // The aggregate carries totals, not any single
                    // device's event trace.
                    let mut first = t.clone();
                    first.events.clear();
                    self.telemetry = Some(first);
                }
            }
        }

        if s.window_recovery_rate < 0.8 {
            self.outliers.push(FleetOutlier {
                device: s.device,
                victim: s.victim,
                reason: OutlierReason::LowRecovery,
                value: s.window_recovery_rate,
            });
        }
        let genuine = s.confusion.fp + s.confusion.tn;
        if genuine >= 5 {
            let fp_rate = s.confusion.fp as f64 / genuine as f64;
            if fp_rate > 0.3 {
                self.outliers.push(FleetOutlier {
                    device: s.device,
                    victim: s.victim,
                    reason: OutlierReason::HighFalsePositiveRate,
                    value: fp_rate,
                });
            }
        }
        let battery = s.usage.mean_battery_left();
        if battery < 0.5 {
            self.outliers.push(FleetOutlier {
                device: s.device,
                victim: s.victim,
                reason: OutlierReason::LowBattery,
                value: battery,
            });
        }
    }

    /// Close the fold into a [`FleetReport`] with no `per_device` rows:
    /// [`run_fleet_provisioned`] adds the rows it kept.
    pub(crate) fn finish(self, seed: u64, duration_s: f64) -> FleetReport {
        let devices = self.count;
        FleetReport {
            devices,
            seed,
            simulated_device_s: devices as f64 * duration_s,
            confusion: self.confusion,
            ambiguous_windows: self.ambiguous,
            dropped_windows: self.dropped,
            salvaged_windows: self.salvaged,
            mean_window_recovery: if devices == 0 {
                0.0
            } else {
                self.recovery_sum / devices as f64
            },
            detections: self.detections,
            mean_detection_latency_ms: if self.detections == 0 {
                None
            } else {
                Some(self.latency_sum / self.detections as f64)
            },
            channel: self.channel,
            transport: self.transport,
            usage: self.usage,
            windows_scored: self.windows_scored,
            sink_flagged: self.sink_flagged,
            margin_min: self.margin_min,
            margin_mean: if self.windows_scored == 0 {
                0.0
            } else {
                self.margin_sum / self.windows_scored as f64
            },
            stall_alerts: self.stall_alerts,
            faults: self.faults,
            telemetry: self.telemetry,
            outliers: self.outliers,
            per_device: Vec::new(),
        }
    }
}

/// Run a fleet with a pre-trained [`ModelBank`] (callers comparing
/// thread counts or sweeping seeds train once and reuse it).
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for an empty fleet or a bank
/// whose detector version or backend does not match the template, and
/// propagates the lowest-device-index simulation error (deterministic
/// regardless of which worker hit it first).
pub fn run_fleet_with_bank(spec: &FleetSpec, models: &ModelBank) -> Result<FleetReport, WiotError> {
    run_fleet_provisioned(spec, &BankProvisioner::for_spec(spec, models)?)
}

/// Run a fleet through an arbitrary [`FleetProvisioner`] and keep every
/// device's summary in [`FleetReport::per_device`]. Execution is the
/// slab engine's ([`crate::slab`]): the same worker pool, claim window
/// and in-order fold as [`crate::slab::run_fleet_streamed_provisioned`],
/// with each retired summary moved into the report after it is folded.
/// The thread-count-invariance guarantee holds for any provisioner that
/// is a pure function of `(spec, device)`.
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for an empty fleet,
/// propagates the lowest-device-index provisioning or simulation error
/// (deterministic regardless of which worker hit it first).
pub fn run_fleet_provisioned(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
) -> Result<FleetReport, WiotError> {
    let mut rows = Vec::new();
    let mut report = crate::slab::run(spec, prov, |row| rows.push(row))?.report;
    report.per_device = rows;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn device_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..256).map(|i| device_seed(42, i)).collect();
        let unique: HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len(), "colliding device seeds");
        // Stable across calls (pure function of fleet seed + index).
        assert_eq!(device_seed(42, 17), seeds[17]);
        // A different fleet seed moves every stream.
        assert!((0..256).all(|i| device_seed(43, i) != seeds[i]));
    }

    #[test]
    fn empty_fleet_rejected() {
        let spec = FleetSpec::new(0, 10.0);
        let models = ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        assert!(matches!(
            run_fleet_with_bank(&spec, &models),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn mismatched_bank_version_rejected() {
        let spec = FleetSpec::new(1, 10.0);
        let models = ModelBank::train(
            &bank(),
            sift::features::Version::Reduced,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        assert!(matches!(
            run_fleet_with_bank(&spec, &models),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let spec = FleetSpec::new(3, 9.0).with_seed(7);
        let models = ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        let one = run_fleet_with_bank(&spec, &models).unwrap();
        let three = run_fleet_with_bank(&spec.clone().with_threads(3), &models).unwrap();
        assert_eq!(one, three);
        assert_eq!(one.digest(), three.digest());
        assert_eq!(one.devices, 3);
        assert_eq!(one.per_device.len(), 3);
        // Distinct devices really ran distinct streams.
        assert!(one.per_device[0].seed != one.per_device[1].seed);
        assert!(one.usage.devices == 3);
        // Batched sink re-scoring saw the emitted windows.
        assert!(one.windows_scored > 0);
    }

    #[test]
    fn telemetry_never_perturbs_the_fleet_digest() {
        // The frozen digest is the tentpole invariant: enabling the
        // sink must leave it byte-identical, at any thread count, and
        // the merged telemetry itself must be thread-count-stable.
        let spec = FleetSpec::new(3, 9.0).with_seed(11);
        let models = ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        let off = run_fleet_with_bank(&spec, &models).unwrap();
        let on = run_fleet_with_bank(&spec.clone().with_telemetry(true), &models).unwrap();
        assert_eq!(off.digest(), on.digest(), "telemetry changed the digest");
        assert!(off.telemetry.is_none());
        // `on` ran on the default single thread.
        for threads in [2usize, 3, 8] {
            let threaded = run_fleet_with_bank(
                &spec.clone().with_telemetry(true).with_threads(threads),
                &models,
            )
            .unwrap();
            assert_eq!(
                on.digest(),
                threaded.digest(),
                "telemetry changed the digest at {threads} threads"
            );
            assert_eq!(
                on.telemetry, threaded.telemetry,
                "merge not thread-stable at {threads} threads"
            );
        }
        let merged = on.telemetry.as_ref().expect("sink was on");
        assert!(merged.events.is_empty(), "aggregate must not carry a trace");
        // The merge is the device-order sum of the per-device stage
        // stats and event totals.
        let devices: Vec<_> = on.per_device.iter().flat_map(|d| &d.telemetry).collect();
        assert_eq!(devices.len(), on.devices);
        for stage in telemetry::Stage::ALL {
            let spans: u64 = devices.iter().map(|t| t.stage(stage).spans).sum();
            assert!(spans > 0, "{}", stage.name());
            assert_eq!(merged.stage(stage).spans, spans, "{}", stage.name());
        }
        let recorded: u64 = devices.iter().map(|t| t.events_recorded).sum();
        assert_eq!(merged.events_recorded, recorded);
        // Per-device snapshots keep their event traces.
        assert!(on.per_device.iter().all(|d| d
            .telemetry
            .as_ref()
            .is_some_and(|t| !t.events.is_empty())));
    }

    #[test]
    fn tsetlin_fleet_is_thread_count_stable() {
        let mut spec = FleetSpec::new(2, 9.0).with_seed(5);
        spec.template.backend = ml::BackendKind::Tsetlin;
        let models = ModelBank::train_backend(
            &bank(),
            spec.template.version,
            ml::BackendKind::Tsetlin,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        let one = run_fleet_with_bank(&spec, &models).unwrap();
        let two = run_fleet_with_bank(&spec.clone().with_threads(2), &models).unwrap();
        assert_eq!(one.digest(), two.digest());
        assert!(one.windows_scored > 0, "sink saw no windows");
        // An SVM bank cannot drive a Tsetlin fleet.
        let svm = ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        assert!(matches!(
            run_fleet_with_bank(&spec, &svm),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn builder_clamps_zero_and_oversized_threads() {
        // A zero request must not smuggle a divide-by-zero or an empty
        // worker pool into the engines.
        let spec = FleetSpec::new(4, 9.0).with_threads(0);
        assert_eq!(spec.threads, 1);
        // More workers than devices collapses to one per device.
        let spec = FleetSpec::new(4, 9.0).with_threads(64);
        assert_eq!(spec.threads, 4);
        // Degenerate empty fleet still stores a sane count; the engines
        // reject the empty fleet itself.
        let spec = FleetSpec::new(0, 9.0).with_threads(8);
        assert_eq!(spec.threads, 1);
    }

    #[test]
    fn oversized_thread_count_is_clamped() {
        let spec = FleetSpec::new(2, 9.0).with_threads(64);
        let models = ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        let r = run_fleet_with_bank(&spec, &models).unwrap();
        assert_eq!(r.devices, 2);
    }
}
