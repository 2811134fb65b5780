//! Adversary campaign engine: population-scale, multi-wave attack
//! evaluation with per-attack-class detection matrices.
//!
//! The paper's Table II evaluates one adversary (ECG substitution)
//! against twelve subjects. This module generalizes that experiment in
//! both directions at once:
//!
//! * **Population scale** — victims come from the seeded
//!   population generator (`physio_sim::population`), so a campaign
//!   can wear thousands of distinct subjects instead of the legacy
//!   twelve, and
//! * **Attack breadth** — a [`CampaignPlan`] schedules waves of
//!   [`AttackClass`]es (the four legacy vulnerability classes plus
//!   mimicry, replay-at-SNR, partial-window injection, coordinated
//!   substitution, and an adaptive threshold-probing adversary) across
//!   a device fleet, and the per-class hit/miss ledger
//!   ([`crate::faults::FaultSummary::attack_windows_tp`]) rolls up
//!   into a detection matrix with Wilson confidence bounds.
//!
//! Everything runs through the fleet engine's provisioning seam
//! ([`crate::fleet::FleetProvisioner`]), so the determinism guarantee
//! is inherited: one campaign seed produces a byte-identical
//! [`CampaignReport`] (same [`CampaignReport::digest`]) at any worker
//! thread count. The per-class counters ride **outside** the frozen
//! fleet digest, which therefore stays compatible with every golden
//! trace.
//!
//! Confidence bounds are computed in pure integer arithmetic
//! ([`wilson_permille`]) — the same fixed-point discipline as the
//! on-device policy code, and digest-safe by construction.

use crate::attacker::ATTACK_CLASS_COUNT;
use crate::channel::LossModel;
use crate::device::chunk_len;
use crate::fleet::{
    device_seed, run_fleet_provisioned, DeviceProvision, Digest, FleetProvisioner, FleetReport,
    FleetSpec,
};
use crate::scenario::{
    attack_window_ms, check_attack_interval, check_duration, AttackSpec, Scenario,
};
use crate::WiotError;
use ml::BackendKind;
use ml::DetectorModel;
use physio_sim::population::{nearest_neighbor, population};
use physio_sim::record::{EcgSpan, Record};
use physio_sim::subject::Subject;
use physio_sim::SAMPLE_RATE_HZ;
use sift::features::Version;
use sift::zoo::train_backend;
use std::ops::Range;

pub use crate::attacker::AttackClass;

impl AttackClass {
    /// Whether the class wants a morphology-fitted donor (the
    /// population's nearest neighbor) rather than an arbitrary one.
    fn wants_fitted_donor(&self) -> bool {
        matches!(self, AttackClass::Mimicry { .. } | AttackClass::Adaptive)
    }

    /// The samples of its source ECG (the donor's, or the victim's live
    /// session for the two replay classes) the class's attacker reads
    /// when staged over `[start_s, end_s)` of `scenario`, whose length
    /// the source shares: the `ReadLaw::hull` provisioning renders
    /// instead of the whole recording. Empty for Freeze and NoiseInject,
    /// which read none.
    fn read_hull(&self, scenario: &Scenario, start_s: f64, end_s: f64) -> Range<usize> {
        let fs = SAMPLE_RATE_HZ;
        let Some((_, law)) = self.reads(fs) else {
            return 0..0;
        };
        law.hull(
            attack_window_ms(start_s, end_s),
            scenario.chunk_ms(),
            chunk_len(scenario.chunk_s, fs),
            // The sample count `Record::synthesize` renders.
            (scenario.duration_s * fs).round() as usize,
        )
    }
}

/// One wave of a campaign: `devices` devices all running `class`
/// during `[start_s, end_s)` of their sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackWave {
    /// What the wave's adversaries do.
    pub class: AttackClass,
    /// Devices in the wave.
    pub devices: usize,
    /// Attack start, seconds into each session.
    pub start_s: f64,
    /// Attack end, seconds into each session.
    pub end_s: f64,
}

/// A full campaign: a population, a victim pool drawn from it, and a
/// schedule of attack waves across a device fleet.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Subjects sampled by the population generator.
    pub population_size: usize,
    /// Population seed (`physio_sim::population::LEGACY_BANK_SEED`
    /// reproduces the legacy bank for `population_size == 12`).
    pub population_seed: u64,
    /// Distinct victims drawn (evenly spaced) from the population;
    /// devices round-robin over the pool. Each pool victim costs one
    /// model enrollment, so this bounds campaign training time
    /// independently of `population_size`.
    pub victim_pool: usize,
    /// Donor subjects enrolled against each pool victim (the
    /// training counterexamples; the legacy bank uses all 11 others).
    pub donors_per_victim: usize,
    /// Campaign master seed (drives per-device seeds via
    /// [`device_seed`] and all donor selection).
    pub seed: u64,
    /// Worker threads for the fleet engine, and for pool enrollment
    /// (at most one per pool victim).
    pub threads: usize,
    /// Detector backend deployed fleet-wide.
    pub backend: BackendKind,
    /// Detector version deployed fleet-wide.
    pub version: Version,
    /// Session length per device, seconds.
    pub duration_s: f64,
    /// The attack schedule. Wave `w` owns the next `waves[w].devices`
    /// device indices after wave `w-1`.
    pub waves: Vec<AttackWave>,
}

impl CampaignPlan {
    /// Total devices across all waves.
    pub fn devices(&self) -> usize {
        self.waves.iter().map(|w| w.devices).sum()
    }

    /// Which wave owns `device`, by the cumulative schedule.
    fn wave_of(&self, device: usize) -> Option<&AttackWave> {
        let mut off = 0usize;
        self.waves.iter().find(|w| {
            let hit = device < off + w.devices;
            off += w.devices;
            hit
        })
    }
}

/// Detection outcome of one attack class over the whole campaign.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassOutcome {
    /// Devices that ran this class.
    pub devices: usize,
    /// Attacked windows the detector flagged (true positives).
    pub windows_tp: u64,
    /// Attacked windows the detector missed (false negatives).
    pub windows_fn: u64,
    /// Genuine windows falsely flagged on this class's devices.
    pub windows_fp: usize,
    /// Genuine windows correctly passed on this class's devices.
    pub windows_tn: usize,
    /// Devices whose attack produced at least one alert.
    pub detected_devices: usize,
    /// Sum of detection latencies over detecting devices, ms.
    pub latency_sum_ms: u64,
    /// Window-level detection rate, ‰ (`tp / (tp + fn)`).
    pub detection_permille: u16,
    /// Wilson 95 % lower bound on the detection rate, ‰.
    pub wilson_lo_permille: u16,
    /// Wilson 95 % upper bound on the detection rate, ‰.
    pub wilson_hi_permille: u16,
}

/// Aggregate result of a campaign: the fleet report plus the
/// per-attack-class detection matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Population the victims were drawn from.
    pub population_size: usize,
    /// Campaign master seed.
    pub seed: u64,
    /// Per-class outcomes, indexed by [`AttackClass::index`]. Classes
    /// the plan never staged are all-zero.
    pub classes: [ClassOutcome; ATTACK_CLASS_COUNT],
    /// The underlying fleet report (its digest is the frozen one).
    pub fleet: FleetReport,
    /// The model deployed to each pool victim's devices, in pool
    /// order. Not part of [`CampaignReport::digest`].
    pub pool_models: Vec<DetectorModel>,
}

impl CampaignReport {
    /// 64-bit digest over the frozen fleet digest **and** the
    /// per-class matrix: the fleet's FNV-1a `Digest` over the integer
    /// fields in class-index order. Byte-identical across thread
    /// counts; the campaign bench gate pins it.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.u64(self.fleet.digest());
        d.usize(self.population_size);
        d.u64(self.seed);
        for c in &self.classes {
            d.usize(c.devices);
            d.u64(c.windows_tp);
            d.u64(c.windows_fn);
            d.usize(c.windows_fp);
            d.usize(c.windows_tn);
            d.usize(c.detected_devices);
            d.u64(c.latency_sum_ms);
            d.u64(u64::from(c.detection_permille));
            d.u64(u64::from(c.wilson_lo_permille));
            d.u64(u64::from(c.wilson_hi_permille));
        }
        d.0
    }
}

/// Integer square root of a `u128` (Newton's method, exact floor).
fn isqrt_u128(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    let mut x = 1u128 << (v.ilog2() / 2 + 1);
    loop {
        let y = (x + v / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// Wilson 95 % score interval for `successes / trials`, in permille,
/// computed entirely in integer arithmetic (z = 1.96 carried as
/// z²·10⁶ = 3 841 600). Returns `(lo, hi)` with `lo` floored and `hi`
/// ceiled, so the true interval is always contained. `(0, 1000)` for
/// zero trials.
pub fn wilson_permille(successes: u64, trials: u64) -> (u16, u16) {
    if trials == 0 {
        return (0, 1000);
    }
    let s = u128::from(successes.min(trials));
    let n = u128::from(trials);
    // z²·10⁶ for z = 1.96.
    const Z2: u128 = 3_841_600;
    let d = 1_000_000 * n + Z2;
    let c = 1_000_000 * s + Z2 / 2;
    // (10⁶·half·n·d)² = 10¹²·Z2·s·(n−s)·n + Z2²·n²/4, pre-scaled so
    // the ±1000·√(...) below lands directly in permille numerators.
    let rad = 1_000_000_000_000u128 * Z2 * s * (n - s) * n + 250_000 * Z2 * Z2 * n * n;
    let r = isqrt_u128(rad);
    let scale = n * d;
    let center = 1000 * c * n;
    let lo = (center.saturating_sub(r) / scale) as u16;
    let hi = ((center + r).div_ceil(scale)).min(1000) as u16;
    (lo, hi)
}

/// The campaign's provisioning policy: victims from the population
/// pool, per-class donors, per-wave attack specs, and the hostile
/// channel for coordinated waves.
struct CampaignProvisioner<'c> {
    plan: &'c CampaignPlan,
    subjects: &'c [Subject],
    /// Population indices of the victim pool.
    pool: &'c [usize],
    /// One deployed model per pool slot.
    models: &'c [DetectorModel],
}

impl CampaignProvisioner<'_> {
    /// Deterministic donor *population index* for `device`'s victim:
    /// morphology-fitted (nearest neighbor) for classes that want it,
    /// otherwise a seed-split other subject; coordinated waves share
    /// one donor across the wave so the substitution is synchronized.
    fn donor_index(&self, class: &AttackClass, victim: usize, scenario_seed: u64) -> usize {
        let n = self.subjects.len();
        if n == 1 {
            return 0;
        }
        if class.wants_fitted_donor() {
            if let Some(j) = nearest_neighbor(self.subjects, victim) {
                return j;
            }
        }
        let draw = if matches!(class, AttackClass::Coordinated) {
            // Wave-shared: a function of the campaign seed and class
            // only, so every device in the wave injects the same donor.
            crate::fleet::device_seed(self.plan.seed ^ 0xC0_0D, class.index())
        } else {
            crate::fleet::device_seed(scenario_seed ^ 0xD0_40, 0)
        };
        let off = 1 + (draw % (n as u64 - 1)) as usize;
        (victim + off) % n
    }
}

impl FleetProvisioner for CampaignProvisioner<'_> {
    fn provision(&self, spec: &FleetSpec, device: usize) -> Result<DeviceProvision<'_>, WiotError> {
        let wave = self
            .plan
            .wave_of(device)
            .ok_or(WiotError::InvalidScenario {
                reason: "device index outside the campaign schedule",
            })?;
        let pool_slot = device % self.pool.len();
        let victim = self.pool[pool_slot];

        let mut scenario = spec.template.clone();
        scenario.victim = victim;
        scenario.seed = device_seed(spec.seed, device);

        // Only the ECG samples the class's attacker reads are rendered,
        // and only of the recording it reads; every recording draws
        // from its own seeded RNG, so what is skipped changes nothing
        // else. The victim's live session uses the same seed split the
        // device itself uses, so a replay source really is the session
        // under attack.
        let victim_subject = &self.subjects[victim];
        let window_ms = (scenario.config.window_s * 1000.0) as u64;
        let hull = wave.class.read_hull(&scenario, wave.start_s, wave.end_s);
        let span =
            |subject, seed| Record::ecg_span(subject, scenario.duration_s, seed, hull.clone());
        let mode = wave.class.materialize_with(
            || span(victim_subject, scenario.seed ^ 0x11FE),
            || {
                let donor_idx = self.donor_index(&wave.class, victim, scenario.seed);
                span(&self.subjects[donor_idx], scenario.seed ^ 0xD00D)
            },
            window_ms,
        );
        scenario.attack = Some(AttackSpec {
            mode,
            start_s: wave.start_s,
            end_s: wave.end_s,
        });
        if matches!(wave.class, AttackClass::Coordinated) {
            // Coordinated waves ride a bursty channel with the
            // reliability stack on — the multi-device substitution is
            // timed to hide inside burst-loss recovery traffic.
            scenario.link.loss = Some(LossModel::GilbertElliott {
                p_good_to_bad: 0.025,
                p_bad_to_good: 0.2,
                loss_good: 0.01,
                loss_bad: 0.8,
            });
            scenario = scenario.with_reliability();
        }

        Ok(DeviceProvision {
            scenario,
            subject: Some(victim_subject),
            model: None,
            deployed: &self.models[pool_slot],
        })
    }
}

/// Run a campaign end to end: sample the population, enroll the victim
/// pool, drive the fleet through the provisioning seam, and roll the
/// per-class ledger up into the detection matrix.
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for an inconsistent plan and
/// propagates training and simulation errors.
pub fn run_campaign(plan: &CampaignPlan) -> Result<CampaignReport, WiotError> {
    let chunk_s = Scenario::new(0, plan.version, plan.duration_s).chunk_s;
    run_campaign_chunked(plan, chunk_s)
}

/// [`run_campaign`] with sensor packets of `chunk_s` seconds instead of
/// the scenario default.
///
/// # Errors
///
/// As [`run_campaign`]; also [`WiotError::InvalidScenario`] when the
/// chunk does not evenly divide the detection window.
pub fn run_campaign_chunked(
    plan: &CampaignPlan,
    chunk_s: f64,
) -> Result<CampaignReport, WiotError> {
    check_duration(plan.duration_s)?;
    if plan.population_size == 0 {
        return Err(WiotError::InvalidScenario {
            reason: "campaign population must be non-empty",
        });
    }
    if plan.victim_pool == 0 || plan.victim_pool > plan.population_size {
        return Err(WiotError::InvalidScenario {
            reason: "victim pool must be 1..=population size",
        });
    }
    if plan.donors_per_victim == 0 || plan.donors_per_victim >= plan.population_size {
        return Err(WiotError::InvalidScenario {
            reason: "donors per victim must be 1..population size",
        });
    }
    if plan.waves.is_empty() || plan.waves.iter().any(|w| w.devices == 0) {
        return Err(WiotError::InvalidScenario {
            reason: "campaign needs at least one non-empty wave",
        });
    }
    for w in &plan.waves {
        check_attack_interval(w.start_s, w.end_s, plan.duration_s)?;
    }

    let subjects = population(plan.population_size, plan.population_seed);
    let template = {
        let mut t = Scenario::new(0, plan.version, plan.duration_s);
        t.backend = plan.backend;
        t.chunk_s = chunk_s;
        t
    };

    // Victim pool: evenly spaced over the population (distinct because
    // pool ≤ population), then one model enrollment per pool victim
    // against seed-split donors, on the campaign's worker threads.
    // Enrollment cost scales with the pool, not the population. A donor
    // lends the training step only its ECG and R peaks, so only those
    // are rendered: the span is the ECG of the donor's whole record,
    // bit for bit.
    let pool: Vec<usize> = (0..plan.victim_pool)
        .map(|i| i * plan.population_size / plan.victim_pool)
        .collect();
    let n = plan.population_size;
    let train_s = template.config.train_s;
    let mut models = Vec::with_capacity(pool.len());
    let enroll = |_: &mut (), slot: usize| {
        let victim = pool[slot];
        let train_seed = device_seed(plan.seed ^ 0x7EA1, victim);
        let victim_rec = Record::synthesize(&subjects[victim], train_s, train_seed);
        let donors: Vec<EcgSpan> = (0..plan.donors_per_victim)
            .map(|j| {
                let d = (victim + 1 + j) % n;
                Record::ecg_span(
                    &subjects[d],
                    train_s,
                    device_seed(train_seed, j + 1),
                    0..usize::MAX,
                )
            })
            .collect();
        train_backend(
            &victim_rec,
            &donors,
            plan.version,
            plan.backend,
            &template.config,
        )
    };
    crate::slab::ordered_fold(pool.len(), plan.threads, enroll, |_, model| {
        models.push(model);
    })?;

    let spec = FleetSpec {
        devices: plan.devices(),
        threads: plan.threads,
        seed: plan.seed,
        telemetry: false,
        template,
    };
    let prov = CampaignProvisioner {
        plan,
        subjects: &subjects,
        pool: &pool,
        models: &models,
    };
    let fleet = run_fleet_provisioned(&spec, &prov)?;

    // Per-class rollup. Window-level TP/FN come straight from the
    // merged fault ledger; the per-device figures (FP/TN, detections,
    // latency) are re-keyed from device index to class via the wave
    // schedule.
    let mut classes = [ClassOutcome::default(); ATTACK_CLASS_COUNT];
    for (ci, c) in classes.iter_mut().enumerate() {
        c.windows_tp = fleet.faults.attack_windows_tp[ci];
        c.windows_fn = fleet.faults.attack_windows_fn[ci];
    }
    for d in &fleet.per_device {
        let Some(wave) = plan.wave_of(d.device) else {
            continue;
        };
        let c = &mut classes[wave.class.index()];
        c.devices += 1;
        c.windows_fp += d.confusion.fp;
        c.windows_tn += d.confusion.tn;
        if let Some(ms) = d.detection_latency_ms {
            c.detected_devices += 1;
            c.latency_sum_ms += ms;
        }
    }
    for c in classes.iter_mut() {
        let total = c.windows_tp + c.windows_fn;
        c.detection_permille = (c.windows_tp * 1000).checked_div(total).unwrap_or(0) as u16;
        let (lo, hi) = if total == 0 {
            (0, 0)
        } else {
            wilson_permille(c.windows_tp, total)
        };
        c.wilson_lo_permille = lo;
        c.wilson_hi_permille = hi;
    }

    Ok(CampaignReport {
        population_size: plan.population_size,
        seed: plan.seed,
        classes,
        fleet,
        pool_models: models,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_interval_matches_known_values() {
        // s=50, n=100: Wilson 95 % ≈ [0.404, 0.596].
        let (lo, hi) = wilson_permille(50, 100);
        assert!((400..=405).contains(&lo), "lo {lo}");
        assert!((595..=600).contains(&hi), "hi {hi}");
        // Degenerate cases.
        assert_eq!(wilson_permille(0, 0), (0, 1000));
        let (lo, hi) = wilson_permille(0, 10);
        assert_eq!(lo, 0);
        assert!(hi < 350, "hi {hi}");
        let (lo, hi) = wilson_permille(10, 10);
        assert_eq!(hi, 1000);
        assert!(lo > 650, "lo {lo}");
        // Interval tightens with trials at fixed rate.
        let (a_lo, a_hi) = wilson_permille(80, 100);
        let (b_lo, b_hi) = wilson_permille(800, 1000);
        assert!(b_hi - b_lo < a_hi - a_lo);
        // Bounds always bracket the point estimate.
        for (s, n) in [(1u64, 3u64), (7, 9), (123, 456), (999, 1000)] {
            let (lo, hi) = wilson_permille(s, n);
            let p = (s * 1000 / n) as u16;
            assert!(lo <= p && p <= hi, "({s},{n}) -> ({lo},{hi}) vs {p}");
        }
    }

    #[test]
    fn isqrt_is_exact_floor() {
        for v in [0u128, 1, 2, 3, 4, 15, 16, 17, 1 << 40, (1 << 60) + 123] {
            let r = isqrt_u128(v);
            assert!(r * r <= v);
            assert!((r + 1) * (r + 1) > v);
        }
    }

    #[test]
    fn class_indices_align_with_attack_modes() {
        use crate::attacker::tests::CLASSES;
        use crate::attacker::{ReadLaw, Source};
        use std::cell::Cell;
        let donor = Record::synthesize(&physio_sim::subject::bank()[1], 2.0, 9);
        let live = Record::synthesize(&physio_sim::subject::bank()[0], 2.0, 8);
        let fs = SAMPLE_RATE_HZ;
        let replay = Some((Source::Live, ReadLaw::replay(1.0, fs)));
        let aligned = Some((Source::Donor, ReadLaw::Aligned));
        // The one source table, in class-index order.
        assert_eq!(
            CLASSES.map(|class| class.reads(fs)),
            [aligned, replay, None, None, aligned, replay, aligned, aligned, aligned]
        );
        for class in CLASSES {
            let (lives, donors) = (Cell::new(0u32), Cell::new(0u32));
            let mode = class.materialize_with(
                || {
                    lives.set(lives.get() + 1);
                    (&live).into()
                },
                || {
                    donors.set(donors.get() + 1);
                    (&donor).into()
                },
                8000,
            );
            // Only the recording the table names is synthesized: 7 per
            // nine devices, not 18.
            let expected = match class.reads(fs) {
                None => (0, 0),
                Some((Source::Live, _)) => (1, 0),
                Some((Source::Donor, _)) => (0, 1),
            };
            let name = class.name();
            assert_eq!((lives.get(), donors.get()), expected, "{name}");
            assert_eq!(mode, class.materialize(&live, &donor, 8000), "{name}");
            assert_eq!(mode.class(), class);
        }
    }

    /// Every sample the donor and replay classes read lies inside the
    /// hull provisioning renders for them: an attacker holding only
    /// that span tampers every packet exactly like one holding the
    /// whole recording (and a read outside the span would panic, never
    /// read zeros or pass the packet through). The sweep covers attacks
    /// through the session's last packet, whose donor read wraps to the
    /// record start; packet lengths that do not divide the session; and
    /// replay offsets longer than the attack start, which clamp.
    #[test]
    fn attack_reads_stay_inside_the_provisioned_hull() {
        use crate::attacker::Attacker;
        use crate::device::SensorDevice;
        let duration_s = 56.0;
        let (subject, seed) = (&physio_sim::subject::bank()[3], 0x5EED);
        let whole = Record::synthesize(subject, duration_s, seed);
        let mut scenario = Scenario::new(0, Version::Simplified, duration_s);

        // The benchmark campaign's spans: 16–40 s for donors, 6–30 s
        // for a 10 s replay.
        assert_eq!(AttackClass::Coordinated.read_hull(&scenario, 16.0, 40.0), 5760..14400);
        let replay = AttackClass::Replay { offset_s: 10.0 };
        assert_eq!(replay.read_hull(&scenario, 16.0, 40.0), 2160..10800);
        assert_eq!(AttackClass::Freeze.read_hull(&scenario, 16.0, 40.0), 0..0);

        let window_ms = 3000;
        let mut attacks = 0;
        for chunk_s in [0.25, 0.5, 0.75, 1.5] {
            scenario.chunk_s = chunk_s;
            for (start_s, end_s) in [(16.0, 40.0), (0.0, 56.0), (6.0, 56.0), (55.5, 56.0)] {
                let (start_ms, end_ms) = attack_window_ms(start_s, end_s);
                for offset_s in [0.0, 10.0, 60.0] {
                    let classes = [
                        AttackClass::Substitution,
                        AttackClass::Replay { offset_s },
                        AttackClass::Mimicry { blend_permille: 700 },
                        AttackClass::ReplaySnr { offset_s, snr_db: 6.0 },
                        AttackClass::PartialWindow { coverage_permille: 600 },
                        AttackClass::Coordinated,
                        AttackClass::Adaptive,
                    ];
                    for class in classes {
                        let hull = class.read_hull(&scenario, start_s, end_s);
                        let span = || Record::ecg_span(subject, duration_s, seed, hull.clone());
                        let narrow = class.materialize_with(span, span, window_ms);
                        let full = class.materialize(&whole, &whole, window_ms);
                        let mut narrow = Attacker::new(narrow, start_ms, end_ms, 1);
                        let mut full = Attacker::new(full, start_ms, end_ms, 1);
                        let mut sensor = SensorDevice::ecg(&whole, chunk_s);
                        let mut now_ms = 0;
                        while let Some(p) = sensor.poll() {
                            let expected = full.intercept(now_ms, p.clone(), whole.fs);
                            assert_eq!(
                                narrow.intercept(now_ms, p, whole.fs),
                                expected,
                                "{} chunk {chunk_s} s, attack {start_s}–{end_s} s, hull {hull:?}",
                                class.name()
                            );
                            now_ms += scenario.chunk_ms();
                        }
                        assert_eq!(narrow.hijacked_packets(), full.hijacked_packets());
                        attacks += 1;
                    }
                }
            }
        }
        assert_eq!(attacks, 4 * 4 * 3 * 7);
    }

    #[test]
    fn legacy_four_classes_keep_their_indices() {
        assert_eq!(AttackClass::Substitution.index(), 0);
        assert_eq!(AttackClass::Replay { offset_s: 20.0 }.index(), 1);
        assert_eq!(AttackClass::Freeze.index(), 2);
        assert_eq!(AttackClass::NoiseInject { amplitude_mv: 0.6 }.index(), 3);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let base = CampaignPlan {
            population_size: 8,
            population_seed: 1,
            victim_pool: 2,
            donors_per_victim: 3,
            seed: 7,
            threads: 1,
            backend: BackendKind::Svm,
            version: Version::Simplified,
            duration_s: 24.0,
            waves: vec![AttackWave {
                class: AttackClass::Substitution,
                devices: 1,
                start_s: 8.0,
                end_s: 16.0,
            }],
        };
        for bad in [
            CampaignPlan {
                population_size: 0,
                ..base.clone()
            },
            CampaignPlan {
                victim_pool: 0,
                ..base.clone()
            },
            CampaignPlan {
                victim_pool: 9,
                ..base.clone()
            },
            CampaignPlan {
                donors_per_victim: 0,
                ..base.clone()
            },
            CampaignPlan {
                donors_per_victim: 8,
                ..base.clone()
            },
            CampaignPlan {
                waves: Vec::new(),
                ..base.clone()
            },
        ]
        .into_iter()
        .chain(
            [f64::NAN, f64::INFINITY, 0.0, -5.0].map(|duration_s| CampaignPlan {
                duration_s,
                ..base.clone()
            }),
        )
        .chain(
            [
                (8.0, f64::NAN),
                (8.0, 8.0004),
                (f64::NAN, 16.0),
                (8.0, 24.5),
            ]
            .map(|(start_s, end_s)| CampaignPlan {
                waves: vec![
                    base.waves[0],
                    AttackWave {
                        start_s,
                        end_s,
                        ..base.waves[0]
                    },
                ],
                ..base.clone()
            }),
        ) {
            assert!(
                matches!(run_campaign(&bad), Err(WiotError::InvalidScenario { .. })),
                "plan accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn wave_schedule_partitions_devices() {
        let plan = CampaignPlan {
            population_size: 8,
            population_seed: 1,
            victim_pool: 2,
            donors_per_victim: 3,
            seed: 7,
            threads: 1,
            backend: BackendKind::Svm,
            version: Version::Simplified,
            duration_s: 24.0,
            waves: vec![
                AttackWave {
                    class: AttackClass::Substitution,
                    devices: 2,
                    start_s: 8.0,
                    end_s: 16.0,
                },
                AttackWave {
                    class: AttackClass::Freeze,
                    devices: 3,
                    start_s: 8.0,
                    end_s: 16.0,
                },
            ],
        };
        assert_eq!(plan.devices(), 5);
        assert_eq!(plan.wave_of(0).unwrap().class, AttackClass::Substitution);
        assert_eq!(plan.wave_of(1).unwrap().class, AttackClass::Substitution);
        assert_eq!(plan.wave_of(2).unwrap().class, AttackClass::Freeze);
        assert_eq!(plan.wave_of(4).unwrap().class, AttackClass::Freeze);
        assert!(plan.wave_of(5).is_none());
    }

    #[test]
    fn small_campaign_runs_and_scores_per_class() {
        let plan = CampaignPlan {
            population_size: 8,
            population_seed: 0xBEEF,
            victim_pool: 2,
            donors_per_victim: 3,
            seed: 0x5EED,
            threads: 1,
            backend: BackendKind::Svm,
            version: Version::Simplified,
            duration_s: 32.0,
            waves: vec![
                AttackWave {
                    class: AttackClass::Substitution,
                    devices: 2,
                    start_s: 8.0,
                    end_s: 24.0,
                },
                AttackWave {
                    class: AttackClass::Adaptive,
                    devices: 1,
                    start_s: 8.0,
                    end_s: 24.0,
                },
            ],
        };
        let r = run_campaign(&plan).unwrap();
        assert_eq!(r.fleet.devices, 3);
        let sub = &r.classes[AttackClass::Substitution.index()];
        assert_eq!(sub.devices, 2);
        assert!(
            sub.windows_tp + sub.windows_fn > 0,
            "substitution wave scored no attacked windows"
        );
        assert!(sub.wilson_lo_permille <= sub.detection_permille);
        assert!(sub.detection_permille <= sub.wilson_hi_permille);
        let ad = &r.classes[AttackClass::Adaptive.index()];
        assert_eq!(ad.devices, 1);
        assert!(ad.windows_tp + ad.windows_fn > 0);
        // Unstaged classes stay zero.
        assert_eq!(r.classes[AttackClass::Freeze.index()].devices, 0);
        assert_eq!(r.classes[AttackClass::Freeze.index()].windows_tp, 0);
        // Determinism across runs and thread counts.
        let again = run_campaign(&plan).unwrap();
        assert_eq!(r.digest(), again.digest());
        let threaded = run_campaign(&CampaignPlan {
            threads: 3,
            ..plan.clone()
        })
        .unwrap();
        assert_eq!(r.digest(), threaded.digest(), "digest thread-sensitive");
        assert_eq!(r.classes, threaded.classes);
    }
}
