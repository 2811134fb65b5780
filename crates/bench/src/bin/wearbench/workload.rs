//! The four workloads, their enrollment (the benchmark's set-up), and
//! the engine call each one times.
//!
//! Everything here goes through the public APIs of `physio-sim`,
//! `sift`, `ml` and `wiot`. The campaign's enrollment and per-device
//! provisioning are replayed from `wiot::campaign`'s published policy
//! (victim pool, seed splits, donor choice) so the traced run can
//! provision one sampled device at a time; the trace checks every
//! replayed device against the engine's own row.

use ml::{BackendKind, DetectorModel};
use physio_sim::population::{nearest_neighbor, population};
use physio_sim::record::{Record, SynthProfile};
use physio_sim::subject::{bank, Subject};
use sift::features::Version;
use sift::trainer::ModelBank;
use wiot::campaign::{run_campaign, AttackClass, AttackWave, CampaignPlan};
use wiot::channel::LossModel;
use wiot::device::Stream;
use wiot::faults::{FaultEvent, FaultKind, FaultPlan};
use wiot::fleet::{device_seed, DeviceProvision, FleetProvisioner, FleetReport, FleetSpec};
use wiot::scenario::{AttackSpec, Scenario};
use wiot::slab::run_fleet_streamed;
use wiot::WiotError;

use crate::run::ROUNDS;

/// Session length of every fleet device, seconds.
const FLEET_SESSION_S: f64 = 30.0;

/// The campaign of `bench --bin campaign`, at population scale.
const POPULATION: usize = 1024;
const POPULATION_SEED: u64 = 0x090B_1A7E;
const VICTIM_POOL: usize = 8;
const DONORS_PER_VICTIM: usize = 6;
const WAVE_DEVICES: usize = 128;
const CAMPAIGN_SESSION_S: f64 = 56.0;
const ATTACK_START_S: f64 = 16.0;
const ATTACK_END_S: f64 = 40.0;

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `wiot::slab::run_fleet_streamed` over the 12-subject bank.
    Fleet {
        /// Devices at the default run length.
        devices: usize,
        version: Version,
        backend: BackendKind,
        synth: SynthProfile,
        persist: bool,
        /// Lossy link with ARQ, salvage, watchdog and the fault plan.
        hostile: bool,
    },
    /// `wiot::campaign::run_campaign`: nine attack waves.
    Campaign,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub default_seed: u64,
    /// Engine digests of the timed rounds of a default-length run at
    /// `default_seed`.
    pub pinned_digests: [u64; ROUNDS],
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet-turbo",
        default_seed: 61455,
        pinned_digests: [
            0x3288_da8b_3cc2_9599,
            0x1e3e_ff60_af82_4398,
            0x84d3_2aa0_a58d_2b7c,
            0xc847_63f3_61a3_1360,
        ],
        kind: Kind::Fleet {
            devices: 40_000,
            version: Version::Reduced,
            backend: BackendKind::Svm,
            synth: SynthProfile::Turbo,
            persist: false,
            hostile: false,
        },
    },
    Workload {
        name: "fleet-fidelity",
        default_seed: 61455,
        pinned_digests: [
            0x3485_7e27_6696_926f,
            0xb35b_fc12_2fa8_2f79,
            0x59fe_bea7_c381_1c41,
            0x025f_05a6_1c67_60d7,
        ],
        kind: Kind::Fleet {
            devices: 6_000,
            version: Version::Simplified,
            backend: BackendKind::Svm,
            synth: SynthProfile::Reference,
            persist: true,
            hostile: false,
        },
    },
    Workload {
        name: "hostile-link",
        default_seed: 61455,
        pinned_digests: [
            0x5bc7_f71a_b484_fbe5,
            0x6527_43e4_5380_f42c,
            0x5f4a_a032_9739_f7ad,
            0xca6f_9392_d2b4_c344,
        ],
        kind: Kind::Fleet {
            devices: 16_000,
            version: Version::Simplified,
            backend: BackendKind::Tsetlin,
            synth: SynthProfile::Turbo,
            persist: true,
            hostile: true,
        },
    },
    Workload {
        name: "campaign",
        default_seed: 0x00CA_4FA1,
        pinned_digests: [
            0x8b04_de7c_6172_f1a3,
            0x3911_7601_cee0_8e34,
            0xc5a4_141d_580f_8eb6,
            0xed0c_0ff7_d209_8631,
        ],
        kind: Kind::Campaign,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The nine attack classes of `bench --bin campaign`, one wave each.
fn attack_classes() -> [AttackClass; 9] {
    [
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
    ]
}

/// What one enrollment produces.
pub enum Setup {
    /// One model per bank subject, shared by every fleet device.
    Bank(ModelBank),
    /// The campaign's population, victim pool and one model per pool
    /// victim.
    Campaign(CampaignSetup),
}

pub struct CampaignSetup {
    pub subjects: Vec<Subject>,
    /// Population indices of the victim pool.
    pub pool: Vec<usize>,
    /// One deployed model per pool slot.
    pub models: Vec<DetectorModel>,
}

/// The result of one engine call, reduced to what the benchmark checks
/// and reports.
pub struct Outcome {
    pub digest: u64,
    pub fleet: FleetReport,
    /// Slab reorder window `(high water, cap)`; `None` on the resident
    /// engine.
    pub window: Option<(usize, usize)>,
    /// Σ attacked windows flagged and missed over the attack classes
    /// (campaign only).
    pub attack_windows: Option<(u64, u64)>,
}

impl Workload {
    /// Length unit at run-length `scale` (1.0 = the default 10 s run):
    /// devices for a fleet, devices per wave for the campaign.
    pub fn units(&self, scale: f64) -> usize {
        let base = match self.kind {
            Kind::Fleet { devices, .. } => devices,
            Kind::Campaign => WAVE_DEVICES,
        };
        ((base as f64 * scale).round() as usize).max(1)
    }

    /// The smallest length unit that covers `devices` devices.
    pub fn units_for(&self, devices: usize) -> usize {
        match self.kind {
            Kind::Fleet { .. } => devices.max(1),
            Kind::Campaign => devices.div_ceil(attack_classes().len()).max(1),
        }
    }

    /// Devices simulated at `units`.
    pub fn devices(&self, units: usize) -> usize {
        match self.kind {
            Kind::Fleet { .. } => units,
            Kind::Campaign => units * attack_classes().len(),
        }
    }

    /// Simulated session length of one device, seconds.
    pub fn session_s(&self) -> f64 {
        match self.kind {
            Kind::Fleet { .. } => FLEET_SESSION_S,
            Kind::Campaign => CAMPAIGN_SESSION_S,
        }
    }

    /// Human-readable configuration for the run metadata.
    pub fn params(&self) -> String {
        match self.kind {
            Kind::Fleet {
                version,
                backend,
                synth,
                persist,
                hostile,
                ..
            } => format!(
                "engine=slab version={version} backend={backend} synth={synth:?} persist={persist} \
                 link={} session_s={FLEET_SESSION_S}",
                if hostile { "hostile" } else { "default" }
            ),
            Kind::Campaign => format!(
                "engine=resident population={POPULATION} population_seed={POPULATION_SEED:#x} \
                 victim_pool={VICTIM_POOL} donors_per_victim={DONORS_PER_VICTIM} classes=9 \
                 version=simplified backend=svm session_s={CAMPAIGN_SESSION_S} \
                 attack_s={ATTACK_START_S}-{ATTACK_END_S}"
            ),
        }
    }

    /// The per-device scenario every device of the workload clones.
    pub fn template(&self) -> Scenario {
        match self.kind {
            Kind::Fleet {
                version,
                backend,
                synth,
                persist,
                hostile,
                ..
            } => {
                let mut s = Scenario::new(0, version, FLEET_SESSION_S);
                s.backend = backend;
                s.synth = synth;
                s.persist = persist;
                if hostile {
                    harden(&mut s);
                }
                s
            }
            Kind::Campaign => {
                let mut s = Scenario::new(0, Version::Simplified, CAMPAIGN_SESSION_S);
                s.backend = BackendKind::Svm;
                s
            }
        }
    }

    /// The fleet (or, for the campaign, the resident engine's fleet)
    /// spec for `devices` devices.
    pub fn fleet_spec(&self, devices: usize, threads: usize, seed: u64) -> FleetSpec {
        let mut spec = FleetSpec::new(devices, self.session_s())
            .with_threads(threads)
            .with_seed(seed);
        spec.template = self.template();
        spec
    }

    pub fn campaign_plan(&self, per_wave: usize, threads: usize, seed: u64) -> CampaignPlan {
        CampaignPlan {
            population_size: POPULATION,
            population_seed: POPULATION_SEED,
            victim_pool: VICTIM_POOL,
            donors_per_victim: DONORS_PER_VICTIM,
            seed,
            threads,
            backend: BackendKind::Svm,
            version: Version::Simplified,
            duration_s: CAMPAIGN_SESSION_S,
            waves: attack_classes()
                .into_iter()
                .map(|class| AttackWave {
                    class,
                    devices: per_wave,
                    start_s: ATTACK_START_S,
                    end_s: ATTACK_END_S,
                })
                .collect(),
        }
    }

    /// One enrollment: the set-up every run of the workload pays before
    /// its first device. Fleets train `ModelBank::train_backend` over
    /// the subject bank, always at `default_seed`: every fleet run
    /// scores with the same models and the run's seed picks only the
    /// devices. The campaign samples its population and trains one model
    /// per pool victim exactly as `run_campaign` does at campaign seed
    /// `seed`.
    pub fn enroll(&self, seed: u64) -> Result<Setup, WiotError> {
        match self.kind {
            Kind::Fleet {
                version, backend, ..
            } => {
                let config = self.template().config;
                Ok(Setup::Bank(ModelBank::train_backend(
                    &bank(),
                    version,
                    backend,
                    &config,
                    self.default_seed,
                )?))
            }
            Kind::Campaign => {
                let config = self.template().config;
                let subjects = population(POPULATION, POPULATION_SEED);
                let pool: Vec<usize> = (0..VICTIM_POOL)
                    .map(|i| i * POPULATION / VICTIM_POOL)
                    .collect();
                let mut models = Vec::with_capacity(pool.len());
                for &victim in &pool {
                    let train_seed = device_seed(seed ^ 0x7EA1, victim);
                    let victim_rec =
                        Record::synthesize(&subjects[victim], config.train_s, train_seed);
                    let donors: Vec<Record> = (0..DONORS_PER_VICTIM)
                        .map(|j| {
                            Record::synthesize(
                                &subjects[(victim + 1 + j) % POPULATION],
                                config.train_s,
                                device_seed(train_seed, j + 1),
                            )
                        })
                        .collect();
                    let donor_refs: Vec<&Record> = donors.iter().collect();
                    models.push(sift::zoo::train_backend(
                        &victim_rec,
                        &donor_refs,
                        Version::Simplified,
                        BackendKind::Svm,
                        &config,
                    )?);
                }
                Ok(Setup::Campaign(CampaignSetup {
                    subjects,
                    pool,
                    models,
                }))
            }
        }
    }

    /// The timed engine call: `units` of the workload on `threads`
    /// workers. The campaign's call includes its own enrollment.
    pub fn run_engine(
        &self,
        setup: &Setup,
        units: usize,
        threads: usize,
        seed: u64,
    ) -> Result<Outcome, WiotError> {
        match (self.kind, setup) {
            (Kind::Fleet { .. }, Setup::Bank(models)) => {
                let spec = self.fleet_spec(units, threads, seed);
                let r = run_fleet_streamed(&spec, models)?;
                Ok(Outcome {
                    digest: r.slab_digest,
                    window: Some((r.pending_high_water, r.window_cap)),
                    attack_windows: None,
                    fleet: r.report,
                })
            }
            (Kind::Campaign, _) => {
                let r = run_campaign(&self.campaign_plan(units, threads, seed))?;
                let tp = r.classes.iter().map(|c| c.windows_tp).sum();
                let fn_ = r.classes.iter().map(|c| c.windows_fn).sum();
                Ok(Outcome {
                    digest: r.digest(),
                    window: None,
                    attack_windows: Some((tp, fn_)),
                    fleet: r.fleet,
                })
            }
            (Kind::Fleet { .. }, Setup::Campaign(_)) => Err(WiotError::InvalidScenario {
                reason: "fleet workload given a campaign enrollment",
            }),
        }
    }
}

/// The `hostile-link` environment: ARQ, one-chunk salvage and the
/// watchdog over a bursty, duplicating, reordering, corrupting link,
/// plus the same fault plan in every session.
fn harden(s: &mut Scenario) {
    s.link.loss = Some(LossModel::GilbertElliott {
        p_good_to_bad: 0.05,
        p_bad_to_good: 0.3,
        loss_good: 0.01,
        loss_bad: 0.6,
    });
    s.link.dup_prob = 0.02;
    s.link.reorder_prob = 0.05;
    s.link.reorder_extra_ms = 40;
    s.link.corrupt_prob = 0.01;
    *s = s.clone().with_reliability();
    let at = |t: f64, kind: FaultKind| FaultEvent {
        start_s: t,
        end_s: t,
        kind,
    };
    s.faults = FaultPlan::new()
        .with(at(3.3, FaultKind::DeviceReboot))
        .with(at(16.2, FaultKind::DeviceReboot))
        .with(at(7.1, FaultKind::TornCheckpoint { cut_bytes: 8 }))
        .with(at(21.7, FaultKind::TornCheckpoint { cut_bytes: 11 }))
        .with(at(11.9, FaultKind::CheckpointBitRot { byte: 26, bit: 2 }))
        .with(at(26.4, FaultKind::CheckpointBitRot { byte: 65, bit: 5 }))
        .with(FaultEvent {
            start_s: 9.0,
            end_s: 14.0,
            kind: FaultKind::LinkDegrade {
                stream: None,
                loss: LossModel::Bernoulli { p: 0.4 },
            },
        })
        .with(FaultEvent {
            start_s: 18.0,
            end_s: 19.5,
            kind: FaultKind::SensorDropout {
                stream: Stream::Abp,
            },
        });
}

/// Provisions a subset of a fleet workload's devices: engine slot `j`
/// runs workload device `sample[j]` with the bank's round-robin victim
/// and the device's own seed split, exactly as `run_fleet_streamed`
/// would provision it.
pub struct SampledBank<'a> {
    pub models: &'a ModelBank,
    pub sample: &'a [usize],
}

impl FleetProvisioner for SampledBank<'_> {
    fn provision(&self, spec: &FleetSpec, slot: usize) -> Result<DeviceProvision<'_>, WiotError> {
        let device = sample_device(self.sample, slot)?;
        let mut scenario = spec.template.clone();
        scenario.victim = device % self.models.len();
        scenario.seed = device_seed(spec.seed, device);
        let deployed = self
            .models
            .deployed(scenario.victim)
            .ok_or(WiotError::InvalidScenario {
                reason: "model bank does not cover the device's victim",
            })?;
        Ok(DeviceProvision {
            model: self.models.get(scenario.victim).map(|m| m.as_ref()),
            scenario,
            subject: None,
            deployed: deployed.as_ref(),
        })
    }
}

/// Provisions a subset of the campaign's devices the way
/// `run_campaign` provisions them: pool victim, per-class donor,
/// materialized attack, and the bursty reliable link for coordinated
/// waves. `spec.seed` is the campaign seed.
pub struct SampledCampaign<'a> {
    pub plan: &'a CampaignPlan,
    pub setup: &'a CampaignSetup,
    pub sample: &'a [usize],
}

impl SampledCampaign<'_> {
    fn donor_index(&self, class: &AttackClass, victim: usize, scenario_seed: u64) -> usize {
        let n = self.setup.subjects.len();
        if n == 1 {
            return 0;
        }
        if matches!(class, AttackClass::Mimicry { .. } | AttackClass::Adaptive) {
            if let Some(j) = nearest_neighbor(&self.setup.subjects, victim) {
                return j;
            }
        }
        let draw = if matches!(class, AttackClass::Coordinated) {
            device_seed(self.plan.seed ^ 0xC0_0D, class.index())
        } else {
            device_seed(scenario_seed ^ 0xD0_40, 0)
        };
        (victim + 1 + (draw % (n as u64 - 1)) as usize) % n
    }
}

impl FleetProvisioner for SampledCampaign<'_> {
    fn provision(&self, spec: &FleetSpec, slot: usize) -> Result<DeviceProvision<'_>, WiotError> {
        let device = sample_device(self.sample, slot)?;
        let mut offset = 0;
        let wave = self
            .plan
            .waves
            .iter()
            .find(|w| {
                offset += w.devices;
                device < offset
            })
            .ok_or(WiotError::InvalidScenario {
                reason: "device index outside the campaign schedule",
            })?;
        let pool_slot = device % self.setup.pool.len();
        let victim = self.setup.pool[pool_slot];

        let mut scenario = spec.template.clone();
        scenario.victim = victim;
        scenario.seed = device_seed(spec.seed, device);
        let subject = &self.setup.subjects[victim];
        let live = Record::synthesize(subject, scenario.duration_s, scenario.seed ^ 0x11FE);
        let donor_idx = self.donor_index(&wave.class, victim, scenario.seed);
        let donor = Record::synthesize(
            &self.setup.subjects[donor_idx],
            scenario.duration_s,
            scenario.seed ^ 0xD00D,
        );
        let window_ms = (scenario.config.window_s * 1000.0) as u64;
        scenario.attack = Some(AttackSpec {
            mode: wave.class.materialize(&live, &donor, window_ms),
            start_s: wave.start_s,
            end_s: wave.end_s,
        });
        if matches!(wave.class, AttackClass::Coordinated) {
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
            subject: Some(subject),
            model: None,
            deployed: &self.setup.models[pool_slot],
        })
    }
}

/// Record syntheses a campaign provision performs per device (the
/// victim's live session and the donor recording).
pub const CAMPAIGN_PROVISION_SYNTHS: u64 = 2;

fn sample_device(sample: &[usize], slot: usize) -> Result<usize, WiotError> {
    sample.get(slot).copied().ok_or(WiotError::InvalidScenario {
        reason: "engine slot outside the sample",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_scale_and_cover_devices() {
        let turbo = find("fleet-turbo").unwrap();
        assert_eq!(turbo.units(1.0), 40_000);
        assert_eq!(turbo.units(1.0 / 20.0), 2_000);
        assert_eq!(turbo.devices(turbo.units_for(200)), 200);
        let campaign = find("campaign").unwrap();
        assert_eq!(campaign.devices(campaign.units(1.0)), 1_152);
        assert_eq!(campaign.units(1.0 / 200.0), 1);
        assert!(campaign.devices(campaign.units_for(200)) >= 200);
        assert!(find("nope").is_none());
    }

    #[test]
    fn hostile_template_validates() {
        let w = find("hostile-link").unwrap();
        let s = w.template();
        assert!(s.arq.is_some() && s.salvage_max_missing == Some(1));
        assert_eq!(s.faults.events().len(), 8);
        s.faults.validate(s.duration_s).unwrap();
    }
}
