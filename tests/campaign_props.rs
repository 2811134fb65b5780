//! Property suite for the adversary campaign engine and the
//! population-scale subject bank: population determinism, legacy-bank
//! bit-equality, inter-subject distinguishability, adaptive-attacker
//! convergence, and campaign digest stability across thread counts.

use ml::{BackendKind, DetectorBackend, DetectorModel};
use physio_sim::population::{morphology_distance, population, LEGACY_BANK_SEED};
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::features::Version;
use wiot::attacker::{AttackMode, Attacker};
use wiot::campaign::{
    run_campaign, run_campaign_chunked, wilson_permille, AttackClass, AttackWave, CampaignPlan,
};

/// Same `(n, seed)` ⇒ bit-identical population; different seed ⇒ a
/// different cohort. The generator is the root of every campaign's
/// determinism, so this is the first thing to pin.
#[test]
fn population_is_a_pure_function_of_n_and_seed() {
    let a = population(64, 0xAB);
    let b = population(64, 0xAB);
    assert_eq!(a, b);
    let c = population(64, 0xAC);
    assert!(a != c, "seed does not reach the sampler");
    // Size only appends/truncates cohort ladders deterministically —
    // same seed, different n still yields internally consistent banks.
    let small = population(8, 0xAB);
    assert_eq!(small.len(), 8);
}

/// The legacy 12-subject bank is exactly `population(12,
/// LEGACY_BANK_SEED)` — bit-for-bit, every field of every subject.
/// Every golden trace in the repository transitively depends on this.
#[test]
fn legacy_bank_is_a_population_special_case() {
    assert_eq!(population(12, LEGACY_BANK_SEED), bank());
}

/// Inter-subject distinguishability floor: in a campaign-scale
/// population every pair of subjects is separated in morphology space.
/// If two sampled subjects collapsed onto the same morphology, a
/// substitution attack between them would be undetectable by
/// construction and the detection matrix meaningless.
#[test]
fn population_subjects_are_pairwise_distinguishable() {
    let subjects = population(256, 0x5EED);
    let mut min_d = f64::INFINITY;
    for i in 0..subjects.len() {
        for j in (i + 1)..subjects.len() {
            min_d = min_d.min(morphology_distance(&subjects[i], &subjects[j]));
        }
    }
    assert!(
        min_d > 0.05,
        "closest pair at morphology distance {min_d}; population has near-duplicates"
    );
}

/// The adaptive attacker's bisection contracts its blend bracket by
/// (at least) half per probe — width ≤ 1000/2^k + 1 after k probes —
/// and converges onto the simulated decision threshold.
#[test]
fn adaptive_probe_bracket_halves_each_round() {
    let donor = Record::synthesize(&bank()[1], 2.0, 3);
    for theta in [100u16, 333, 500, 777, 901] {
        let adaptive = AttackMode::new(AttackClass::Adaptive, Some((&donor).into()), 0);
        let mut att = Attacker::new(adaptive, 0, 1000, 9);
        for k in 1..=10u32 {
            let blend = att.adaptive_blend();
            att.feedback(blend >= theta);
            let (lo, hi, probes) = att.adaptive_state().expect("adaptive attacker");
            assert_eq!(probes, u64::from(k));
            assert!(
                u32::from(hi - lo) <= (1000 >> k.min(9)) + 1,
                "theta {theta}: bracket {lo}..{hi} after {k} probes"
            );
        }
        let blend = att.adaptive_blend();
        assert!(
            blend.abs_diff(theta) <= 2,
            "theta {theta}: converged to {blend}"
        );
    }
}

/// Wilson bounds always bracket the point estimate and never leave
/// [0, 1000] — across a sweep of success/trial shapes, including the
/// campaign-typical small-n cells.
#[test]
fn wilson_bounds_bracket_the_rate() {
    for n in [1u64, 2, 5, 24, 64, 1000, 100_000] {
        for s in [0, 1, n / 3, n / 2, n.saturating_sub(1), n] {
            let s = s.min(n);
            let (lo, hi) = wilson_permille(s, n);
            let p = (s * 1000 / n) as u16;
            assert!(lo <= p, "({s},{n}): lo {lo} > point {p}");
            assert!(hi >= p, "({s},{n}): hi {hi} < point {p}");
            assert!(hi <= 1000);
            assert!(lo < hi || n == 0, "({s},{n}): degenerate interval");
        }
    }
}

fn small_plan() -> CampaignPlan {
    CampaignPlan {
        population_size: 16,
        population_seed: 0xBEEF,
        victim_pool: 3,
        donors_per_victim: 4,
        seed: 0x5EED,
        threads: 1,
        backend: BackendKind::Svm,
        version: Version::Simplified,
        duration_s: 30.0,
        waves: vec![
            AttackWave {
                class: AttackClass::Substitution,
                devices: 2,
                start_s: 9.0,
                end_s: 21.0,
            },
            AttackWave {
                class: AttackClass::Mimicry {
                    blend_permille: 700,
                },
                devices: 2,
                start_s: 9.0,
                end_s: 21.0,
            },
            AttackWave {
                class: AttackClass::Coordinated,
                devices: 2,
                start_s: 9.0,
                end_s: 21.0,
            },
        ],
    }
}

/// `CampaignReport::digest` of [`small_plan`], and [`models_fnv`] of
/// its pool's models, computed with every donor enrolled as a whole
/// two-channel record on one thread.
const SMALL_PLAN_DIGEST: u64 = 0x7058_D242_1D2A_423D;
const SMALL_PLAN_MODELS_FNV: u64 = 0xA4B9_52B6_9249_96FB;

/// FNV-1a 64 over the encoded models, in pool order.
fn models_fnv(models: &[DetectorModel]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in models.iter().flat_map(DetectorModel::encode) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The campaign digest — fleet digest plus the per-class matrix — and
/// the enrolled pool models are byte-identical at 1, 2, 3 and 8 worker
/// threads: a pool of three split over two workers, over exactly three,
/// and over more workers than victims. This is the determinism
/// guarantee the bench gate pins, asserted here at test scale so a
/// violation fails fast in `cargo test`.
#[test]
fn campaign_digest_is_thread_count_invariant() {
    let base = small_plan();
    let one = run_campaign(&base).unwrap();
    let digest = one.digest();
    assert_eq!(
        (digest, models_fnv(&one.pool_models)),
        (SMALL_PLAN_DIGEST, SMALL_PLAN_MODELS_FNV),
        "small campaign moved: digest {digest:#X}, models {:#X}",
        models_fnv(&one.pool_models)
    );
    for threads in [2usize, 3, 8] {
        let r = run_campaign(&CampaignPlan {
            threads,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(digest, r.digest(), "digest moved at {threads} threads");
        assert_eq!(one.classes, r.classes, "matrix moved at {threads} threads");
        assert_eq!(
            one.pool_models, r.pool_models,
            "models moved at {threads} threads"
        );
    }
    // And it is a pure function of the plan: a different campaign seed
    // moves it.
    let reseeded = run_campaign(&CampaignPlan {
        seed: base.seed + 1,
        ..base
    })
    .unwrap();
    assert_ne!(
        digest,
        reseeded.digest(),
        "campaign seed does not reach the fleet"
    );
}

/// Per-class accounting is conserved: each staged wave's device count
/// lands in exactly its own class row, unstaged classes stay zero, and
/// attacked-window totals match devices × positive windows.
#[test]
fn campaign_matrix_accounts_every_wave() {
    let plan = small_plan();
    let r = run_campaign(&plan).unwrap();
    let staged: Vec<usize> = plan.waves.iter().map(|w| w.class.index()).collect();
    for (ci, c) in r.classes.iter().enumerate() {
        if staged.contains(&ci) {
            assert_eq!(c.devices, 2, "class {ci} device count");
            assert!(c.windows_tp + c.windows_fn > 0, "class {ci} scored nothing");
            assert!(c.wilson_lo_permille <= c.detection_permille);
            assert!(c.detection_permille <= c.wilson_hi_permille);
        } else {
            assert_eq!(c.devices, 0, "unstaged class {ci} has devices");
            assert_eq!(c.windows_tp + c.windows_fn, 0);
        }
    }
}

/// `CampaignReport::digest` of [`nine_class_plan`], computed with
/// eager provisioning (both recordings synthesized for every device).
const NINE_CLASS_DIGEST: u64 = 0x5BE5_4E6A_88F7_BAF4;

/// One device per attack class, all nine classes, at test scale.
fn nine_class_plan() -> CampaignPlan {
    let classes = [
        AttackClass::Substitution,
        AttackClass::Replay { offset_s: 6.0 },
        AttackClass::Freeze,
        AttackClass::NoiseInject { amplitude_mv: 0.6 },
        AttackClass::Mimicry {
            blend_permille: 700,
        },
        AttackClass::ReplaySnr {
            offset_s: 6.0,
            snr_db: 6.0,
        },
        AttackClass::PartialWindow {
            coverage_permille: 600,
        },
        AttackClass::Coordinated,
        AttackClass::Adaptive,
    ];
    CampaignPlan {
        population_size: 10,
        population_seed: 0xBEEF,
        victim_pool: 2,
        donors_per_victim: 2,
        seed: 0x9C1A,
        threads: 1,
        backend: BackendKind::Svm,
        version: Version::Simplified,
        duration_s: 24.0,
        waves: classes
            .into_iter()
            .map(|class| AttackWave {
                class,
                devices: 1,
                start_s: 8.0,
                end_s: 16.0,
            })
            .collect(),
    }
}

/// Every attack class's provisioning is pinned: the nine-class digest
/// covers the fleet digest and the per-class matrix, so a provisioning
/// change that alters any class's recordings (the replay classes read
/// the victim's live session, five classes read a donor) moves it.
#[test]
fn nine_class_campaign_digest_is_pinned() {
    let r = run_campaign(&nine_class_plan()).unwrap();
    for c in &r.classes {
        assert_eq!(c.devices, 1);
        assert!(c.windows_tp + c.windows_fn > 0, "a class scored nothing");
    }
    assert_eq!(
        r.digest(),
        NINE_CLASS_DIGEST,
        "nine-class campaign digest moved"
    );
}

/// `CampaignReport::digest` of [`edge_plan`] at [`EDGE_CHUNK_S`],
/// computed with full-record provisioning (every read recording
/// synthesized whole).
const EDGE_DIGEST: u64 = 0x9460_7A2D_43D4_001F;

/// A 90-sample packet: 96 of them fill the 24 s session, so the last
/// one starts at `n − chunk` and a donor read wraps to the record start.
const EDGE_CHUNK_S: f64 = 0.25;

/// [`nine_class_plan`] with every wave running to the end of the
/// session and replays reaching back further than the attack start, so
/// the first replayed packets clamp to the session start.
fn edge_plan() -> CampaignPlan {
    let mut plan = nine_class_plan();
    for w in &mut plan.waves {
        w.end_s = plan.duration_s;
        match &mut w.class {
            AttackClass::Replay { offset_s } | AttackClass::ReplaySnr { offset_s, .. } => {
                *offset_s = 10.0;
            }
            _ => {}
        }
    }
    plan
}

/// Provisioning reads every edge of the index law the same way: donor
/// reads that wrap to the record start, replay reads clamped at the
/// session start, and a packet length other than the default.
#[test]
fn edge_campaign_digest_is_pinned() {
    let r = run_campaign_chunked(&edge_plan(), EDGE_CHUNK_S).unwrap();
    for c in &r.classes {
        assert_eq!(c.devices, 1);
        assert!(c.windows_tp + c.windows_fn > 0, "a class scored nothing");
    }
    assert_eq!(
        r.digest(),
        EDGE_DIGEST,
        "edge campaign digest moved: {:#X}",
        r.digest()
    );
}
