//! FRAM persistence benchmarks: one `Persistence::commit` per tick for
//! the deployed Simplified flavor on both detector families, and a cold
//! `CheckpointStore::restore` (both slots CRC-verified from their bytes,
//! as after a reboot). A regression number for the checkpoint layer
//! without a fleet run.

use amulet_sim::nvram::{CheckpointStore, SLOT_BYTES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ml::BackendKind;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::zoo::train_backend_for_subject;
use std::hint::black_box;
use wiot::persist::Persistence;

fn quick_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

fn persistence(kind: BackendKind) -> Persistence {
    let version = Version::Simplified;
    let model = train_backend_for_subject(&bank(), 0, version, kind, &quick_config(), 7).unwrap();
    Persistence::new(version, model).unwrap()
}

fn bench_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist_commit");
    for (label, kind) in [
        ("svm_simplified", BackendKind::Svm),
        ("tsetlin_simplified", BackendKind::Tsetlin),
    ] {
        let mut p = persistence(kind);
        let mut windows = 0u32;
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                windows = windows.wrapping_add(1);
                p.commit(black_box(windows), 0).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_cold_restore(c: &mut Criterion) {
    let payload: Vec<u8> = (0..420u32).map(|i| i as u8).collect();
    let mut store = CheckpointStore::new();
    store.commit(&payload).unwrap();
    store.commit(&payload).unwrap();
    // Rot a byte past slot A's payload: both slots stay valid, but the
    // store forgets its classification, so restore verifies both CRCs.
    store.flip_bit(SLOT_BYTES - 1, 0);
    c.bench_function("checkpoint_restore_cold", |b| {
        b.iter(|| black_box(&store).restore())
    });
}

criterion_group!(benches, bench_commit, bench_cold_restore);
criterion_main!(benches);
