//! Slab-based streaming fleet engine: bounded-memory multiplexing of
//! arbitrarily many devices over a small worker pool.
//!
//! This is the one fleet engine. A fixed pool of workers pulls device
//! indices from a shared cursor, each worker materializes one device at
//! a time into its own reusable slab slot, and a single folder thread
//! retires summaries in device-index order the moment they are
//! contiguous. [`run_fleet_streamed_provisioned`] keeps nothing after
//! the fold; [`crate::fleet::run_fleet_provisioned`] drives the same
//! loop and also moves each retired [`DeviceSummary`] into
//! [`FleetReport::per_device`]. Apart from those collected rows,
//! resident state is O(workers), not O(devices):
//!
//! * **Claim window.** A worker may only claim device `i` once
//!   `i < next_fold + window_cap` (`window_cap = workers × 4`), so the
//!   reorder buffer between the unordered workers and the in-order
//!   folder never holds more than `window_cap` summaries. The
//!   [`SlabReport::pending_high_water`] counter proves the bound held.
//! * **Checkpoint swap.** Each claim round-trips the provisioned
//!   detector through the [`sift::checkpoint::DetectorCheckpoint`]
//!   codec in the worker's reusable slot buffer — exactly the bytes a
//!   real swap in/out of NVRAM-backed slab storage would move — and the
//!   device runs on the *decoded* model, so every simulated device
//!   exercises the codec's losslessness. On retirement the final
//!   detector state (stream position, alerts) is encoded back out and
//!   only [`SlabReport::retired_checkpoint_bytes`] remains.
//! * **In-order fold.** The folder drives the incremental
//!   [`Reducer`](crate::fleet) fold and the per-device digest encoding
//!   strictly in index order, so aggregates are bit-identical at any
//!   worker count, and a collected report's
//!   [`FleetReport::slab_digest`] equals the streamed digest.
//!
//! The lowest-device-index provisioning or simulation error wins,
//! deterministically. Workers holding lower indices keep running after
//! an error is recorded (a lower-index error may still surface);
//! workers claiming indices at or above the recorded error skip out.
//!
//! `map_ordered` is the crate's other parallel loop, for work that
//! needs no reorder window: campaign pool enrollment.

use crate::fleet::{
    digest_device, BankProvisioner, DeviceProvision, DeviceSummary, Digest, FleetProvisioner,
    FleetReport, FleetSpec, Reducer,
};
use crate::WiotError;
use sift::checkpoint::DetectorCheckpoint;
use sift::trainer::ModelBank;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

/// Result of a streamed fleet run: the familiar aggregates (with
/// `per_device` deliberately empty) plus the slab engine's own
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SlabReport {
    /// Fleet aggregates. The `per_device` vector is **empty** —
    /// per-device summaries were folded and retired, never accumulated.
    pub report: FleetReport,
    /// Streaming digest over every retired summary then the aggregates
    /// (see [`FleetReport::slab_digest`] for the same value recomputed
    /// from a report's rows).
    pub slab_digest: u64,
    /// Worker threads actually used (spec value clamped).
    pub workers: usize,
    /// Maximum summaries the reorder window may hold (`workers × 4`).
    pub window_cap: usize,
    /// Most summaries that were ever pending at once — the measured
    /// residency, always `≤ window_cap`.
    pub pending_high_water: usize,
    /// Total bytes of final detector checkpoints encoded at device
    /// retirement (the swap-out traffic of a real slab store).
    pub retired_checkpoint_bytes: u64,
}

/// Reorder buffer between unordered workers and the in-order folder.
struct FoldState {
    /// Finished summaries waiting to become contiguous, plus each
    /// device's retired-checkpoint byte count.
    pending: BTreeMap<usize, (DeviceSummary, u64)>,
    /// Next device index the folder will retire.
    next_fold: usize,
    /// Lowest-index error seen so far.
    error: Option<(usize, WiotError)>,
    /// Largest `pending.len()` ever observed.
    high_water: usize,
}

/// Everything the workers and the folder share.
struct Shared {
    /// Monotone device-claim cursor.
    cursor: AtomicUsize,
    fold: Mutex<FoldState>,
    /// Workers wait here for the claim window to reach their index (or
    /// for an error at or below it).
    can_claim: Condvar,
    /// The folder waits here for the next contiguous summary (or an
    /// error at exactly `next_fold`).
    ready: Condvar,
    window_cap: usize,
}

/// What a worker learned while waiting for its claim window.
enum Claim {
    /// The window reached this index: simulate the device.
    Proceed,
    /// An error at or below this index makes the result irrelevant.
    Skip,
}

impl Shared {
    /// Block until device `i` is inside the claim window. Bounds the
    /// reorder buffer: `i < next_fold + window_cap` at proceed time,
    /// and `next_fold` only grows, so every pending index stays within
    /// `window_cap` of the fold frontier.
    fn wait_for_window(&self, i: usize) -> Claim {
        let mut st = self.fold.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some((e, _)) = &st.error {
                if *e <= i {
                    return Claim::Skip;
                }
            }
            if i < st.next_fold + self.window_cap {
                return Claim::Proceed;
            }
            st = self.can_claim.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Deliver device `i`'s summary to the folder.
    fn deliver(&self, i: usize, summary: DeviceSummary, retired_bytes: u64) {
        let mut st = self.fold.lock().unwrap_or_else(PoisonError::into_inner);
        // A result at or above a recorded error will never be folded.
        let dead = st.error.as_ref().is_some_and(|(e, _)| *e <= i);
        if !dead {
            st.pending.insert(i, (summary, retired_bytes));
            st.high_water = st.high_water.max(st.pending.len());
        }
        self.ready.notify_all();
    }

    /// Record device `i`'s error; the lowest index wins.
    fn fail(&self, i: usize, err: WiotError) {
        let mut st = self.fold.lock().unwrap_or_else(PoisonError::into_inner);
        let lower = st.error.as_ref().is_none_or(|(e, _)| i < *e);
        if lower {
            st.error = Some((i, err));
            // Results above the error are dead weight; drop them now.
            st.pending.split_off(&i);
        }
        // Wake everyone: waiting claimants may now skip, and the folder
        // may now be looking at the erroring index.
        self.can_claim.notify_all();
        self.ready.notify_all();
    }
}

/// Simulate one claimed device inside the worker's slab slot: swap the
/// provisioned detector **in** through the checkpoint codec, run the
/// device on the decoded model, then encode the final detector state
/// back **out**, returning the summary and the swap-out byte count.
fn run_one(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
    device: usize,
    slot: &mut Vec<u8>,
) -> Result<(DeviceSummary, u64), WiotError> {
    let DeviceProvision {
        scenario,
        subject,
        deployed,
        ..
    } = prov.provision(spec, device)?;

    // Swap-in: the provisioned model enters the slot as checkpoint
    // bytes and the device runs on what decodes back out, so a codec
    // regression breaks the slab digest, not just a unit test.
    let swap_in = DetectorCheckpoint::new(scenario.version, deployed.clone())?;
    if slot.len() < swap_in.encoded_len() {
        slot.resize(swap_in.encoded_len(), 0);
    }
    let n = swap_in.encode_into(slot)?;
    let mut resident = DetectorCheckpoint::decode(&slot[..n])?;

    let summary =
        crate::fleet::simulate_provisioned(spec.telemetry, device, scenario, subject, &resident.model)?;

    // Swap-out: persist the final stream position and alert count the
    // way a real slab store would before reusing the slot.
    let windows = summary.confusion.tp
        + summary.confusion.fp
        + summary.confusion.tn
        + summary.confusion.fn_;
    resident.windows_seen = u32::try_from(windows).unwrap_or(u32::MAX);
    resident.alerts_raised = u32::try_from(summary.alerts).unwrap_or(u32::MAX);
    let out = resident.encode_into(slot)?;
    Ok((summary, out as u64))
}

/// Fails its device if the worker unwinds while simulating it, so the
/// folder stops waiting for that device and the scope re-raises the
/// panic instead of hanging.
struct FailOnUnwind<'a> {
    shared: &'a Shared,
    device: usize,
}

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            let reason = "device simulation panicked";
            self.shared
                .fail(self.device, WiotError::InvalidScenario { reason });
        }
    }
}

/// Worker loop: claim the next device index, wait for the window,
/// simulate, deliver. Exits when the cursor passes the fleet or an
/// error makes its remaining claims irrelevant.
fn worker(spec: &FleetSpec, prov: &dyn FleetProvisioner, shared: &Shared) {
    let mut slot = Vec::new();
    loop {
        let device = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if device >= spec.devices {
            return;
        }
        match shared.wait_for_window(device) {
            Claim::Skip => return,
            Claim::Proceed => {}
        }
        let _unwind = FailOnUnwind { shared, device };
        match run_one(spec, prov, device, &mut slot) {
            Ok((summary, bytes)) => shared.deliver(device, summary, bytes),
            Err(e) => {
                shared.fail(device, e);
                return;
            }
        }
    }
}

/// Run a fleet through the streaming slab engine with an arbitrary
/// [`FleetProvisioner`]. Aggregates (and [`SlabReport::slab_digest`])
/// are bit-identical at any worker count; the per-device vector is
/// never materialized.
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for an empty fleet and
/// propagates the lowest-device-index provisioning or simulation error.
pub fn run_fleet_streamed_provisioned(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
) -> Result<SlabReport, WiotError> {
    run(spec, prov, false)
}

/// The engine behind both fleet entry points. With `keep_rows` the
/// folder moves each summary into the report's `per_device` after
/// folding it ([`crate::fleet::run_fleet_provisioned`]); without it the
/// summary is dropped.
pub(crate) fn run(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
    keep_rows: bool,
) -> Result<SlabReport, WiotError> {
    if spec.devices == 0 {
        return Err(WiotError::InvalidScenario {
            reason: "fleet must have at least one device",
        });
    }
    let workers = spec.threads.clamp(1, spec.devices);
    let window_cap = workers * 4;
    let shared = Shared {
        cursor: AtomicUsize::new(0),
        fold: Mutex::new(FoldState {
            pending: BTreeMap::new(),
            next_fold: 0,
            error: None,
            high_water: 0,
        }),
        can_claim: Condvar::new(),
        ready: Condvar::new(),
        window_cap,
    };

    let mut digest = Digest::new();
    let mut reducer = Reducer::new();
    let mut retired_checkpoint_bytes = 0u64;
    let mut rows = Vec::new();
    let mut failure: Option<WiotError> = None;

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker(spec, prov, &shared));
        }
        // The scope's own thread is the folder: retire summaries in
        // strict index order, folding digest and aggregates, keeping
        // nothing after the fold unless rows are collected.
        let mut next = 0usize;
        while next < spec.devices {
            let entry = {
                let mut st = shared.fold.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if st.error.as_ref().is_some_and(|(e, _)| *e == next) {
                        break None;
                    }
                    if let Some(entry) = st.pending.remove(&next) {
                        st.next_fold = next + 1;
                        // The claim window just moved: wake waiters.
                        shared.can_claim.notify_all();
                        break Some(entry);
                    }
                    st = shared.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            match entry {
                Some((summary, bytes)) => {
                    // Outside the lock: fold and retire.
                    digest_device(&mut digest, &summary);
                    reducer.push(&summary);
                    retired_checkpoint_bytes += bytes;
                    if keep_rows {
                        rows.push(summary);
                    }
                    next += 1;
                }
                None => {
                    let st = shared.fold.lock().unwrap_or_else(PoisonError::into_inner);
                    failure = st.error.as_ref().map(|(_, e)| e.clone());
                    break;
                }
            }
        }
    });

    if let Some(e) = failure {
        return Err(e);
    }
    let high_water = shared
        .fold
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .high_water;
    let report = reducer.finish(spec.seed, spec.template.duration_s, rows);
    digest.usize(report.devices);
    report.digest_aggregates_into(&mut digest);
    Ok(SlabReport {
        slab_digest: digest.0,
        workers,
        window_cap,
        pending_high_water: high_water,
        retired_checkpoint_bytes,
        report,
    })
}

/// Run a streamed fleet with a pre-trained [`ModelBank`] — the
/// fold-only counterpart of [`crate::fleet::run_fleet_with_bank`],
/// sharing its round-robin provisioning policy.
///
/// # Errors
///
/// As [`run_fleet_streamed_provisioned`], plus
/// [`WiotError::InvalidScenario`] when the bank's detector version or
/// backend does not match the template.
pub fn run_fleet_streamed(spec: &FleetSpec, models: &ModelBank) -> Result<SlabReport, WiotError> {
    run_fleet_streamed_provisioned(spec, &BankProvisioner::for_spec(spec, models)?)
}

/// `f` over `0..n` on `threads` scoped workers (capped at `n`), the
/// results in index order; or the lowest-index error, whatever the
/// thread count, for an `f` whose result depends only on its index.
/// Workers claim indices from a shared cursor and stop
/// at their first error: every lower index was claimed before it, so
/// every lower index is run. A worker's panic is re-raised on the
/// caller once the other workers finish their claims.
pub(crate) fn map_ordered<T: Send, E: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; results reach
            // the caller through the join.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            let result = f(i);
            let failed = result.is_err();
            done.push((i, result));
            if failed {
                return done;
            }
        }
    };
    let mut done: Vec<(usize, Result<T, E>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| scope.spawn(claim))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet_provisioned, run_fleet_with_bank, FleetSpec};
    use physio_sim::subject::bank;

    fn trained_bank(spec: &FleetSpec) -> ModelBank {
        ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap()
    }

    #[test]
    fn streamed_matches_collected_rows() {
        let spec = FleetSpec::new(3, 9.0).with_seed(7);
        let models = trained_bank(&spec);
        let collected = run_fleet_with_bank(&spec, &models).unwrap();
        let streamed = run_fleet_streamed(&spec, &models).unwrap();
        assert_eq!(collected.per_device.len(), 3);
        // Aggregates are bit-identical once the collected per-device
        // vector (which the fold-only stream never keeps) is set aside.
        let mut collected_cmp = collected.clone();
        collected_cmp.per_device = Vec::new();
        assert_eq!(streamed.report, collected_cmp);
        // And the streaming digest equals the recomputation from rows.
        assert_eq!(streamed.slab_digest, collected.slab_digest());
        assert!(streamed.report.per_device.is_empty());
        assert!(streamed.retired_checkpoint_bytes > 0, "no swap-out traffic");
    }

    #[test]
    fn streamed_digest_is_worker_count_stable() {
        let spec = FleetSpec::new(4, 9.0).with_seed(13);
        let models = trained_bank(&spec);
        let one = run_fleet_streamed(&spec, &models).unwrap();
        let two = run_fleet_streamed(&spec.clone().with_threads(2), &models).unwrap();
        let four = run_fleet_streamed(&spec.clone().with_threads(4), &models).unwrap();
        assert_eq!(one.slab_digest, two.slab_digest);
        assert_eq!(two.slab_digest, four.slab_digest);
        assert_eq!(one.report, two.report);
        assert_eq!(two.report, four.report);
        assert_eq!(two.workers, 2);
        assert_eq!(four.workers, 4);
    }

    #[test]
    fn reorder_window_bounds_resident_summaries() {
        // Far more devices than the window can hold: the high-water
        // mark must stay inside the O(workers) bound.
        let spec = FleetSpec::new(24, 9.0).with_seed(3).with_threads(2);
        let models = trained_bank(&spec);
        let r = run_fleet_streamed(&spec, &models).unwrap();
        assert_eq!(r.window_cap, 2 * 4);
        assert!(
            r.pending_high_water <= r.window_cap,
            "pending {} exceeded cap {}",
            r.pending_high_water,
            r.window_cap
        );
        assert!(r.pending_high_water >= 1);
        assert_eq!(r.report.devices, 24);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_device_fails_the_run_instead_of_hanging() {
        struct Panics;
        impl FleetProvisioner for Panics {
            fn provision(&self, _: &FleetSpec, _: usize) -> Result<DeviceProvision<'_>, WiotError> {
                panic!("provisioning bug");
            }
        }
        let _ = run(&FleetSpec::new(3, 9.0).with_threads(2), &Panics, false);
    }

    #[test]
    fn mismatched_bank_is_rejected() {
        let spec = FleetSpec::new(1, 9.0);
        let models = ModelBank::train(
            &bank(),
            sift::features::Version::Reduced,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        assert!(matches!(
            run_fleet_streamed(&spec, &models),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn lowest_index_error_wins_and_terminates() {
        // A provisioner that fails a specific device: the engine must
        // return that error (not hang, not return a partial report),
        // and the failing index must win over later successes.
        struct FailAt {
            inner: BankProvisioner<'static>,
            fail_device: usize,
        }
        impl FleetProvisioner for FailAt {
            fn provision(
                &self,
                spec: &FleetSpec,
                device: usize,
            ) -> Result<DeviceProvision<'_>, WiotError> {
                if device == self.fail_device {
                    return Err(WiotError::InvalidScenario {
                        reason: "injected provisioning failure",
                    });
                }
                self.inner.provision(spec, device)
            }
        }
        let spec = FleetSpec::new(6, 9.0).with_seed(5).with_threads(2);
        let models = Box::leak(Box::new(trained_bank(&spec)));
        let prov = FailAt {
            inner: BankProvisioner::for_spec(&spec, models).unwrap(),
            fail_device: 4,
        };
        let injected = WiotError::InvalidScenario {
            reason: "injected provisioning failure",
        };
        let err = run_fleet_streamed_provisioned(&spec, &prov).unwrap_err();
        assert_eq!(err, injected);
        // The collecting entry point reports the same error.
        let err = run_fleet_provisioned(&spec, &prov).unwrap_err();
        assert_eq!(err, injected);
    }

    #[test]
    fn map_ordered_keeps_index_order_at_any_thread_count() {
        for threads in [0, 1, 2, 3, 7, 16] {
            let out: Result<Vec<usize>, ()> = map_ordered(7, threads, |i| Ok(i * i));
            assert_eq!(out, Ok(vec![0, 1, 4, 9, 16, 25, 36]), "{threads} threads");
        }
        let none: Result<Vec<u8>, ()> = map_ordered(0, 4, |_| Ok(0));
        assert_eq!(none, Ok(vec![]));
    }

    #[test]
    fn map_ordered_returns_the_lowest_index_error() {
        for threads in [1, 2, 3, 8] {
            let out = map_ordered(9, threads, |i| if i % 4 == 2 { Err(i) } else { Ok(i) });
            assert_eq!(out, Err(2), "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "enrollment 3 panicked")]
    fn map_ordered_reraises_a_worker_panic() {
        let _ = map_ordered(6, 2, |i| -> Result<usize, ()> {
            assert!(i != 3, "enrollment {i} panicked");
            Ok(i)
        });
    }
}
