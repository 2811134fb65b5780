//! Slab-based streaming fleet engine: bounded-memory multiplexing of
//! arbitrarily many devices over a small worker pool.
//!
//! This is the one fleet engine. A fixed pool of workers claims device
//! indices in order, each worker materializes one device at a time into
//! its own reusable slab slot, and the calling thread retires summaries
//! in device-index order the moment they are contiguous.
//! [`run_fleet_streamed_provisioned`] keeps nothing after the fold;
//! [`crate::fleet::run_fleet_provisioned`] drives the same loop and also
//! moves each retired [`DeviceSummary`] into
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
//! The lowest-device-index provisioning or simulation failure wins,
//! deterministically: an error is returned, a panic is re-raised with
//! its own payload once every worker has stopped. Workers holding lower
//! indices keep running after a failure is recorded (a lower-index
//! failure may still surface); no index is claimed after it.
//!
//! The private `ordered_fold` runs this engine and campaign pool
//! enrollment. Its protocol is the plain state type `Window`: claim,
//! deliver, fail and advance are transitions with no locks or atomics,
//! each reporting whether its caller must wait and which condvar to
//! wake. The threaded shell holds a `Window` under one mutex and waits
//! only when a transition says it is blocked. The unit test
//! `every_schedule_keeps_the_window_protocol` runs every interleaving of
//! those transitions for small folds and checks the order, the window
//! bound, progress, the wake-ups and the lowest-index failure.

use crate::fleet::{
    digest_device, BankProvisioner, DeviceProvision, DeviceSummary, Digest, FleetProvisioner,
    FleetReport, FleetSpec, Reducer,
};
use crate::WiotError;
use sift::checkpoint::DetectorCheckpoint;
use sift::trainer::ModelBank;
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
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

/// The ordered fold's protocol between claiming workers and the one
/// in-order folder, without threads. Each method is one transition,
/// made while the shell holds its mutex.
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
struct Window<T, F> {
    /// Indices `0..n` are run.
    n: usize,
    /// Most indices claimed and not yet taken by the folder.
    window: usize,
    /// Next index to claim; every lower one is claimed.
    cursor: usize,
    /// Next index to fold; every lower one is taken.
    next_fold: usize,
    /// Delivered values waiting to become contiguous.
    pending: BTreeMap<usize, T>,
    /// Lowest failing index so far, with its failure.
    failure: Option<(usize, F)>,
    /// Largest `pending.len()` ever reached.
    high_water: usize,
}

/// The condvars a transition may have unblocked: claimers wait for the
/// window to move, the folder for its next index.
#[derive(Clone, Copy, Default)]
struct Wake {
    claimers: bool,
    folder: bool,
}

/// A worker's claim.
enum Claim {
    Run(usize),
    /// The window is full: wait for the folder to advance.
    Wait,
    /// Every index is claimed, or a failure ended the run.
    Exit,
}

/// Where the folder goes next.
enum Next<T> {
    Fold(usize, T),
    /// The next index is not delivered yet.
    Wait,
    /// Every index is folded, or the next one failed.
    End,
}

impl<T, F> Window<T, F> {
    fn new(n: usize, window: usize) -> Self {
        Self {
            n,
            window,
            cursor: 0,
            next_fold: 0,
            pending: BTreeMap::new(),
            failure: None,
            high_water: 0,
        }
    }

    /// Whether a failure below index `i` is recorded.
    fn failed_below(&self, i: usize) -> bool {
        self.failure.as_ref().is_some_and(|(f, _)| *f < i)
    }

    /// Claim the next index once it is inside the window. Only claimed,
    /// untaken indices are pending, and `next_fold` only grows, so
    /// admission below `next_fold + window` keeps `pending ≤ window`.
    /// After a failure no claim is needed: every lower index is claimed.
    fn claim(&mut self) -> Claim {
        if self.failure.is_some() || self.cursor == self.n {
            Claim::Exit
        } else if self.cursor < self.next_fold + self.window {
            self.cursor += 1;
            Claim::Run(self.cursor - 1)
        } else {
            Claim::Wait
        }
    }

    /// Index `i`'s value; dropped if a lower failure means it never folds.
    fn deliver(&mut self, i: usize, value: T) -> Wake {
        if !self.failed_below(i) {
            self.pending.insert(i, value);
            self.high_water = self.high_water.max(self.pending.len());
        }
        Wake {
            claimers: false,
            folder: i == self.next_fold,
        }
    }

    /// Index `i` failed; the lowest failing index wins and drops the
    /// pending values above it.
    fn fail(&mut self, i: usize, failure: F) -> Wake {
        if self.failed_below(i) {
            return Wake::default();
        }
        self.failure = Some((i, failure));
        self.pending.split_off(&i);
        Wake {
            claimers: true,
            folder: i == self.next_fold,
        }
    }

    /// Hand the folder the next index in order, freeing its window slot.
    /// The run ends at `n`, or at a failure at or below `next_fold`.
    fn advance(&mut self) -> (Next<T>, Wake) {
        if self.next_fold == self.n || self.failed_below(self.next_fold + 1) {
            return (Next::End, Wake::default());
        }
        let Some(value) = self.pending.remove(&self.next_fold) else {
            return (Next::Wait, Wake::default());
        };
        self.next_fold += 1;
        let wake = Wake {
            claimers: true,
            folder: false,
        };
        (Next::Fold(self.next_fold - 1, value), wake)
    }
}

/// Why an index failed: `f`'s error, or its panic's payload.
enum Failure<E> {
    Error(E),
    Panic(Box<dyn Any + Send>),
}

/// The window an [`ordered_fold`] ran with.
pub(crate) struct WindowStats {
    /// Worker threads used.
    pub(crate) workers: usize,
    /// Most indices claimed and not yet folded (`workers × 4`).
    pub(crate) window: usize,
    /// Most values that were ever waiting to be folded.
    pub(crate) high_water: usize,
}

/// `f` over `0..n` on `threads` scoped workers (at least one, at most
/// `n`), each value passed to `fold` on the caller's thread, outside the
/// lock, in index order. Each worker makes its scratch `S` once and
/// hands it to every `f` call it runs.
///
/// The lowest failing index decides the result: its error is returned,
/// or its panic re-raised with the panic's own payload once every
/// worker has stopped; nothing at or above it is folded. For an `f`
/// whose result depends only on its index, the result is the same at
/// any thread count.
pub(crate) fn ordered_fold<S: Default, T: Send, E: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
    mut fold: impl FnMut(usize, T),
) -> Result<WindowStats, E> {
    let workers = threads.clamp(1, n.max(1));
    let window = workers * 4;
    let state = Mutex::new(Window::new(n, window));
    let (claimable, ready) = (Condvar::new(), Condvar::new());
    // No transition panics, so a poisoned lock still holds a whole state.
    let lock = || state.lock().unwrap_or_else(PoisonError::into_inner);
    let wake = |w: Wake| {
        if w.claimers {
            claimable.notify_all();
        }
        if w.folder {
            ready.notify_one();
        }
    };
    let worker = || {
        let mut scratch = S::default();
        let mut st = lock();
        loop {
            let i = match st.claim() {
                Claim::Run(i) => i,
                Claim::Wait => {
                    st = claimable.wait(st).unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                Claim::Exit => return,
            };
            drop(st);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut scratch, i)));
            st = lock();
            wake(match outcome {
                Ok(Ok(value)) => st.deliver(i, value),
                Ok(Err(e)) => st.fail(i, Failure::Error(e)),
                Err(payload) => st.fail(i, Failure::Panic(payload)),
            });
        }
    };
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(worker);
        }
        let mut st = lock();
        loop {
            let (next, w) = st.advance();
            wake(w);
            match next {
                Next::Fold(i, value) => {
                    drop(st);
                    let folded = panic::catch_unwind(AssertUnwindSafe(|| fold(i, value)));
                    st = lock();
                    if let Err(payload) = folded {
                        wake(st.fail(i, Failure::Panic(payload)));
                    }
                }
                Next::Wait => st = ready.wait(st).unwrap_or_else(PoisonError::into_inner),
                Next::End => break,
            }
        }
    });
    let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    match st.failure {
        None => Ok(WindowStats {
            workers,
            window,
            high_water: st.high_water,
        }),
        Some((_, Failure::Error(e))) => Err(e),
        Some((_, Failure::Panic(payload))) => panic::resume_unwind(payload),
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
    run(spec, prov, drop)
}

/// The engine behind both fleet entry points: each device's summary is
/// folded into the digest and aggregates in index order, then handed to
/// `retire` ([`crate::fleet::run_fleet_provisioned`] keeps it as a row).
pub(crate) fn run(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
    mut retire: impl FnMut(DeviceSummary),
) -> Result<SlabReport, WiotError> {
    if spec.devices == 0 {
        return Err(WiotError::InvalidScenario {
            reason: "fleet must have at least one device",
        });
    }
    let mut digest = Digest::new();
    let mut reducer = Reducer::new();
    let mut retired_checkpoint_bytes = 0u64;
    let window = ordered_fold(
        spec.devices,
        spec.threads,
        |slot, device| run_one(spec, prov, device, slot),
        |_, (summary, bytes)| {
            digest_device(&mut digest, &summary);
            reducer.push(&summary);
            retired_checkpoint_bytes += bytes;
            retire(summary);
        },
    )?;
    let report = reducer.finish(spec.seed, spec.template.duration_s);
    digest.usize(report.devices);
    report.digest_aggregates_into(&mut digest);
    Ok(SlabReport {
        slab_digest: digest.0,
        workers: window.workers,
        window_cap: window.window,
        pending_high_water: window.high_water,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet_provisioned, run_fleet_with_bank, FleetSpec};
    use physio_sim::subject::bank;
    use std::collections::HashSet;

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
    #[should_panic(expected = "provisioning bug")]
    fn a_panicking_device_fails_the_run_instead_of_hanging() {
        struct Panics;
        impl FleetProvisioner for Panics {
            fn provision(&self, _: &FleetSpec, _: usize) -> Result<DeviceProvision<'_>, WiotError> {
                panic!("provisioning bug");
            }
        }
        let _ = run(&FleetSpec::new(3, 9.0).with_threads(2), &Panics, drop);
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
    fn ordered_fold_keeps_index_order_at_any_thread_count() {
        for threads in [0, 1, 2, 3, 7, 16] {
            let mut out = Vec::new();
            let window = ordered_fold(
                7,
                threads,
                |_: &mut (), i| Ok::<_, ()>(i * i),
                |i, v| {
                    out.push((i, v));
                },
            )
            .unwrap();
            let squares: Vec<_> = (0..7).map(|i| (i, i * i)).collect();
            assert_eq!(out, squares, "{threads} threads");
            assert_eq!(window.workers, threads.clamp(1, 7));
            assert!(window.high_water <= window.window);
        }
        let mut none: Vec<u8> = Vec::new();
        let window = ordered_fold(0, 4, |_: &mut (), _| Ok::<_, ()>(0), |_, v| none.push(v));
        assert_eq!(window.map(|w| w.workers), Ok(1));
        assert!(none.is_empty());
    }

    #[test]
    fn ordered_fold_returns_the_lowest_index_error() {
        for threads in [1, 2, 3, 8] {
            let mut folded = Vec::new();
            let f = |_: &mut (), i| if i % 4 == 2 { Err(i) } else { Ok(i) };
            let out = ordered_fold(9, threads, f, |_, v| folded.push(v));
            assert_eq!(out.map(|_| ()), Err(2), "{threads} threads");
            assert_eq!(folded, [0, 1], "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "enrollment 3 panicked")]
    fn ordered_fold_reraises_the_lowest_index_panic() {
        // Every index from 3 up panics; the lowest one's payload wins.
        let _ = ordered_fold(
            6,
            2,
            |_: &mut (), i| -> Result<usize, ()> {
                assert!(i < 3, "enrollment {i} panicked");
                Ok(i)
            },
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "fold 3 panicked")]
    fn ordered_fold_reraises_a_fold_panic() {
        // More indices than the window: blocked claimers must be released.
        let _ = ordered_fold(
            20,
            2,
            |_: &mut (), i| Ok::<_, ()>(i),
            |i, _| assert!(i < 3, "fold {i} panicked"),
        );
    }

    /// One thread of the checker's model, by the transition it makes next.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Actor {
        /// The folder, about to advance.
        Taking,
        /// A worker, about to claim.
        Claiming,
        /// A worker that ran index `i`, about to deliver or fail it.
        Ran(usize),
        /// Waiting on its condvar (the folder's or the claimers') until
        /// a transition wakes that condvar, then retrying.
        Blocked,
        Done,
    }

    /// Every schedule of `workers` claimers and one folder over `0..n`
    /// with the given window, index `fails` (if any) failing: returns
    /// the number of distinct states reached.
    fn check_every_schedule(
        n: usize,
        workers: usize,
        window: usize,
        fails: Option<usize>,
    ) -> usize {
        let case = format!("n {n}, {workers} workers, window {window}, fails {fails:?}");
        let mut actors = vec![Actor::Taking];
        actors.resize(workers + 1, Actor::Claiming);
        let mut todo = vec![(Window::<usize, ()>::new(n, window), actors)];
        let mut seen = HashSet::new();
        while let Some((st, actors)) = todo.pop() {
            if !seen.insert((st.clone(), actors.clone())) {
                continue;
            }
            assert!(
                st.pending.len() <= window,
                "pending over the window: {case}"
            );
            // A blocked actor whose retry would now go ahead missed its wake-up.
            for (a, actor) in actors.iter().enumerate() {
                if *actor == Actor::Blocked {
                    let mut retry = st.clone();
                    let blocked = if a == 0 {
                        matches!(retry.advance().0, Next::Wait)
                    } else {
                        matches!(retry.claim(), Claim::Wait)
                    };
                    assert!(blocked, "actor {a} was not woken: {case}");
                }
            }
            let movable: Vec<usize> = (0..actors.len())
                .filter(|&a| !matches!(actors[a], Actor::Blocked | Actor::Done))
                .collect();
            if movable.is_empty() {
                assert!(
                    actors.iter().all(|a| *a == Actor::Done),
                    "nothing can move: {case}"
                );
                // Every index below the failure folded, nothing above it.
                assert_eq!(st.next_fold, fails.unwrap_or(n), "{case}");
                assert_eq!(st.failure.map(|(i, ())| i), fails, "{case}");
                continue;
            }
            for a in movable {
                let (mut st, mut actors) = (st.clone(), actors.clone());
                let wake = match actors[a] {
                    Actor::Taking => {
                        let (next, wake) = st.advance();
                        actors[a] = match next {
                            Next::Fold(i, value) => {
                                assert_eq!((i, value), (st.next_fold - 1, i), "{case}");
                                assert!(fails.is_none_or(|f| i < f), "folded {i}: {case}");
                                Actor::Taking
                            }
                            Next::Wait => Actor::Blocked,
                            Next::End => Actor::Done,
                        };
                        wake
                    }
                    Actor::Claiming => {
                        actors[a] = match st.claim() {
                            Claim::Run(i) => Actor::Ran(i),
                            Claim::Wait => Actor::Blocked,
                            Claim::Exit => Actor::Done,
                        };
                        Wake::default()
                    }
                    Actor::Ran(i) => {
                        actors[a] = Actor::Claiming;
                        if fails == Some(i) {
                            st.fail(i, ())
                        } else {
                            st.deliver(i, i)
                        }
                    }
                    Actor::Blocked | Actor::Done => unreachable!(),
                };
                if actors[0] == Actor::Blocked && wake.folder {
                    actors[0] = Actor::Taking;
                }
                for actor in &mut actors[1..] {
                    if *actor == Actor::Blocked && wake.claimers {
                        *actor = Actor::Claiming;
                    }
                }
                todo.push((st, actors));
            }
        }
        seen.len()
    }

    #[test]
    fn every_schedule_keeps_the_window_protocol() {
        // A panic reaches the state as a failure like an error does, so
        // one failing index covers both.
        let mut states = 0;
        for n in 0..=6 {
            for workers in 1..=3 {
                for window in 1..=workers * 4 {
                    for fails in std::iter::once(None).chain((0..n).map(Some)) {
                        states += check_every_schedule(n, workers, window, fails);
                    }
                }
            }
        }
        assert!(states > 100_000, "{states} states");
    }
}
