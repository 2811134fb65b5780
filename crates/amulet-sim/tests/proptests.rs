//! Property-based tests for the platform simulation: memory invariants,
//! energy monotonicity, and event-queue behaviour.

use amulet_sim::energy::{EnergyMeter, EnergyModel};
use amulet_sim::event::{AmuletEvent, EventQueue};
use amulet_sim::memory::{MemoryModel, Region, MAX_ARRAY_ELEMS};
use proptest::prelude::*;

proptest! {
    #[test]
    fn region_never_exceeds_capacity(ops in prop::collection::vec(0usize..4096, 1..200)) {
        let mut r = Region::new("fram", 8192);
        for bytes in ops {
            let before = r.used();
            match r.reserve(bytes) {
                Ok(()) => prop_assert_eq!(r.used(), before + bytes),
                Err(_) => prop_assert_eq!(r.used(), before),
            }
            prop_assert!(r.used() <= r.capacity());
        }
    }

    #[test]
    fn array_limit_enforced_exactly(elems in 0usize..4000, elem_bytes in 1usize..8) {
        let mut m = MemoryModel::default();
        let result = m.alloc_array(elems, elem_bytes);
        if elems > MAX_ARRAY_ELEMS {
            prop_assert!(result.is_err());
            prop_assert_eq!(m.fram().used(), 0);
        } else {
            prop_assert!(result.is_ok());
            prop_assert_eq!(m.fram().used(), elems * elem_bytes);
        }
    }

    #[test]
    fn event_queue_fifo_and_bounded(capacity in 1usize..64, events in prop::collection::vec(0u32..1000, 0..128)) {
        let mut q = EventQueue::new(capacity);
        let mut accepted = Vec::new();
        for &code in &events {
            if q.post(AmuletEvent::Signal(code)) {
                accepted.push(code);
            }
        }
        prop_assert!(q.len() <= capacity);
        prop_assert_eq!(q.dropped() as usize, events.len() - accepted.len());
        // Drain preserves FIFO order of accepted events.
        let mut drained = Vec::new();
        while let Some(AmuletEvent::Signal(code)) = q.pop() {
            drained.push(code);
        }
        prop_assert_eq!(drained, accepted);
    }

    #[test]
    fn energy_meter_charge_is_additive(cycles in prop::collection::vec(0.0f64..1e7, 1..50)) {
        let model = EnergyModel::default();
        let mut one = EnergyMeter::new();
        for &c in &cycles {
            one.charge_cycles(c, &model);
        }
        let mut bulk = EnergyMeter::new();
        bulk.charge_cycles(cycles.iter().sum(), &model);
        prop_assert!((one.consumed_mah() - bulk.consumed_mah()).abs() < 1e-9);
        prop_assert!((one.active_cycles() - bulk.active_cycles()).abs() < 1e-6);
    }

    #[test]
    fn lifetime_monotone_in_current(i1 in 1.0f64..1e4, i2 in 1.0f64..1e4) {
        let m = EnergyModel::default();
        let (lo, hi) = if i1 <= i2 { (i1, i2) } else { (i2, i1) };
        prop_assert!(m.lifetime_days(lo) >= m.lifetime_days(hi));
    }

    #[test]
    fn average_current_monotone_in_duty(a1 in 0.0f64..3.0, a2 in 0.0f64..3.0) {
        let m = EnergyModel::default();
        let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
        prop_assert!(m.average_current_ua(lo, 3.0) <= m.average_current_ua(hi, 3.0));
    }

    #[test]
    fn battery_fraction_bounded(sleeps in prop::collection::vec(0.0f64..1e6, 0..30)) {
        let model = EnergyModel::default();
        let mut meter = EnergyMeter::new();
        for &s in &sleeps {
            meter.charge_sleep(s, &model);
            let f = meter.battery_fraction_left(&model);
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }
}
