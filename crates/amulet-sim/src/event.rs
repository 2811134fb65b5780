//! Events and the OS event queue.
//!
//! AmuletOS applications are event-driven: "there are no processes or
//! threads, all application code runs to completion" (paper §II-B).
//! Events are queued by the OS (timers, sensor pipeline, buttons) or by
//! apps themselves, and dispatched one at a time.

use sift::snippet::Snippet;
use std::collections::VecDeque;

/// A platform event delivered to application state machines.
#[derive(Debug, Clone, PartialEq)]
pub enum AmuletEvent {
    /// Periodic timer tick; `ms` is the OS uptime in milliseconds.
    Tick {
        /// OS uptime at the tick, in milliseconds.
        ms: u64,
    },
    /// The sensor pipeline assembled a full detection window of paired
    /// ECG/ABP data (with peak annotations, as pre-stored in the paper).
    SnippetReady(Snippet),
    /// A detection window together with its already-extracted feature
    /// vector. Posted instead of [`AmuletEvent::SnippetReady`] by a base
    /// station that extracted the window's features for the sink uplink:
    /// the detector reuses them instead of recomputing (its cycle
    /// accounting is unchanged — the real device would still run the
    /// extraction stage), while apps that only read the raw window (the
    /// heart-rate display) treat it exactly like `SnippetReady`. A
    /// detector whose version does not match the feature length falls
    /// back to extracting from the snippet itself.
    SnippetScored(Snippet, Vec<f32>),
    /// The wearer pressed the side button.
    ButtonPress,
    /// Battery state-of-charge notification, in `[0, 1]`.
    BatteryLevel(f64),
    /// App-defined signal (QM's user signals), carrying a small code.
    Signal(u32),
    /// A sensor stream the base station depends on has gone silent for
    /// longer than its watchdog tolerates (posted by the stream
    /// reassembly layer, consumed by the watchdog app).
    StreamStalled {
        /// Name of the silent stream (e.g. `"ecg"`).
        stream: String,
        /// How long the stream has been silent, ms.
        silent_ms: u64,
    },
}

/// FIFO event queue with a bounded capacity (the real QM framework uses
/// fixed-size pools; overflow is a defined, observable condition).
#[derive(Debug, Clone)]
pub struct EventQueue {
    items: VecDeque<AmuletEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventQueue {
    /// Create a queue bounded at `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            items: VecDeque::with_capacity(capacity.min(64)),
            capacity,
            dropped: 0,
        }
    }

    /// Enqueue an event; returns `false` (and counts a drop) when full.
    pub fn post(&mut self, event: AmuletEvent) -> bool {
        if self.items.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.items.push_back(event);
        true
    }

    /// Dequeue the oldest event.
    pub fn pop(&mut self) -> Option<AmuletEvent> {
        self.items.pop_front()
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Events dropped due to overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = EventQueue::new(4);
        assert!(q.post(AmuletEvent::Tick { ms: 1 }));
        assert!(q.post(AmuletEvent::ButtonPress));
        assert_eq!(q.pop(), Some(AmuletEvent::Tick { ms: 1 }));
        assert_eq!(q.pop(), Some(AmuletEvent::ButtonPress));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut q = EventQueue::new(2);
        assert!(q.post(AmuletEvent::ButtonPress));
        assert!(q.post(AmuletEvent::ButtonPress));
        assert!(!q.post(AmuletEvent::ButtonPress));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn default_capacity_nonzero() {
        let q = EventQueue::default();
        assert!(q.is_empty());
        assert!(q.capacity > 0);
    }
}
