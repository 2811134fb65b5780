//! QM-style application state machines.
//!
//! "Each application is represented as a state machine with memory.
//! Therefore, there are no processes or threads, all application code
//! runs to completion without context-switching overhead" (paper §II-B).
//! An [`App`] receives events one at a time through [`App::handle`]; the
//! [`AppContext`] gives the handler its run-to-completion window into the
//! platform: display writes, energy charging, alert raising and event
//! posting. When the handler returns, the OS collects the posted events
//! and the context dies — no app can hold platform state across events.

use crate::display::{Display, Severity};
use crate::energy::{EnergyMeter, EnergyModel};
use crate::event::AmuletEvent;
use crate::profiler::AppResourceSpec;
use telemetry::{Stage, Telemetry};

/// A security or status alert raised by an app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// OS uptime when raised, ms.
    pub at_ms: u64,
    /// Raising app.
    pub app: String,
    /// Alert text.
    pub message: String,
}

/// The platform services available to a handler during one
/// run-to-completion step.
#[derive(Debug)]
pub struct AppContext<'a> {
    /// OS uptime, ms.
    pub now_ms: u64,
    display: &'a mut Display,
    energy: &'a mut EnergyMeter,
    energy_model: &'a EnergyModel,
    alerts: &'a mut Vec<Alert>,
    posted: Vec<AmuletEvent>,
    app_name: String,
    tele: Option<&'a mut Telemetry>,
}

impl<'a> AppContext<'a> {
    /// Assemble a context for dispatching to `app_name` (called by the
    /// OS).
    pub fn new(
        now_ms: u64,
        app_name: &str,
        display: &'a mut Display,
        energy: &'a mut EnergyMeter,
        energy_model: &'a EnergyModel,
        alerts: &'a mut Vec<Alert>,
    ) -> Self {
        Self {
            now_ms,
            display,
            energy,
            energy_model,
            alerts,
            posted: Vec::new(),
            app_name: app_name.to_string(),
            tele: None,
        }
    }

    /// Attach a telemetry sink for this run-to-completion step (called
    /// by the OS when its own sink is enabled). Purely observational:
    /// handlers cannot read it back, so telemetry can never change
    /// control flow.
    pub fn with_telemetry(mut self, tele: &'a mut Telemetry) -> Self {
        self.tele = Some(tele);
        self
    }

    /// Write a status line to the screen.
    pub fn display(&mut self, severity: Severity, text: impl Into<String>) {
        self.display
            .write(self.now_ms, &self.app_name, severity, text);
    }

    /// Charge `cycles` of active CPU to the battery.
    pub fn charge_cycles(&mut self, cycles: f64) {
        self.energy.charge_cycles(cycles, self.energy_model);
    }

    /// Charge `cycles` of active CPU to the battery *and* attribute them
    /// to a pipeline stage span. The energy charge is identical to
    /// [`AppContext::charge_cycles`]; the span is the paper-units hook —
    /// its units are the cost model's MSP430 cycles, so per-stage
    /// telemetry reads directly against the paper's Table III numbers.
    pub fn charge_stage(&mut self, stage: Stage, cycles: f64) {
        self.charge_cycles(cycles);
        if let Some(tele) = self.tele.as_deref_mut() {
            // Cost-model cycle counts are non-negative and far below
            // 2^53, so the cast is lossless.
            tele.span(self.now_ms, stage, cycles as u64);
        }
    }

    /// Raise an alert (also rendered on the display, as the paper's
    /// detector does).
    pub fn raise_alert(&mut self, message: impl Into<String>) {
        let message = message.into();
        self.display
            .write(self.now_ms, &self.app_name, Severity::Alert, &message);
        self.alerts.push(Alert {
            at_ms: self.now_ms,
            app: self.app_name.clone(),
            message,
        });
    }

    /// Post a follow-up event (delivered after this run-to-completion
    /// step finishes).
    pub fn post(&mut self, event: AmuletEvent) {
        self.posted.push(event);
    }

    /// Drain the events posted during this step (called by the OS).
    pub fn take_posted(&mut self) -> Vec<AmuletEvent> {
        std::mem::take(&mut self.posted)
    }
}

/// An AmuletOS application.
///
/// Apps are `Send` so whole simulated devices can be sharded across
/// worker threads by the fleet engine (`wiot::fleet`); on the device
/// itself there is still no concurrency — events are dispatched
/// run-to-completion on one logical core.
pub trait App: Send {
    /// Unique app name.
    fn name(&self) -> &str;

    /// Static resource declaration (what ARP extracts at compile time).
    fn resource_spec(&self) -> AppResourceSpec;

    /// Name of the current state (for traces and the paper's
    /// three-state description).
    fn current_state(&self) -> &'static str;

    /// Handle one event, run-to-completion.
    fn handle(&mut self, event: &AmuletEvent, ctx: &mut AppContext<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::SystemLib;

    struct CounterApp {
        ticks: u32,
    }

    impl App for CounterApp {
        fn name(&self) -> &str {
            "counter"
        }

        fn resource_spec(&self) -> AppResourceSpec {
            AppResourceSpec {
                name: "counter".into(),
                fram_code_bytes: 100,
                fram_data_bytes: 4,
                sram_peak_bytes: 16,
                cycles_per_period: 1000.0,
                period_s: 1.0,
                libs: vec![SystemLib::SoftFloat],
            }
        }

        fn current_state(&self) -> &'static str {
            "counting"
        }

        fn handle(&mut self, event: &AmuletEvent, ctx: &mut AppContext<'_>) {
            if let AmuletEvent::Tick { .. } = event {
                self.ticks += 1;
                ctx.charge_cycles(1000.0);
                ctx.display(Severity::Info, format!("ticks {}", self.ticks));
                if self.ticks == 3 {
                    ctx.raise_alert("three ticks!");
                    ctx.post(AmuletEvent::Signal(7));
                }
            }
        }
    }

    fn dispatch(app: &mut dyn App, event: AmuletEvent) -> (Display, Vec<Alert>, Vec<AmuletEvent>) {
        let mut display = Display::new();
        let mut meter = EnergyMeter::new();
        let model = EnergyModel::default();
        let mut alerts = Vec::new();
        let posted = {
            let mut ctx = AppContext::new(5, app.name(), &mut display, &mut meter, &model, &mut alerts);
            app.handle(&event, &mut ctx);
            ctx.take_posted()
        };
        (display, alerts, posted)
    }

    #[test]
    fn handler_uses_context_services() {
        let mut app = CounterApp { ticks: 0 };
        let (display, alerts, posted) = dispatch(&mut app, AmuletEvent::Tick { ms: 1 });
        assert_eq!(display.lines().len(), 1);
        assert!(alerts.is_empty());
        assert!(posted.is_empty());
        assert_eq!(app.ticks, 1);
    }

    #[test]
    fn alert_and_post_surface() {
        let mut app = CounterApp { ticks: 2 };
        let (display, alerts, posted) = dispatch(&mut app, AmuletEvent::Tick { ms: 3 });
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].message, "three ticks!");
        assert_eq!(posted, vec![AmuletEvent::Signal(7)]);
        assert_eq!(display.lines().iter().filter(|l| l.severity == Severity::Alert).count(), 1);
    }

    #[test]
    fn non_tick_events_ignored_by_this_app() {
        let mut app = CounterApp { ticks: 0 };
        let (_, alerts, posted) = dispatch(&mut app, AmuletEvent::ButtonPress);
        assert_eq!(app.ticks, 0);
        assert!(alerts.is_empty());
        assert!(posted.is_empty());
    }
}
