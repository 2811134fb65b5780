//! The Amulet's internal sensors.
//!
//! The prototype carries "an Analog Devices ADMP510 microphone, an Avago
//! Tech APDS-9008 light sensor, a TI TMP20 temperature sensor, an
//! STMicroelectronics L3GD20H gyroscope and an AD ADXL362 accelerometer"
//! (paper §II-B). This module provides deterministic synthetic readings
//! for each, so on-device apps beyond the detector (fall detection,
//! activity tracking) have data to consume.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which internal sensor a reading came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// ADXL362 accelerometer (vector magnitude, g).
    Accelerometer,
    /// L3GD20H gyroscope (angular rate magnitude, °/s).
    Gyroscope,
    /// TMP20 temperature (°C).
    Temperature,
    /// APDS-9008 ambient light (lux).
    Light,
    /// ADMP510 microphone (sound level, dB SPL).
    Microphone,
}

impl std::fmt::Display for SensorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SensorKind::Accelerometer => "accelerometer",
            SensorKind::Gyroscope => "gyroscope",
            SensorKind::Temperature => "temperature",
            SensorKind::Light => "light",
            SensorKind::Microphone => "microphone",
        };
        write!(f, "{name}")
    }
}

/// One sensor reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReading {
    /// Originating sensor.
    pub sensor: SensorKind,
    /// Reading value in the sensor's natural unit.
    pub value: f64,
    /// Sample time, ms.
    pub at_ms: u64,
}

/// Wearer activity regime driving the accelerometer model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// At rest: gravity plus sensor noise.
    Resting,
    /// Walking: periodic ~2 Hz step accents.
    Walking,
    /// A fall event: a large transient spike followed by stillness.
    Falling,
}

/// Deterministic synthetic accelerometer.
#[derive(Debug, Clone)]
pub struct Accelerometer {
    rng: StdRng,
    activity: Activity,
    fall_at_ms: Option<u64>,
}

impl Accelerometer {
    /// New accelerometer in the given regime.
    pub fn new(activity: Activity, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            activity,
            fall_at_ms: None,
        }
    }

    /// Change the wearer's activity; a switch to [`Activity::Falling`]
    /// schedules the impact transient at the next sample.
    pub fn set_activity(&mut self, activity: Activity, now_ms: u64) {
        self.activity = activity;
        if activity == Activity::Falling {
            self.fall_at_ms = Some(now_ms);
        }
    }

    /// Sample the vector magnitude at `now_ms`, in g.
    pub fn sample(&mut self, now_ms: u64) -> SensorReading {
        let noise = self.rng.gen_range(-0.02..0.02);
        let value = match self.activity {
            Activity::Resting => 1.0 + noise,
            Activity::Walking => {
                let phase = now_ms as f64 / 1000.0 * 2.0 * std::f64::consts::TAU;
                1.0 + 0.35 * phase.sin().max(0.0) + noise
            }
            Activity::Falling => {
                let dt = now_ms.saturating_sub(self.fall_at_ms.unwrap_or(now_ms));
                if dt < 300 {
                    // Impact transient.
                    4.5 + self.rng.gen_range(-0.5..0.5)
                } else {
                    // Post-fall stillness.
                    1.0 + noise * 0.2
                }
            }
        };
        SensorReading {
            sensor: SensorKind::Accelerometer,
            value,
            at_ms: now_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resting_magnitude_near_one_g() {
        let mut acc = Accelerometer::new(Activity::Resting, 1);
        for t in 0..100 {
            let r = acc.sample(t * 20);
            assert!((r.value - 1.0).abs() < 0.05, "{r:?}");
            assert_eq!(r.sensor, SensorKind::Accelerometer);
        }
    }

    #[test]
    fn walking_oscillates_above_rest() {
        let mut acc = Accelerometer::new(Activity::Walking, 2);
        let values: Vec<f64> = (0..200).map(|t| acc.sample(t * 20).value).collect();
        let hi = values.iter().cloned().fold(f64::MIN, f64::max);
        let lo = values.iter().cloned().fold(f64::MAX, f64::min);
        assert!(hi > 1.2, "hi {hi}");
        assert!(hi - lo > 0.2, "span {}", hi - lo);
    }

    #[test]
    fn fall_produces_spike_then_stillness() {
        let mut acc = Accelerometer::new(Activity::Resting, 3);
        acc.set_activity(Activity::Falling, 1000);
        let impact = acc.sample(1100);
        assert!(impact.value > 3.0, "{impact:?}");
        let after = acc.sample(2000);
        assert!((after.value - 1.0).abs() < 0.05, "{after:?}");
    }

    #[test]
    fn determinism() {
        let run = |seed| -> Vec<f64> {
            let mut a = Accelerometer::new(Activity::Walking, seed);
            (0..50).map(|t| a.sample(t * 20).value).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn sensor_metadata() {
        assert_eq!(SensorKind::Gyroscope.to_string(), "gyroscope");
    }
}
