//! The Amulet Firmware Toolchain's compile-time predictive analysis.
//!
//! On the real platform, applications "are merged together in a single QM
//! file, which is then converted to C … compiled and linked" and the
//! toolchain performs "compile-time predictive analysis of resource
//! usage, including energy and memory" (paper §II-B). [`FirmwareImage`]
//! models the result: assembling an image runs the static checks and
//! fails — before anything is "flashed" — if the apps cannot fit the
//! device.

use crate::memory::MemoryModel;
use crate::profiler::{AppResourceSpec, ResourceProfile, ResourceProfiler};
use crate::{AmuletError, FRAM_BYTES, SRAM_BYTES};

/// A validated firmware image ready to "flash" into the OS.
#[derive(Debug, Clone, PartialEq)]
pub struct FirmwareImage {
    specs: Vec<AppResourceSpec>,
    profile: ResourceProfile,
}

impl FirmwareImage {
    /// Assemble and statically check an image containing `specs`.
    ///
    /// Checks performed (all at "compile time"):
    ///
    /// 1. total FRAM (system + libraries + apps) fits the 128 KB part,
    /// 2. SRAM peak (system + deepest app) fits 2 KB,
    /// 3. app names are unique,
    /// 4. every app's duty cycle is feasible (`cycles_per_period` must
    ///    fit its period),
    /// 5. the predicted lifetime is positive.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::StaticCheckFailed`] naming the first
    /// violated budget, or [`AmuletError::DuplicateApp`].
    pub fn build(
        specs: Vec<AppResourceSpec>,
        profiler: &ResourceProfiler,
    ) -> Result<Self, AmuletError> {
        for (i, a) in specs.iter().enumerate() {
            if specs[..i].iter().any(|b| b.name == a.name) {
                return Err(AmuletError::DuplicateApp {
                    name: a.name.clone(),
                });
            }
        }
        let refs: Vec<&AppResourceSpec> = specs.iter().collect();
        let profile = profiler.profile(&refs);

        let fram_total = profile.system_fram_bytes + profile.app_fram_bytes;
        if fram_total > FRAM_BYTES {
            return Err(AmuletError::StaticCheckFailed {
                reason: format!(
                    "image needs {fram_total} B of FRAM but the device has {FRAM_BYTES} B"
                ),
            });
        }
        let sram_total = profile.system_sram_bytes + profile.app_sram_bytes;
        if sram_total > SRAM_BYTES {
            return Err(AmuletError::StaticCheckFailed {
                reason: format!(
                    "peak SRAM {sram_total} B exceeds the device's {SRAM_BYTES} B"
                ),
            });
        }
        for a in &specs {
            if a.cycles_per_period / crate::CPU_HZ > a.period_s {
                return Err(AmuletError::StaticCheckFailed {
                    reason: format!(
                        "app `{}` cannot finish its work within its {}s period",
                        a.name, a.period_s
                    ),
                });
            }
        }
        if !profile.lifetime_days.is_finite() || profile.lifetime_days <= 0.0 {
            return Err(AmuletError::StaticCheckFailed {
                reason: "predicted lifetime is not positive".to_string(),
            });
        }
        Ok(Self { specs, profile })
    }

    /// The specs baked into this image.
    pub fn specs(&self) -> &[AppResourceSpec] {
        &self.specs
    }

    /// The compile-time resource prediction.
    pub fn profile(&self) -> &ResourceProfile {
        &self.profile
    }

    /// Reserve the image's FRAM/SRAM in a memory model (the "flash"
    /// step).
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::OutOfMemory`] if the model cannot fit the
    /// image (possible when flashing onto a model with prior
    /// reservations).
    pub fn flash(&self, memory: &mut MemoryModel) -> Result<(), AmuletError> {
        memory
            .fram_mut()
            .reserve(self.profile.system_fram_bytes + self.profile.app_fram_bytes)?;
        memory
            .sram_mut()
            .reserve(self.profile.system_sram_bytes + self.profile.app_sram_bytes)?;
        Ok(())
    }

    /// Reserve only the image's app footprint, for add-on installs onto
    /// a device whose system image is already resident
    /// ([`crate::os::AmuletOs::install_addon`]).
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::OutOfMemory`] if the apps do not fit next
    /// to the existing reservations.
    pub fn flash_addon(&self, memory: &mut MemoryModel) -> Result<(), AmuletError> {
        memory.fram_mut().reserve(self.profile.app_fram_bytes)?;
        memory.sram_mut().reserve(self.profile.app_sram_bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{sift_app_spec, ResourceProfiler};
    use sift::config::SiftConfig;
    use sift::features::Version;

    fn spec(v: Version) -> AppResourceSpec {
        sift_app_spec(v, &SiftConfig::default(), ml::embedded::encoded_len(v.feature_count()))
    }

    #[test]
    fn sift_image_passes_static_checks() {
        let profiler = ResourceProfiler::default();
        for v in Version::ALL {
            let img = FirmwareImage::build(vec![spec(v)], &profiler).unwrap();
            assert_eq!(img.specs().len(), 1);
            assert!(img.profile().lifetime_days > 10.0);
        }
    }

    #[test]
    fn image_flashes_into_device_memory() {
        let profiler = ResourceProfiler::default();
        let img = FirmwareImage::build(vec![spec(Version::Original)], &profiler).unwrap();
        let mut mem = MemoryModel::default();
        img.flash(&mut mem).unwrap();
        assert!(mem.fram().used() > 70_000);
        assert!(mem.sram().used() < 2_048);
    }

    #[test]
    fn oversized_app_rejected_at_compile_time() {
        let profiler = ResourceProfiler::default();
        let mut big = spec(Version::Original);
        big.fram_data_bytes = 200_000;
        let err = FirmwareImage::build(vec![big], &profiler).unwrap_err();
        assert!(matches!(err, AmuletError::StaticCheckFailed { .. }));
    }

    #[test]
    fn sram_hog_rejected() {
        let profiler = ResourceProfiler::default();
        let mut hog = spec(Version::Original);
        hog.sram_peak_bytes = 4_096;
        assert!(matches!(
            FirmwareImage::build(vec![hog], &profiler),
            Err(AmuletError::StaticCheckFailed { .. })
        ));
    }

    #[test]
    fn infeasible_duty_cycle_rejected() {
        let profiler = ResourceProfiler::default();
        let mut busy = spec(Version::Original);
        busy.period_s = 0.01; // cannot run 150 ms of work every 10 ms
        assert!(matches!(
            FirmwareImage::build(vec![busy], &profiler),
            Err(AmuletError::StaticCheckFailed { .. })
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let profiler = ResourceProfiler::default();
        let a = spec(Version::Original);
        let b = spec(Version::Original);
        assert!(matches!(
            FirmwareImage::build(vec![a, b], &profiler),
            Err(AmuletError::DuplicateApp { .. })
        ));
    }

    #[test]
    fn multi_app_image_fits() {
        let profiler = ResourceProfiler::default();
        let a = spec(Version::Simplified);
        let mut b = spec(Version::Reduced);
        b.name = "sift-standby".into();
        let img = FirmwareImage::build(vec![a, b], &profiler).unwrap();
        assert_eq!(img.specs().len(), 2);
    }
}
