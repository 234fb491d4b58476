//! Device state and eligibility (Sec. 3).
//!
//! "The FL runtime requests that the job scheduler only invoke the job
//! when the phone is idle, charging, and connected to an unmetered network
//! such as WiFi. Once started, the FL runtime will abort, freeing the
//! allocated resources, if these conditions are no longer met."

use serde::{Deserialize, Serialize};

/// The device conditions that gate FL participation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceConditions {
    /// Screen off / no interactive use.
    pub idle: bool,
    /// Plugged in and charging.
    pub charging: bool,
    /// On WiFi or another unmetered network.
    pub unmetered_network: bool,
}

impl DeviceConditions {
    /// All conditions met (the common overnight state).
    pub fn eligible() -> Self {
        DeviceConditions {
            idle: true,
            charging: true,
            unmetered_network: true,
        }
    }

    /// A device in active use.
    pub fn in_use() -> Self {
        DeviceConditions {
            idle: false,
            charging: false,
            unmetered_network: true,
        }
    }

    /// Whether FL work may run (all three conditions).
    pub fn is_eligible(&self) -> bool {
        self.idle && self.charging && self.unmetered_network
    }
}

impl Default for DeviceConditions {
    fn default() -> Self {
        DeviceConditions::in_use()
    }
}

/// Static device capabilities the deployment gates on (Sec. 11 *Bias*:
/// "we limit the deployment of our device code only to certain phones,
/// currently with recent Android versions and at least 2 GB of memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCapabilities {
    /// Installed FL runtime version (plans are versioned against this,
    /// Sec. 7.3).
    pub runtime_version: u32,
    /// Device memory in megabytes.
    pub memory_mb: u32,
}

impl DeviceCapabilities {
    /// The deployment floor from Sec. 11.
    pub const MIN_MEMORY_MB: u32 = 2048;

    /// Whether the FL device code is deployed to this device at all.
    // fl-lint: allow(test-only-pub): paper Sec. 3 deployment bar; tests/device_behaviour.rs
    pub fn meets_deployment_bar(&self) -> bool {
        self.memory_mb >= Self::MIN_MEMORY_MB
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eligibility_requires_all_three() {
        assert!(DeviceConditions::eligible().is_eligible());
        for broken in [
            DeviceConditions {
                idle: false,
                ..DeviceConditions::eligible()
            },
            DeviceConditions {
                charging: false,
                ..DeviceConditions::eligible()
            },
            DeviceConditions {
                unmetered_network: false,
                ..DeviceConditions::eligible()
            },
        ] {
            assert!(!broken.is_eligible(), "{broken:?}");
        }
    }

    #[test]
    fn deployment_bar_matches_paper() {
        assert!(DeviceCapabilities {
            runtime_version: 3,
            memory_mb: 2048
        }
        .meets_deployment_bar());
        assert!(!DeviceCapabilities {
            runtime_version: 3,
            memory_mb: 1024
        }
        .meets_deployment_bar());
    }

    #[test]
    fn default_is_not_eligible() {
        assert!(!DeviceConditions::default().is_eligible());
    }
}
