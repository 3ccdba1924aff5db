//! Device health.
//!
//! A [`VirtualGpu`](crate::VirtualGpu) is normally [`Healthy`](DeviceHealth::Healthy). A
//! scripted fault (see `gflink_sim::faults`) can move it to
//! [`Degraded`](DeviceHealth::Degraded) — the card stays usable but its
//! PCIe and kernel throughput drop to a fraction of nominal — or to
//! [`Lost`](DeviceHealth::Lost), the terminal state: the card is off the
//! bus, its memory contents are gone, and every transfer or launch against
//! it fails with [`DeviceError::Lost`]. Transitions are monotone
//! (Healthy → Degraded → Lost, never back): recovering a device would need
//! a driver reset the model does not attempt, matching how the scheduler
//! in `gflink-core` treats loss as permanent blacklisting.

use crate::dmem::DmemError;
use std::fmt;

/// The health state machine of one device.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum DeviceHealth {
    /// Full nominal throughput.
    #[default]
    Healthy,
    /// Usable at reduced throughput.
    Degraded {
        /// Remaining fraction of nominal throughput, in `(0, 1]`.
        throughput: f64,
    },
    /// Off the bus; terminal.
    Lost,
}

impl DeviceHealth {
    /// True unless the device is [`Lost`](DeviceHealth::Lost).
    pub fn is_usable(&self) -> bool {
        !matches!(self, DeviceHealth::Lost)
    }

    /// True if the device is gone for good.
    pub fn is_lost(&self) -> bool {
        matches!(self, DeviceHealth::Lost)
    }

    /// The multiplier applied to transfer and kernel *durations*: 1 for a
    /// healthy device, `1 / throughput` for a degraded one.
    ///
    /// Panics if the device is lost — lost devices have no durations.
    pub fn slowdown(&self) -> f64 {
        match *self {
            DeviceHealth::Healthy => 1.0,
            DeviceHealth::Degraded { throughput } => {
                debug_assert!(throughput > 0.0 && throughput <= 1.0);
                1.0 / throughput
            }
            DeviceHealth::Lost => panic!("lost device has no throughput"),
        }
    }
}

impl fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceHealth::Healthy => write!(f, "healthy"),
            DeviceHealth::Degraded { throughput } => {
                write!(f, "degraded ({:.0}% throughput)", throughput * 100.0)
            }
            DeviceHealth::Lost => write!(f, "lost"),
        }
    }
}

/// Why a device operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The device is [`Lost`](DeviceHealth::Lost); nothing on it succeeds.
    Lost {
        /// Device index within its worker.
        gpu: usize,
    },
    /// A device-memory error (OOM or bad handle).
    Mem(DmemError),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Lost { gpu } => write!(f, "device {gpu} is lost"),
            DeviceError::Mem(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Lost { .. } => None,
            DeviceError::Mem(e) => Some(e),
        }
    }
}

impl From<DmemError> for DeviceError {
    fn from(e: DmemError) -> Self {
        DeviceError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_predicates() {
        assert!(DeviceHealth::Healthy.is_usable());
        assert!(DeviceHealth::Degraded { throughput: 0.5 }.is_usable());
        assert!(!DeviceHealth::Lost.is_usable());
        assert!(DeviceHealth::Lost.is_lost());
    }

    #[test]
    fn slowdown_inverts_throughput() {
        assert_eq!(DeviceHealth::Healthy.slowdown(), 1.0);
        assert_eq!(DeviceHealth::Degraded { throughput: 0.25 }.slowdown(), 4.0);
    }

    #[test]
    #[should_panic(expected = "lost device")]
    fn lost_has_no_slowdown() {
        let _ = DeviceHealth::Lost.slowdown();
    }

    #[test]
    fn error_wraps_dmem() {
        let e: DeviceError = DmemError::BadHandle.into();
        assert_eq!(e, DeviceError::Mem(DmemError::BadHandle));
        assert_eq!(
            format!("{}", DeviceError::Lost { gpu: 2 }),
            "device 2 is lost"
        );
    }
}
