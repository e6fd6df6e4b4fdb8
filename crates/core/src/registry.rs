//! Device registry — the SDA's "key management service" (§V.B).
//!
//! "The SDA utilizes a key management service to obtain the corresponding
//! key related to identity of a SD." Keys are established at
//! registration/licensing (the paper's out-of-scope initial exchange); this
//! registry is that service's state.

use std::collections::HashMap;

/// Per-device registration state.
#[derive(Clone)]
struct DeviceRecord {
    /// Device identity.
    sd_id: String,
    /// `SecK_SD-MWS`: the shared MAC key.
    mac_key: Vec<u8>,
    /// Whether the device may currently deposit.
    enabled: bool,
}

impl core::fmt::Debug for DeviceRecord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "DeviceRecord {{ sd_id: {:?}, enabled: {}, .. }}",
            self.sd_id, self.enabled
        )
    }
}

/// The SD key-management registry.
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    devices: HashMap<String, DeviceRecord>,
}

impl DeviceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-keys) a device.
    pub fn register(&mut self, sd_id: &str, mac_key: &[u8]) {
        self.devices.insert(
            sd_id.to_string(),
            DeviceRecord {
                sd_id: sd_id.to_string(),
                mac_key: mac_key.to_vec(),
                enabled: true,
            },
        );
    }

    /// Looks up an enabled device's MAC key.
    pub fn mac_key(&self, sd_id: &str) -> Option<&[u8]> {
        self.devices
            .get(sd_id)
            .filter(|d| d.enabled)
            .map(|d| d.mac_key.as_slice())
    }

    /// Disables a device (suspected compromise) without losing its record.
    pub fn disable(&mut self, sd_id: &str) -> bool {
        match self.devices.get_mut(sd_id) {
            Some(d) => {
                d.enabled = false;
                true
            }
            None => false,
        }
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = DeviceRegistry::new();
        assert!(reg.is_empty());
        reg.register("meter-1", b"key-1");
        assert_eq!(reg.mac_key("meter-1"), Some(&b"key-1"[..]));
        assert_eq!(reg.mac_key("meter-2"), None);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn rekey_replaces() {
        let mut reg = DeviceRegistry::new();
        reg.register("m", b"old");
        reg.register("m", b"new");
        assert_eq!(reg.mac_key("m"), Some(&b"new"[..]));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn disable_hides_key() {
        let mut reg = DeviceRegistry::new();
        reg.register("m", b"k");
        assert!(reg.disable("m"));
        assert_eq!(reg.mac_key("m"), None);
        assert!(!reg.disable("ghost"));
    }
}
