//! Deterministic smart-meter workload generation.
//!
//! Substitute for the production traces the authors had from real meters:
//! seeded readings with the message shapes §II describes (consumption
//! values, error notifications, events).

use mws_crypto::{HmacDrbg, Rng};

/// The meter classes of the Figure 1 scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MeterClass {
    /// Electricity meter.
    Electric,
    /// Water meter.
    Water,
    /// Gas meter.
    Gas,
}

impl MeterClass {
    /// All classes.
    pub const ALL: [MeterClass; 3] = [MeterClass::Electric, MeterClass::Water, MeterClass::Gas];

    /// The fleet-wide attribute string for this class.
    pub fn fleet_attribute(&self) -> String {
        match self {
            MeterClass::Electric => "ELECTRIC-FLEET-SV-CA".to_string(),
            MeterClass::Water => "WATER-FLEET-SV-CA".to_string(),
            MeterClass::Gas => "GAS-FLEET-SV-CA".to_string(),
        }
    }

    /// The measurement unit.
    pub fn unit(&self) -> &'static str {
        match self {
            MeterClass::Electric => "kWh",
            MeterClass::Water => "m3",
            MeterClass::Gas => "thm",
        }
    }
}

/// One generated reading.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reading {
    /// Meter class.
    pub class: MeterClass,
    /// Scaled integer value (hundredths of the unit).
    pub centi_value: u64,
    /// Error flag (~1 in 50 readings carry one, per §II's error messages).
    pub error: Option<&'static str>,
}

impl Reading {
    /// Renders the reading as the text payload a meter would send.
    pub fn render(&self) -> String {
        match self.error {
            None => format!(
                "{}={}.{:02}",
                self.class.unit(),
                self.centi_value / 100,
                self.centi_value % 100
            ),
            Some(err) => format!(
                "{}={}.{:02};err={}",
                self.class.unit(),
                self.centi_value / 100,
                self.centi_value % 100,
                err
            ),
        }
    }
}

/// Seeded reading generator.
pub struct WorkloadGen {
    rng: HmacDrbg,
}

impl WorkloadGen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: HmacDrbg::new(&seed.to_be_bytes(), b"mws-workload"),
        }
    }

    /// Draws the next reading for a meter class.
    pub fn reading(&mut self, class: MeterClass) -> Reading {
        let v = self.rng.next_u32() as u64 % 100_000;
        let error = if self.rng.next_u32().is_multiple_of(50) {
            Some("E42-SENSOR-DRIFT")
        } else {
            None
        };
        Reading {
            class,
            centi_value: v,
            error,
        }
    }

    /// A payload of exactly `len` pseudorandom bytes (cipher benchmarks).
    pub fn payload(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.rng.fill_bytes(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = WorkloadGen::new(1);
        let mut b = WorkloadGen::new(1);
        for _ in 0..20 {
            assert_eq!(a.reading(MeterClass::Water), b.reading(MeterClass::Water));
        }
        let mut c = WorkloadGen::new(2);
        assert_ne!(a.reading(MeterClass::Gas), c.reading(MeterClass::Gas));
    }

    #[test]
    fn render_shapes() {
        let r = Reading {
            class: MeterClass::Electric,
            centi_value: 4270,
            error: None,
        };
        assert_eq!(r.render(), "kWh=42.70");
        let r = Reading {
            class: MeterClass::Water,
            centi_value: 5,
            error: Some("E42-SENSOR-DRIFT"),
        };
        assert_eq!(r.render(), "m3=0.05;err=E42-SENSOR-DRIFT");
    }

    #[test]
    fn errors_are_rare_but_present() {
        let mut generator = WorkloadGen::new(3);
        let errs = (0..1000)
            .filter(|_| generator.reading(MeterClass::Gas).error.is_some())
            .count();
        assert!((5..60).contains(&errs), "≈2% expected, got {errs}");
    }

    #[test]
    fn payload_lengths() {
        let mut generator = WorkloadGen::new(4);
        for len in [0, 1, 64, 4096] {
            assert_eq!(generator.payload(len).len(), len);
        }
    }
}
