//! A seeded case generator for the workspace's property suites.
//!
//! `cases(n, generate).check(property)` runs a property over `n` generated
//! inputs. The seed is fixed per property (a hash of the closure's type
//! name, which contains the test function's path), so a run is
//! deterministic, survives edits elsewhere in the file, and rerunning a
//! failed test *is* the reproduction. Every value a generator produces comes
//! from a tape of `u64` draws through a mapping that is monotone in the draw,
//! so a failing case shrinks without per-type shrinkers: halve the tape,
//! then halve each draw, keeping every step on which the property still
//! fails. The failure report is the case index and the minimal input.
//!
//! ```
//! mws_prop::cases(64, |g| (g.bytes(0..32), g.int(1..9))).check(|(data, k)| {
//!     assert!(data.len() < 32 && (1..9).contains(&k));
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Property executions a failing case may spend on shrinking.
const SHRINK_BUDGET: u32 = 400;

/// The source of one test case.
pub struct Gen {
    tape: Vec<u64>,
    pos: usize,
    /// SplitMix64 state while generating; `None` replays the tape, reading
    /// zero (every mapping's smallest value) past its end.
    fresh: Option<u64>,
}

impl Gen {
    fn new(tape: &[u64], fresh: Option<u64>) -> Self {
        let (tape, pos) = (tape.to_vec(), 0);
        Self { tape, pos, fresh }
    }

    /// A uniform `u64`; every other method maps one of these per element.
    pub fn u64(&mut self) -> u64 {
        if self.pos == self.tape.len() {
            let Some(state) = &mut self.fresh else {
                return 0;
            };
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            self.tape.push(z ^ (z >> 31));
        }
        self.pos += 1;
        self.tape[self.pos - 1]
    }

    /// A uniform `u32`.
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// A uniform `u16`.
    pub fn u16(&mut self) -> u16 {
        (self.u64() >> 48) as u16
    }

    /// A uniform `u8`.
    pub fn u8(&mut self) -> u8 {
        (self.u64() >> 56) as u8
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `range` (which must not be empty).
    pub fn int(&mut self, range: Range<u64>) -> u64 {
        let span = range.end - range.start;
        range.start + ((self.u64() as u128 * span as u128) >> 64) as u64
    }

    /// A uniform `usize` in `range`: lengths, indices, choices.
    pub fn size(&mut self, range: Range<usize>) -> usize {
        self.int(range.start as u64..range.end as u64) as usize
    }

    /// `N` uniform bytes.
    pub fn array<const N: usize>(&mut self) -> [u8; N] {
        std::array::from_fn(|_| self.u8())
    }

    /// A vector of `item`s whose length is drawn from `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.size(len)).map(|_| item(self)).collect()
    }

    /// Uniform bytes, length drawn from `len`.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        self.vec(len, Gen::u8)
    }

    /// A string over the ASCII `alphabet`, length drawn from `len`.
    pub fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let alphabet = alphabet.as_bytes();
        self.vec(len, |g| alphabet[g.size(0..alphabet.len())] as char)
            .into_iter()
            .collect()
    }
}

/// `cases` inputs drawn by `generate`, which must accept any tape,
/// including all zeros (a shrunk tape reads that way).
pub fn cases<T, G: Fn(&mut Gen) -> T>(cases: u32, generate: G) -> Cases<G> {
    Cases { cases, generate }
}

/// Generated inputs awaiting their property; see [`cases`].
pub struct Cases<G> {
    cases: u32,
    generate: G,
}

impl<T: Debug, G: Fn(&mut Gen) -> T> Cases<G> {
    /// Runs `property` on every input. It fails by panicking (`assert!`,
    /// `unwrap`); returning early discards the case.
    pub fn check<P: Fn(T)>(self, property: P) {
        let Cases { cases, generate } = self;
        let name = std::any::type_name::<P>();
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let fails = |tape: &[u64]| {
            let input = generate(&mut Gen::new(tape, None));
            catch_unwind(AssertUnwindSafe(|| property(input))).is_err()
        };
        for case in 0..cases {
            let mut gen = Gen::new(&[], Some(seed.wrapping_add(u64::from(case))));
            let input = generate(&mut gen);
            if catch_unwind(AssertUnwindSafe(|| property(input))).is_ok() {
                continue;
            }
            let tape = shrink(gen.tape, fails);
            let minimal = generate(&mut Gen::new(&tape, None));
            eprintln!("{name} failed at case {case} of {cases}; minimal input: {minimal:#?}");
            property(minimal); // fails again, now with the assertion's own message
            unreachable!("the minimal input failed while shrinking and must fail again");
        }
    }
}

/// Shrink-by-halving: first the tape's length, then each draw (zero first),
/// keeping a step only if the property still fails.
fn shrink(mut tape: Vec<u64>, fails: impl Fn(&[u64]) -> bool) -> Vec<u64> {
    let mut budget = SHRINK_BUDGET;
    let mut spend = |tape: &[u64]| {
        budget = budget.saturating_sub(1);
        budget > 0 && fails(tape)
    };
    loop {
        let before = tape.clone();
        while !tape.is_empty() && spend(&tape[..tape.len() / 2]) {
            tape.truncate(tape.len() / 2);
        }
        for i in 0..tape.len() {
            let original = std::mem::take(&mut tape[i]);
            if original == 0 || spend(&tape) {
                continue;
            }
            let mut keep = original;
            while keep > 1 {
                tape[i] = keep / 2;
                if !spend(&tape) {
                    break;
                }
                keep /= 2;
            }
            tape[i] = keep;
        }
        if tape == before {
            return tape;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_property_same_cases() {
        let run = || {
            let seen = std::cell::RefCell::new(Vec::new());
            cases(8, |g| (g.u64(), g.bytes(0..9))).check(|case| seen.borrow_mut().push(case));
            seen.into_inner()
        };
        let (a, b): (Vec<_>, Vec<_>) = [run(), run()].into();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn mappings_stay_in_range_and_zero_tape_is_minimal() {
        cases(256, |g| {
            (
                g.int(5..9),
                g.size(0..3),
                g.string("ab", 1..4),
                g.unit_f64(),
            )
        })
        .check(|(i, s, t, f)| {
            assert!((5..9).contains(&i) && s < 3 && (1..4).contains(&t.len()));
            assert!((0.0..1.0).contains(&f));
        });
        let mut zero = Gen::new(&[], None);
        assert_eq!(
            (zero.int(5..9), zero.bytes(2..7), zero.bool()),
            (5, vec![0, 0], false)
        );
    }

    #[test]
    fn failing_case_shrinks_to_within_a_halving_of_the_boundary() {
        let generate = |g: &mut Gen| (g.int(0..1_000_000), g.bytes(0..64));
        let fails = |tape: &[u64]| {
            let (n, bytes) = generate(&mut Gen::new(tape, None));
            n >= 1000 && bytes.len() >= 3
        };
        let tape = (0u64..)
            .map(|seed| {
                let mut gen = Gen::new(&[], Some(seed));
                generate(&mut gen);
                gen.tape
            })
            .find(|tape| fails(tape))
            .unwrap();
        let (n, bytes) = generate(&mut Gen::new(&shrink(tape, fails), None));
        assert!((1000..2000).contains(&n), "{n}");
        assert!((3..6).contains(&bytes.len()) && bytes.iter().all(|&b| b == 0));
    }
}
