//! Operation counts for the workspace's cost model — debug builds only.
//!
//! Every field product in the workspace is one call of
//! [`crate::mont_mul_limbs`], and the pairing field's inversions and
//! square roots are exponentiations built from it. Counting those calls
//! gives each group-level operation a cost that does not drift with the
//! host's speed: `tests/cost_model.rs` pins them, so an arithmetic change
//! shows up as a changed count, not as a timing inside the noise.
//!
//! The counters are thread-local, so a test counts its own thread's work
//! whatever else runs. The module exists only under `debug_assertions`:
//! release builds, and so every timing, carry none of it.

use std::cell::Cell;

/// Field operations run on the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Montgomery products, squarings included (also the products inside
    /// the inversions and square roots below).
    pub products: u64,
    /// Field inversions.
    pub inversions: u64,
    /// Field square roots.
    pub square_roots: u64,
}

thread_local! {
    static PRODUCTS: Cell<u64> = const { Cell::new(0) };
    static INVERSIONS: Cell<u64> = const { Cell::new(0) };
    static SQUARE_ROOTS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|n| n.set(n.get() + 1));
}

impl Cost {
    /// Runs `f` and returns its result with what it cost on this thread.
    pub fn of<T>(f: impl FnOnce() -> T) -> (T, Cost) {
        let before = Self::so_far();
        let out = f();
        let after = Self::so_far();
        let cost = Cost {
            products: after.products - before.products,
            inversions: after.inversions - before.inversions,
            square_roots: after.square_roots - before.square_roots,
        };
        (out, cost)
    }

    /// The thread's totals since it started.
    fn so_far() -> Cost {
        Cost {
            products: PRODUCTS.with(Cell::get),
            inversions: INVERSIONS.with(Cell::get),
            square_roots: SQUARE_ROOTS.with(Cell::get),
        }
    }
}

/// Counts one Montgomery product.
#[inline(always)]
pub(crate) fn product() {
    bump(&PRODUCTS);
}

/// Counts one field inversion (its products count themselves).
pub fn inversion() {
    bump(&INVERSIONS);
}

/// Counts one field square root (its products count themselves).
pub fn square_root() {
    bump(&SQUARE_ROOTS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mont_mul_limbs, mont_neg_inv};

    #[test]
    fn counts_what_the_closure_runs_and_nothing_else() {
        let n = [0xffff_ffff_ffff_ffc5u64]; // 2^64 − 59
        let n0 = mont_neg_inv(n[0]);
        let product = || mont_mul_limbs(1, &[3], &[5], &n, n0);
        product();
        let (_, cost) = Cost::of(|| {
            for _ in 0..7 {
                product();
            }
            inversion();
            square_root();
            square_root();
        });
        let want = Cost {
            products: 7,
            inversions: 1,
            square_roots: 2,
        };
        assert_eq!(cost, want);
        let (_, idle) = Cost::of(|| ());
        assert_eq!(idle, Cost::default());
    }
}
