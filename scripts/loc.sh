#!/usr/bin/env bash
# Lines of Rust by ROADMAP's rule: every tracked `.rs` file outside
# `benchmark/`. A file under a `tests/` directory is all test; any other
# file is non-test up to its first `#[cfg(test)]` line (the test module's
# attribute, at the start of a line) and test from there on. The third
# line is the non-test share under `crates/bench/`, the experiment harness
# the deployment does not run.
# Run from the repository root: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z -- '*.rs' ':(exclude)benchmark/' | xargs -0 awk '
  FNR == 1 { test = FILENAME ~ /(^|\/)tests\//; bench = FILENAME ~ /^crates\/bench\// }
  /^#\[cfg\(test\)\]/ { test = 1 }
  { if (test) t++; else { n++; if (bench) b++ } }
  END { print n + 0, t + 0, b + 0 }' | awk '
  { n += $1; t += $2; b += $3 }
  END { printf "non-test %d\ntest %d\nnon-test under crates/bench %d\n", n, t, b }'
