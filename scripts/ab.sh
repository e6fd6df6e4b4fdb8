#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark.
#
#   scripts/ab.sh <parent-rev> [--workload W] [--pairs N] [--seed S] [--traced]
#
# Checks <parent-rev> out (detached) as a git worktree under
# target/ab/<rev>, then runs `benchmark/run.sh` N times (default 10) in
# each tree — the parent tree and this working tree — alternating which
# side goes first. Pair i runs both sides with seed S+i-1 (default S = 1).
# Without --workload every workload runs; --traced adds the traced run, so
# the per-layer rungs are summarised as well.
#
# Every result line (the JSON object run.sh prints per workload, wrapped
# with side, pair, seed and workload) is appended to
# target/ab/<rev>/runs.jsonl. At the end it prints, per workload and
# metric: the parent's median and interquartile range, the change's median,
# change/parent, and in how many pairs the change won (by the metric's
# "better" direction in BENCHMARK.json; per-layer rungs without a
# direction count lower as better).
#
# Run from the repository root. Uses bash, git and awk only.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/ab.sh <parent-rev> [--workload W] [--pairs N] [--seed S] [--traced]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
rev_arg="$1"
shift
workload=""
pairs=10
seed=1
traced=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --pairs) pairs="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --traced) traced="--traced"; shift ;;
    *) usage ;;
  esac
done

rev="$(git rev-parse --short "${rev_arg}^{commit}")"
here="$(pwd)"
tree="${here}/target/ab/${rev}"
if [[ ! -d "${tree}" ]]; then
  mkdir -p "${here}/target/ab"
  git worktree add --detach "${tree}" "${rev}" >&2
fi
runs="${tree}/runs.jsonl"
out="$(mktemp -d)"
# run.sh's build re-resolves benchmark/Cargo.lock; put this tree's copy
# back as it was when the script exits.
cp benchmark/Cargo.lock "${out}/Cargo.lock"
trap 'cp "${out}/Cargo.lock" benchmark/Cargo.lock; rm -rf "${out}"' EXIT

args=()
[[ -n "${workload}" ]] && args+=(--workload "${workload}")
[[ -n "${traced}" ]] && args+=("${traced}")

# One run of one side: text lines into $out/<side>.<pair>, result lines
# (the JSON objects, one per workload, in run order) into runs.jsonl.
run_side() {
  local side="$1" pair="$2" s="$3" dir
  if [[ "${side}" == parent ]]; then dir="${tree}"; else dir="${here}"; fi
  echo "==> pair ${pair}/${pairs} ${side} (seed ${s})" >&2
  (cd "${dir}" && bash benchmark/run.sh "${args[@]}" --seed "${s}") >"${out}/${side}.${pair}"
  awk -v side="${side}" -v pair="${pair}" -v seed="${s}" -v rev="${rev}" '
    # Text lines name their workload; the JSON line after them closes it.
    /^\{/ {
      printf "{\"side\":\"%s\",\"rev\":\"%s\",\"pair\":%d,\"seed\":%d,\"workload\":\"%s\",\"result\":%s}\n",
        side, (side == "parent" ? rev : "worktree"), pair, seed, last, $0
      next
    }
    NF >= 4 { last = $1 }
  ' "${out}/${side}.${pair}" >>"${runs}"
}

for ((i = 1; i <= pairs; i++)); do
  s=$((seed + i - 1))
  if ((i % 2)); then
    run_side parent "${i}" "${s}"
    run_side change "${i}" "${s}"
  else
    run_side change "${i}" "${s}"
    run_side parent "${i}" "${s}"
  fi
done

# Direction of each end-to-end metric, from BENCHMARK.json.
better="$(awk '
  /"end_to_end"/ { on = 1 }
  on && /"name"/ {
    match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", n); sub(/"$/, "", n)
    match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", b); sub(/"$/, "", b)
    print n, b
  }
  on && /\]/ { on = 0 }
' BENCHMARK.json)"

# "side pair workload metric value" for every numeric metric line.
for f in "${out}"/parent.* "${out}"/change.*; do
  side="${f##*/}"; side="${side%%.*}"
  pair="${f##*.}"
  awk -v side="${side}" -v pair="${pair}" \
    'NF >= 5 && $5 ~ /^n=/ && $3 ~ /^-?[0-9.eE+-]+$/ { print side, pair, $1, $2, $3 }' "${f}"
done | awk -v better="${better}" '
  BEGIN {
    n = split(better, b, "\n")
    for (i = 1; i <= n; i++) { split(b[i], kv, " "); dir[kv[1]] = kv[2]; e2e[kv[1]] = 1 }
  }
  # Traced and untraced runs print distinct metric names, so (workload,
  # metric, side, pair) is a key; a repeat overwrites.
  { key = $3 " " $4; keys[key] = 1; v[key, $1, $2] = $5 + 0; pairs[$2] = 1 }
  function sorted(key, side,    c, p, i, j, t) {
    delete s
    c = 0
    for (p in pairs) if ((key, side, p) in v) s[++c] = v[key, side, p]
    for (i = 2; i <= c; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
    return c
  }
  function median(c) { return c % 2 ? s[(c + 1) / 2] : (s[c / 2] + s[c / 2 + 1]) / 2 }
  # Quartile k (1 or 3) by the exclusive method (Python statistics.quantiles, n=4).
  function quartile(c, k,    m, j, d) {
    if (c < 2) return s[1]
    m = k * (c + 1); j = int(m / 4); d = m - 4 * j
    if (j < 1) return s[1]
    if (j >= c) return s[c]
    return (s[j] * (4 - d) + s[j + 1] * d) / 4
  }
  END {
    printf "%-16s %-34s %12s %10s %12s %7s %6s\n", "workload", "metric", "parent_med", "parent_iqr", "change_med", "ratio", "wins"
    # End-to-end metrics first, then the rungs, each sorted by name.
    nk = 0
    for (k in keys) list[++nk] = k
    for (i = 2; i <= nk; i++) { t = list[i]; for (j = i - 1; j >= 1 && list[j] > t; j--) list[j + 1] = list[j]; list[j + 1] = t }
    for (pass = 1; pass <= 2; pass++) {
      for (i = 1; i <= nk; i++) {
        k = list[i]; split(k, wm, " ")
        if ((pass == 1) != (wm[2] in e2e)) continue
        c = sorted(k, "parent"); if (!c) continue
        pm = median(c); iqr = quartile(c, 3) - quartile(c, 1)
        c = sorted(k, "change"); if (!c) continue
        cm = median(c)
        higher = (dir[wm[2]] == "higher")
        wins = 0; total = 0
        for (p in pairs) if ((k, "parent", p) in v && (k, "change", p) in v) {
          total++
          a = v[k, "parent", p]; z = v[k, "change", p]
          if (higher ? z > a : z < a) wins++
        }
        printf "%-16s %-34s %12.6g %10.4g %12.6g %7.3f %3d/%-2d\n", wm[1], wm[2], pm, iqr, cm, (pm ? cm / pm : 0), wins, total
      }
      if (pass == 1) print ""
    }
  }
'
echo "runs appended to ${runs}" >&2
