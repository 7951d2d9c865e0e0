#!/usr/bin/env bash
# Tier-1 CI gate. Everything runs --offline: the workspace vendors its
# external dependencies under vendor/ (see Cargo.toml [patch.crates-io]).
set -euo pipefail
cd "$(dirname "$0")"

echo "== static analysis (clippy, rules D1-D7 and D9) =="
# The determinism and robustness rules (DESIGN.md §8) are clippy lints
# configured in clippy.toml and the crates' [lints] tables, plus the
# typed RNG domains in netsim::rng; D8 (hot-path allocation) is the
# tests/hot_path_alloc.rs test run below. Every suppression is a reasoned
# #[expect], so a stale one fails this stage too. `-p` selects the wheels
# crates and `--no-deps` keeps the vendored stand-ins out of scope.
packages=()
for manifest in Cargo.toml crates/*/Cargo.toml; do
  packages+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)")
done
lint_t0=$(date +%s%N)
cargo clippy --offline --all-targets --no-deps "${packages[@]}" -- -D warnings
lint_t1=$(date +%s%N)
echo "clippy stage wall time: $(( (lint_t1 - lint_t0) / 1000000 )) ms"

echo "== build (release) =="
# --workspace: the root package is only the `wheels` library; the `repro`
# binary every stage below runs lives in crates/bench.
cargo build --release --offline --workspace

echo "== repro argument errors (no campaign runs) =="
# Bad arguments must exit 2 before any campaign work: an unknown artifact
# id (with nothing on stdout) and a --kill-after count of 0.
clitmp="$(mktemp -d)"
set +e
./target/release/repro fig99 > "$clitmp/fig99.out" 2> /dev/null
fig99_status=$?
./target/release/repro --kill-after 0 --checkpoint-dir "$clitmp/ck" table1 \
  > /dev/null 2> /dev/null
kill0_status=$?
set -e
[ "$fig99_status" -eq 2 ] || { echo "repro fig99: expected exit 2, got $fig99_status"; exit 1; }
[ ! -s "$clitmp/fig99.out" ] || { echo "repro fig99 wrote to stdout"; exit 1; }
[ "$kill0_status" -eq 2 ] || { echo "repro --kill-after 0: expected exit 2, got $kill0_status"; exit 1; }
rm -rf "$clitmp"

echo "== tests (root package) =="
cargo test -q --offline

echo "== tests (full workspace) =="
cargo test -q --offline --workspace

echo "== sequential vs parallel equivalence (2 seeds x jobs {1,2,4}) =="
cargo test -q --offline --test parallel_equivalence

echo "== fault-injection equivalence (harsh profile, jobs 1 vs 4, 2 seeds) =="
# Determinism must survive injected apparatus faults: the exported dataset
# AND the per-unit integrity report are byte-identical at every job count,
# and the harsh profile must actually degrade at least one unit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for seed in 11 42; do
  ./target/release/repro --scale smoke --seed "$seed" --fault-profile harsh \
    --jobs 1 --export "$tmp/j1-$seed.json" table1 > /dev/null
  ./target/release/repro --scale smoke --seed "$seed" --fault-profile harsh \
    --jobs 4 --export "$tmp/j4-$seed.json" table1 > /dev/null
  cmp "$tmp/j1-$seed.json" "$tmp/j4-$seed.json"
  cmp "$tmp/j1-$seed.json.integrity.json" "$tmp/j4-$seed.json.integrity.json"
  grep -q -e '"Degraded"' -e '"Lost"' "$tmp/j1-$seed.json.integrity.json" || {
    echo "seed $seed: harsh profile left every unit clean"; exit 1;
  }
done

echo "== scenario layer: default = --scenario paper + non-paper smoke =="
# Without --scenario, repro builds the registry's paper spec: the default
# and `--scenario paper` must resolve alike — same export, same report,
# at the same seed. (golden_campaign.rs pins the paper world's bytes.)
./target/release/repro --scale smoke --seed 42 \
  --export "$tmp/direct-42.json" all > "$tmp/direct-42.txt" 2> /dev/null
./target/release/repro --scale smoke --seed 42 --scenario paper \
  --export "$tmp/scenario-42.json" all > "$tmp/scenario-42.txt" 2> /dev/null
cmp "$tmp/direct-42.json" "$tmp/scenario-42.json"
cmp "$tmp/direct-42.txt" "$tmp/scenario-42.txt"
# A non-paper registry world must run the full pipeline without panics,
# and a dumped spec must load back through the JSON file path.
./target/release/repro --scale smoke --seed 7 --scenario rail-corridor all \
  > "$tmp/rail.txt" 2> /dev/null
grep -q "T-Mobile (T), AT&T (A)" "$tmp/rail.txt"
./target/release/repro --scenario metro-loop --scenario-dump > "$tmp/metro.json"
./target/release/repro --scale smoke --seed 7 --scenario "$tmp/metro.json" table1 \
  > "$tmp/metro.txt" 2> /dev/null
grep -q "Operators" "$tmp/metro.txt"

echo "== report byte-equivalence (quarter scale, fig-jobs 1 vs 4) =="
# The figure fan-out must not change a single byte of `repro all`.
./target/release/repro --scale quarter --fig-jobs 1 all \
  > "$tmp/report-f1.txt" 2> /dev/null
./target/release/repro --scale quarter --fig-jobs 4 --timings \
  --timings-json BENCH_report.json all \
  > "$tmp/report-f4.txt"
cmp "$tmp/report-f1.txt" "$tmp/report-f4.txt"
echo "report timings:"
cat BENCH_report.json

echo "== campaign + export timing, jobs/export-jobs byte gates (quarter scale) =="
# The campaign and export phases are the standing optimization targets:
# prove both fan-outs are still byte-pure — the export, integrity
# report, and table must not differ by one byte between
# {--jobs, --export-jobs} 1 and 4. (BENCH_campaign.json is recorded by
# the fleet gate below: same quarter/seed-11 world, fleet enabled.)
#
# The measured export goes to RAM-backed storage when available so
# export_s tracks the serializer, not the container's highly variable
# disk; a discarded warm-up run first, because on fresh microVMs the
# first touch of that much page cache stalls on host-side page backing.
benchtmp="$tmp"
if [ -d /dev/shm ] && [ -w /dev/shm ]; then
  benchtmp="$(mktemp -d /dev/shm/wheels-bench.XXXXXX)"
  trap 'rm -rf "$tmp" "$benchtmp"' EXIT
fi
./target/release/repro --scale quarter --seed 11 --jobs 1 --export-jobs 1 \
  --export "$benchtmp/warm.json" table1 > /dev/null 2> /dev/null
rm -f "$benchtmp/warm.json" "$benchtmp/warm.json.integrity.json"
./target/release/repro --scale quarter --seed 11 --jobs 1 --export-jobs 1 \
  --export "$benchtmp/q-j1.json" table1 \
  > "$tmp/q-j1.txt" 2> /dev/null
./target/release/repro --scale quarter --seed 11 --jobs 4 --export-jobs 4 \
  --export "$benchtmp/q-j4.json" table1 > "$tmp/q-j4.txt" 2> /dev/null
cmp "$benchtmp/q-j1.json" "$benchtmp/q-j4.json"
cmp "$benchtmp/q-j1.json.integrity.json" "$benchtmp/q-j4.json.integrity.json"
cmp "$tmp/q-j1.txt" "$tmp/q-j4.txt"

echo "== crash-resume byte gate (quarter scale, kill mid-run, jobs 1 and 4) =="
# The crash-safety contract end to end, against the real binary: kill a
# checkpointed run after 5 durable unit commits (exit 137), resume it,
# and demand an export, integrity report, and table byte-identical to
# the uninterrupted jobs-1 golden from the previous stage — at both
# worker counts. No torn export may exist after the kill.
for jobs in 1 4; do
  ck="$tmp/ck-j$jobs"
  set +e
  ./target/release/repro --scale quarter --seed 11 --jobs "$jobs" \
    --checkpoint-dir "$ck" --kill-after 5 \
    --export "$tmp/crash-j$jobs.json" table1 > /dev/null 2> "$tmp/kill-j$jobs.err"
  status=$?
  set -e
  [ "$status" -eq 137 ] || {
    echo "jobs $jobs: expected kill exit 137, got $status"; exit 1;
  }
  [ ! -e "$tmp/crash-j$jobs.json" ] || {
    echo "jobs $jobs: killed run left an export file"; exit 1;
  }
  ./target/release/repro --scale quarter --seed 11 --jobs "$jobs" \
    --checkpoint-dir "$ck" --resume \
    --export "$tmp/resume-j$jobs.json" table1 \
    > "$tmp/resume-j$jobs.txt" 2> "$tmp/resume-j$jobs.err"
  grep -q "resume:" "$tmp/resume-j$jobs.err" || {
    echo "jobs $jobs: resume printed no accounting"; exit 1;
  }
  cmp "$tmp/resume-j$jobs.json" "$benchtmp/q-j1.json"
  cmp "$tmp/resume-j$jobs.json.integrity.json" "$benchtmp/q-j1.json.integrity.json"
  cmp "$tmp/resume-j$jobs.txt" "$tmp/q-j1.txt"
done

echo "== fleet gate: population-0 no-op + 10^4-subscriber byte gates =="
# The fleet axis must be a strict no-op when off: --population 0 is
# byte-identical — export and full report — to the same binary without
# the flag (the scenario stage's smoke golden).
./target/release/repro --scale smoke --seed 42 --population 0 \
  --export "$tmp/pop0-42.json" all > "$tmp/pop0-42.txt" 2> /dev/null
cmp "$tmp/direct-42.json" "$tmp/pop0-42.json"
cmp "$tmp/direct-42.txt" "$tmp/pop0-42.txt"
# A 10^4-subscriber quarter-scale fleet must be byte-identical at jobs
# 1 vs 4 — export, integrity report, and the fleet ground-truth section
# — and BENCH_campaign.json records this run (population and
# subscriber_hours_per_s in the canonical timings record).
./target/release/repro --scale quarter --seed 11 --jobs 1 --population 10000 \
  --export "$benchtmp/fleet-j1.json" --timings-json BENCH_campaign.json \
  ext-fleet table1 > "$tmp/fleet-j1.txt" 2> /dev/null
./target/release/repro --scale quarter --seed 11 --jobs 4 --population 10000 \
  --export "$benchtmp/fleet-j4.json" ext-fleet table1 \
  > "$tmp/fleet-j4.txt" 2> /dev/null
cmp "$benchtmp/fleet-j1.json" "$benchtmp/fleet-j4.json"
cmp "$benchtmp/fleet-j1.json.integrity.json" "$benchtmp/fleet-j4.json.integrity.json"
cmp "$tmp/fleet-j1.txt" "$tmp/fleet-j4.txt"
grep -q "population 10000" "$tmp/fleet-j1.txt"
grep -q '"population": 10000' BENCH_campaign.json
grep -q '"subscriber_hours_per_s"' BENCH_campaign.json
echo "fleet timings:"
cat BENCH_campaign.json

echo "CI OK"
