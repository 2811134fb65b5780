#!/usr/bin/env bash
# Full verification gate: release build, tests (incl. golden traces and
# property suites), lint-clean clippy over every target, and the
# results/ baseline diffs.
# Run from the repository root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The benchmark builds `wearbench` from its own manifest. Its path crates
# still resolve `*.workspace = true` dependencies through the root
# manifest's [workspace.dependencies], so an edit there can break this
# build alone: build it exactly as the benchmark does.
cargo build --release --offline --manifest-path crates/bench/src/bin/wearbench/Cargo.toml
# Every member crate's unit, integration and doc tests (a bare `cargo
# test` at this root runs only the root package's). Among them: the
# analyzer's rule fixtures; the deterministic harness (golden_traces,
# fleet_props, recovery_props, survival_props, adaptive_security,
# adaptive_faults, wiot's transport_edges); and the
# detector-zoo certification (detector_conformance runs every property
# against BackendKind::ALL; ml's tsetlin_props covers the Tsetlin
# backend's clause logic); and decoder_mutations, the one mutation
# harness for every CRC-guarded FRAM decoder.
cargo test -q --workspace
# The CRC-32 kernel's bitwise oracle and the NVRAM store's properties
# again, on the optimized build the benchmark measures (overflow checks
# off, the table kernel as it ships); likewise the ECG span renderer's
# bit-equality properties and the attack read-law sweep, which
# synthesize 56 s Reference records and are slow in a debug build; the
# gold extractor's channel-axis path against its portrait-based oracle
# (sift::features::oracle: edge-case channels, grids of 2 to 300 cells);
# the trainer's in-place window reader, which shares each victim ABP
# axis across donors, against its materializing oracle, with
# whole-record and ECG-span donors; and the Tsetlin trainer against its
# state-rescanning oracle over the knob grid (ml). The twelve models of
# each fleet enrollment are pinned by digest (sift): hostile-link's
# Tsetlin bank and the SVM banks of fleet-turbo (Reduced) and
# fleet-fidelity (Simplified). The gold features themselves are pinned
# by tests/determinism.rs::gold_features_are_pinned above.
cargo test --release -q -p ml -p amulet-sim -p physio-sim -p wiot -p sift
# The mutation harness over every CRC-guarded FRAM decoder, on the same
# optimized build: the five codecs read through one shared
# `ml::embedded::LeReader`, and the benchmark runs them with overflow
# checks off.
cargo test --release -q --test decoder_mutations

cargo clippy --workspace --all-targets -- -D warnings

# Every library's rustdoc, warnings promoted to failures: a broken,
# ambiguous or private intra-doc link fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

# Clippy only compiles the examples: run each one to completion in
# release (stdout discarded; `model_export` writes only under the OS
# temp dir). A nonzero exit fails the gate.
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  cargo run --release -q --example "$name" >/dev/null \
    || { echo "verify: FAIL example $name exited nonzero"; exit 1; }
done
echo "verify: every example ran to completion"

# Workspace static analysis: embedded-profile, determinism, call-graph,
# and budget invariants, with warnings promoted to failures. Also
# regenerates results/ANALYZER_footprint.json, which is diffed whole
# against the committed copy below: the per-flavor FRAM and SRAM
# budgets, the model, checkpoint and slab sizes, and the certified
# worst-case stack section. A moved figure is a real behaviour change
# (a bigger model, a new call edge, a new frame) and must be reviewed
# like any other baseline. An entry's "line" field is left out of the
# comparison: it moves whenever code above the entry function is
# edited, with no change to bytes, frames or chain.
footprint=results/ANALYZER_footprint.json
footprint_body() {
  grep -v '^ *"line": [0-9]*,$' "$footprint"
}
footprint_before=""
if [[ -f "$footprint" ]]; then
  footprint_before=$(footprint_body)
fi
cargo run -q -p analyzer -- --deny warnings
if [[ -n "$footprint_before" ]]; then
  footprint_after=$(footprint_body)
  if [[ "$footprint_before" != "$footprint_after" ]]; then
    echo "verify: FAIL analyzer footprint drifted in $footprint:"
    diff -u <(printf '%s\n' "$footprint_before") <(printf '%s\n' "$footprint_after") || true
    echo "verify: review the change; commit the regenerated footprint if intended"
    exit 1
  fi
  echo "verify: analyzer footprint matches committed copy"
fi

# Crash-recovery soak: 50 devices x ~21 seeded random power cycles
# (brownout reboots, torn checkpoint commits, FRAM bit rot) — over 1000
# reboots fleet-wide. The bin exits nonzero unless every reboot
# recovered from its FRAM checkpoint, nothing was refused, every device
# is operational at exit, and the report digest is identical between
# the single-threaded and multi-threaded runs.
cargo run --release -q -p bench --bin recovery -- --threads 8

# Baseline gates: each regenerates an artifact under target/verify/
# and diffs it against its committed baseline in results/.
#   baseline_gate <name> <key> <mode> <baseline> <out> <command...>
# <key>, when non-empty, names a JSON field (a report digest) that must
# match byte-for-byte: it only moves when the simulation itself changed.
# <mode> decides the rest of the file: `exact` fails on any drift,
# `warn` prints drift as a warning (wall-clock fields legitimately differ
# between machines and runs). The command must exit zero. A missing
# baseline fails the run.
mkdir -p target/verify
baseline_gate() {
  local name=$1 key=$2 mode=$3 baseline=$4 out=$5
  shift 5
  if [[ ! -f "$baseline" ]]; then
    echo "verify: FAIL no $name baseline at $baseline"
    exit 1
  fi
  "$@" >/dev/null || { echo "verify: FAIL $name run exited nonzero"; exit 1; }
  local base_digest="" new_digest=""
  if [[ -n "$key" ]]; then
    base_digest=$(grep -o "\"$key\": \"[^\"]*\"" "$baseline" || true)
    new_digest=$(grep -o "\"$key\": \"[^\"]*\"" "$out" || true)
    if [[ "$base_digest" != "$new_digest" ]]; then
      echo "verify: FAIL $name $key drifted: baseline $base_digest vs $new_digest"
      diff -u "$baseline" "$out" || true
      exit 1
    fi
  fi
  if diff -u "$baseline" "$out" >/dev/null 2>&1; then
    echo "verify: $name matches baseline exactly"
  elif [[ "$mode" == exact ]]; then
    echo "verify: FAIL $name drifted from $baseline:"
    diff -u "$baseline" "$out" || true
    exit 1
  else
    echo "verify: $name $key matches baseline ($base_digest)"
    echo "verify: WARN wall-clock fields drifted from $baseline (expected between runs):"
    diff -u "$baseline" "$out" || true
  fi
}

# Paper outputs: Table I, Fig. 3, Table III, Table II, the ROC analysis,
# the ablations and the attack taxonomy are pure functions of the seeded
# synthesis, training and the cost model. Each is committed as its
# binary's stdout at default flags (timings go to stderr), so any drift
# fails.
for paper_out in table1 fig3 table3 table2 roc ablation attacks; do
  baseline_gate "$paper_out" "" exact "results/$paper_out.txt" "target/verify/$paper_out.txt" \
    sh -c "cargo run --release -q -p bench --bin $paper_out > target/verify/$paper_out.txt"
done
# The paper's four attacks again, each under Gilbert–Elliott burst loss
# with ARQ, salvage and the watchdog on: the attacker's intercept and
# the reliability stack together, diffed exactly like the table above.
baseline_gate "attacks --faults" "" exact results/attacks_faults.txt target/verify/attacks_faults.txt \
  sh -c "cargo run --release -q -p bench --bin attacks -- --faults > target/verify/attacks_faults.txt"

# Telemetry gates: the bin exits nonzero if enabling the sink perturbs
# the fleet digest at any thread count, if the merged fleet telemetry
# depends on the thread count, or if the observed per-stage span cycles
# disagree with the cost model. Its outputs then go through two gates.
# The per-device event trace is deterministic, so any drift fails. So is
# the pipeline table (fleet digest, per-version model cycles, ms,
# current, lifetime and observed spans) except its one "overhead" line,
# whose record-path timings are wall-clock noise: that line is left out
# and the rest must match exactly.
tele_json=target/verify/TELEMETRY_pipeline.json
tele_trace=target/verify/TELEMETRY_trace.ndjson
cargo run --release -q -p bench --bin telemetry -- \
  --out-json "$tele_json" --out-trace "$tele_trace"
baseline_gate "telemetry trace" "" exact \
  results/TELEMETRY_trace.ndjson "$tele_trace" true
tele_body() {
  grep -v '^ *"overhead": ' "$1"
}
if ! diff -u <(tele_body results/TELEMETRY_pipeline.json) <(tele_body "$tele_json"); then
  echo "verify: FAIL telemetry pipeline drifted from results/TELEMETRY_pipeline.json"
  exit 1
fi
echo "verify: telemetry pipeline matches baseline (overhead timings aside)"

# Fleet throughput with the baseline's parameters. The report digest
# is hard-gated; timings are warn-only.
baseline_gate "fleet bench" digest warn \
  results/BENCH_fleet_baseline.json target/verify/BENCH_fleet.json \
  cargo run --release -q -p bench --bin fleet -- \
    --devices 100 --threads 8 --seed 61455 --duration 30 \
    --out target/verify/BENCH_fleet.json

# Slab streaming engine: the 100k-device fleet_xl bench. The bin itself
# exits nonzero if the slab digest differs between 1, 2, and 8 worker
# threads or if the reorder window overflows its bound; the digest must
# also match the committed baseline — it is a pure function of the
# seed, device count, and duration. Timings are warn-only.
xl_out=target/verify/BENCH_fleet_xl.json
baseline_gate "fleet_xl" slab_digest warn results/BENCH_fleet_xl.json "$xl_out" \
  cargo run --release -q -p bench --bin fleet_xl -- \
    --devices 100000 --threads 8 --seed 61455 --duration 30 --out "$xl_out"

# Survival-policy lifetime, diffed against the bin's own committed
# default output, results/BENCH_lifetime.json. The bin itself exits
# nonzero if the lifetime ordering breaks (adaptive < 1.5x Original,
# Reduced outside the ~2x band), the adaptive policy costs more than
# 2 pp of accuracy, a policy snapshot fails to round-trip, or the
# survival-enabled fleet digest moves with the thread count. Every
# field is deterministic, so any drift fails.
baseline_gate "lifetime bench" digest exact \
  results/BENCH_lifetime.json target/verify/BENCH_lifetime.json \
  cargo run --release -q -p bench --bin lifetime -- \
    --out target/verify/BENCH_lifetime.json

# Detector-zoo report: the backend x flavor comparison. Every field is
# derived from seeded training, the cost model, and the resource
# profiler, so any drift fails. (The bin itself exits nonzero if the
# observed telemetry span cycles disagree with the cost model for
# either backend, or if a flavor ladder stops shrinking.)
baseline_gate "detector zoo" "" exact \
  results/DETECTOR_zoo.json target/verify/DETECTOR_zoo.json \
  cargo run --release -q -p bench --bin detector_zoo -- \
    --out target/verify/DETECTOR_zoo.json

# Adversary campaign: the per-attack-class detection matrix (population
# x backend cells, each digest-checked at 1/2/8 threads inside the
# bin). Every field — counts, permille rates, Wilson bounds, digests —
# is a pure function of the seeds, so any drift fails.
baseline_gate "campaign matrix" "" exact \
  results/BENCH_campaign.json target/verify/BENCH_campaign.json \
  cargo run --release -q -p bench --bin campaign -- \
    --out target/verify/BENCH_campaign.json

# Every benchmark workload, at its pinned seed and length. `wearbench
# run` checks every timed round's engine digest against the one pinned
# for it and exits nonzero on a mismatch, so a one-bit drift in
# Reference synthesis (fleet-fidelity, campaign) or in the feature
# front end, link and window assembly (all four) fails this gate as
# well as the benchmark. Its throughput and set-up figures are
# wall-clock and are not gated here.
for workload in fleet-turbo fleet-fidelity hostile-link campaign; do
  wb_out=target/verify/wearbench_$workload.txt
  if ! cargo run --release -q --offline \
      --manifest-path crates/bench/src/bin/wearbench/Cargo.toml -- \
      run --workload "$workload" > "$wb_out"; then
    echo "verify: FAIL wearbench $workload:"
    grep -v '^check ok' "$wb_out" || true
    exit 1
  fi
  echo "verify: wearbench $workload round digests match their pins"
done

# The benchmark's layer replay, at the pinned seed (~3–5 s each):
# `wearbench trace` re-runs sampled devices layer by layer and checks
# that the replay reproduces each device, that the replayed fold equals
# the engine's, and that every dispatched window re-extracts to the
# identical feature vector. Any `check FAILED` line fails the gate.
for workload in hostile-link fleet-fidelity; do
  wb_out=target/verify/wearbench_trace_$workload.txt
  if ! cargo run --release -q --offline \
      --manifest-path crates/bench/src/bin/wearbench/Cargo.toml -- \
      trace --workload "$workload" > "$wb_out" \
      || grep -q '^check FAILED' "$wb_out"; then
    echo "verify: FAIL wearbench trace $workload:"
    grep '^check' "$wb_out" || true
    exit 1
  fi
  echo "verify: wearbench trace $workload replays every layer check"
done

echo "verify: OK"
