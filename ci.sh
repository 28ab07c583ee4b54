#!/usr/bin/env bash
# Repo CI gate: style, lints, and the tier-1 build+test cycle.
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # style + lints only (skip the release build & tests)
#
# Lints run on the crates this repo actively grows (tinyml, rcompss, hpo,
# hpo-bench, rnet, runmetrics, paratrace, cluster, ckpt) plus the workspace
# root package, and rustdoc must build warning-free across the workspace
# (RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace). The frame
# table gate holds DESIGN.md's two frame catalogues to the type bytes in
# crates/net/src/frame.rs, live and retired, number and name, every --flag
# README.md names must be in `hpo-run --help` (rendered from src/cli.rs's
# flag table, whose unit test names a gate for every flag), and
# `Poller::fallback`, an alias for `Poller::new` that only benchmark/ still
# names, must have no caller anywhere else, and no program code outside
# crates/net/src may fill a RecvBuf, arm write interest or accept (the
# connection state machine is rnet::link's alone), and no program code
# outside crates/compss/src/{runtime,metrics}.rs may record an attempt's
# phases or draw its bars (complete_attempt records an ended attempt), and
# each of those ownership stages must catch a line it plants;
# tier-1 is the ROADMAP.md contract, `cargo build --release && cargo test
# -q`, widened to `--workspace` so every crate's unit, property and
# integration suites gate too (tests/bench_trajectory.rs among them: the
# benchmark trajectory BENCH_stackbench.json rises by PR, every point holds
# all 20 end-to-end medians and names a commit that exists), then the last
# three trajectory points side by side and the non-test source line count
# (the number every simplicity PR quotes in CHANGES.md, so it comes from
# here and not from a hand-run), with the lines of examples/ beside it. The
# five pure-virtual-time figure bins (Figs 3-6 and 9) then rerun and must
# rewrite their results/ artefacts byte-for-byte; every example and every
# ablation bin reruns and must print its checked-in results/<name>.txt,
# wall times masked (the list is read from the tree, so a new one without
# that file fails); the
# two real-training figure bins (Figs 7 and 8) rerun too and must reproduce
# the checked-in config, accuracy and epochs_run columns (training is
# deterministic; only task_us, the attempt's exec time, may differ), and
# Fig 7's rerun metrics exposition must declare the same series names as
# its checked-in copy, hold one exec phase sample per trial, and sum the
# trials' task_us to exactly the exec phase's sum.
# Right after them the standalone benchmark package is built against the
# crates and run once in --quick mode (all four workloads verified against
# their oracles) with its Cargo.lock unchanged, so a broken pinned
# signature or a re-lock fails here.
# The overhead bench runs in smoke mode as a regression guard on the
# metrics disabled hot path (must stay ~one relaxed atomic load). The ratio
# gates (crates/bench/tests/ratio_gates.rs, release only) hold overheads to
# the work they ride on, measured in the same process, so a slow box cannot
# fake them and no baseline is read: CPU per no-op task at 100k tasks must
# stay within 2x of 10k (median of three) on a 2-core threaded pool and on
# two one-core loopback daemons, CPU per no-op task of a 20k fan-out on a
# 64-worker threaded pool must stay within 3x of a 2-worker pool's (median
# of three; one wake-up per push, not one per parked worker), and MLP
# training that snapshots every epoch must keep 80% of the epochs/s of the
# same training with snapshots off (median of five alternating pairs), and
# encoding or decoding a staged_net-sized fork snapshot must cost at most 6x
# a copy of its bytes (median of three). The stage-tree smoke reruns the
# loopback grid with --share-prefixes: the trial table must not change,
# the metrics exposition must show hpo_stage_epochs_saved_total > 0, and
# the workers' block caches must have been used (fork snapshots are sized
# by their `Done`, so they leave the inline path at the default threshold).
# The block-cache
# smoke exercises the content-addressed data plane end to end: hit-rate,
# bytes-on-wire bound, threaded-vs-distributed bit-identity, and
# re-fetch after a worker kill.
# Finally a distributed loopback smoke boots two rcompss-worker
# daemons and checks a distributed grid search returns the exact per-trial
# accuracies of the same run on the threaded backend; the telemetry smoke
# re-runs a sweep with --status-addr on the driver and workers, scrapes
# GET /metrics live over bash's /dev/tcp, validates the exposition with
# prom-check, and diffs the execution-span count of the --trace-out trace
# (spans built from the workers' Done stamps) against the trial CSV. The
# sweep-server smoke boots a long-lived rcompss-server with one dialled-out
# and one dial-in worker, has a hostile grid-over-a-continuous-space submit
# rejected as a bad request, submits a sweep over the client CLI, and checks
# the served leaderboard matches the standalone run and the hposerver_
# metric family scrapes clean — and, the long-lived server's leak gate, that once
# the sweep is done the runtime holds no task, no data version and no
# task snapshot (rcompss_live_tasks, rcompss_live_data_versions and
# rcompss_live_snapshot_bytes read 0), and that its scrape carries neither
# of the series the retired telemetry frames fed. Last, the tracked
# artefacts under results/ must be as the run found them.
set -euo pipefail
cd "$(dirname "$0")"

# What `git status` says of the tracked artefacts before any stage runs:
# the last stage fails if a green run left them otherwise.
artefact_status() { git status --porcelain -- results; }
ARTEFACTS_AT_START=$(artefact_status)

# The deterministic columns of a trial CSV: config, accuracy, epochs_run.
# The quoted config label holds commas of its own, so `cut -d,` would split
# inside it. What follows the third column is dropped: task_us is a
# timing, and error a failed trial's message.
trial_table() {
    sed -E 's/^("[^"]*"|[^",]*),([^,]*),([^,]*).*/\1,\2,\3/' "$@"
}

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> frame table: DESIGN.md's catalogues == crates/net/src/frame.rs"
# "<byte> <name>" per live frame, "<byte> -" per retired one; names compared
# without case or underscores (T_HEARTBEAT_ACK is `HeartbeatAck`).
frames_in_code() {
    sed -nE 's/^const T_([A-Z_]+): u8 = ([0-9]+);$/\2 \1/p' crates/net/src/frame.rs \
        | tr -d '_' | tr '[:upper:]' '[:lower:]'
    sed -nE 's/^const RETIRED_TYPES: \[u8; [0-9]+\] = \[(.*)\];$/\1/p' crates/net/src/frame.rs \
        | tr ',' '\n' | awk 'NF {print $1, "-"}'
}
frames_in_design() {
    sed -nE 's/^\| ([0-9]+) \| (`([A-Za-z]+)`|—) \|.*/\1 \3/p' DESIGN.md \
        | awk '{print $1, ($2 == "" ? "-" : tolower($2))}'
}
if ! diff <(frames_in_code | sort -n) <(frames_in_design | sort -n); then
    echo "frame table FAILED: frame.rs (<) and DESIGN.md (>) disagree" >&2
    exit 1
fi
echo "frame table: $(frames_in_code | grep -vc ' -$') live, $(frames_in_code | grep -c ' -$') retired"

echo "==> README flags: every --flag README.md names is in hpo-run --help"
# The help is rendered from src/cli.rs's flag table, whose unit test
# (`every_flag_pair_names_a_live_gate`, in tier-1) holds each (subcommand,
# flag) pair to a test or stage here that sets it. Cargo's flags are not
# hpo-run's.
HELP=$(cargo run --release --quiet --bin hpo-run -- --help)
README_FLAGS=$(grep -oE -- '--[a-z][a-z0-9-]*' README.md | sort -u \
    | grep -vxE -- '--(release|bin|example|workspace|bench|test)')
MISSING=$(for flag in $README_FLAGS; do
    grep -qE -- "(^|[^a-z0-9-])$flag([^a-z0-9-]|\$)" <<< "$HELP" || echo "$flag"
done)
if [ -n "$MISSING" ]; then
    echo "README flags FAILED: README.md names flags hpo-run --help lacks:" $MISSING >&2
    exit 1
fi
echo "README flags: $(wc -w <<< "$README_FLAGS") named, all in --help;" \
    "$(grep -c '^    --' <<< "$HELP") (subcommand, flag) pairs in --help"

echo "==> Poller::fallback: an alias with no caller outside benchmark/"
if git grep -n 'Poller::fallback' -- ':!benchmark' ':!*.md' ':!ci.sh'; then
    echo "Poller::fallback FAILED: called outside benchmark/; call Poller::new" >&2
    exit 1
fi

# The program's source files: test files and benchmark/ are not among them.
program_files() {
    git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' 'src/**/*.rs' | sort -u
}

# Every line of the files that matches the regex $1, each file read up to its
# #[cfg(test)] as the line count below reads it.
owned_hits() {
    local pattern="$1"
    shift
    awk -v pat="$pattern" \
        'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && $0 ~ pat {print FILENAME ":" FNR ": " $0}' "$@"
}

# The five ownership stages below: `owned_by_one STAGE PATTERN WHY PLANT
# FILE...` prints the owned_hits of PATTERN in the files and fails with
# "STAGE FAILED: WHY" if there is one. PLANT is one or more lines, each of
# which the stage must catch, kept for the check after the five.
STAGES=() PATTERNS=() PLANTS=()
owned_by_one() {
    local stage="$1" pattern="$2" why="$3" hits
    STAGES+=("$stage") PATTERNS+=("$pattern") PLANTS+=("$4")
    shift 4
    hits=$(owned_hits "$pattern" "$@")
    if [ -n "$hits" ]; then
        echo "$hits" >&2
        echo "$stage FAILED: $why" >&2
        exit 1
    fi
}

echo "==> one connection: only rnet::link and rnet::poll read, flush, arm write interest and accept"
# Program code outside crates/net/src reaches its sockets through
# rnet::link (Link reads and flushes, Acceptor accepts, dial connects).
owned_by_one "one connection" \
    'fill_from[(]|last_read_short[(]|Interest::READ_WRITE|[.]accept[(][)]' \
    "socket reads, flushes or accepts outside rnet::link" 'l.accept()' \
    $(program_files | grep -v '^crates/net/src/')

echo "==> one attempt report: only the runtime records an attempt's phases and draws its bars"
# A backend hands its report of an ended attempt to complete_attempt once;
# the phase samples and the bars are recorded there, under the core lock, so
# a waiter that sees a value sees them too.
owned_by_one "one attempt report" \
    'phase_(queue|wire|exec|ship)|emit_attempt_spans[(]' \
    "phases recorded or bars drawn outside runtime.rs" 'r.phase_exec' \
    $(program_files | grep -vxE 'crates/compss/src/(runtime|metrics)[.]rs')

echo "==> one trial body: only the Trainer turns a config into training"
# The experiment task and the stage task train a config through one
# hpo::experiment::Trainer: one arch default and train_config_from call, one
# snapshot resume, one counting sink. tinyml's train.rs defines the training
# entry points.
owned_by_one "one trial body" \
    'train_config_from[(]|rcompss::snapshot::(save|load)[(]|train_with_checkpoints[(]|train_segment[(]' \
    "a config trained outside hpo::experiment::Trainer" 'tinyml::train::train_segment()' \
    $(program_files | grep -vxE 'crates/(core/src/experiment|tinyml/src/train)[.]rs')

echo "==> one trial collection: the sweep engine waits on a trial in one place"
# Every trial the runner submits, an experiment or a stage tree's trial,
# joins one pending list, and Evaluation::next collects each as it settles:
# the one wait_any over the list, which reads the trial it picked, is the
# hpo crate's and the binary's only wait.
owned_by_one "one trial collection" \
    'wait_(on|any)[(]' \
    "a trial waited on outside hpo::runner" 'rt.wait_on(h)'$'\n''rt.wait_any(&hs)' \
    $(program_files | grep -E '^(crates/core/)?src/' | grep -vx 'crates/core/src/runner[.]rs')
waits=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t' crates/core/src/runner.rs |
    grep -oE 'wait_(on|on_timed|any)[(]' | sort | tr '\n' ' ')
if [ "$waits" != "wait_any( " ]; then
    echo "one trial collection FAILED: runner.rs waits with '$waits', not one wait_any" >&2
    exit 1
fi

echo "==> sans-IO driver and worker: the distributed backend's decisions read no clock, take no lock, touch no socket"
# driver/state.rs holds every decision the distributed driver makes, and
# worker/state.rs every decision a worker makes for one connection; driver.rs
# and worker.rs around them hold the clocks, the locks and the sockets. The
# properties' harnesses below each file's #[cfg(test)] may time themselves.
owned_by_one "sans-IO driver and worker" \
    'wall_us|Instant|SystemTime|Mutex|[.]lock[(][)]|Atomic|Ordering::|TcpStream|Poller' \
    "a state.rs reads a clock, locks or touches a socket" 'use std::time::Instant;' \
    crates/compss/src/backend/distributed/driver/state.rs \
    crates/compss/src/backend/distributed/worker/state.rs

echo "==> the ownership stages bite: each stage's pattern catches the line it planted"
# A pattern that matches nothing passes every tree. Each stage named lines
# that break its rule; each, written alone to a scratch file, must be a hit.
planted=$(mktemp --suffix=.rs)
for i in "${!STAGES[@]}"; do
    while IFS= read -r plant; do
        printf '%s\n' "$plant" > "$planted"
        if [ -z "$(owned_hits "${PATTERNS[$i]}" "$planted")" ]; then
            rm -f "$planted"
            echo "${STAGES[$i]} FAILED: its pattern lets '$plant' through" >&2
            exit 1
        fi
    done <<< "${PLANTS[$i]}"
done
rm -f "$planted"
echo "${#STAGES[@]} ownership stages, each red on its planted line"

echo "==> cargo clippy (-D warnings)"
cargo clippy -p pycompss-hpo-repro -p tinyml -p rcompss -p hpo -p hpo-bench -p rnet -p runmetrics -p paratrace -p cluster -p ckpt --all-targets -- -D warnings

echo "==> cargo doc (-D warnings): rustdoc must build clean"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

if [[ "${1:-}" == "quick" ]]; then
    echo "ci.sh: quick mode — skipping tier-1 build and tests"
    exit 0
fi

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test --workspace -q"
cargo test --workspace -q

echo "==> benchmark trajectory: the last three points of BENCH_stackbench.json"
cargo test -q --test bench_trajectory -- --nocapture

echo "==> non-test source lines (crates/*/src + src, up to each file's #[cfg(test)])"
program_files | xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}'
echo "examples/*.rs: $(git ls-files 'examples/*.rs' | xargs -r cat | wc -l) lines"

echo "==> allocations per no-op task (the churn_net cell on two loopback workers; budget in the test)"
cargo test -q -p rcompss --test task_allocations -- --nocapture | grep 'allocations per no-op task'

echo "==> context switches per no-op task (the same cell on one CPU; bounds in the test: debug, release)"
cargo test -q -p rcompss --test task_switches -- --nocapture | grep 'context switches per no-op task'
cargo test -q --release -p rcompss --test task_switches -- --nocapture release_no_op \
    | grep 'context switches per no-op task'

echo "==> deterministic figures: virtual-time bins rewrite results/ byte-identically"
for fig in fig3_task_graph fig4_single_task fig5_single_node fig6_multinode fig9_time_vs_cores; do
    cargo run --release --quiet -p hpo-bench --bin "$fig" > /dev/null
done
git diff --exit-code -- results/fig3_task_graph.dot 'results/fig4_single_task.*' \
    'results/fig5_single_node.*' 'results/fig6*' results/fig9_time_vs_cores.csv

echo "==> programs: every example and ablation bin prints its checked-in results/<name>.txt"
# What each prints is virtual time or seeded training, except the wall time
# in a report summary (" in 0.3s"), which is masked here and in the file.
# A program that exits non-zero (a failed built-in assertion) fails too.
wall_masked() { sed -E 's/ in [0-9]+[.][0-9]+s/ in <wall>s/g'; }
PROGRAM_OUT=$(mktemp)
PROGRAMS=(examples/*.rs crates/bench/src/bin/ablation_*.rs)
for src in "${PROGRAMS[@]}"; do
    name=$(basename "$src" .rs)
    case "$src" in
        examples/*) cargo run --release --quiet --example "$name" > "$PROGRAM_OUT" ;;
        *) cargo run --release --quiet -p hpo-bench --bin "$name" > "$PROGRAM_OUT" ;;
    esac
    if ! diff "results/$name.txt" <(wall_masked < "$PROGRAM_OUT"); then
        echo "programs FAILED: $name printed (>) other than results/$name.txt (<)" >&2
        exit 1
    fi
done
rm -f "$PROGRAM_OUT"
echo "programs: ${#PROGRAMS[@]} outputs as checked in"

echo "==> real-training figures: Figs 7 and 8 reproduce the checked-in accuracy columns"
# Each bin trains its 27-config grid for real and rewrites its CSV (fig7
# also its .prom / .metrics.jsonl, which hold timings). The checked-in files
# are put back afterwards so a green run leaves the tree clean; on a
# mismatch the rerun's files stay in results/ for `git diff`.
FIG_KEEP=$(mktemp -d)
cp results/fig7_mnist_hpo.* results/fig8_cifar_hpo.csv "$FIG_KEEP/"
for fig in fig7_mnist_hpo fig8_cifar_hpo; do
    cargo run --release --quiet -p hpo-bench --bin "$fig" > /dev/null
    if ! diff <(trial_table "$FIG_KEEP/$fig.csv") <(trial_table "results/$fig.csv"); then
        echo "$fig FAILED: accuracy columns differ from the checked-in results/$fig.csv" >&2
        exit 1
    fi
done
# Fig 7's exposition must declare the series the code registers: names
# only, since the values are timings.
prom_types() { awk '$1 == "#" && $2 == "TYPE" {print $3}' "$1" | sort; }
if ! diff <(prom_types "$FIG_KEEP/fig7_mnist_hpo.prom") <(prom_types results/fig7_mnist_hpo.prom); then
    echo "fig7 FAILED: series in the checked-in (<) and rerun (>) .prom differ" >&2
    exit 1
fi
# The threaded runtime times every attempt's body: 27 trials, 27 samples.
if ! grep -qxF 'rcompss_task_phase_us_count{phase="exec"} 27' results/fig7_mnist_hpo.prom; then
    echo "fig7 FAILED: the rerun's .prom lacks one exec phase sample per trial" >&2
    exit 1
fi
# One clock: a trial's task_us is its attempt's exec time, so the sums agree.
prom_value() { awk -v series="$2" '$1 == series {print $2}' "$1"; }
trial_sum=$(prom_value results/fig7_mnist_hpo.prom hpo_trial_task_us_sum)
exec_sum=$(prom_value results/fig7_mnist_hpo.prom 'rcompss_task_phase_us_sum{phase="exec"}')
if [ -z "$trial_sum" ] || [ "$trial_sum" != "$exec_sum" ]; then
    echo "fig7 FAILED: hpo_trial_task_us_sum ($trial_sum) != the exec phase sum ($exec_sum)" >&2
    exit 1
fi
cp "$FIG_KEEP"/* results/
rm -rf "$FIG_KEEP"

echo "==> stackbench (quick): benchmark/ still compiles, verifies, and keeps its lock"
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run --quick
git diff --exit-code benchmark/Cargo.lock

echo "==> overhead bench (smoke): disabled-path regression guard"
cargo run --release -p hpo-bench --bin overhead_tracing -- smoke

echo "==> ratio gates: CPU per task flat in graph size and pool width, snapshots cheap against their epochs, the snapshot codec at copy speed"
# The snapshot gate fsyncs one snapshot per epoch in the temp directory, so
# its ratio depends on that filesystem (tmpfs against a real disk).
echo "temp directory ${TMPDIR:-/tmp} is on $(stat -f -c %T "${TMPDIR:-/tmp}")"
cargo test --release -q -p hpo-bench --test ratio_gates -- --nocapture

echo "==> block-cache smoke: shared dataset ships once per worker, not per trial"
# Loopback 2-worker sweep over a 32 KiB shared dataset: asserts worker
# cache hit-rate > 0, rnet_bytes_sent below the naive trials×dataset
# bound (and within 2×workers×dataset + control-plane slack), results
# bit-identical to the threaded backend, and block inputs re-fetching
# cleanly after a mid-run worker kill.
cargo test --release -p rcompss --test distributed -q -- block_plane killed_worker_block

echo "==> distributed loopback smoke: 2 workers, distributed == threaded"
# One core per worker and eight configs: each worker runs one trial while
# it holds the next, dispatched ahead, so the diff covers that path too.
SMOKE_DIR=$(mktemp -d)
WORKER_PIDS=()
cleanup() {
    for pid in "${WORKER_PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
cat > "$SMOKE_DIR/space.json" <<'EOF'
{
  "optimizer": ["Adam", "SGD"],
  "num_epochs": [1, 2],
  "batch_size": [32, 64]
}
EOF
./target/release/rcompss-worker --listen 127.0.0.1:7191 --name ci-w0 --samples 200 \
    --cores 1 --status-addr 127.0.0.1:7193 &
WORKER_PIDS+=($!)
./target/release/rcompss-worker --listen 127.0.0.1:7192 --name ci-w1 --samples 200 \
    --cores 1 --status-addr 127.0.0.1:7194 &
WORKER_PIDS+=($!)
sleep 1
./target/release/hpo-run --config "$SMOKE_DIR/space.json" --backend distributed \
    --workers 127.0.0.1:7191,127.0.0.1:7192 --samples 200 \
    --out "$SMOKE_DIR/distributed.csv"
./target/release/hpo-run --config "$SMOKE_DIR/space.json" --backend threaded \
    --samples 200 --out "$SMOKE_DIR/threaded.csv"
# Per-trial config + accuracy + epochs must match bit-for-bit; only the
# timing column may differ.
if ! diff <(trial_table "$SMOKE_DIR/distributed.csv" | sort) \
          <(trial_table "$SMOKE_DIR/threaded.csv" | sort); then
    echo "distributed loopback smoke FAILED: trial results diverge" >&2
    exit 1
fi
echo "distributed == threaded: trial tables identical"

# GET <path> from 127.0.0.1:<port> over bash's /dev/tcp, body on stdout.
scrape() {
    local port="$1" path="$2"
    exec 3<>"/dev/tcp/127.0.0.1/$port" || return 1
    printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
    sed '1,/^\r*$/d' <&3
    exec 3<&- 3>&-
}

echo "==> stage-tree smoke: --share-prefixes is bit-identical and saves epochs"
# Same grid again, this time prefix-deduped over the same two workers
# (their registries carry the stage task): the per-trial table must match
# the naive run byte-for-byte in the deterministic columns — same rows,
# same order — and the run's metrics exposition must report epochs saved.
./target/release/hpo-run --config "$SMOKE_DIR/space.json" --backend distributed \
    --workers 127.0.0.1:7191,127.0.0.1:7192 --samples 200 --share-prefixes \
    --out "$SMOKE_DIR/staged.csv" --metrics-out "$SMOKE_DIR/stage_metrics"
if ! diff <(trial_table "$SMOKE_DIR/staged.csv") \
          <(trial_table "$SMOKE_DIR/threaded.csv"); then
    echo "stage-tree smoke FAILED: --share-prefixes changed the trial table" >&2
    exit 1
fi
./target/release/prom-check < "$SMOKE_DIR/stage_metrics.prom"
SAVED=$(awk '$1 == "hpo_stage_epochs_saved_total" {print $2}' "$SMOKE_DIR/stage_metrics.prom")
if [ "${SAVED:-0}" -lt 1 ]; then
    echo "stage-tree smoke FAILED: hpo_stage_epochs_saved_total=${SAVED:-absent} after a shared sweep" >&2
    exit 1
fi
FORKS=$(awk '$1 == "hpo_prefix_forks_total" {print $2}' "$SMOKE_DIR/stage_metrics.prom")
# Nothing sized the fork snapshots and the inline threshold is the default:
# they reach the children through the workers' block caches only because a
# task return is sized by what its `Done` carried.
BLOCK_USES=$({ scrape 7193 /metrics; scrape 7194 /metrics; } | awk '
    $1 == "rcompss_block_cache_hits_total" || $1 == "rcompss_block_cache_misses_total" {n += $2}
    END {print n + 0}')
if [ "$BLOCK_USES" -lt 1 ]; then
    echo "stage-tree smoke FAILED: no fork snapshot went through a worker block cache" >&2
    exit 1
fi
echo "stage-tree smoke: staged == naive, $SAVED epochs saved across $FORKS forks," \
    "$BLOCK_USES block-cache uses"

echo "==> telemetry smoke: live /metrics scrape + trace/trial diff"
# Many more epochs than the diff smoke: the run must outlive the first
# successful mid-flight scrape. At 200 samples an epoch takes well under a
# millisecond, so 10-20 epoch trials ended in ≈ 30 ms, before the 50 ms
# retry loop got its turn; the printed wall times show the margin.
cat > "$SMOKE_DIR/space_telemetry.json" <<'EOF'
{
  "optimizer": ["Adam", "SGD"],
  "num_epochs": [300, 600],
  "batch_size": [32]
}
EOF
TELEMETRY_T0=$(date +%s%N)
./target/release/hpo-run --config "$SMOKE_DIR/space_telemetry.json" --backend distributed \
    --workers 127.0.0.1:7191,127.0.0.1:7192 --samples 200 \
    --status-addr 127.0.0.1:7195 --trace-out "$SMOKE_DIR/smoke.trace.json" \
    --out "$SMOKE_DIR/telemetry.csv" &
DRIVER_PID=$!
# Scrape the driver while the sweep is in flight: retry until the status
# endpoint answers (it exists only for the lifetime of the run).
DRIVER_METRICS=""
for _ in $(seq 1 200); do
    if DRIVER_METRICS=$(scrape 7195 /metrics 2>/dev/null) && [ -n "$DRIVER_METRICS" ]; then
        break
    fi
    if ! kill -0 "$DRIVER_PID" 2>/dev/null; then
        break
    fi
    sleep 0.05
done
if [ -z "$DRIVER_METRICS" ]; then
    echo "telemetry smoke FAILED: never scraped the driver /metrics mid-run" >&2
    exit 1
fi
SCRAPED_MS=$((($(date +%s%N) - TELEMETRY_T0) / 1000000))
[ "$(scrape 7195 /healthz 2>/dev/null || true)" = "ok" ] \
    || echo "note: /healthz raced the end of the run (non-fatal)"
echo "$DRIVER_METRICS" | ./target/release/prom-check
if ! echo "$DRIVER_METRICS" | grep -q 'rcompss_task_phase_us'; then
    echo "telemetry smoke FAILED: driver scrape lacks task_phase_us histograms" >&2
    exit 1
fi
wait "$DRIVER_PID"
echo "telemetry smoke: driver scraped at ${SCRAPED_MS} ms, driver wall time" \
    "$((($(date +%s%N) - TELEMETRY_T0) / 1000000)) ms"
# Worker daemons outlive the run: their endpoints must still answer with a
# valid exposition of worker-local counters.
WORKER_METRICS=$(scrape 7193 /metrics)
echo "$WORKER_METRICS" | ./target/release/prom-check
if ! echo "$WORKER_METRICS" | grep -q 'worker_tasks_executed_total'; then
    echo "telemetry smoke FAILED: worker scrape lacks worker_tasks_executed_total" >&2
    exit 1
fi
# Block-cache series are preregistered: present (if only at zero) on
# every worker scrape, so dashboards can rely on them.
if ! echo "$WORKER_METRICS" | grep -q 'rcompss_block_cache_hits_total'; then
    echo "telemetry smoke FAILED: worker scrape lacks block-cache series" >&2
    exit 1
fi
# The Chrome trace must hold exactly one execution span per trial
# in the CSV (4 grid points, no retries on a healthy loopback run).
SPANS=$(grep -c '"cat":"task"' "$SMOKE_DIR/smoke.trace.json")
TRIALS=$(($(wc -l < "$SMOKE_DIR/telemetry.csv") - 1))
if [ "$SPANS" -ne "$TRIALS" ]; then
    echo "telemetry smoke FAILED: $SPANS exec spans != $TRIALS journaled trials" >&2
    exit 1
fi
echo "telemetry smoke: scrapes valid, $SPANS exec spans == $TRIALS trials"

echo "==> sweep-server smoke: multi-tenant daemon, client CLI, /metrics"
# Long-lived rcompss-server owns a mixed pool: it dials out to one worker
# and one worker dials in. A tenant submits the same grid over the client
# CLI and streams the leaderboard to CSV. The served per-trial table must
# match the standalone threaded run bit-for-bit, and the scrape must expose
# a valid hposerver_ family.
./target/release/rcompss-worker --listen 127.0.0.1:7297 --name srv-w0 --samples 200 &
WORKER_PIDS+=($!)
./target/release/rcompss-server --listen 127.0.0.1:7296 --workers 127.0.0.1:7297 \
    --expect-workers 1 --samples 200 --status-addr 127.0.0.1:7295 &
WORKER_PIDS+=($!)
./target/release/rcompss-worker --listen 127.0.0.1:7298 --name srv-w1 --samples 200 \
    --dial 127.0.0.1:7296 &
WORKER_PIDS+=($!)
# The pool forms (the dial-out and the dial-in are each retried for a
# while), then the status endpoint comes up: poll it as the readiness gate.
SERVER_UP=""
for _ in $(seq 1 400); do
    if SERVER_UP=$(scrape 7295 /metrics 2>/dev/null) && [ -n "$SERVER_UP" ]; then
        break
    fi
    sleep 0.05
done
if [ -z "$SERVER_UP" ]; then
    echo "sweep-server smoke FAILED: server never became ready" >&2
    exit 1
fi
# A hostile request first: a grid over a continuous space is refused at
# admission with a bad-request reject (code 2), and the honest submit and
# the diff below show the daemon still serves every tenant.
printf '{"lr": {"uniform": [0.1, 1.0]}}' > "$SMOKE_DIR/continuous.json"
if ./target/release/hpo-run submit --server 127.0.0.1:7296 --tenant mallory \
    --config "$SMOKE_DIR/continuous.json" --name hostile --algo grid \
    2> "$SMOKE_DIR/hostile.err"; then
    echo "sweep-server smoke FAILED: a grid over a continuous space was admitted" >&2
    exit 1
fi
if ! grep -q "rejected (code 2): grid search needs discrete domains" "$SMOKE_DIR/hostile.err"; then
    echo "sweep-server smoke FAILED: the hostile submit's error does not name the bad request:" >&2
    cat "$SMOKE_DIR/hostile.err" >&2
    exit 1
fi
./target/release/hpo-run submit --server 127.0.0.1:7296 --tenant ci \
    --config "$SMOKE_DIR/space.json" --name ci-sweep --algo grid \
    --out "$SMOKE_DIR/served.csv"
# Served leaderboard == standalone run: config, accuracy, epochs columns.
if ! diff <(trial_table "$SMOKE_DIR/served.csv" | sort) \
          <(trial_table "$SMOKE_DIR/threaded.csv" | sort); then
    echo "sweep-server smoke FAILED: served leaderboard diverges from standalone" >&2
    exit 1
fi
SERVER_METRICS=$(scrape 7295 /metrics)
echo "$SERVER_METRICS" | ./target/release/prom-check
for series in hposerver_sweeps_active hposerver_sweeps_queued \
              hposerver_sweeps_completed_total hposerver_sweeps_rejected_total; do
    if ! echo "$SERVER_METRICS" | grep -q "$series"; then
        echo "sweep-server smoke FAILED: scrape lacks $series" >&2
        exit 1
    fi
done
COMPLETED=$(echo "$SERVER_METRICS" | awk '$1 == "hposerver_sweeps_completed_total" {print $2}')
if [ "${COMPLETED:-0}" -lt 1 ]; then
    echo "sweep-server smoke FAILED: hposerver_sweeps_completed_total=$COMPLETED after a finished sweep" >&2
    exit 1
fi
# The leak gate: a finished sweep has given back every handle it made and
# all of its tasks are retired, their snapshots with them, so an idle
# server holds nothing.
for series in rcompss_live_tasks rcompss_live_data_versions rcompss_live_snapshot_bytes; do
    LIVE=$(echo "$SERVER_METRICS" | awk -v s="$series" '$1 == s {print $2}')
    if [ "${LIVE:-absent}" != "0" ]; then
        echo "sweep-server smoke FAILED: $series=${LIVE:-absent} after the sweep finished" >&2
        exit 1
    fi
done
# The daemon runs untraced and no worker ships it telemetry: the two series
# those frames fed are gone from the scrape, not merely zero.
if echo "$SERVER_METRICS" | grep -Eq 'rnet_(telemetry_bytes_total|last_stats_us)'; then
    echo "sweep-server smoke FAILED: scrape still carries a retired telemetry series" >&2
    exit 1
fi
echo "sweep-server smoke: served == standalone, $COMPLETED sweep(s) completed, nothing left live"

echo "==> tracked artefacts: results/ as the run found them"
if [ "$(artefact_status)" != "$ARTEFACTS_AT_START" ]; then
    echo "tracked artefacts FAILED: a stage left them changed; git status now reads:" >&2
    artefact_status >&2
    exit 1
fi

echo "ci.sh: all green"
