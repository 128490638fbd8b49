#!/usr/bin/env bash
# Full local gate: formatting, lints, build, and the test suite.
# Run from the workspace root before sending a change for review.
# Every workspace cargo command passes --locked, so a Cargo.lock that no
# longer matches the manifests fails the gate instead of being rewritten.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps --quiet

echo "== cargo build --release =="
cargo build --locked --workspace --release

echo "== cargo test =="
cargo test --locked --workspace --release -q

echo "== deterministic replay smoke test =="
# The fault sweep writes only simulated quantities, so the same build must
# produce byte-identical JSONL on every run — including across worker
# counts, since the sharded runner merges results in cell-index order. A
# diff here means something non-deterministic (wall clock, hash order,
# global RNG, merge order) leaked into the tuning pipeline.
# The first run must also reproduce the committed file: this pins RelM,
# GBO and DDPG under profile corruption across versions, which no other
# cross-version check covers.
replay_dir="$(mktemp -d)"
trap 'rm -rf "$replay_dir"' EXIT
cp results/fig05_fault_sweep.jsonl "$replay_dir/committed.jsonl"
cargo run --locked --release -q -p relm-experiments --bin fig05_fault_sweep -- \
  --no-cache --workers 1 >/dev/null
diff "$replay_dir/committed.jsonl" results/fig05_fault_sweep.jsonl \
  || { echo "replay smoke test FAILED: sweep output differs from the committed results/fig05_fault_sweep.jsonl" >&2; exit 1; }
cp results/fig05_fault_sweep.jsonl "$replay_dir/first.jsonl"
cargo run --locked --release -q -p relm-experiments --bin fig05_fault_sweep -- \
  --no-cache --workers 8 >/dev/null
diff "$replay_dir/first.jsonl" results/fig05_fault_sweep.jsonl \
  || { echo "replay smoke test FAILED: sweep output depends on worker count" >&2; exit 1; }
echo "replay OK: results/fig05_fault_sweep.jsonl matches the committed file and is byte-identical across 1/8 workers"

echo "== evalcache smoke test =="
# A cold run populates a fresh persistent cache; a warm rerun must replay
# from it (nonzero hits, zero misses) and still produce the byte-identical
# output file. This is the cache's end-to-end contract: memoization is
# invisible in the results. The cold run starts from a store file of the
# previous version (2), which it must ignore and replace: the warm run's
# zero misses prove the replacement.
cache_dir="$(mktemp -d)"
trap 'rm -rf "$replay_dir" "$cache_dir"' EXIT
echo '{"kind":"relm-evalcache","version":2}' > "$cache_dir/cache.jsonl"
cargo run --locked --release -q -p relm-experiments --bin fig05_fault_sweep -- \
  --cache-file "$cache_dir/cache.jsonl" --workers 8 >/dev/null
cp results/fig05_fault_sweep.jsonl "$cache_dir/cold.jsonl"
warm_out="$(cargo run --locked --release -q -p relm-experiments --bin fig05_fault_sweep -- \
  --cache-file "$cache_dir/cache.jsonl" --workers 8)"
diff "$cache_dir/cold.jsonl" results/fig05_fault_sweep.jsonl \
  || { echo "evalcache smoke test FAILED: warm-cache output differs from cold" >&2; exit 1; }
warm_hits="$(printf '%s\n' "$warm_out" | sed -n 's/^evalcache: hits=\([0-9]*\).*/\1/p')"
[ -n "$warm_hits" ] && [ "$warm_hits" -gt 0 ] \
  || { echo "evalcache smoke test FAILED: warm run reported no cache hits" >&2; exit 1; }
printf '%s\n' "$warm_out" | grep -q 'evalcache: hits=[0-9]* misses=0 ' \
  || { echo "evalcache smoke test FAILED: warm run still missed the cache" >&2; exit 1; }
echo "evalcache OK: warm rerun replayed $warm_hits evaluations with byte-identical output"

# The drain writes every session's checkpoint into one log,
# <dir>/drain.ckpt.jsonl, and after a clean drain it is the directory's
# only file: every eviction checkpoint (<session>.ckpt.json) was consumed
# by its resume. The log's header counts the sessions, and the log holds
# one record (a head line and a payload line) per session.
check_drain_log() {
  local dir="$1" want="$2" step="$3" log="$1/drain.ckpt.jsonl" files stale header records
  files="$(ls "$dir")"
  stale="$(ls "$dir" | grep -c '\.ckpt\.json$' || true)"
  [ "$files" = "drain.ckpt.jsonl" ] && [ "$stale" -eq 0 ] \
    || { echo "$step FAILED: expected only drain.ckpt.jsonl in $dir, found: $(printf '%s' "$files" | tr '\n' ' ')" >&2; exit 1; }
  header="$(head -n 1 "$log" | sed -n 's/^{"kind":"relm-checkpoint-log",.*"sessions":\([0-9]*\)}$/\1/p')"
  records="$(grep -c '^{"session":' "$log" || true)"
  [ "$header" = "$want" ] && [ "$records" -eq "$want" ] \
    || { echo "$step FAILED: expected $want sessions in the drain log; its header counts ${header:-none}, it holds $records records" >&2; exit 1; }
}

echo "== serve smoke test =="
# Start the tuning service, drive a fleet of concurrent sessions through
# the TCP frontend, drain, and hold the serving layer to its headline
# guarantees: (1) per-session histories are byte-identical between a
# serial run and 8 workers under 8 concurrent clients — with the
# telemetry plane fully on (tracing, a concurrent Metrics scraper, the
# flight recorder), (2) the drain checkpoints every session with zero
# lost or duplicated evaluations (serve_load reconciles the drain report
# against the obs counters, the mid-load scrapes, and the flight dumps on
# disk, and aborts on any mismatch).
serve_dir="$(mktemp -d)"
trap 'rm -rf "$replay_dir" "$cache_dir" "$serve_dir"' EXIT
cargo run --locked --release -q -p relm-experiments --bin serve_load -- \
  --workers 1 --clients 1 --sessions 12 --steps 4 --guided 2 \
  --scrape --flightrec-dir "$serve_dir/flight1" \
  --out "$serve_dir/serial.jsonl" --checkpoint-dir "$serve_dir/ckpt1"
cargo run --locked --release -q -p relm-experiments --bin serve_load -- \
  --workers 8 --clients 8 --sessions 12 --steps 4 --guided 2 \
  --scrape --flightrec-dir "$serve_dir/flight8" \
  --out "$serve_dir/parallel.jsonl" --checkpoint-dir "$serve_dir/ckpt8"
diff "$serve_dir/serial.jsonl" "$serve_dir/parallel.jsonl" \
  || { echo "serve smoke test FAILED: histories depend on worker count" >&2; exit 1; }
# Each drain wrote one log of 12 records into its checkpoint directory,
# and nothing else.
check_drain_log "$serve_dir/ckpt1" 12 "serve smoke test"
check_drain_log "$serve_dir/ckpt8" 12 "serve smoke test"
# The drain freezes one flight dump per session (plus one per censored
# evaluation); serve_load already verified each dump parses and
# checksums, so here just pin the drain-dump count.
drain_dumps="$(ls "$serve_dir/flight8" | grep -c -- '-drain-')"
[ "$drain_dumps" -eq 12 ] \
  || { echo "serve smoke test FAILED: expected 12 drain flight dumps, found $drain_dumps" >&2; exit 1; }
echo "serve OK: 12 sessions (incl. GP-guided steps) byte-identical across 1/8 workers under a live scraper, all checkpointed into one drain log and flight-dumped on drain"

echo "== fleet smoke test =="
# Same load, but evaluated by a 3-worker fleet with one worker armed to
# crash silently right after acking its first task. The monitor must
# detect the death and reassign at most once, serve_load reconciles the
# drain tally's reassignment count against the fleet.reassignments
# counter (it aborts on any mismatch, double commit, or lost
# evaluation), and the output must stay byte-identical to the serial
# no-fleet run above — worker death is invisible to the histories.
cargo run --locked --release -q -p relm-experiments --bin serve_load -- \
  --clients 4 --sessions 12 --steps 4 --guided 2 \
  --fleet 3 --fleet-kill 1 --out "$serve_dir/fleet.jsonl"
diff "$serve_dir/serial.jsonl" "$serve_dir/fleet.jsonl" \
  || { echo "fleet smoke test FAILED: histories depend on fleet/worker death" >&2; exit 1; }
echo "fleet OK: 12 sessions byte-identical under a 3-worker fleet with a mid-run kill, reassignment books reconciled"

echo "== soak smoke test =="
# Heavy-traffic rehearsal: a phase-barriered overload-and-recover run
# with priority classes and forced idle-session eviction on a 1-worker
# pool. serve_load --soak asserts internally that every settled session
# evicts and resumes, p99 stays inside the SLO bound, and the drain
# report's eviction/pushback tallies reconcile exactly against the obs
# counters. Here we additionally pin the headline invariant: the
# histories are byte-identical to a 2-worker, never-evicting run of the
# same specs — eviction and pool size decide when an evaluation runs,
# never what it computes.
cargo run --locked --release -q -p relm-experiments --bin serve_load -- \
  --workers 2 --clients 2 --sessions 8 --steps 4 \
  --out "$serve_dir/soak_base.jsonl"
cargo run --locked --release -q -p relm-experiments --bin serve_load -- \
  --soak --workers 1 --clients 4 --sessions 8 --steps 4 \
  --evict-after 6 --checkpoint-dir "$serve_dir/soak_ckpt" --slo-p99-ms 60000 \
  --out "$serve_dir/soak.jsonl"
diff "$serve_dir/soak_base.jsonl" "$serve_dir/soak.jsonl" \
  || { echo "soak smoke test FAILED: histories depend on eviction or pool size" >&2; exit 1; }
# Every eviction checkpoint was consumed by its resume, and the drain
# logged all 8 sessions.
check_drain_log "$serve_dir/soak_ckpt" 8 "soak smoke test"
echo "soak OK: 8 sessions byte-identical under forced eviction on a 1-worker pool, SLO and drain books reconciled, one drain log of 8 records"

echo "== surrogate perf smoke test =="
# The fast surrogate kernels must be invisible in the traces: the
# workspace tests above prove incremental refits are bit-identical to the
# from-scratch path, and the convergence driver must emit byte-identical
# JSONL whether its (policy, rep) cells run on 1 worker or 8. The serial
# exact and sparse traces must also match recorded SHA-256 digests, which
# pins every BO/GBO proposal of fig20 across versions; only a change that
# means to alter tuning histories updates them.
fig20_exact_sha=a17e682cf81a2d9baa7b46dfd11ee4ef25e2289a0cc76632bcc663e581a93f1b
fig20_sparse_sha=f642e30c8268efcbdedbb2d76b9845c11e7f51cdbb841d06be6b1ce7f5e29b5d
check_digest() {
  local got
  got="$(sha256sum "$1" | cut -d' ' -f1)"
  [ "$got" = "$2" ] \
    || { echo "$3 FAILED: $1 has sha256 $got, expected $2" >&2; exit 1; }
}
surrogate_dir="$(mktemp -d)"
trap 'rm -rf "$replay_dir" "$cache_dir" "$serve_dir" "$surrogate_dir"' EXIT
cargo run --locked --release -q -p relm-experiments --bin fig20_convergence -- \
  --workers 1 --out "$surrogate_dir/t1.jsonl" >/dev/null
cargo run --locked --release -q -p relm-experiments --bin fig20_convergence -- \
  --workers 8 --out "$surrogate_dir/t8.jsonl" >/dev/null
diff "$surrogate_dir/t1.jsonl" "$surrogate_dir/t8.jsonl" \
  || { echo "surrogate smoke test FAILED: convergence depends on workers" >&2; exit 1; }
check_digest "$surrogate_dir/t1.jsonl" "$fig20_exact_sha" "surrogate smoke test"
echo "surrogate OK: fig20 convergence byte-identical across 1/8 workers and to its pinned digest"

echo "== training-overhead pin test =="
# The pins above cover RelM, GBO and DDPG under faults (fig05) and BO/GBO
# proposals (fig20), but no fault-free DDPG training run and no
# exhaustive-search baseline. Fig. 16 runs RelM, GBO, BO, DDPG and the
# exhaustive baseline through TuningEnv; its stdout must match a recorded
# SHA-256 digest. The digest, not results/fig16_training_overheads.txt,
# is the reference: that file predates later fixes.
fig16_sha=cde0be899f15fc38606bb1140bcb2bbdd6f5fdb2f4f0309e259ff39c5112f62f
cargo run --locked --release -q -p relm-experiments --bin fig16_training_overheads \
  > "$surrogate_dir/fig16.txt"
check_digest "$surrogate_dir/fig16.txt" "$fig16_sha" "training-overhead pin test"
echo "training-overhead OK: fig16 output matches its pinned digest"

echo "== sparse surrogate smoke test =="
# The large-n inducing-subset path holds the same determinism contract.
# The workspace tests above already pin two parts of it: below its
# threshold the sparse policy is bitwise-invisible (gp and bo unit tests),
# and the n=500 sparse posterior and EI proposal match a digest recorded
# across versions (relm-surrogate's tests/sparse_pin.rs). Here the sparse
# fig20 trace must be byte-identical across sharding workers — a
# different trace than exact, but equally deterministic — and match its
# own pinned digest.
cargo run --locked --release -q -p relm-experiments --bin fig20_convergence -- \
  --sparse --workers 1 --out "$surrogate_dir/sp1.jsonl" >/dev/null
cargo run --locked --release -q -p relm-experiments --bin fig20_convergence -- \
  --sparse --workers 8 --out "$surrogate_dir/sp8.jsonl" >/dev/null
diff "$surrogate_dir/sp1.jsonl" "$surrogate_dir/sp8.jsonl" \
  || { echo "sparse smoke test FAILED: sparse convergence depends on workers" >&2; exit 1; }
check_digest "$surrogate_dir/sp1.jsonl" "$fig20_sparse_sha" "sparse smoke test"
echo "sparse OK: sparse fig20 trace byte-identical across 1/8 workers and to its pinned digest (the n=500 posterior is pinned across versions by the tier-1 test sparse_pin)"

echo "== warm-start smoke test =="
# Cross-session memory end to end through the serving layer: a cold
# session runs and drains (digest ingested into the store), then a
# warm-started session on a fresh seed retrieves a prior and must reach
# within 5% of the cold run's best in strictly fewer evaluations. The
# binary reconciles the memory.* counters (ingested/retrievals/prior_obs)
# and prints one line of simulated quantities only — so two runs must be
# byte-identical.
warm_dir="$(mktemp -d)"
trap 'rm -rf "$replay_dir" "$cache_dir" "$serve_dir" "$surrogate_dir" "$warm_dir"' EXIT
cargo run --locked --release -q -p relm-experiments --bin fig_warmstart -- --smoke \
  > "$warm_dir/first.txt"
grep -q '^warmstart: ingested=1 retrievals=1 ' "$warm_dir/first.txt" \
  || { echo "warm-start smoke test FAILED: counters did not reconcile" >&2; cat "$warm_dir/first.txt" >&2; exit 1; }
cargo run --locked --release -q -p relm-experiments --bin fig_warmstart -- --smoke \
  > "$warm_dir/second.txt"
diff "$warm_dir/first.txt" "$warm_dir/second.txt" \
  || { echo "warm-start smoke test FAILED: output is not deterministic" >&2; exit 1; }
echo "warm-start OK: $(cat "$warm_dir/first.txt" | sed 's/^warmstart: //'), byte-identical across reruns"

echo "== history pin test =="
# Every diff above compares two runs of the same build, so a change that
# shifted every trace alike would pass them all. This step pins histories
# across versions: each workload of the cost ledger (bench_ledger/, which
# links the workspace crates by path) must pass its own output checks and
# print the recorded fingerprint of its fixed session prefix. It also
# fails when a workspace API change breaks the ledger's build. The
# serve_replay leg is also the end-to-end gate for replayed guided
# proposals and replayed fits: every timed session there takes its
# proposals from the service's proposal memo and runs no GP fit, and its
# output checks require each timed history to equal the fill pass's
# history of the same spec.
# The pins run traced, which adds two output checks: every request and
# response frame round-trips through encode/decode, and live evaluation,
# cache replay and Engine::run each reproduce every prefix history. The
# traced run also exercises the probes that read spans from
# Obs::snapshot(), and prints the same prefix_hash as an untraced run.
# Building the ledger makes cargo rewrite bench_ledger/Cargo.lock; the
# committed lock is saved first and put back on exit, so the gate leaves
# the tree as it found it.
pin_dir="$(mktemp -d)"
cp bench_ledger/Cargo.lock "$pin_dir/Cargo.lock"
trap 'cp "$pin_dir/Cargo.lock" bench_ledger/Cargo.lock; rm -rf "$replay_dir" "$cache_dir" "$serve_dir" "$surrogate_dir" "$warm_dir" "$pin_dir"' EXIT
cargo build --release -q --offline --manifest-path bench_ledger/Cargo.toml
for pin in tune_direct=d48b7c65df8b42a2 serve_cold=9a8aa65ce4c301e9 serve_replay=9a8aa65ce4c301e9; do
  workload="${pin%%=*}"
  want="${pin#*=}"
  cargo run --release -q --offline --manifest-path bench_ledger/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 1 --out "$pin_dir" \
    > "$pin_dir/$workload.json" 2> "$pin_dir/$workload.err"
  grep -q '"correct": true' "$pin_dir/$workload.json" \
    || { echo "history pin FAILED: $workload output checks failed" >&2; cat "$pin_dir/$workload.err" >&2; exit 1; }
  got="$(sed -n 's/.*prefix_hash=\([0-9a-f]*\).*/\1/p' "$pin_dir/$workload.err")"
  [ "$got" = "$want" ] \
    || { echo "history pin FAILED: $workload prefix_hash=$got, expected $want" >&2; exit 1; }
done
echo "history pin OK: tune_direct, serve_cold and serve_replay reproduce their pinned prefix_hash"

echo "All checks passed."
