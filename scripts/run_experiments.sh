#!/usr/bin/env bash
# Regenerates every table and figure of the paper into results/.
# Each binary's stdout lands in results/<name>.txt only when the binary
# succeeds, so a failed run leaves the committed file as it was; stderr
# goes to the terminal. Exits 1, listing the failures, if any run failed.
set -u
cd "$(dirname "$0")/.."
mkdir -p results
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT
BINS="tables fig04_containers fig05_failures fig06_concurrency fig07_pools \
fig08_newratio_cache fig09_newratio fig10_newratio_shuffle fig11_rss_timeline \
fig13_arbitrator_trace tab08_recommendations tab10_overheads \
fig16_training_overheads fig17_quality fig18_19_boxplots fig20_convergence \
fig21_tpch fig22_profile_sensitivity fig23_estimate_variance \
fig24_utility_ranking fig25_surrogate_accuracy fig26_gp_vs_rf \
fig27_ddpg_generality generality_bo_reuse ablation_relm ablation_gbo ablation_survivor_ratio calibration"
failed=""
for b in $BINS; do
  echo "== $b =="
  if cargo run -q --locked --release -p relm-experiments --bin "$b" > "$tmp_dir/$b.txt"; then
    mv "$tmp_dir/$b.txt" "results/$b.txt"
    echo "   ok -> results/$b.txt"
  else
    echo "   FAILED"
    failed="$failed $b"
  fi
done
if [ -n "$failed" ]; then
  echo "failed:$failed" >&2
  exit 1
fi
