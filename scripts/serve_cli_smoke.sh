#!/usr/bin/env bash
# End-to-end smokes of the caee_train -> caee_serve command-line surface
# (docs/serving.md, docs/protocol.md, docs/thresholds.md,
# docs/operations.md). Five sessions, each failing the script on the first
# mismatch:
#
#   1. persistence round-trip  single-stream scores == offline batch scores
#   2. binary round-trip       text pipeline == encode | --binary | decode,
#                              also at --shards 4 (sorted)
#   3. SPOT round-trip         the same under --threshold-policy spot, and a
#                              NaN observation must fail loudly
#   4. live reload             a mid-stream reload splices the two
#                              single-generation runs exactly; a rejected
#                              reload keeps generation 1 serving
#   5. model-health canary     a broken candidate is canary-rejected and
#                              moves no score
#
# Usage: scripts/serve_cli_smoke.sh <build_dir> [work_dir]
#   build_dir  holds the caee_train and caee_serve executables
#   work_dir   where the sessions' inputs and outputs go (kept); default: a
#              fresh temporary directory, removed on exit
#
# Registered as the `serve_cli_smoke` ctest when examples are built; takes
# about 1.5 s in a Release build.

set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <build_dir> [work_dir]" >&2
  exit 2
fi
bin=$(cd "$1" && pwd)
if [[ $# -eq 2 ]]; then
  mkdir -p "$2"
  tmp=$(cd "$2" && pwd)
else
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
fi
train="$bin/caee_train"
serve="$bin/caee_serve"

# --- 1. Train/serve persistence smoke --------------------------------------
"$train" --synthetic SMD --scale 0.1 --models 2 --epochs 2 \
  --window 8 --max-train-windows 96 --output "$tmp/model.caee" \
  --dump-input "$tmp/train.csv" --scores "$tmp/scores.txt"
# --expect-scores makes caee_serve fail unless the streaming path
# reproduces the offline batch scores exactly (tolerance 0).
"$serve" --model "$tmp/model.caee" --input "$tmp/train.csv" \
  --expect-scores "$tmp/scores.txt" > /dev/null

# --- 2. Binary protocol round-trip smoke -----------------------------------
# The same multi-stream session driven through the text protocol and
# through encode-frames | --binary | decode-frames must produce
# byte-identical output (--flush-ms 0 so no background timer races the
# comparison). Then the same input at --shards 4: per-shard flushing
# reorders lines, but the sorted outputs must still match exactly —
# sharding may reorder scores, never change them.
awk -F, 'BEGIN { for (s = 0; s < 3; s++) print "open," s }
         { print (NR % 3) "," $0 }
         END { for (s = 0; s < 3; s++) print "close," s }' \
  "$tmp/train.csv" > "$tmp/ms.txt"
"$serve" --model "$tmp/model.caee" --streams --flush-ms 0 \
  --input "$tmp/ms.txt" > "$tmp/text_out.txt"
"$serve" --encode-frames --input "$tmp/ms.txt" |
  "$serve" --model "$tmp/model.caee" --streams --binary \
    --flush-ms 0 |
  "$serve" --decode-frames > "$tmp/bin_out.txt"
diff "$tmp/text_out.txt" "$tmp/bin_out.txt"
"$serve" --encode-frames --input "$tmp/ms.txt" |
  "$serve" --model "$tmp/model.caee" --streams --binary \
    --shards 4 --flush-ms 0 |
  "$serve" --decode-frames > "$tmp/bin_sharded.txt"
sort "$tmp/text_out.txt" > "$tmp/text_sorted.txt"
sort "$tmp/bin_sharded.txt" > "$tmp/bin_sorted.txt"
diff "$tmp/text_sorted.txt" "$tmp/bin_sorted.txt"

# --- 3. SPOT threshold round-trip smoke ------------------------------------
# Train with --spot, replay the same multi-stream session under
# --threshold-policy spot through the text pipeline and the binary
# pipeline — adaptive verdicts must come out byte-identical — then prove a
# non-finite observation fails LOUDLY (non-zero exit naming the problem),
# never as a silent non-alert.
"$train" --synthetic SMD --scale 0.1 --models 2 --epochs 2 \
  --window 8 --max-train-windows 96 --spot --spot-level 0.9 \
  --spot-q 0.02 --output "$tmp/model_spot.caee"
"$serve" --model "$tmp/model_spot.caee" --streams \
  --threshold-policy spot --flush-ms 0 --input "$tmp/ms.txt" \
  > "$tmp/spot_text.txt"
"$serve" --encode-frames --input "$tmp/ms.txt" |
  "$serve" --model "$tmp/model_spot.caee" --streams \
    --binary --threshold-policy spot --flush-ms 0 |
  "$serve" --decode-frames > "$tmp/spot_bin.txt"
diff "$tmp/spot_text.txt" "$tmp/spot_bin.txt"
dims=$(head -1 "$tmp/train.csv" | awk -F, '{print NF}')
{ echo "open,0"
  echo "0,nan$(printf ',1%.0s' $(seq 2 "$dims"))"
} > "$tmp/nan.txt"
if "$serve" --model "$tmp/model_spot.caee" --streams \
     --threshold-policy spot --flush-ms 0 --input "$tmp/nan.txt" \
     > /dev/null 2> "$tmp/nan_err.txt"; then
  echo "NaN observation was accepted silently" >&2
  exit 1
fi
grep -qi "non-finite" "$tmp/nan_err.txt"

# --- 4. Live-reload smoke --------------------------------------------------
# Train two artifacts with different seeds, replay one stream with a
# mid-stream `reload,<path>` control line, and byte-diff the output
# against the head/tail splice of the two single-generation reference
# runs. Every window before the swap must be bitwise the v1 reference,
# every window after it bitwise the v2 reference — the swap may not move,
# drop, or duplicate a single one.
"$train" --synthetic SMD --scale 0.1 --models 2 --epochs 2 \
  --window 8 --max-train-windows 96 --seed 7 \
  --output "$tmp/model_v1.caee"
"$train" --synthetic SMD --scale 0.1 --models 2 --epochs 2 \
  --window 8 --max-train-windows 96 --seed 23 \
  --output "$tmp/model_v2.caee"
# One stream, --max-batch 1 --flush-ms 0: every push past warm-up scores
# immediately, so output order = window order.
head -60 "$tmp/train.csv" > "$tmp/obs.csv"
awk 'BEGIN { print "open,0" } { print "0," $0 }
     END { print "close,0" }' "$tmp/obs.csv" > "$tmp/ref_session.txt"
"$serve" --model "$tmp/model_v1.caee" --streams \
  --max-batch 1 --flush-ms 0 --input "$tmp/ref_session.txt" \
  > "$tmp/ref_v1.txt"
"$serve" --model "$tmp/model_v2.caee" --streams \
  --max-batch 1 --flush-ms 0 --input "$tmp/ref_session.txt" \
  > "$tmp/ref_v2.txt"
# Swap after observation 30 (window=8): windows 7..29 are generation 1,
# windows 30..59 generation 2.
awk -v path="$tmp/model_v2.caee" 'BEGIN { print "open,0" }
     { print "0," $0 }
     NR == 30 { print "reload," path }
     END { print "close,0" }' "$tmp/obs.csv" > "$tmp/swap_session.txt"
"$serve" --model "$tmp/model_v1.caee" --streams \
  --max-batch 1 --flush-ms 0 --input "$tmp/swap_session.txt" \
  > "$tmp/swap_out.txt" 2> "$tmp/swap_err.txt"
grep -qF "generation 2 live after 1 reload(s), 0 rejected" \
  "$tmp/swap_err.txt"
{ head -23 "$tmp/ref_v1.txt"; tail -n +24 "$tmp/ref_v2.txt"; } \
  > "$tmp/expected.txt"
diff "$tmp/expected.txt" "$tmp/swap_out.txt"
# Degraded mode: reloading a geometry-incompatible artifact is refused,
# the engine keeps serving generation 1, and the run still completes
# cleanly.
"$train" --synthetic SMD --scale 0.1 --models 2 --epochs 2 \
  --window 6 --max-train-windows 96 --seed 7 \
  --output "$tmp/model_w6.caee"
awk -v path="$tmp/model_w6.caee" 'BEGIN { print "open,0" }
     { print "0," $0 }
     NR == 30 { print "reload," path }
     END { print "close,0" }' "$tmp/obs.csv" > "$tmp/bad_session.txt"
"$serve" --model "$tmp/model_v1.caee" --streams \
  --max-batch 1 --flush-ms 0 --input "$tmp/bad_session.txt" \
  > "$tmp/bad_out.txt" 2> "$tmp/bad_err.txt"
grep -q "reload rejected, still serving generation 1" "$tmp/bad_err.txt"
diff "$tmp/ref_v1.txt" "$tmp/bad_out.txt"

# --- 5. Model-health canary smoke ------------------------------------------
# Train a good v1 with --health, then a deliberately broken v2 — same
# geometry, but trained on the same series scaled 100x, so v2's
# calibration histogram sits nowhere near where it scores the live
# traffic. A mid-stream reload of v2 must be rejected by the canary (the
# engine never adopts it), the run must end still serving generation 1,
# and the attempt must not move a single score relative to a run that
# never tried the reload.
"$train" --synthetic SMD --scale 0.1 --models 2 --epochs 2 \
  --window 8 --max-train-windows 96 --seed 7 --health \
  --output "$tmp/health_v1.caee" --dump-input "$tmp/health_train.csv"
awk -F, 'BEGIN { OFS = "," }
         { for (i = 1; i <= NF; i++) $i *= 100; print }' \
  "$tmp/health_train.csv" > "$tmp/health_train100.csv"
"$train" --input "$tmp/health_train100.csv" --models 2 \
  --epochs 2 --window 8 --max-train-windows 96 --seed 23 --health \
  --output "$tmp/health_v2.caee"
head -60 "$tmp/health_train.csv" > "$tmp/health_obs.csv"
awk -v path="$tmp/health_v2.caee" 'BEGIN { print "open,0" }
     { print "0," $0 }
     NR == 40 { print "reload," path }
     END { print "health"; print "close,0" }' "$tmp/health_obs.csv" \
  > "$tmp/health_session.txt"
grep -v '^reload,' "$tmp/health_session.txt" > "$tmp/health_ref.txt"
"$serve" --model "$tmp/health_v1.caee" --streams --health \
  --max-batch 1 --flush-ms 0 --input "$tmp/health_ref.txt" \
  > "$tmp/health_ref_out.txt"
"$serve" --model "$tmp/health_v1.caee" --streams --health \
  --max-batch 1 --flush-ms 0 --input "$tmp/health_session.txt" \
  > "$tmp/health_out.txt" 2> "$tmp/health_err.txt"
grep -q "canary rejected candidate" "$tmp/health_err.txt"
grep -q "still serving generation 1" "$tmp/health_err.txt"
grep -qF "generation 1 live after 0 reload(s), 1 rejected" \
  "$tmp/health_err.txt"
grep -qF "1 canary rejection(s), 0 rollback(s)" "$tmp/health_err.txt"
diff "$tmp/health_ref_out.txt" "$tmp/health_out.txt"

echo "serve CLI smokes passed"
