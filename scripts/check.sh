#!/usr/bin/env bash
# Repo gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== metrics smoke (train --metrics-out + metrics-check) =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run -q --release -p cold-cli -- generate \
  --out "$SMOKE_DIR/world.json" \
  --users 40 --communities 2 --topics 2 --vocab 60 --slices 6 --seed 11
cargo run -q --release -p cold-cli -- train \
  --data "$SMOKE_DIR/world.json" --out "$SMOKE_DIR/model.cold" \
  --communities 2 --topics 2 --iterations 40 --seed 11 \
  --metrics-out "$SMOKE_DIR/metrics.jsonl" >/dev/null
cargo run -q --release -p cold-cli -- metrics-check --file "$SMOKE_DIR/metrics.jsonl"

echo "== checkpoint smoke (train → crash → resume → bitwise compare → replay-check) =="
# The metrics run above is the uninterrupted reference: instrumentation
# never touches the trajectory, so its model is the byte-exact target.
# Each leg records its own cold-trace/v1 segment of the one-shard
# ("seq"-synced) chain; the chained segments must replay clean.
rc=0
cargo run -q --release -p cold-cli -- train \
  --data "$SMOKE_DIR/world.json" --out "$SMOKE_DIR/model_resumed.cold" \
  --communities 2 --topics 2 --iterations 40 --seed 11 \
  --checkpoint-dir "$SMOKE_DIR/ckpts" --checkpoint-every 8 \
  --trace-out "$SMOKE_DIR/trace1_crash.jsonl" \
  --crash-after 23 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
  echo "expected simulated crash (exit 137), got $rc" >&2
  exit 1
fi
cargo run -q --release -p cold-cli -- ckpt-inspect --dir "$SMOKE_DIR/ckpts"
cargo run -q --release -p cold-cli -- train \
  --data "$SMOKE_DIR/world.json" --out "$SMOKE_DIR/model_resumed.cold" \
  --communities 2 --topics 2 --iterations 40 --seed 11 \
  --checkpoint-dir "$SMOKE_DIR/ckpts" --resume true \
  --trace-out "$SMOKE_DIR/trace1_resume.jsonl" >/dev/null
if ! cmp -s "$SMOKE_DIR/model.cold" "$SMOKE_DIR/model_resumed.cold"; then
  echo "resumed model differs from the uninterrupted run" >&2
  exit 1
fi
echo "resume is bit-identical to the uninterrupted run"
cargo run -q --release -p cold-cli -- replay-check \
  --trace "$SMOKE_DIR/trace1_crash.jsonl,$SMOKE_DIR/trace1_resume.jsonl" \
  --fuzz 20

echo "== shard-scaling smoke (train --shards 4 + metrics-check) =="
cargo run -q --release -p cold-cli -- train \
  --data "$SMOKE_DIR/world.json" --out "$SMOKE_DIR/model_par.cold" \
  --communities 2 --topics 2 --iterations 30 --seed 11 --shards 4 \
  --metrics-out "$SMOKE_DIR/metrics_par.jsonl" | tee "$SMOKE_DIR/par.log"
# The parallel trainer prints the final complete-data log-likelihood;
# require it to be a finite number (a diverged or corrupted merge would
# surface as nan/inf here).
ll=$(sed -n 's/.*log-likelihood \(-\{0,1\}[0-9.][0-9.e+-]*\)$/\1/p' "$SMOKE_DIR/par.log")
if [ -z "$ll" ]; then
  echo "no final log-likelihood in the --shards 4 output" >&2
  exit 1
fi
awk -v ll="$ll" 'BEGIN { if (ll + 0 != ll + 0 || ll == "inf" || ll == "-inf") exit 1 }' || {
  echo "non-finite final log-likelihood: $ll" >&2
  exit 1
}
echo "final ll $ll is finite"
cargo run -q --release -p cold-cli -- metrics-check --file "$SMOKE_DIR/metrics_par.jsonl"

echo "== sparse-backend smoke (train --counter-storage sparse, byte-compare) =="
# Same world/seed as the dense reference run above, every counter family
# forced sparse: the storage backend is bit-invisible, so the artifact
# must be byte-identical to the dense reference (every f64 of every
# table), and a read-side subcommand must open it.
cargo run -q --release -p cold-cli -- train \
  --data "$SMOKE_DIR/world.json" --out "$SMOKE_DIR/model_sparse.cold" \
  --communities 2 --topics 2 --iterations 40 --seed 11 \
  --counter-storage sparse >/dev/null
if ! cmp -s "$SMOKE_DIR/model_sparse.cold" "$SMOKE_DIR/model.cold"; then
  echo "sparse-backed model differs from the dense reference" >&2
  exit 1
fi
cargo run -q --release -p cold-cli -- topics \
  --model "$SMOKE_DIR/model_sparse.cold" --data "$SMOKE_DIR/world.json" >/dev/null
echo "sparse-backed model is byte-identical to the dense reference"

echo "== replay-smoke (record → crash → resume → replay-check --fuzz) =="
# A 4-shard checkpointed run is crashed mid-flight and resumed, each
# process recording its own cold-trace/v1 segment; the chained segments
# must replay clean, every seeded fault class must be rejected, and
# every legal schedule permutation must pass (two full rounds: 9 fault
# classes + 1 permutation each).
rc=0
cargo run -q --release -p cold-cli -- train \
  --data "$SMOKE_DIR/world.json" --out "$SMOKE_DIR/model_traced.cold" \
  --communities 2 --topics 2 --iterations 24 --seed 11 --shards 4 \
  --checkpoint-dir "$SMOKE_DIR/trace_ckpts" --checkpoint-every 4 \
  --checkpoint-retain 2 --trace-out "$SMOKE_DIR/trace_crash.jsonl" \
  --crash-after 12 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
  echo "expected simulated crash (exit 137), got $rc" >&2
  exit 1
fi
cargo run -q --release -p cold-cli -- train \
  --data "$SMOKE_DIR/world.json" --out "$SMOKE_DIR/model_traced.cold" \
  --communities 2 --topics 2 --iterations 24 --seed 11 --shards 4 \
  --checkpoint-dir "$SMOKE_DIR/trace_ckpts" --checkpoint-every 4 \
  --checkpoint-retain 2 --trace-out "$SMOKE_DIR/trace_resume.jsonl" \
  --resume true >/dev/null
cargo run -q --release -p cold-cli -- replay-check \
  --trace "$SMOKE_DIR/trace_crash.jsonl,$SMOKE_DIR/trace_resume.jsonl" \
  --fuzz 20

# serve-smoke — model → cold serve → all endpoints → clean stop.
# Each answer must carry the expected JSON fields, caller mistakes must
# come back 400 (never a handler panic), and POST /shutdown must drain the
# server to a clean exit 0.
echo "== serve-smoke (model → cold serve → all endpoints → clean stop) =="
SERVE_PORT=18395
cargo run -q --release -p cold-cli -- serve \
  --model "$SMOKE_DIR/model_sparse.cold" --data "$SMOKE_DIR/world.json" \
  --port "$SERVE_PORT" \
  > "$SMOKE_DIR/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://127.0.0.1:$SERVE_PORT/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
base="http://127.0.0.1:$SERVE_PORT"
curl -sf "$base/healthz" | grep -q '"status":"ok"'
curl -sf -X POST "$base/predict" \
  -d '{"publisher":0,"consumer":1,"words":[0,1,2]}' | grep -q '"score":'
curl -sf -X POST "$base/rank-influencers" \
  -d '{"topic":0,"limit":3}' | grep -q '"influencers":'
curl -sf "$base/communities/5" | grep -q '"top_communities":'
curl -sf "$base/metrics" | grep -q '"schema":"cold-obs/v1"'
# Caller mistakes are 400s with an error body, not panics.
st=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/predict" \
  -d '{"publisher":99999,"consumer":1,"words":[0]}')
if [ "$st" != "400" ]; then
  echo "unknown user returned HTTP $st, wanted 400" >&2
  exit 1
fi
st=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/predict" -d '{bad json')
if [ "$st" != "400" ]; then
  echo "malformed JSON returned HTTP $st, wanted 400" >&2
  exit 1
fi
curl -sf -X POST "$base/shutdown" | grep -q 'shutting down'
wait "$serve_pid"
grep -q "drained and stopped" "$SMOKE_DIR/serve.log"
echo "all endpoints answered; server drained to a clean exit"

# chaos-smoke — the robustness contract end to end on a real process:
# healthy clients keep getting bit-identical answers while seeded network
# faults and a contained handler panic land concurrently; a truncated
# and a same-length flipped-byte /reload are rejected with the old model
# still serving; a valid /reload swaps generations; and the server still
# drains to a clean exit 0.
echo "== chaos-smoke (seeded faults + handler panic + reload under a live server) =="
CHAOS_PORT=18396
cargo run -q --release -p cold-cli -- serve \
  --model "$SMOKE_DIR/model_sparse.cold" --data "$SMOKE_DIR/world.json" \
  --port "$CHAOS_PORT" --chaos true \
  --max-conns 32 --request-timeout-ms 2000 \
  > "$SMOKE_DIR/chaos_serve.log" 2>&1 &
chaos_pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://127.0.0.1:$CHAOS_PORT/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
cbase="http://127.0.0.1:$CHAOS_PORT"
ref=$(curl -sf -X POST "$cbase/predict" -d '{"publisher":0,"consumer":1,"words":[0]}')
cargo run -q --release -p cold-bench --bin chaos_client -- \
  --addr "127.0.0.1:$CHAOS_PORT" --healthy 3 --chaos 3 --requests 40 \
  --faults 10 --seed 9 --stall-ms 150
# A deliberately corrupt artifact must be rejected (409) with the old
# model untouched and still serving.
head -c 200 "$SMOKE_DIR/model_sparse.cold" > "$SMOKE_DIR/model_corrupt.cold"
st=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$cbase/reload" \
  -d "{\"model\":\"$SMOKE_DIR/model_corrupt.cold\"}")
if [ "$st" != "409" ]; then
  echo "corrupt reload returned HTTP $st, wanted 409" >&2
  exit 1
fi
after=$(curl -sf -X POST "$cbase/predict" -d '{"publisher":0,"consumer":1,"words":[0]}')
if [ "$ref" != "$after" ]; then
  echo "answer changed after a rejected reload: $ref -> $after" >&2
  exit 1
fi
# Same length, one mid-file byte flipped: only the checksum at the end of
# the stream keeps it from the tables.
flipped="$SMOKE_DIR/model_flipped.cold"
cp "$SMOKE_DIR/model_sparse.cold" "$flipped"
mid=$(( $(wc -c < "$flipped") / 2 ))
byte=$(od -An -tu1 -j "$mid" -N1 "$flipped" | tr -d ' ')
printf "\\$(printf '%03o' $(( byte ^ 1 )))" \
  | dd of="$flipped" bs=1 seek="$mid" conv=notrunc status=none
if [ "$(wc -c < "$flipped")" != "$(wc -c < "$SMOKE_DIR/model_sparse.cold")" ] \
  || cmp -s "$flipped" "$SMOKE_DIR/model_sparse.cold"; then
  echo "the flipped-byte artifact is not a same-length corruption" >&2
  exit 1
fi
st=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$cbase/reload" \
  -d "{\"model\":\"$flipped\"}")
if [ "$st" != "409" ]; then
  echo "flipped-byte reload returned HTTP $st, wanted 409" >&2
  exit 1
fi
after=$(curl -sf -X POST "$cbase/predict" -d '{"publisher":0,"consumer":1,"words":[0]}')
if [ "$ref" != "$after" ]; then
  echo "answer changed after a rejected checksum: $ref -> $after" >&2
  exit 1
fi
# A valid artifact hot-swaps in (same bytes here, so same answers).
cp "$SMOKE_DIR/model_sparse.cold" "$SMOKE_DIR/model_copy.cold"
curl -sf -X POST "$cbase/reload" -d "{\"model\":\"$SMOKE_DIR/model_copy.cold\"}" \
  | grep -q '"generation":1'
curl -sf "$cbase/healthz" | grep -q '"generation":1'
after=$(curl -sf -X POST "$cbase/predict" -d '{"publisher":0,"consumer":1,"words":[0]}')
if [ "$ref" != "$after" ]; then
  echo "answer changed after a same-bytes reload: $ref -> $after" >&2
  exit 1
fi
# Loop death: the panic ends the loop that accepted the connection, which
# closes it unanswered (curl exit 52, empty reply). Every new connection
# must reach the surviving loop: /healthz reports degraded, /predict
# still answers.
rc=0
curl -s -X POST "$cbase/chaos/panic-loop" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 52 ]; then
  echo "/chaos/panic-loop: wanted an empty reply (curl exit 52), got exit $rc" >&2
  exit 1
fi
for i in $(seq 1 20); do
  out=$(curl -s --max-time 1 -w ' %{http_code}' "$cbase/healthz" || true)
  case "$out" in
    *'"status":"degraded"'*' 503') ;;
    *) echo "connection $i after a loop death: wanted 503 degraded, got: $out" >&2
       exit 1 ;;
  esac
done
curl -sf -X POST "$cbase/predict" -d '{"publisher":0,"consumer":1,"words":[0]}' \
  | grep -q '"score":'
curl -sf -X POST "$cbase/shutdown" | grep -q 'shutting down'
wait "$chaos_pid"
grep -q "drained and stopped" "$SMOKE_DIR/chaos_serve.log"
echo "chaos mix survived; truncated and flipped-byte reloads rejected; valid reload swapped; dead loop routed around; clean drain"

echo "== bench_serve --quick =="
cargo run -q --release -p cold-bench --bin bench_serve -- --quick

echo "== repository benchmark (its unit tests + the --smoke suite) =="
# The benchmark's correctness checks (answers, AUC, accounting) run
# against the shipped `cold serve`; a serving change that breaks them
# fails here. Both steps share run.sh's build directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --seed 1 --reps 1 --smoke --out "$SMOKE_DIR/bench_smoke.json"

echo "All checks passed."
