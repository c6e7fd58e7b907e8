#!/usr/bin/env bash
# End-to-end serving pipeline, run by CI and runnable locally:
#
#   cargo build --release --locked && scripts/serve_e2e.sh
#
# For EVERY method in the lineup (`iim methods`):
#   1. `iim fit --save`        — offline phase → snapshot on disk
#   2. `iim impute --model`    — stream queries through the loaded snapshot
#   3. `iim impute --fit-on`   — stream the same queries through an
#      in-process fit, and diff against (2) byte-for-byte: a snapshot is
#      the fitted model, not an approximation
#   4. `iim serve` in the background + curl the same queries (batch and
#      single-tuple) — diff the daemon's response against (2)
#      byte-for-byte; any non-2xx fails via curl -f
#   5. kill the daemon
#
# Then, for every absorb-supporting method (IIM, Mean, GLR), the
# streaming leg: serve with per-learn checkpointing, POST /learn, and
# byte-diff the daemon's post-learn fills — both live and after a
# restart from the checkpointed delta snapshot — against a
# single-process `iim learn` + `iim impute` reference.
#
# Then the registry leg: stage two models into a `--models-dir` registry,
# serve both from one daemon, byte-diff the per-model routes against the
# single-model references, check that `POST /impute` serves the tenant
# `default` byte-identically to `/models/default/impute` and to the
# single-model daemon, hot-swap a tenant under request load (every
# response must succeed), and evict/reactivate under `--max-resident 1`.
#
# Then the crash-recovery legs: a checkpointing daemon is SIGKILLed
# mid-learn-flood and must restart serving exactly the durably-acked
# prefix (byte-diffed against a never-killed reference), and a snapshot
# with a deterministically torn delta tail must load, report the recovery
# in /info, and be repaired in place by the next checkpointed learn.
#
# Then the overload probe: with --max-connections 1 and a held
# connection, further connections must shed fast with 503 + Retry-After,
# and fills must stay bitwise-correct once the slot frees.
#
# Every daemon is stopped with SIGTERM and must exit 0 (graceful drain),
# never relying on default signal death (SIGKILL legs excepted — that's
# the crash under test).
#
# Artifacts (snapshots, expected/served CSVs) land in $E2E_DIR for CI to
# upload.

set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-target/release/iim}
TRAIN=tests/data/serve_train.csv
QUERIES=tests/data/serve_queries.csv
E2E_DIR=${E2E_DIR:-e2e}
PORT=${PORT:-17878}
K=5
SEED=42

mkdir -p "$E2E_DIR"
fail() { echo "FAIL: $*" >&2; exit 1; }

# Graceful shutdown: SIGTERM must drain in-flight work and exit 0; a
# non-zero status (including 143, death by unhandled SIGTERM) fails.
stop_daemon() {
  kill -TERM "$1"
  local code=0
  wait "$1" || code=$?
  [ "$code" = 0 ] || fail "daemon pid $1 exited $code after SIGTERM (want a clean 0)"
}

METHODS=$("$BIN" methods | sed 's/ (default)//')
echo "methods under test:" $METHODS

for m in $METHODS; do
  echo "=== $m ==="
  # Fresh port per method: the previous daemon's closed connections sit in
  # TIME_WAIT on its port, and TcpListener::bind (no SO_REUSEADDR) would
  # intermittently fail with EADDRINUSE if the port were reused.
  PORT=$((PORT + 1))
  snap="$E2E_DIR/$m.iim"
  expected="$E2E_DIR/$m.expected.csv"
  infit="$E2E_DIR/$m.infit.csv"
  served="$E2E_DIR/$m.served.csv"

  "$BIN" fit --save "$snap" --method "$m" --k $K --seed $SEED "$TRAIN"
  "$BIN" impute --model "$snap" --output "$expected" "$QUERIES"
  "$BIN" impute --fit-on "$TRAIN" --method "$m" --k $K --seed $SEED \
      --output "$infit" "$QUERIES"
  cmp "$expected" "$infit" \
    || fail "$m: snapshot serving diverged from the in-process fit"

  "$BIN" serve "$snap" --addr "127.0.0.1:$PORT" --threads 2 &
  daemon=$!
  trap 'kill $daemon 2>/dev/null || true' EXIT
  up=0
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.1
  done
  [ "$up" = 1 ] || fail "$m: daemon never became healthy"

  curl -sf "http://127.0.0.1:$PORT/info" | grep -q "\"method\":\"$m\"" \
    || fail "$m: /info does not report the method"
  # Keep-alive perf sanity: one curl invocation with three URLs must reuse
  # a single connection. The daemon counts accepted connections in /info,
  # so the delta across the probe is exactly 2 (the probe itself plus the
  # final /info read) — 4 would mean per-request connections are back.
  before=$(curl -sf "http://127.0.0.1:$PORT/info" \
    | grep -o '"connections":[0-9]*' | cut -d: -f2)
  curl -sf "http://127.0.0.1:$PORT/healthz" "http://127.0.0.1:$PORT/healthz" \
      "http://127.0.0.1:$PORT/healthz" > /dev/null \
    || fail "$m: keep-alive probe returned non-2xx"
  after=$(curl -sf "http://127.0.0.1:$PORT/info" \
    | grep -o '"connections":[0-9]*' | cut -d: -f2)
  [ "$((after - before))" = 2 ] \
    || fail "$m: keep-alive probe opened $((after - before - 1)) connections for 3 requests (want 1)"
  # Batch request: the whole query file in one POST.
  curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/impute" > "$served" \
    || fail "$m: batch /impute returned non-2xx"
  cmp "$served" "$expected" \
    || fail "$m: daemon response diverged from iim impute output"
  # Single-tuple request: header + first query row.
  head -2 "$QUERIES" | curl -sf --data-binary @- "http://127.0.0.1:$PORT/impute" \
      > "$E2E_DIR/$m.single.csv" \
    || fail "$m: single-tuple /impute returned non-2xx"
  head -2 "$expected" | cmp - "$E2E_DIR/$m.single.csv" \
    || fail "$m: single-tuple response diverged from the batch fill"

  stop_daemon $daemon
  trap - EXIT
done

echo "OK: every method round-tripped fit -> save -> load -> serve with byte-identical fills"

# --- Streaming leg: learn over HTTP, checkpoint, restart, byte-diff ---
#
# The absorb-supporting subset is pinned here; the workspace test
# `absorb_support_is_exact_over_the_lineup` keeps this list honest.
LEARN_ROWS="$E2E_DIR/learn_rows.csv"
printf 'a,b,c,d\n0.3,1.5,0.45,39.6\n0.72,1.9,0.81,39.25\n' > "$LEARN_ROWS"

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

for m in IIM Mean GLR; do
  echo "=== $m (learn) ==="
  snap="$E2E_DIR/$m.iim"
  live="$E2E_DIR/$m.learned.iim"
  ref="$E2E_DIR/$m.ref.iim"
  expected="$E2E_DIR/$m.expected_after.csv"

  # Single-process reference: absorb via the CLI (one delta record) and
  # impute through the replayed snapshot.
  cp "$snap" "$ref"
  "$BIN" learn --model "$ref" "$LEARN_ROWS"
  "$BIN" impute --model "$ref" --output "$expected" "$QUERIES"

  # Daemon: serve a copy with a checkpoint flushed after every learn,
  # then stream the same rows through POST /learn.
  cp "$snap" "$live"
  PORT=$((PORT + 1))
  "$BIN" serve "$live" --addr "127.0.0.1:$PORT" --threads 2 \
      --checkpoint-every 1 &
  daemon=$!
  trap 'kill $daemon 2>/dev/null || true' EXIT
  wait_healthy $PORT || fail "$m: learn daemon never became healthy"

  curl -sf --data-binary "@$LEARN_ROWS" "http://127.0.0.1:$PORT/learn" \
      | grep -q '"absorbed":2' \
    || fail "$m: /learn did not absorb both rows"
  curl -sf "http://127.0.0.1:$PORT/info" | grep -q '"absorbed":2' \
    || fail "$m: /info does not report the absorbed rows"
  curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/impute" \
      > "$E2E_DIR/$m.served_live.csv" \
    || fail "$m: post-learn /impute returned non-2xx"
  cmp "$E2E_DIR/$m.served_live.csv" "$expected" \
    || fail "$m: live post-learn fills diverged from the CLI reference"

  stop_daemon $daemon
  trap - EXIT

  # Restart from the checkpointed delta snapshot: the replayed model
  # must serve the same bytes as both the live daemon and the reference.
  PORT=$((PORT + 1))
  "$BIN" serve "$live" --addr "127.0.0.1:$PORT" --threads 2 &
  daemon=$!
  trap 'kill $daemon 2>/dev/null || true' EXIT
  wait_healthy $PORT || fail "$m: restarted daemon never became healthy"
  curl -sf "http://127.0.0.1:$PORT/info" | grep -q '"absorbed":2' \
    || fail "$m: restart lost the checkpointed absorbs"
  curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/impute" \
      > "$E2E_DIR/$m.served_restarted.csv" \
    || fail "$m: post-restart /impute returned non-2xx"
  cmp "$E2E_DIR/$m.served_restarted.csv" "$expected" \
    || fail "$m: delta-snapshot restart diverged from the CLI reference"
  stop_daemon $daemon
  trap - EXIT
done

echo "OK: learn -> checkpoint -> restart served byte-identical fills for every absorb-supporting method"

# --- Registry leg: multi-tenant serving, hot swap under load, eviction ---
#
# Two tenants staged from leg-1 snapshots; the per-model routes must serve
# byte-identical fills to the single-model daemons those snapshots backed.
echo "=== registry ==="
REG="$E2E_DIR/registry"
rm -rf "$REG"
mkdir -p "$REG"

"$BIN" registry stage --models-dir "$REG" alpha "$E2E_DIR/IIM.iim" \
  || fail "registry: CLI stage alpha failed"
"$BIN" registry stage --models-dir "$REG" beta "$E2E_DIR/Mean.iim" \
  || fail "registry: CLI stage beta failed"
"$BIN" registry stage --models-dir "$REG" default "$E2E_DIR/IIM.iim" \
  || fail "registry: CLI stage default failed"
# Capture first, grep second: `list | grep -q` lets grep exit on the first
# match and EPIPE the still-printing CLI (a pipefail failure even on success).
listing=$("$BIN" registry list --models-dir "$REG") \
  || fail "registry: CLI list failed"
printf '%s\n' "$listing" | grep -q "alpha" \
  || fail "registry: list does not show alpha"

PORT=$((PORT + 1))
"$BIN" serve --models-dir "$REG" --addr "127.0.0.1:$PORT" --threads 2 &
daemon=$!
trap 'kill $daemon 2>/dev/null || true' EXIT
wait_healthy $PORT || fail "registry daemon never became healthy"

curl -sf "http://127.0.0.1:$PORT/info" | grep -q '"mode":"registry"' \
  || fail "registry: /info does not report registry mode"

# Per-model serving, byte-diffed against the single-model references.
curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/models/alpha/impute" \
    > "$E2E_DIR/registry.alpha.csv" \
  || fail "registry: /models/alpha/impute returned non-2xx"
cmp "$E2E_DIR/registry.alpha.csv" "$E2E_DIR/IIM.expected.csv" \
  || fail "registry: alpha diverged from the single-model IIM daemon"
curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/models/beta/impute" \
    > "$E2E_DIR/registry.beta.csv" \
  || fail "registry: /models/beta/impute returned non-2xx"
cmp "$E2E_DIR/registry.beta.csv" "$E2E_DIR/Mean.expected.csv" \
  || fail "registry: beta diverged from the single-model Mean daemon"

# `POST /impute` is the tenant `default` in registry mode too: the same
# bytes as its per-model route and as the single-model IIM daemon.
curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/impute" \
    > "$E2E_DIR/registry.default_alias.csv" \
  || fail "registry: /impute returned non-2xx"
curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/models/default/impute" \
    > "$E2E_DIR/registry.default.csv" \
  || fail "registry: /models/default/impute returned non-2xx"
cmp "$E2E_DIR/registry.default_alias.csv" "$E2E_DIR/registry.default.csv" \
  || fail "registry: /impute diverged from /models/default/impute"
cmp "$E2E_DIR/registry.default_alias.csv" "$E2E_DIR/IIM.served.csv" \
  || fail "registry: /impute diverged from the single-model IIM daemon"

# Unknown models and unknown routes answer with structured JSON errors.
curl -s "http://127.0.0.1:$PORT/models/ghost/info" | grep -q '"error":"unknown_model"' \
  || fail "registry: ghost model is not a structured 404"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/nope")
[ "$code" = "404" ] || fail "registry: unknown route returned $code, want 404"

# Hot swap under load: hammer alpha while PUTting the Mean snapshot over
# it and then the IIM snapshot back. Every request must succeed (the swap
# barrier drops nothing), and the settled tenant must serve IIM's bytes.
rm -f "$E2E_DIR/registry.swap_errors"
(
  for _ in $(seq 1 40); do
    curl -sf --data-binary "@$QUERIES" \
        "http://127.0.0.1:$PORT/models/alpha/impute" > /dev/null \
      || echo "request failed" >> "$E2E_DIR/registry.swap_errors"
  done
) &
hammer=$!
curl -sf -X PUT --data-binary "@$E2E_DIR/Mean.iim" \
    "http://127.0.0.1:$PORT/models/alpha" | grep -q '"swapped":true' \
  || fail "registry: hot swap to Mean did not report swapped:true"
curl -sf -X PUT --data-binary "@$E2E_DIR/IIM.iim" \
    "http://127.0.0.1:$PORT/models/alpha" | grep -q '"swapped":true' \
  || fail "registry: hot swap back to IIM did not report swapped:true"
wait $hammer
[ ! -e "$E2E_DIR/registry.swap_errors" ] \
  || fail "registry: a request failed during the hot swaps"
curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/models/alpha/impute" \
    > "$E2E_DIR/registry.alpha_after_swap.csv" \
  || fail "registry: post-swap impute returned non-2xx"
cmp "$E2E_DIR/registry.alpha_after_swap.csv" "$E2E_DIR/IIM.expected.csv" \
  || fail "registry: post-swap alpha diverged from the IIM reference"

stop_daemon $daemon
trap - EXIT

# Eviction: with one resident slot, touching beta evicts alpha; touching
# alpha again reactivates it transparently with identical bytes.
PORT=$((PORT + 1))
"$BIN" serve --models-dir "$REG" --addr "127.0.0.1:$PORT" --threads 2 \
    --max-resident 1 &
daemon=$!
trap 'kill $daemon 2>/dev/null || true' EXIT
wait_healthy $PORT || fail "eviction daemon never became healthy"

curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/models/alpha/impute" \
    > /dev/null || fail "eviction: warm-up impute on alpha failed"
curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/models/beta/impute" \
    > /dev/null || fail "eviction: impute on beta failed"
curl -sf "http://127.0.0.1:$PORT/models/alpha/info" | grep -q '"resident":false' \
  || fail "eviction: alpha still resident with max-resident 1"
curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/models/alpha/impute" \
    > "$E2E_DIR/registry.alpha_reactivated.csv" \
  || fail "eviction: reactivating impute on alpha failed"
cmp "$E2E_DIR/registry.alpha_reactivated.csv" "$E2E_DIR/IIM.expected.csv" \
  || fail "eviction: reactivated alpha diverged from the IIM reference"

stop_daemon $daemon
trap - EXIT

echo "OK: registry served both tenants byte-identically, hot-swapped under load with zero failures, and survived eviction"

# --- Crash-recovery leg A: kill -9 mid-learn-flood, restart, byte-diff ---
#
# A daemon checkpointing every learn is SIGKILLed mid-flood. On restart it
# must serve exactly the prefix of learns it durably acked: /info reports
# some N <= total, and the fills are byte-identical to a never-killed
# reference that learned the same first N rows.
echo "=== crash recovery (kill -9 mid-learn) ==="
CRASH="$E2E_DIR/crash.iim"
CRASH_ROWS="$E2E_DIR/crash_rows.csv"
cp "$E2E_DIR/IIM.iim" "$CRASH"
printf 'a,b,c,d\n' > "$CRASH_ROWS"
for i in $(seq 1 200); do
  printf '0.%02d,1.%02d,0.5%02d,39.%02d\n' $((i % 90 + 1)) $((i % 90 + 1)) \
      $((i % 90 + 1)) $((i % 90 + 1)) >> "$CRASH_ROWS"
done

PORT=$((PORT + 1))
"$BIN" serve "$CRASH" --addr "127.0.0.1:$PORT" --threads 2 \
    --checkpoint-every 1 &
daemon=$!
trap 'kill -9 $daemon 2>/dev/null || true' EXIT
wait_healthy $PORT || fail "crash: daemon never became healthy"

# Stream the rows one request at a time (strict absorb order), then pull
# the rug out mid-flood. Requests after the kill fail; that's the point.
(
  tail -n +2 "$CRASH_ROWS" | while IFS= read -r row; do
    printf 'a,b,c,d\n%s\n' "$row" \
      | curl -sf --data-binary @- "http://127.0.0.1:$PORT/learn" > /dev/null \
      || break
  done
) &
flood=$!
sleep 0.5
kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
wait "$flood" 2>/dev/null || true
trap - EXIT

PORT=$((PORT + 1))
"$BIN" serve "$CRASH" --addr "127.0.0.1:$PORT" --threads 2 &
daemon=$!
trap 'kill $daemon 2>/dev/null || true' EXIT
wait_healthy $PORT || fail "crash: restarted daemon never became healthy"
info=$(curl -sf "http://127.0.0.1:$PORT/info")
printf '%s' "$info" | grep -q '"recovered":' \
  || fail "crash: /info does not surface the recovered counter"
N=$(printf '%s' "$info" | grep -o '"absorbed":[0-9]*' | cut -d: -f2)
[ -n "$N" ] || fail "crash: /info does not report absorbed rows"
echo "crash: daemon durably absorbed $N of 200 rows before SIGKILL"

# Never-killed reference: learn the same first N rows offline, then
# byte-diff the restarted daemon's fills against it.
CRASH_REF="$E2E_DIR/crash_ref.iim"
cp "$E2E_DIR/IIM.iim" "$CRASH_REF"
if [ "$N" -gt 0 ]; then
  head -n $((N + 1)) "$CRASH_ROWS" > "$E2E_DIR/crash_rows_prefix.csv"
  "$BIN" learn --model "$CRASH_REF" "$E2E_DIR/crash_rows_prefix.csv"
fi
"$BIN" impute --model "$CRASH_REF" --output "$E2E_DIR/crash.expected.csv" "$QUERIES"
curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/impute" \
    > "$E2E_DIR/crash.served.csv" \
  || fail "crash: post-restart /impute returned non-2xx"
cmp "$E2E_DIR/crash.served.csv" "$E2E_DIR/crash.expected.csv" \
  || fail "crash: post-restart fills diverged from the never-killed reference"
stop_daemon $daemon
trap - EXIT

echo "OK: SIGKILL mid-learn lost nothing that was acked; restart served the durable prefix byte-identically"

# --- Crash-recovery leg B: torn tail on disk, recover, repair ---
#
# A deterministic torn tail: cut bytes off the snapshot's final delta
# record. The daemon must start anyway, report the recovery in /info,
# serve the valid prefix byte-identically, and its next checkpointed
# learn must repair the file so a plain CLI load succeeds afterwards.
echo "=== crash recovery (torn tail) ==="
TORN="$E2E_DIR/torn.iim"
TORN_REF="$E2E_DIR/torn_ref.iim"
ROW1="$E2E_DIR/torn_row1.csv"
ROW2="$E2E_DIR/torn_row2.csv"
ROW3="$E2E_DIR/torn_row3.csv"
printf 'a,b,c,d\n0.3,1.5,0.45,39.6\n' > "$ROW1"
printf 'a,b,c,d\n0.72,1.9,0.81,39.25\n' > "$ROW2"
printf 'a,b,c,d\n0.55,1.7,0.6,39.4\n' > "$ROW3"

cp "$E2E_DIR/IIM.iim" "$TORN"
"$BIN" learn --model "$TORN" "$ROW1"
"$BIN" learn --model "$TORN" "$ROW2"
truncate -s -5 "$TORN"   # tear the final record

# Reference: the valid prefix (row 1) plus the repair-time learn (row 3).
cp "$E2E_DIR/IIM.iim" "$TORN_REF"
"$BIN" learn --model "$TORN_REF" "$ROW1"
"$BIN" learn --model "$TORN_REF" "$ROW3"
"$BIN" impute --model "$TORN_REF" --output "$E2E_DIR/torn.expected.csv" "$QUERIES"

PORT=$((PORT + 1))
"$BIN" serve "$TORN" --addr "127.0.0.1:$PORT" --threads 2 \
    --checkpoint-every 1 &
daemon=$!
trap 'kill $daemon 2>/dev/null || true' EXIT
wait_healthy $PORT || fail "torn: daemon refused the recoverable snapshot"
curl -sf "http://127.0.0.1:$PORT/info" | grep -q '"recovered":1' \
  || fail "torn: /info does not report the recovery"
curl -sf "http://127.0.0.1:$PORT/info" | grep -q '"absorbed":1' \
  || fail "torn: the torn record was not dropped (want 1 absorbed row)"
curl -sf --data-binary "@$ROW3" "http://127.0.0.1:$PORT/learn" \
    | grep -q '"absorbed":1' \
  || fail "torn: repair-time /learn failed"
curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/impute" \
    > "$E2E_DIR/torn.served.csv" \
  || fail "torn: post-repair /impute returned non-2xx"
cmp "$E2E_DIR/torn.served.csv" "$E2E_DIR/torn.expected.csv" \
  || fail "torn: fills diverged from the prefix+repair reference"
stop_daemon $daemon
trap - EXIT

# The checkpointed learn truncated the damage before appending: a plain
# CLI load must now succeed with both rows and no recovery warning.
"$BIN" impute --model "$TORN" --output "$E2E_DIR/torn.cli.csv" "$QUERIES" \
  || fail "torn: repaired file does not load cleanly"
cmp "$E2E_DIR/torn.cli.csv" "$E2E_DIR/torn.expected.csv" \
  || fail "torn: repaired file serves different bytes than the daemon did"

echo "OK: torn tail recovered to the acked prefix, was repaired in place, and never changed a fill"

# --- Overload probe: connection cap sheds with 503 + Retry-After ---
#
# With --max-connections 1 and one held connection, further connections
# must be shed fast with an explicit 503 + Retry-After — and once the
# held connection closes, fills are served bitwise-correctly again.
echo "=== overload ==="
PORT=$((PORT + 1))
"$BIN" serve "$E2E_DIR/IIM.iim" --addr "127.0.0.1:$PORT" --threads 2 \
    --max-connections 1 &
daemon=$!
trap 'kill $daemon 2>/dev/null || true' EXIT
wait_healthy $PORT || fail "overload: daemon never became healthy"

# Hold the only admitted slot on a raw keep-alive connection.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /healthz HTTP/1.1\r\nHost: e2e\r\n\r\n' >&3
read -r held_status <&3
case "$held_status" in
  *"200 OK"*) ;;
  *) fail "overload: held connection was not admitted: $held_status" ;;
esac

shed_headers=$(curl -s -o /dev/null -D - --max-time 5 "http://127.0.0.1:$PORT/healthz")
printf '%s' "$shed_headers" | grep -q "^HTTP/1.1 503" \
  || fail "overload: over-cap connection was not shed with 503"
printf '%s' "$shed_headers" | grep -qi "^Retry-After: 1" \
  || fail "overload: shed response carries no Retry-After hint"

# Release the slot; the daemon must recover and serve correct fills.
exec 3>&- 3<&-
served_ok=0
for _ in $(seq 1 50); do
  if curl -sf --data-binary "@$QUERIES" "http://127.0.0.1:$PORT/impute" \
      > "$E2E_DIR/overload.served.csv" 2>/dev/null; then served_ok=1; break; fi
  sleep 0.1
done
[ "$served_ok" = 1 ] || fail "overload: slot never freed after the held connection closed"
cmp "$E2E_DIR/overload.served.csv" "$E2E_DIR/IIM.expected.csv" \
  || fail "overload: shedding changed a fill"
curl -sf "http://127.0.0.1:$PORT/info" | grep -qE '"shed":[1-9]' \
  || fail "overload: /info does not count the shed connection"
stop_daemon $daemon
trap - EXIT

echo "OK: overload shed fast with 503 + Retry-After and zero wrong fills"
