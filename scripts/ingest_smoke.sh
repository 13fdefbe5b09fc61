#!/bin/sh
# Ingest-path smoke: drive the streaming ingest pipeline end to end and
# check race-set identity against the offline analyzer.
#
#   1. generate a 100k-event synthetic binary trace (`rd2 synth`);
#   2. `rd2 check` it offline — 64 KiB reads, each decoded in place by
#      Bigcodec — for the reference race set;
#   3. `rd2 serve --journal`, then `rd2 send` the same file through the
#      streaming ingest loop (each socket read decoded in place and
#      appended to the journal from the same buffer) and compare the
#      server's reply race set to the offline one;
#   4. send once more under an io_eintr fault storm (every:7): the
#      EINTR-retry wrappers in Proto must make the session
#      indistinguishable from an undisturbed one;
#   5. SIGTERM must drain the server cleanly;
#   6. repeat 3-5 on a `--jobs 2` server: the session streams into two
#      shard workers from its first event under the same fault storm,
#      and its race set must still match the offline one.
#
# Environment:
#   EVENTS  synthetic trace size  (default 100000)
#   RD2     path to the rd2 binary (default _build/default/bin/rd2.exe)
set -eu
cd "$(dirname "$0")/.."

EVENTS="${EVENTS:-100000}"
RD2="${RD2:-_build/default/bin/rd2.exe}"

if [ ! -x "$RD2" ]; then
  echo "ingest_smoke: $RD2 not built (dune build bin/rd2.exe)" >&2
  exit 2
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/crd-ingest.XXXXXX")
SOCK="$WORK/serve.sock"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# --- trace + offline reference ---------------------------------------
"$RD2" synth -n "$EVENTS" --seed 7 --format bin -o "$WORK/trace.ctrace"
"$RD2" check "$WORK/trace.ctrace" --format bin -v \
  | grep '^comm' | sort > "$WORK/expected.races"
EXPECTED=$(wc -l < "$WORK/expected.races" | tr -d ' ')
echo "ingest_smoke: events=$EVENTS expected_races=$EXPECTED"

# --- server with the EINTR fault point armed --------------------------
# every:7 fires on the 7th, 14th, ... io_eintr consultation — every send
# below runs through a storm of injected EINTRs on every socket read and
# write, exercising the retry loops, not just one hiccup.
start_server() {
  rm -f "$SOCK"
  "$RD2" serve -a "unix:$SOCK" --journal "$WORK/journal" \
    --faults "seed=42,io_eintr=every:7" "$@" \
    > "$WORK/server.out" 2> "$WORK/server.err" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || {
      echo "ingest_smoke: FAIL — server died on startup" >&2
      cat "$WORK/server.err" >&2
      exit 1
    }
    sleep 0.1
  done
}

run_send() {
  nonce="$1"
  "$RD2" send "$WORK/trace.ctrace" --format bin -a "unix:$SOCK" \
    --retries 3 --timeout 60 --nonce "$nonce" > "$WORK/reply.$nonce" || {
    echo "ingest_smoke: FAIL — send $nonce failed" >&2
    cat "$WORK/server.err" >&2
    exit 1
  }
  grep '^comm' "$WORK/reply.$nonce" | sort > "$WORK/races.$nonce"
  if ! cmp -s "$WORK/races.$nonce" "$WORK/expected.races"; then
    echo "ingest_smoke: FAIL — online race set ($nonce) != offline rd2 check" >&2
    diff "$WORK/expected.races" "$WORK/races.$nonce" | head -20 >&2
    exit 1
  fi
  echo "ingest_smoke: $nonce OK ($EXPECTED races, identical to offline)"
}

# --- graceful shutdown ------------------------------------------------
stop_server() {
  kill -TERM "$SERVER_PID"
  i=0
  while kill -0 "$SERVER_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "ingest_smoke: FAIL — server did not drain after SIGTERM" >&2
      exit 1
    fi
    sleep 0.1
  done
  wait "$SERVER_PID" 2>/dev/null || {
    status=$?
    if [ "$status" -ne 0 ]; then
      echo "ingest_smoke: FAIL — server exited $status after SIGTERM" >&2
      cat "$WORK/server.err" >&2
      exit 1
    fi
  }
  SERVER_PID=""
}

start_server --workers 2
run_send smoke-1
run_send smoke-2
stop_server

# --- the streamed sharded path -----------------------------------------
start_server --workers 1 --jobs 2
run_send smoke-j2
if ! grep -q '^events: [0-9]* (2 shards)' "$WORK/reply.smoke-j2"; then
  echo "ingest_smoke: FAIL — the --jobs 2 session did not shard" >&2
  head -3 "$WORK/reply.smoke-j2" >&2
  exit 1
fi
stop_server
echo "ingest_smoke: PASS"
