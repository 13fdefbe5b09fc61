#!/bin/sh
# Chaos soak: hammer a fault-injected `rd2 serve` with concurrent
# retrying clients and check three invariants the robustness layer
# promises (DESIGN.md section on Crd_fault):
#
#   1. the server process survives the whole soak (no crash — a
#      crashed session ends alone, its worker takes the next
#      connection), and its final stats count at least one such crash,
#      so the worker_body fault is seen to exercise that path;
#   2. every client that completes reports EXACTLY the races the
#      offline `rd2 check` finds on the same trace (faults may delay
#      sessions, never corrupt them);
#   3. SIGTERM at the end drains gracefully and the server exits 0.
#
# A second phase soaks the race database under an io_eintr storm: a
# server publishing into --racedb is SIGKILLed (no drain, no final
# sync), then a compaction is aborted by fault injection in exactly the
# window a mid-compaction kill would hit (tmp index written, rename
# pending). After every insult the
# reopened database must fold to exactly the fingerprint set the offline
# `rd2 check --fingerprints` reports.
#
# The fault sequence is deterministic for a given SEED (decisions are a
# pure function of (seed, point, hit index) — see Crd_fault), so a
# failing soak reproduces with the same environment.
#
# Environment:
#   SEED      fault stream seed             (default 42)
#   DURATION  soak length in seconds        (default 60)
#   CLIENTS   concurrent senders per round  (default 4)
#   RD2       path to the rd2 binary        (default _build/default/bin/rd2.exe)
set -eu
cd "$(dirname "$0")/.."

SEED="${SEED:-42}"
DURATION="${DURATION:-60}"
CLIENTS="${CLIENTS:-4}"
RD2="${RD2:-_build/default/bin/rd2.exe}"

if [ ! -x "$RD2" ]; then
  echo "chaos_soak: $RD2 not built (dune build bin/rd2.exe)" >&2
  exit 2
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/crd-chaos.XXXXXX")
SOCK="$WORK/serve.sock"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# --- reference: the offline race set for the soak trace ---------------
"$RD2" record snitch --format bin -o "$WORK/trace.ctrace"
"$RD2" check "$WORK/trace.ctrace" --format bin -v \
  | grep '^comm' | sort > "$WORK/expected.races"
EXPECTED=$(wc -l < "$WORK/expected.races" | tr -d ' ')
echo "chaos_soak: seed=$SEED duration=${DURATION}s clients=$CLIENTS" \
     "expected_races=$EXPECTED"

# --- fault-injected server --------------------------------------------
# Probabilities are sized so most sessions hit at least one fault over
# the soak while a 10-retry client still converges. No --resync: a
# corrupted frame must fail (and be retried) loudly, not be skipped.
FAULTS="seed=$SEED,sock_read=p:0.01,sock_write=p:0.02,decode_frame=p:0.01"
FAULTS="$FAULTS,worker_body=p:0.03,journal_append=p:0.002"

"$RD2" serve -a "unix:$SOCK" --workers 2 --backlog 16 \
  --journal "$WORK/journal" --faults "$FAULTS" \
  > "$WORK/server.out" 2> "$WORK/server.err" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "chaos_soak: FAIL — server died on startup" >&2
    cat "$WORK/server.err" >&2
    exit 1
  }
  sleep 0.1
done

# --- soak loop --------------------------------------------------------
DEADLINE=$(( $(date +%s) + DURATION ))
ROUND=0
OK=0
FAILED=0

while [ "$(date +%s)" -lt "$DEADLINE" ]; do
  ROUND=$((ROUND + 1))
  CLIENT_PIDS=""
  i=1
  while [ "$i" -le "$CLIENTS" ]; do
    (
      out="$WORK/client.$ROUND.$i"
      if "$RD2" send "$WORK/trace.ctrace" --format bin -a "unix:$SOCK" \
           --retries 10 --backoff 0.05 --timeout 20 \
           --nonce "soak-$ROUND-$i" > "$out" 2> "$out.err"; then
        grep '^comm' "$out" | sort > "$out.races"
        if ! cmp -s "$out.races" "$WORK/expected.races"; then
          echo "round $ROUND client $i: race set mismatch" > "$out.mismatch"
        fi
      else
        echo "round $ROUND client $i: send failed: $(cat "$out.err")" \
          > "$out.failed"
      fi
    ) &
    CLIENT_PIDS="$CLIENT_PIDS $!"
    i=$((i + 1))
  done
  # Explicit pids: a bare `wait` would also wait on the server job.
  for pid in $CLIENT_PIDS; do
    wait "$pid" || true
  done
  OK=$((OK + $(ls "$WORK"/client."$ROUND".*.races 2>/dev/null | wc -l)))
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "chaos_soak: FAIL — server crashed in round $ROUND" >&2
    cat "$WORK/server.err" >&2
    exit 1
  fi
  if ls "$WORK"/client."$ROUND".*.mismatch > /dev/null 2>&1; then
    cat "$WORK"/client."$ROUND".*.mismatch >&2
    echo "chaos_soak: FAIL — completed session diverged from rd2 check" >&2
    exit 1
  fi
  FAILED=$((FAILED + $(ls "$WORK"/client."$ROUND".*.failed 2>/dev/null | wc -l)))
  rm -f "$WORK"/client."$ROUND".*
done

# Exhausting 10 retries under these fault rates is astronomically
# unlikely; any such failure points at a real bug, not bad luck.
if [ "$FAILED" -gt 0 ]; then
  echo "chaos_soak: FAIL — $FAILED client(s) exhausted their retries" >&2
  exit 1
fi
if [ "$OK" -eq 0 ]; then
  echo "chaos_soak: FAIL — no session completed during the soak" >&2
  exit 1
fi

# --- graceful shutdown ------------------------------------------------
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
if [ "$STATUS" -ne 0 ]; then
  echo "chaos_soak: FAIL — server exited $STATUS on SIGTERM" >&2
  cat "$WORK/server.err" >&2
  exit 1
fi

echo "chaos_soak: server final stats: $(cat "$WORK/server.out")"
# worker_body=p:0.03 must have crashed sessions, and the server must
# have served on after each: a soak with no crash shows nothing.
CRASHES=$(sed -n 's/.*worker_crashes \([0-9][0-9]*\).*/\1/p' "$WORK/server.out")
if [ -z "$CRASHES" ] || [ "$CRASHES" -eq 0 ]; then
  echo "chaos_soak: FAIL — no worker crash counted (worker_crashes ${CRASHES:-missing})" >&2
  exit 1
fi
echo "chaos_soak: PASS — $OK sessions verified over $ROUND rounds," \
     "$CRASHES crashed sessions survived, 0 mismatches, clean SIGTERM drain"

# --- racedb phase: publish, SIGKILL, aborted compaction ---------------
"$RD2" check "$WORK/trace.ctrace" --format bin --fingerprints \
  | grep -E '^[0-9a-f]{16}$' | sort > "$WORK/expected.fps"
if [ ! -s "$WORK/expected.fps" ]; then
  echo "chaos_soak: FAIL — offline check found no fingerprints" >&2
  exit 1
fi

DBDIR="$WORK/racedb"
SOCK2="$WORK/serve2.sock"
RACEDB_SENDS=3
# Every racedb write (frames, markers, index) and session read in this
# phase runs under an interrupt storm: each second syscall gets EINTR.
EINTR="io_eintr=every:2"
"$RD2" serve -a "unix:$SOCK2" --workers 2 --racedb "$DBDIR" \
  --faults "seed=$SEED,$EINTR" \
  > "$WORK/server2.out" 2> "$WORK/server2.err" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK2" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "chaos_soak: FAIL — racedb server died on startup" >&2
    cat "$WORK/server2.err" >&2
    exit 1
  }
  sleep 0.1
done

i=1
while [ "$i" -le "$RACEDB_SENDS" ]; do
  "$RD2" send "$WORK/trace.ctrace" --format bin -a "unix:$SOCK2" \
    --retries 5 --backoff 0.05 --nonce "racedb-$i" > /dev/null
  i=$((i + 1))
done

query_fps() {
  "$RD2" query "$DBDIR" --json \
    | grep -o '"fingerprint":"[0-9a-f]*"' | cut -d'"' -f4 | sort
}

# The publisher thread appends asynchronously; wait (lock-free reads)
# until the last session's verdicts hit the segment log, then SIGKILL:
# no drain, no close, no fsync, no commit marker — recovery must
# salvage every published verdict from the raw segment bytes.
for _ in $(seq 1 100); do
  query_fps > "$WORK/db.fps" 2>/dev/null || true
  cmp -s "$WORK/db.fps" "$WORK/expected.fps" && break
  sleep 0.1
done
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

check_fps() {
  query_fps > "$WORK/db.fps"
  if ! cmp -s "$WORK/db.fps" "$WORK/expected.fps"; then
    echo "chaos_soak: FAIL — racedb diverged from rd2 check ($1)" >&2
    diff "$WORK/expected.fps" "$WORK/db.fps" >&2 || true
    exit 1
  fi
}

check_fps "after SIGKILL"

# Abort a compaction in the kill window (tmp index written, rename
# pending): the command must fail loudly and the store must be intact.
if CRD_FAULTS="seed=$SEED,racedb_compact=once,$EINTR" \
     "$RD2" db compact "$DBDIR" > /dev/null 2>&1; then
  echo "chaos_soak: FAIL — injected compaction abort reported success" >&2
  exit 1
fi
check_fps "after aborted compaction"

# The clean retry folds everything into the index; still the same set.
CRD_FAULTS="seed=$SEED,$EINTR" "$RD2" db compact "$DBDIR" > /dev/null
check_fps "after compaction"

echo "chaos_soak: PASS — racedb fingerprint set stable across SIGKILL," \
     "aborted compaction, and compaction ($RACEDB_SENDS sessions)"
