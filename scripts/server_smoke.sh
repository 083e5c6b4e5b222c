#!/usr/bin/env bash
# End-to-end smoke for the tabulard server (PR 6, CI job):
#
#   1. Run the Fig-1 restructuring example through the single-shot
#      interpreter (tabular_shell) to produce the golden database.
#   2. Start tabulard on a unix socket, run the same program through
#      tabular_cli, dump the committed result.
#   3. Byte-compare server result against the golden.
#   4. SIGTERM the daemon and assert it drains and exits 0.
#   5. Restart with admission control (TABULAR_ADMIT_MAX_ROWS): the same
#      restructuring program — statically unbounded through MERGE — must
#      now be refused before execution, while a bounded program still runs.
#   6. Every malformed numeric flag or variable stops tabulard at startup
#      with exit 2 and an error naming it; so does a malformed
#      `tabular_cli --connect` port.
#
# Usage: scripts/server_smoke.sh <build-dir>

set -u

BUILD_DIR="${1:?usage: server_smoke.sh <build-dir>}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
SHELL_BIN="$BUILD_DIR/examples/tabular_shell"
DAEMON_BIN="$BUILD_DIR/tools/tabulard"
CLI_BIN="$BUILD_DIR/tools/tabular_cli"
DB="$REPO_DIR/examples/sales.tdb"
PROGRAM="$REPO_DIR/examples/sales_restructuring.ta"

WORK="$(mktemp -d)"
SOCK="$WORK/tabulard.sock"
DAEMON_PID=""

fail() {
  echo "server_smoke: FAIL: $*" >&2
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  rm -rf "$WORK"
  exit 1
}

for bin in "$SHELL_BIN" "$DAEMON_BIN" "$CLI_BIN"; do
  [ -x "$bin" ] || fail "missing binary: $bin"
done

# 1. The single-shot golden.
"$SHELL_BIN" "$DB" "$PROGRAM" "$WORK/golden.tdb" \
  || fail "tabular_shell failed on $PROGRAM"

# 2. The server path.
"$DAEMON_BIN" --db "$DB" --unix "$SOCK" --quiet &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  if "$CLI_BIN" --unix "$SOCK" ping >/dev/null 2>&1; then
    break
  fi
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "tabulard died during startup"
  sleep 0.1
done
"$CLI_BIN" --unix "$SOCK" ping >/dev/null || fail "tabulard never answered ping"

"$CLI_BIN" --unix "$SOCK" run "$PROGRAM" || fail "tabular_cli run failed"
"$CLI_BIN" --unix "$SOCK" dump > "$WORK/server.tdb" \
  || fail "tabular_cli dump failed"

# 3. Byte identity between the server-committed database and the golden.
cmp "$WORK/golden.tdb" "$WORK/server.tdb" \
  || fail "server result differs from the single-shot interpreter golden"

# A second session still sees the committed version.
"$CLI_BIN" --unix "$SOCK" tables | grep -q "Sales" \
  || fail "committed tables not visible to a fresh session"

# 4. Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$DAEMON_PID"
WAIT_STATUS=0
wait "$DAEMON_PID" || WAIT_STATUS=$?
[ "$WAIT_STATUS" -eq 0 ] || fail "tabulard exited $WAIT_STATUS on SIGTERM"
[ ! -e "$SOCK" ] || fail "tabulard left its unix socket behind"
DAEMON_PID=""

# 5. Admission control: under a row budget (seeded from the environment,
# the deployment path), the statically-unbounded restructuring program is
# rejected before execution; a bounded program on the same daemon runs.
SOCK2="$WORK/tabulard-admit.sock"
TABULAR_ADMIT_MAX_ROWS=1000000 \
  "$DAEMON_BIN" --db "$DB" --unix "$SOCK2" --quiet &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  if "$CLI_BIN" --unix "$SOCK2" ping >/dev/null 2>&1; then
    break
  fi
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "admission tabulard died during startup"
  sleep 0.1
done

ADMIT_ERR="$WORK/admit.err"
if "$CLI_BIN" --unix "$SOCK2" run "$PROGRAM" 2> "$ADMIT_ERR"; then
  fail "admission-controlled tabulard executed a statically-unbounded program"
fi
grep -q "AdmissionRejected" "$ADMIT_ERR" \
  || fail "rejection did not carry AdmissionRejected: $(cat "$ADMIT_ERR")"
grep -q "statically unbounded" "$ADMIT_ERR" \
  || fail "rejection did not name the unbounded verdict: $(cat "$ADMIT_ERR")"

"$CLI_BIN" --unix "$SOCK2" run "$REPO_DIR/examples/fig1.ta" \
  || fail "admission-controlled tabulard refused a bounded program"

kill -TERM "$DAEMON_PID"
WAIT_STATUS=0
wait "$DAEMON_PID" || WAIT_STATUS=$?
[ "$WAIT_STATUS" -eq 0 ] || fail "admission tabulard exited $WAIT_STATUS on SIGTERM"
DAEMON_PID=""

# 6. A malformed numeric flag or variable fails loudly (exit 2, naming it)
# instead of silently becoming 0 or wrapping: strtoull of garbage would
# turn an admission limit off, refuse every session (--max-sessions abc) or
# log every request (--slow-ms x), and port 70000 would bind 4464.
BAD_START=(timeout 10 "$DAEMON_BIN" --db "$DB" --unix "$WORK/bad.sock" --quiet)
refused() {  # refused <name the error must contain> <command...>
  local name="$1"
  shift
  local status=0
  "$@" 2> "$WORK/bad.err" || status=$?
  [ "$status" -eq 2 ] || fail "'$*' exited $status, want 2"
  grep -q -- "$name" "$WORK/bad.err" \
    || fail "'$*' did not name $name: $(cat "$WORK/bad.err")"
}
refused TABULAR_ADMIT_MAX_ROWS env TABULAR_ADMIT_MAX_ROWS=notanumber "${BAD_START[@]}"
refused TABULAR_SLOW_MS env TABULAR_SLOW_MS=x "${BAD_START[@]}"
refused --max-est-rows "${BAD_START[@]}" --max-est-rows 10x
refused --max-est-bytes "${BAD_START[@]}" --max-est-bytes -1
refused --cache-capacity "${BAD_START[@]}" --cache-capacity 12abc
refused --max-sessions "${BAD_START[@]}" --max-sessions abc
refused --max-sessions "${BAD_START[@]}" --max-sessions 0
refused --drain-seconds "${BAD_START[@]}" --drain-seconds soon
refused --drain-seconds "${BAD_START[@]}" --drain-seconds -1
refused --slow-ms "${BAD_START[@]}" --slow-ms x
refused --metrics-port "${BAD_START[@]}" --metrics-port 70000
refused --listen "${BAD_START[@]}" --listen 127.0.0.1:70000
refused --listen "${BAD_START[@]}" --listen 127.0.0.1:http
# The client parses its port as strictly: a wrapped 70000 would dial 4464,
# and a service name would dial port 0.
refused --connect timeout 10 "$CLI_BIN" --connect 127.0.0.1:70000 ping
refused --connect timeout 10 "$CLI_BIN" --connect 127.0.0.1:http ping

rm -rf "$WORK"
echo "server_smoke: OK: server output byte-identical to single-shot golden," \
     "graceful shutdown exited 0, admission rejected the unbounded program," \
     "malformed numeric flags refused at startup"
