#!/usr/bin/env bash
# End-to-end smoke for tabulard's request-scoped observability:
#
#   1. Start tabulard with --metrics-port 0 and --slow-ms 0 (log every
#      request) on an ephemeral TCP port; discover both ports from the
#      banner.
#   2. `tabular_cli profile examples/fig1.ta` must print a profile tree
#      with per-operator instantiation and row counts plus counter deltas.
#   3. `tabular_cli slowlog` must show the profiled request (cache status,
#      rows, session/request ids).
#   4. A plain-HTTP GET of /metrics (the only Prometheus path) must pass
#      scripts/check_prometheus.py, including the
#      tabular_server_request_latency histogram.
#   5. SIGTERM the daemon and assert it drains and exits 0.
#
# Usage: scripts/metrics_smoke.sh <build-dir>

set -u

BUILD_DIR="${1:?usage: metrics_smoke.sh <build-dir>}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
DAEMON_BIN="$BUILD_DIR/tools/tabulard"
CLI_BIN="$BUILD_DIR/tools/tabular_cli"
CHECK_PROM="$REPO_DIR/scripts/check_prometheus.py"
DB="$REPO_DIR/examples/sales.tdb"
PROGRAM="$REPO_DIR/examples/fig1.ta"

WORK="$(mktemp -d)"
DAEMON_PID=""

fail() {
  echo "metrics_smoke: FAIL: $*" >&2
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  rm -rf "$WORK"
  exit 1
}

for bin in "$DAEMON_BIN" "$CLI_BIN"; do
  [ -x "$bin" ] || fail "missing binary: $bin"
done
[ -f "$CHECK_PROM" ] || fail "missing $CHECK_PROM"

# 1. Ephemeral ports for both the wire protocol and the metrics endpoint;
# the banner is the only place they are announced.
"$DAEMON_BIN" --db "$DB" --listen 127.0.0.1:0 --metrics-port 0 --slow-ms 0 \
  > "$WORK/tabulard.out" 2>&1 &
DAEMON_PID=$!

ENDPOINT=""
for _ in $(seq 1 100); do
  ENDPOINT="$(sed -n 's/^tabulard: listening on \([0-9.:]*\).*/\1/p' \
    "$WORK/tabulard.out")"
  [ -n "$ENDPOINT" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "tabulard died during startup"
  sleep 0.1
done
[ -n "$ENDPOINT" ] || fail "no listening banner from tabulard"
METRICS_URL="$(sed -n 's/^tabulard: metrics on \(http[^ ]*\).*/\1/p' \
  "$WORK/tabulard.out")"
[ -n "$METRICS_URL" ] || fail "no metrics banner from tabulard"

for _ in $(seq 1 100); do
  if "$CLI_BIN" --connect "$ENDPOINT" ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$CLI_BIN" --connect "$ENDPOINT" ping >/dev/null \
  || fail "tabulard never answered ping"

# 2. PROFILE over the wire: the tree must attribute instantiations and row
# counts to each statement, and the counter deltas must name the operators.
"$CLI_BIN" --connect "$ENDPOINT" profile "$PROGRAM" > "$WORK/profile.out" \
  || fail "tabular_cli profile failed"
grep -q "inst=" "$WORK/profile.out" \
  || fail "profile tree lacks instantiation counts"
grep -q "group by {Region}" "$WORK/profile.out" \
  || fail "profile tree lacks the group statement"
grep -q '"algebra.group.rows_in":8' "$WORK/profile.out" \
  || fail "profile counter deltas lack algebra.group.rows_in"

# 3. The slow-query log saw the run (threshold 0 records everything).
"$CLI_BIN" --connect "$ENDPOINT" slowlog > "$WORK/slowlog.out" \
  || fail "tabular_cli slowlog failed"
grep -q "prog=" "$WORK/slowlog.out" \
  || fail "slow-query log is empty despite --slow-ms 0"
grep -q "rows=8->" "$WORK/slowlog.out" \
  || fail "slow-query entry lacks snapshot row counts"

# 4. Prometheus exposition over HTTP, validated.
python3 "$CHECK_PROM" --url "$METRICS_URL" \
  --expect tabular_server_requests \
  --expect tabular_server_request_latency \
  || fail "HTTP exposition failed check_prometheus.py"

# 5. Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$DAEMON_PID"
WAIT_STATUS=0
wait "$DAEMON_PID" || WAIT_STATUS=$?
[ "$WAIT_STATUS" -eq 0 ] || fail "tabulard exited $WAIT_STATUS on SIGTERM"
DAEMON_PID=""

rm -rf "$WORK"
echo "metrics_smoke: OK: profile tree, slow-query log, and validated" \
     "Prometheus exposition over HTTP"
