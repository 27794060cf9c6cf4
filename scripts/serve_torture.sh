#!/usr/bin/env sh
# Boots ardf-serve on a Unix socket with fault-injection drills armed,
# replays a poisoned request corpus through the daemon's own client
# mode, and verifies the robustness envelope end to end:
#
#   - the daemon answers every line (poison included) and never dies:
#     the replay ends with an orderly shutdown, exit code 0;
#   - every good lint request renders bit-identically to a fresh
#     single-shot `ardf-lint --format=json` run over the same file;
#   - each poison class (malformed JSON, JSON depth bomb, source parser
#     bomb, oversized payload, unknown method, missing/mistyped fields)
#     gets its designated error code, not a crash;
#   - the armed failpoints (serve.request throw, serve.session breach)
#     burn on sacrificial requests and the daemon keeps serving;
#   - the final stats response carries the request-latency histogram,
#     which is saved as the run's artifact;
#   - a deadline drill on a short-lived stdio daemon: a request stalled
#     past --deadline-ms is answered deadline by its own worker, the next
#     request is served, and the daemon exits 0 within 2 s of EOF.
#
# Usage: scripts/serve_torture.sh [build-dir] [out-dir]
#   build-dir  defaults to ./build (must contain tools/ardf-serve and
#              tools/ardf-lint).
#   out-dir    defaults to ./serve-torture-out; receives requests.ndjson,
#              responses.ndjson, daemon.log, serve-latency.json, and
#              deadline-drill.ndjson.
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
OUT_DIR=${2:-"$REPO_ROOT/serve-torture-out"}
SERVE="$BUILD_DIR/tools/ardf-serve"
LINT="$BUILD_DIR/tools/ardf-lint"

for Tool in "$SERVE" "$LINT"; do
  if [ ! -x "$Tool" ]; then
    echo "serve_torture.sh: error: missing $Tool (build ardf-serve and" \
      "ardf-lint first)" >&2
    exit 2
  fi
done

mkdir -p "$OUT_DIR"
# Unix socket paths are length-limited (~104 bytes); mktemp in /tmp
# keeps the path short regardless of where the checkout lives.
SOCK_DIR=$(mktemp -d /tmp/ardf-serve.XXXXXX)
SOCK="$SOCK_DIR/ardf.sock"
trap 'rm -rf "$SOCK_DIR"' EXIT

# Build the corpus: two sacrificial requests that soak up the armed
# failpoints, then poison lines interleaved with good lints over the
# bundled examples, a memo-hit repeat, a stats probe, and shutdown.
python3 "$REPO_ROOT/scripts/serve_corpus.py" \
  "$REPO_ROOT/examples/programs" \
  "$OUT_DIR/requests.ndjson" "$OUT_DIR/expect.json"

# Boot the daemon with the drills armed. The client replays the corpus
# strictly one line at a time (send, await response, repeat), so the
# @1 ordinals deterministically burn on the two sacrificial requests.
ARDF_FAILPOINTS='serve.request@1:throw,serve.session@1:breach' \
  "$SERVE" --socket="$SOCK" --workers=2 --deadline-ms=5000 \
  --max-request-bytes=65536 --tenant-quota=64 2>"$OUT_DIR/daemon.log" &
DAEMON_PID=$!

# The daemon unlinks-then-binds before announcing itself on stderr;
# wait for the socket node rather than racing the boot.
Tries=0
while [ ! -S "$SOCK" ]; do
  Tries=$((Tries + 1))
  if [ "$Tries" -gt 100 ]; then
    echo "serve_torture.sh: error: daemon never bound $SOCK" >&2
    cat "$OUT_DIR/daemon.log" >&2 || true
    kill "$DAEMON_PID" 2>/dev/null || true
    exit 2
  fi
  sleep 0.1
done

"$SERVE" --connect="$SOCK" \
  <"$OUT_DIR/requests.ndjson" >"$OUT_DIR/responses.ndjson"

# Survival is the headline assertion: the shutdown request (last corpus
# line) must produce an orderly exit 0, not a crash or a hang.
if ! wait "$DAEMON_PID"; then
  echo "serve_torture.sh: error: daemon exited abnormally" >&2
  cat "$OUT_DIR/daemon.log" >&2 || true
  exit 1
fi

# Verify every response against the manifest and extract the latency
# histogram artifact.
python3 "$REPO_ROOT/scripts/serve_verify.py" \
  --lint="$LINT" \
  --expect="$OUT_DIR/expect.json" \
  --responses="$OUT_DIR/responses.ndjson" \
  --latency-out="$OUT_DIR/serve-latency.json"

# Deadline drill: the first request stalls 300 ms at the serve.request
# failpoint under a 100 ms deadline. Its own worker must answer deadline
# once the stall returns, the good lint after it must be served, and the
# daemon must exit 0 within 2 s of EOF: no wedged thread is left behind.
ARDF_FAILPOINTS='serve.request@1:stall=300' python3 - "$SERVE" \
  "$OUT_DIR/deadline-drill.ndjson" <<'EOF'
import json
import subprocess
import sys

serve, out_path = sys.argv[1], sys.argv[2]
source = "do i = 1, 10 {\n  A[i] = A[i - 1] + 1;\n}\n"
requests = [{"method": "stats", "id": 1},
            {"method": "lint", "id": 2, "file": "drill.arf", "source": source}]
payload = "".join(json.dumps(r) + "\n" for r in requests).encode()
daemon = subprocess.Popen([serve, "--deadline-ms=100"],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE)
try:
    out, _ = daemon.communicate(payload, timeout=2)
except subprocess.TimeoutExpired:
    daemon.kill()
    daemon.communicate()
    sys.exit("serve_torture.sh: error: deadline drill: the daemon was "
             "still running 2 s after EOF")
with open(out_path, "wb") as f:
    f.write(out)
if daemon.returncode != 0:
    sys.exit(f"serve_torture.sh: error: deadline drill: the daemon exited "
             f"{daemon.returncode}")
replies = [json.loads(line) for line in out.decode().splitlines()]
if len(replies) != 2:
    sys.exit(f"serve_torture.sh: error: deadline drill: {len(replies)} "
             f"replies to 2 requests")
stalled, good = replies
if stalled.get("ok") or stalled.get("error", {}).get("code") != "deadline":
    sys.exit(f"serve_torture.sh: error: deadline drill: the stalled "
             f"request answered {stalled}")
if good.get("ok") is not True or good.get("id") != 2:
    sys.exit(f"serve_torture.sh: error: deadline drill: the lint after "
             f"the stall answered {good}")
print("serve_torture.sh: deadline drill ok (deadline, then ok)")
EOF

echo "serve_torture.sh: PASS (artifacts in $OUT_DIR)"
