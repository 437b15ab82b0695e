#!/usr/bin/env bash
# Failure paths of the mcdsm CLI: every bad flag value, unreadable or
# malformed file and deadlocked run must end with exactly one line
# "mcdsm: <message>" on stderr and exit status 2 (bad input) or 1
# (deadlock), never an uncaught exception; and --json --out echoes a
# non-ASCII path as valid JSON.
#
#   bash test/cli_errors.sh path/to/mcdsm.exe
#
# Scratch files go to ./cli_errors.tmp, removed on exit.

set -u
mcdsm=$1
work=cli_errors.tmp
rm -rf "$work"
mkdir "$work"
trap 'rm -rf "$work"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# expect STATUS ARG... : run mcdsm, check its exit status and stderr
expect() {
  local want=$1
  shift
  "$mcdsm" "$@" >"$work/out" 2>"$work/err"
  local got=$?
  if [ "$got" != "$want" ]; then
    fail "mcdsm $*: exit $got, expected $want"
  elif [ "$(grep -c '^mcdsm: ' "$work/err")" != 1 ] \
    || ! tail -n 1 "$work/err" | grep -q '^mcdsm: ' \
    || grep -q 'uncaught exception' "$work/err"; then
    fail "mcdsm $*: stderr is not one 'mcdsm: <message>' line"
  else
    return 0
  fi
  sed 's/^/    /' "$work/err"
}

# unreadable and malformed files
"$mcdsm" trace --app solver --format jsonl --out "$work/trace.jsonl" >/dev/null 2>&1
head -c 300 "$work/trace.jsonl" >"$work/truncated.jsonl"
expect 2 report --trace "$work/missing.jsonl"
expect 2 report --trace "$work/truncated.jsonl"
expect 2 report --trace "$work/trace.jsonl" --metrics "$work/truncated.jsonl"
expect 2 metrics --out "$work/no/such/dir/x.json"

# flag values the run rejects
expect 2 solver -w 0
expect 2 em --procs 0
expect 2 cholesky --density 2
expect 2 trace --buffer 0
expect 2 solver --memory central --shards 2

# the lock-based Cholesky reads guarded locations outside the lock,
# which entry consistency does not propagate: the run deadlocks
expect 1 cholesky --propagation entry
expect 1 check --app cholesky --propagation entry
expect 1 lint --app cholesky --propagation entry

# --json --out with a non-ASCII path: the echoed path is a JSON string
# holding the same UTF-8 bytes
path="$work/é.json"
for cmd in "metrics --app delivery" "trace --app solver" "report --app solver"; do
  # shellcheck disable=SC2086
  if ! "$mcdsm" $cmd --json --out "$path" >"$work/out" 2>/dev/null; then
    fail "mcdsm $cmd --json --out $path: non-zero exit"
  elif ! grep -qF "\"out\":\"$path\"" "$work/out"; then
    fail "mcdsm $cmd --json --out $path: path not echoed as a JSON string"
    sed 's/^/    /' "$work/out"
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "$failures CLI failure-path check(s) failed"
  exit 1
fi
