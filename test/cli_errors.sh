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

# input that is not RFC 8259 JSON: a number with a leading '+'
printf '{"traceEvents":[{"name":"x","ph":"X","ts":+1,"dur":1,"pid":0,"tid":0}]}\n' \
  >"$work/plus.json"
expect 2 report --trace "$work/plus.json"
grep -q '^mcdsm: malformed JSON input: ' "$work/err" \
  || fail "mcdsm report --trace $work/plus.json: not reported as malformed JSON"

# flag values the run rejects
expect 2 solver -w 0
expect 2 em --procs 0
expect 2 cholesky --density 2
expect 2 trace --buffer 0
expect 2 solver --memory central --shards 2

# --shards misuse: every rejection comes from the one placement builder
# (or, for an SC memory, from the memory runner)
expect 2 solver --variant handshake --shards 2
expect 2 check --app em --shards 2
expect 2 report --app em --shards 2
expect 2 check --app solver --memory central --shards 2

# a --model group member outside the run's processes: rejected before
# anything runs (stdout stays empty), with a message naming the member,
# on every path that checks a model
expect_member() {
  local member=$1
  shift
  expect 2 "$@" || return
  if [ -s "$work/out" ]; then
    fail "mcdsm $*: stdout is not empty"
  elif ! grep -q "member $member is out of range" "$work/err"; then
    fail "mcdsm $*: the message does not name member $member"
    sed 's/^/    /' "$work/err"
  fi
}
expect_member 9 em --check --model group:9
expect_member 9 em --check-online --model group:9
expect_member 9 em --memory central --check --model group:9
expect_member 9 em --memory invalidate --check-online --model group:9
expect_member 7 solver --check --model group:0,7
expect_member -1 cholesky --check --model group:-1
expect_member 2 check --model group:0,1,2
expect_member 2 check --online --model group:0,1,2
expect_member 3 check --app solver --shards 2 --model group:3

# report --app violation runs one fixed workload: the flags it would
# ignore are rejected
expect 2 report --app violation --shards 2
expect 2 report --app violation --placement hash
expect 2 report --app violation --propagation eager
expect 2 report --app violation --seed 7

# values the command-line parser rejects: a converter error, a number
# that does not parse, an unknown model (a message Cmdliner wraps) and
# an unknown subcommand
expect 2 solver --memory bogus
expect 2 solver -w abc
expect 2 check --model nosuch
expect 2 bogus-subcommand

# help and version are not errors
for args in "--help=plain" "solver --help=plain" "--version"; do
  # shellcheck disable=SC2086
  "$mcdsm" $args >/dev/null 2>&1 || fail "mcdsm $args: non-zero exit"
done

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
