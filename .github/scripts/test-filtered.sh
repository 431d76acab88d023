#!/usr/bin/env bash
# Runs `cargo test --release <args>` and fails when the run executes no
# test at all: a name filter that matches nothing (a renamed or deleted
# test) would otherwise pass silently. Each call must select one test
# target (`--lib`, `--test <name>`), whose result line must count at
# least one passed test.
#
#   .github/scripts/test-filtered.sh -p amalur-matrix --lib colstable
set -uo pipefail
log=$(cargo test --release "$@" 2>&1)
status=$?
printf '%s\n' "$log"
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$log"; then
  echo "::error::no test ran: cargo test --release $*" >&2
  exit 1
fi
