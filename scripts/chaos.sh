#!/usr/bin/env bash
# chaos.sh — process-level durability harness for the sptd daemon.
#
# Runs the crashtest suite: builds the real sptd binary, drives it with
# concurrent load, SIGKILLs it at randomized points, restarts it on the
# same cache files, and asserts the durability contract — salvage never
# fails, no torn entry is ever served, and every response behind a
# completed flush comes back warm and byte-identical after restart, and
# that a daemon dies with the process that started it. Then runs the
# flush-interval sweep, which logs the durability/latency trade-off
# table (warm p50/p95 vs max-loss window).
#
# Usage: scripts/chaos.sh
#   SPTD_CHAOS_CYCLES=20 scripts/chaos.sh        # CI runs 20 cycles
set -euo pipefail
cd "$(dirname "$0")/.."

cycles=${SPTD_CHAOS_CYCLES:-6}

# The test binary — the concurrent client load and all salvage-side
# assertions — is race-instrumented; the sptd binary under test is the
# real production build.
SPTD_CHAOS_CYCLES="$cycles" go test -race -run 'TestCrashRestartCycles|TestDaemonDiesWithParent' -count=1 -v ./internal/service/crashtest/

go test -run 'TestFlushIntervalSweep' -count=1 -v ./internal/service/crashtest/
