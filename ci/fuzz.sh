#!/usr/bin/env bash
# Runs every native fuzz target in the module for a fixed time each:
#   ci/fuzz.sh 10s    (the push-time fuzz-smoke job; the nightly passes 5m)
# Targets are discovered, not listed, so a new Fuzz* function is covered the
# day it lands. A crasher fails the run and leaves its input under the
# package's testdata/fuzz/<target>/ — check it in with the fix.
set -euo pipefail
fuzztime=${1:?usage: ci/fuzz.sh <fuzztime, e.g. 10s>}
targets=0
for pkg in $(go list ./...); do
  for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
    echo "== $pkg $target ($fuzztime)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" "$pkg"
    targets=$((targets + 1))
  done
done
echo "fuzzed $targets targets for $fuzztime each"
# internal/kv has five (FuzzFrameBuilderMatchesPackPartitions holds the
# combine tables' frame builder to PackPartitions); internal/workloads four (FuzzLineReader,
# FuzzBinaryClickReader, FuzzSessionizeReducerMatchesReference,
# FuzzClickMapVerbatim); internal/incr
# (FuzzBlockFrames, the capture decoder, and FuzzMergeMatchesReference) and
# internal/textfmt (FuzzParseSize, FuzzParseClickText) and internal/memtable
# (FuzzTableMatchesReference, FuzzPartitionedMatchesTables) two each; and
# internal/sortmerge (FuzzStreamMatchesReference), internal/sketch
# (FuzzSpaceSavingMatchesReference), internal/engine
# (FuzzStagedSizedMatchesUnits), internal/dfs (FuzzCommitMatchesAppend),
# internal/faults (FuzzFaultsParse) and cmd/jobserve (FuzzParseTenant) one
# each; finding fewer than 21 means discovery broke, not that the tree got
# safer.
[ "$targets" -ge 21 ]
