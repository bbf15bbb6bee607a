#!/usr/bin/env bash
# Measures which functions the repository's commands reach, and fails on any
# function that none of them reaches unless ci/reach-allow.txt names it:
#   ci/reach.sh [outdir]
# It builds runjob, jobserve, check, experiments, datagen and every example
# with `go build -cover -coverpkg=./...`, runs the command set below with
# GOCOVERDIR set, and reads the result with `go tool covdata func`. The
# per-function listing is left in <outdir>/func.txt and the statement-level
# profile (`go tool covdata textfmt`) in <outdir>/stmt.txt, in a temporary
# directory by default. bench/ is the benchmark harness, not a command, and
# internal/kv/zsort.go is generated, so neither is judged.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)
bin=$out/bin
export GOCOVERDIR=$out/covdata
rm -rf "$bin" "$GOCOVERDIR"
mkdir -p "$bin" "$GOCOVERDIR" "$out/run"

go build -cover -coverpkg=./... -o "$bin/" \
  ./cmd/runjob ./cmd/jobserve ./cmd/check ./cmd/experiments ./cmd/datagen
for ex in examples/*/; do
  go build -cover -coverpkg=./... -o "$bin/example-$(basename "$ex")" "./$ex"
done

# run NAME CMD...: run one command quietly; a failing command fails the gate,
# because what it would have reached goes unmeasured.
run() {
  local name=$1; shift
  if ! "$@" > "$out/run/$name.log" 2>&1; then
    echo "reach: command failed: $*" >&2
    tail -5 "$out/run/$name.log" >&2
    exit 1
  fi
}
# run_fails NAME CMD...: a command that must exit non-zero (a diagnostic path).
run_fails() {
  local name=$1; shift
  if "$@" > "$out/run/$name.log" 2>&1; then
    echo "reach: command should have failed: $*" >&2
    exit 1
  fi
}

# Every behaviour-fingerprint case, dispatched on its command word. A runjob
# line writes the artifacts TestFingerprint pins; a -delta line takes none of
# those flags.
n=0
while IFS= read -r line; do
  case $line in ''|'#'*) continue ;; esac
  n=$((n + 1))
  read -r cmd args <<< "${line%%|*}"
  case $cmd in
  runjob)
    case " $args " in
    *' -delta '*) extra=() ;;
    *) extra=(-json -trace "$out/run/fp.trace" -profile-json "$out/run/fp.profile") ;;
    esac ;;
  jobserve) extra=(-json) ;;
  check) extra=(-q -out "$out/run/fp.md") ;;
  *) echo "reach: unknown command in testdata/fingerprint.txt: $line" >&2; exit 1 ;;
  esac
  # shellcheck disable=SC2086 # the arguments are space-separated words
  run "fingerprint-$n" "$bin/$cmd" $args "${extra[@]}"
done < testdata/fingerprint.txt

# The README's commands, at sizes that keep the run short.
r=$bin/runjob
run readme-hadoop "$r" -workload sessionization -engine hadoop -size 8MB -profile
run readme-gantt "$r" -workload sessionization -engine hash-hotkey -size 8MB -gantt
run readme-json "$r" -workload per-user-count -engine hash-incremental -size 8MB -json
run readme-serial "$r" -workload sessionization -size 8MB -parallel-intra 1
run readme-fault "$r" -workload sessionization -engine hop -size 8MB -fault 'fail@0.05s:n3'
run readme-diskslow "$r" -workload per-user-count -engine hadoop -size 8MB \
  -fault 'disk-slow@0.05s+0.1s:n1x8'
run readme-chaos "$r" -workload sessionization -engine hash-incremental -size 8MB -fault-seed 7
run readme-hostprof "$r" -workload per-user-count -engine hash-incremental -size 4MB \
  -cpuprofile "$out/run/cpu.pprof" -memprofile "$out/run/mem.pprof" \
  -exectrace "$out/run/exec.trace"
run readme-delta-resident "$r" -workload per-user-count -engine resident -size 8MB -delta 0.01
run readme-delta-windowed "$r" -workload windowed-sessionization -engine hash-incremental \
  -size 8MB -delta 0.01
run readme-jobserve "$bin/jobserve" -json
run readme-jobserve-tenants "$bin/jobserve" \
  -tenant name=gold,weight=2,rate=12,jobs=14 \
  -tenant name=silver,weight=1,rate=12,jobs=14 \
  -tenant "name=batch,prio=0,rate=6,jobs=8,mix=sessionization@hadoop+per-user-count@hop" \
  -cpuprofile "$out/run/js-cpu.pprof" -memprofile "$out/run/js-mem.pprof" \
  -exectrace "$out/run/js-exec.trace"
run_fails readme-starvation "$bin/jobserve" -arrival constant -starvation-passes 8 \
  -tenant name=vip,prio=1,rate=300,jobs=40 -tenant name=peasant,rate=50,jobs=6
run readme-check "$bin/check" -seeds 4 -parallel-intra 2 -q -out "$out/run/check.md"

# Every engine on the other workloads and input paths.
for e in hadoop mapreduce-online hash-hybrid hash-incremental hash-hotkey resident; do
  for w in page-frequency windowed-sessionization; do
    run "w-$e-$w" "$r" -workload "$w" -engine "$e" -size 4MB -ssd -reducers 4 -nodes 4
  done
  run "split-$e" "$r" -workload inverted-index -engine "$e" -size 4MB -split -stream 2
  run "progress-$e" "$r" -workload per-user-count -engine "$e" -size 4MB \
    -fault 'fail@0.02s:n2' -progress -profile-json "$out/run/p.json"
done
# One reducer behind a push-only engine: its queue fills, so mappers block on
# backpressure and stash chunks to disk.
run backpressure "$r" -workload sessionization -engine mapreduce-online -size 16MB \
  -reducers 1 -nodes 4
# Enough map output on few reducers that hadoop runs merge passes.
run mergepass "$r" -workload sessionization -engine hadoop -size 32MB -block 128KB \
  -taskmem 128KB -reducers 2

# Every example.
for ex in "$bin"/example-*; do
  run "$(basename "$ex")" "$ex"
done

# The data generator, both formats.
run datagen-clicks "$bin/datagen" -kind clicks -size 1MB -o "$out/run/clicks.txt"
run datagen-binary "$bin/datagen" -kind clicks -size 1MB -binary -o "$out/run/clicks.bin"
run datagen-docs "$bin/datagen" -kind docs -size 1MB -o "$out/run/docs.txt"

# A small experiments sweep, and one experiment with every artifact flag.
x=$bin/experiments
run experiments "$x" -scale 0.00003125 -parallel 2 -q -out "$out/run/exp.md"
run experiments-artifacts "$x" -scale 0.00003125 -exp 'Table I' -parallel 2 -q -audit \
  -trace-dir "$out/run/traces" -profile-dir "$out/run/profiles" -out "$out/run/table.md"

go tool covdata func -i "$GOCOVERDIR" > "$out/func.txt"
go tool covdata textfmt -i "$GOCOVERDIR" -o "$out/stmt.txt"
total=$(awk '$1 == "total"' "$out/func.txt")

# Each unreached function as "<package path> <Func or Recv.Method>": the
# listing gives file:line, so read the receiver off the declaration there.
mod=$(go list -m)
awk -F'\t+' '$NF == "0.0%" {print $1}' "$out/func.txt" | while IFS=: read -r file line _; do
  case $file in "$mod"/bench/*|*/zsort.go) continue ;; esac
  decl=$(sed -n "${line}p" "${file#"$mod"/}")
  name=$(sed -E 's/^func (\(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) )?([A-Za-z0-9_]+).*/\3.\5/; s/^\.//' <<< "$decl")
  echo "${file%/*} $name"
done | sort -u > "$out/unreached.txt"

awk '!/^#/ && NF {print $1, $2}' ci/reach-allow.txt | sort -u > "$out/allowed.txt"
comm -23 "$out/unreached.txt" "$out/allowed.txt" > "$out/fail.txt"
echo "reach: $(wc -l < "$out/unreached.txt") unreached functions, $(wc -l < "$out/allowed.txt") allowed; $total" \
  | tr -s '\t ' ' '
if [ -s "$out/fail.txt" ]; then
  echo "reach: no command reaches these, and ci/reach-allow.txt does not list them:" >&2
  sed 's/^/  /' "$out/fail.txt" >&2
  exit 1
fi
