#!/bin/sh
# Write the simulator's deterministic outputs into OUTDIR, one file per
# run: `neve_sim paper`, the trap listings, chaos, fuzz (plain, snapshot
# oracle and SMP), serve, fleet, recover, three migrations (one under an
# OoH dirty-log grant), five snapshot images (one under an OoH timer and
# list-register grant), the trace exports and every example.  Two
# checkouts that behave the same write byte-identical directories, so
#
#   test/outputs.sh /tmp/a && (cd ../other && test/outputs.sh /tmp/b)
#   diff -r /tmp/a /tmp/b
#
# is the byte-identity check for a change that must not move any
# output.  Builds the checkout first; stops at the first run that exits
# nonzero.
#
# Usage: test/outputs.sh OUTDIR
set -eu
if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
dune build
sim=$(pwd)/_build/default/bin/neve_sim.exe

# run FILE ARGS...: neve_sim ARGS with stdout into OUTDIR/FILE
run() {
  file=$1
  shift
  "$sim" "$@" > "$out/$file"
}

# in_out FILE ARGS...: the same, run inside OUTDIR, so that the files
# the command writes, and the names it prints, are relative to it
in_out() {
  (cd "$out" && run "$@")
}

run paper.txt paper
run traps-v83.txt traps
run traps-neve.txt traps -m neve
run traps-v83-vhe.txt traps --vhe
run traps-neve-vhe.txt traps -m neve --vhe
run traps-v83-pv.txt traps -m v8.3-pv
run traps-neve-pv.txt traps -m neve-pv
run traps-v83-pv-vhe.txt traps -m v8.3-pv --vhe
run traps-neve-pv-vhe.txt traps -m neve-pv --vhe
run traps-neve-verbose.txt traps -m neve -v 2> "$out/traps-neve-verbose.stderr"
run chaos-42.txt chaos --seed 42 --traps 10000
run fuzz-0.json fuzz --seed 0 -n 300 --json
run fuzz-42.json fuzz --seed 42 -n 300 --json
run fuzz-snap-oracle-7.json fuzz --snap-oracle --seed 7 -n 150 --json
run fuzz-smp-5.txt fuzz --smp --seed 5 -n 10
run fuzz-smp-5.json fuzz --smp --seed 5 -n 10 --json
run serve-30.txt serve -n 30
run serve-30.json serve -n 30 --json
run fleet-200.json fleet -n 200 --json
run recover.txt recover
run migrate.txt migrate
run migrate-v83-pv.txt migrate --mech v8.3-pv
run migrate-neve-vhe-dirty-log.txt migrate --mech neve --vhe --expose dirty-log
in_out snapshot-neve-vhe.txt snapshot snapshot-neve-vhe.img --mech neve --vhe
in_out snapshot-v83.txt snapshot snapshot-v83.img --mech v8.3
in_out snapshot-neve-pv-vhe.txt snapshot snapshot-neve-pv-vhe.img --mech neve-pv --vhe
in_out snapshot-single-vm.txt snapshot snapshot-single-vm.img --single-vm
in_out snapshot-neve-vhe-ooh.txt snapshot snapshot-neve-vhe-ooh.img --mech neve --vhe --expose timer,gic-lrs
in_out trace.txt trace --json trace-metrics.json --chrome trace-chrome.json
for src in examples/*.ml; do
  ex=$(basename "$src" .ml)
  "./_build/default/examples/$ex.exe" > "$out/example-$ex.txt"
done
