#!/usr/bin/env bash
# Builds picpar's benchmark and the picserve binary from the checkout this
# is run in, then runs one workload. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload paper-dynamic-2d --seed 7 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/work" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
# The program reads these; a value left in the environment would change
# what is measured.
unset PICPAR_PROCS PICPAR_CKPT_DIR PICPAR_CRASH PICPAR_WATCHDOG PICSERVE_ADDR

cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/picserve" picpar/cmd/picserve
cd "$root"
exec "$out/bin/perfbench" -picserve "$out/bin/picserve" -work "$out/work" "$@"
