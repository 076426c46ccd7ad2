#!/usr/bin/env bash
# Builds the benchmark and the s3cluster binary from this checkout, then
# runs one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload shared-scan --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the daemon's journals and logs
# all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/work"

# The Go toolchain's standard install location, for shells that lack it.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/s3cluster" ./cmd/s3cluster
exec "$out/perfbench" -s3cluster "$out/s3cluster" -workdir "$out/work" "$@"
