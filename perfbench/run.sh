#!/usr/bin/env bash
# Builds hhserverd and the perfbench command from the source of the
# checkout it is run in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload ingest-zipf-wire --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build caches, binaries and every
# per-run temporary directory live under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hhserverd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/hhserverd or perfbench/go.mod here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
# Keep the toolchain's caches and config inside the checkout, never fetch
# modules, and ignore a caller's GOFLAGS so the root module builds from
# its vendor directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/hhserverd" ./cmd/hhserverd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -hhserverd "$out/bin/hhserverd" "$@"
