#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage, from the root of the repository:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it builds or writes stays under .bench_build/ in the
# current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
