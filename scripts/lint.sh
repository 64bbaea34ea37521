#!/usr/bin/env sh
# scripts/lint.sh — the repo's `make lint` equivalent: formatting, the
# stock vet suite, and the repo's own invariant analyzers (cmd/imlint)
# in both driver modes. CI's imlint job runs exactly this script, so a
# clean local run is a clean gate.
#
# The two imlint modes must agree diagnostic-for-diagnostic: standalone
# loads and checks every package in one process; vettool mode is the
# `go vet -vettool` unitchecker protocol, one invocation per package
# with vet's own caching. Running both catches driver drift.
set -eu

cd "$(dirname "$0")/.."

echo '== gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo '== go vet'
go vet ./...

# bench/ is its own module outside ./...; vet and test it so a drift in
# the internal/imm surface it imports fails here.
echo '== bench module (vet, test)'
(cd bench && go vet ./... && go test ./...)

imlint="${TMPDIR:-/tmp}/imlint.$$"
trap 'rm -f "$imlint"' EXIT
echo '== build imlint'
go build -o "$imlint" ./cmd/imlint

echo '== imlint (standalone)'
"$imlint" ./...

echo '== imlint (go vet -vettool)'
go vet -vettool="$imlint" ./...

echo 'lint: clean'
