#!/bin/sh
# Fails if any checked-in artifact under results/ has drifted from what
# the code renders today. Both pipelines are deterministic end to end
# (fixed generation seed, index-derived split seeds, fixed-format
# renderers, wall times on stderr only), so a byte diff means someone
# changed the suites, the models, the assessment battery, or a renderer
# without regenerating — regenerate with:
#
#     go run ./cmd/specchar matrix -o results
#     go run ./cmd/experiments -o results/full_run.txt -dotdir results
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/specchar matrix -o "$tmp" >/dev/null
go run ./cmd/experiments -o "$tmp/full_run.txt" -dotdir "$tmp"

status=0
for f in transfer_matrix.json transfer_matrix.md transfer_matrix.svg \
    full_run.txt figure1.dot figure2.dot; do
    if ! cmp -s "results/$f" "$tmp/$f"; then
        echo "results/$f is stale (differs from a fresh render)" >&2
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "regenerate with:" >&2
    echo "    go run ./cmd/specchar matrix -o results" >&2
    echo "    go run ./cmd/experiments -o results/full_run.txt -dotdir results" >&2
    exit 1
fi
echo "results/ artifacts are fresh"
