#!/usr/bin/env bash
# Non-test Go lines in the root module, for the checked-out tree and for
# the base it is compared with, and the delta — ROADMAP aim 2 asks every
# PR to report this number. Nested modules (a directory with its own
# go.mod, e.g. benchmark/) and *_test.go files are not counted.
#
# The base is the merge-base with the PR's target branch in CI; locally it
# falls back to HEAD^, or to $LOC_BASE when set (any commit-ish — e.g.
# HEAD to measure an uncommitted tree against it).
set -euo pipefail

cd "$(dirname "$0")/.."

if [ -n "${LOC_BASE:-}" ]; then
  BASE=$(git rev-parse "$LOC_BASE")
elif [ -n "${GITHUB_BASE_REF:-}" ]; then
  git fetch -q origin "$GITHUB_BASE_REF"
  BASE=$(git merge-base HEAD "origin/$GITHUB_BASE_REF")
else
  BASE=$(git rev-parse HEAD^)
fi

# count prints the number of lines in dir's .go files that are neither
# tests nor inside a nested module.
count() {
  (cd "$1" && find . -name .git -prune -o -mindepth 2 -name go.mod -printf '%h/*\n' | {
    mapfile -t nested
    args=()
    for m in "${nested[@]}"; do args+=(-not -path "$m"); done
    find . -name .git -prune -o -type f -name '*.go' -not -name '*_test.go' "${args[@]}" -print0 | xargs -0 cat | wc -l
  })
}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
git archive "$BASE" | tar -x -C "$WORK"
old=$(count "$WORK")
new=$(count .)

printf 'non-test Go lines, root module\n'
printf '  base %s  %6d\n' "$(git rev-parse --short "$BASE")" "$old"
printf '  tree %s  %6d\n' "$(git rev-parse --short HEAD)" "$new"
printf '  delta          %+6d\n' "$((new - old))"
