#!/usr/bin/env bash
# Non-test Go lines in the root module, for the checked-out tree and for
# the base it is compared with, and the delta — ROADMAP aim 2 asks every
# PR to report this number — then the same delta per directory
# (internal/<pkg>, cmd/<name>, the root), listing only directories whose
# count changed. Nested modules (a directory with its own go.mod, e.g.
# benchmark/) and *_test.go files are not counted.
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

# gofiles prints, NUL-separated, the current directory's .go files that
# are neither tests nor inside a nested module.
gofiles() {
  find . -name .git -prune -o -mindepth 2 -name go.mod -printf '%h/*\n' | {
    mapfile -t nested
    args=()
    for m in "${nested[@]}"; do args+=(-not -path "$m"); done
    find . -name .git -prune -o -type f -name '*.go' -not -name '*_test.go' "${args[@]}" -print0
  }
}

# count prints the number of lines in dir's counted files.
count() {
  (cd "$1" && gofiles | xargs -0 cat | wc -l)
}

# bydir prints "<dir> <lines>" for dir's counted files, sorted by dir:
# internal/<pkg>, cmd/<name> and the like take the first two path
# elements, files at the top level are ".".
bydir() {
  (cd "$1" && gofiles | xargs -0 -r awk '
    { n = split(FILENAME, p, "/"); k = n == 2 ? "." : n == 3 ? p[2] : p[2] "/" p[3]; c[k]++ }
    END { for (k in c) print k, c[k] }' | awk '{ c[$1] += $2 } END { for (k in c) print k, c[k] }' | LC_ALL=C sort)
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

# Per-directory breakdown: only directories whose count changed. The two
# listings are not .go files, so writing them into $WORK changes no count.
bydir "$WORK" >"$WORK/loc.base"
bydir . >"$WORK/loc.tree"
LC_ALL=C join -a1 -a2 -e0 -o 0,1.2,2.2 "$WORK/loc.base" "$WORK/loc.tree" | awk '
  $2 != $3 { if (!hdr++) printf "\nby directory          base    tree   delta\n"
             printf "  %-18s %6d  %6d  %+6d\n", $1, $2, $3, $3 - $2 }'
