#!/usr/bin/env bash
# Cross-version protocol smoke: build mdctl/mdagentd/mdregistry from the
# merge-base of the change under test, then cross the two generations
# over real localhost TCP. Control plane: old client vs new daemon and
# new client vs old daemon, each smoking info, ps, and one watch event.
# Snapshot wire: old mdagentd replicating to a new mdregistry and the
# reverse, each asserting the center lists the app's snapshot. Migration:
# an mdagentd of one generation checks an application in at one of the
# other; whenever the check-in encoding differs between the two, the
# migration must fail promptly with the receiver's refusal and leave the
# application running on the source. Every wire op has one encoding and
# no fallback, so this N<->N-1 run is the only net under a wire-format
# break (sealed-frame layout, fast-frame layout, reply shapes) that every
# same-version test is blind to.
#
# In CI the base is merge-base with the PR's target branch; locally (or
# on push builds) it falls back to HEAD^, or to $COMPAT_BASE when set
# (any commit-ish — e.g. HEAD to cross an uncommitted tree with it).
set -euo pipefail

cd "$(dirname "$0")/.."

if [ -n "${COMPAT_BASE:-}" ]; then
  BASE=$(git rev-parse "$COMPAT_BASE")
elif [ -n "${GITHUB_BASE_REF:-}" ]; then
  git fetch -q origin "$GITHUB_BASE_REF"
  BASE=$(git merge-base HEAD "origin/$GITHUB_BASE_REF")
else
  BASE=$(git rev-parse HEAD^)
fi
echo "== protocol-compat: $(git rev-parse --short HEAD) (new) vs $(git rev-parse --short "$BASE") (old)"

WORK=$(mktemp -d)
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

mkdir -p "$WORK/new" "$WORK/old" "$WORK/base"
go build -o "$WORK/new/" ./cmd/mdctl ./cmd/mdagentd ./cmd/mdregistry
git archive "$BASE" | tar -x -C "$WORK/base"
(cd "$WORK/base" && go build -o "$WORK/old/" ./cmd/mdctl ./cmd/mdagentd ./cmd/mdregistry)

# wait_line FILE PATTERN [TIMEOUT_SEC]: block until the pattern shows up
# in a daemon's log, dumping the log on timeout.
wait_line() {
  local file=$1 pattern=$2 deadline=$((SECONDS + ${3:-30}))
  until grep -q "$pattern" "$file" 2>/dev/null; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "timed out waiting for '$pattern' in $file" >&2
      cat "$file" >&2 || true
      return 1
    fi
    sleep 0.2
  done
}

# addr_from FILE PATTERN: extract the bound address a daemon prints as
# "... on <addr>".
addr_from() {
  grep "$2" "$1" | head -1 | sed -e 's/.* on //' -e 's/[ ,].*//'
}

run_pair() {
  local daemons=$1 client=$2 label=$3
  echo "-- pair: $label"
  local dir="$WORK/run-$label"
  mkdir -p "$dir"

  "$daemons/mdregistry" -listen 127.0.0.1:0 -space lab \
    -store "$dir/registry" >"$dir/registry.log" 2>&1 &
  local reg_pid=$!
  wait_line "$dir/registry.log" "serving registry@lab on "
  local reg_addr
  reg_addr=$(addr_from "$dir/registry.log" "serving registry@lab on ")

  "$daemons/mdagentd" -host hostA -listen 127.0.0.1:0 -registry "$reg_addr" \
    -space lab -install smart-media-player >"$dir/agentd.log" 2>&1 &
  local agent_pid=$!
  wait_line "$dir/agentd.log" "serving on "
  local agent_addr
  agent_addr=$(addr_from "$dir/agentd.log" "serving on ")

  "$client/mdctl" -server "$agent_addr" info >/dev/null
  "$client/mdctl" -server "$agent_addr" ps >/dev/null

  # One watch event across the generations: subscribe first (the
  # "watching" line means the server acked), then trigger app.started.
  "$client/mdctl" -server "$agent_addr" -json watch \
    -count 1 -for 30s -filter app.started >"$dir/watch.log" 2>&1 &
  local watch_pid=$!
  wait_line "$dir/watch.log" "watching"
  "$client/mdctl" -server "$agent_addr" run smart-media-player >/dev/null
  if ! wait "$watch_pid"; then
    echo "watch exited non-zero" >&2
    cat "$dir/watch.log" >&2
    return 1
  fi
  if ! grep -q '"topic":"app.started"' "$dir/watch.log"; then
    echo "watch never delivered app.started" >&2
    cat "$dir/watch.log" >&2
    return 1
  fi
  echo "   info/ps ok; watch delivered: $(grep '"topic"' "$dir/watch.log" | head -1)"

  kill "$agent_pid" "$reg_pid" 2>/dev/null || true
  wait "$agent_pid" "$reg_pid" 2>/dev/null || true
}

# run_snap_pair AGENTD_DIR REGISTRY_DIR LABEL: a replicating mdagentd of
# one generation streams its running app's state to a center of the
# other; the center must list the snapshot within 10 s.
run_snap_pair() {
  local agentd=$1 registry=$2 label=$3
  echo "-- pair: $label"
  local dir="$WORK/run-$label"
  mkdir -p "$dir"

  "$registry/mdregistry" -listen 127.0.0.1:0 -space lab >"$dir/registry.log" 2>&1 &
  local reg_pid=$!
  wait_line "$dir/registry.log" "serving registry@lab on "
  local reg_addr
  reg_addr=$(addr_from "$dir/registry.log" "serving registry@lab on ")

  "$agentd/mdagentd" -host hostA -listen 127.0.0.1:0 -registry "$reg_addr" \
    -space lab -replicate 50ms -run smart-media-player >"$dir/agentd.log" 2>&1 &
  local agent_pid=$!
  wait_line "$dir/agentd.log" "serving on "

  local deadline=$((SECONDS + 10))
  until "$WORK/new/mdctl" -server "$reg_addr" snapshots 2>/dev/null |
    awk '$1 == "smart-media-player" && $4 >= 1 { found = 1 } END { exit !found }'; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "center never listed a smart-media-player snapshot with seq >= 1" >&2
      "$WORK/new/mdctl" -server "$reg_addr" snapshots >&2 || true
      cat "$dir/agentd.log" "$dir/registry.log" >&2
      return 1
    fi
    sleep 0.2
  done
  echo "   snapshot replicated: $("$WORK/new/mdctl" -server "$reg_addr" snapshots | awk '$1 == "smart-media-player"')"

  kill "$agent_pid" "$reg_pid" 2>/dev/null || true
  wait "$agent_pid" "$reg_pid" 2>/dev/null || true
}

# run_migrate_pair SRC_DIR DST_DIR LABEL REFUSAL: hostA (one generation)
# runs the player and is told to migrate it to hostB (the other). With
# the same check-in encoding on both sides the migration succeeds and the
# center lists the player running on hostB. Otherwise mdctl must exit
# non-zero within 10 s — a hang is a failure — naming REFUSAL (the
# receiver's own error text), and the center must still list the player
# running on hostA.
run_migrate_pair() {
  local src=$1 dst=$2 label=$3 refusal=$4
  echo "-- pair: $label"
  local dir="$WORK/run-$label"
  mkdir -p "$dir"

  "$WORK/new/mdregistry" -listen 127.0.0.1:0 -space lab >"$dir/registry.log" 2>&1 &
  local reg_pid=$!
  wait_line "$dir/registry.log" "serving registry@lab on "
  local reg_addr
  reg_addr=$(addr_from "$dir/registry.log" "serving registry@lab on ")

  "$dst/mdagentd" -host hostB -listen 127.0.0.1:0 -registry "$reg_addr" \
    -space lab -install smart-media-player >"$dir/hostB.log" 2>&1 &
  local b_pid=$!
  wait_line "$dir/hostB.log" "serving on "
  local b_addr
  b_addr=$(addr_from "$dir/hostB.log" "serving on ")

  "$src/mdagentd" -host hostA -listen 127.0.0.1:0 -registry "$reg_addr" \
    -space lab -peer "hostB=$b_addr" -run smart-media-player >"$dir/hostA.log" 2>&1 &
  local a_pid=$!
  wait_line "$dir/hostA.log" "serving on "
  local a_addr
  a_addr=$(addr_from "$dir/hostA.log" "serving on ")

  local status=0
  timeout 10 "$WORK/new/mdctl" -server "$a_addr" migrate smart-media-player hostB \
    >"$dir/migrate.log" 2>&1 || status=$?
  if [ "$status" -eq 124 ]; then
    echo "mdctl migrate hung for 10 s" >&2
    cat "$dir/migrate.log" "$dir/hostA.log" "$dir/hostB.log" >&2
    return 1
  fi
  local running_on=hostB
  if [ "$status" -eq 0 ]; then
    # Same check-in encoding on both sides (the change under test did
    # not touch it): the migration simply works.
    echo "   migrated: check-in encoding unchanged between the generations"
  else
    if ! grep -q "$refusal" "$dir/migrate.log"; then
      echo "migration failed without the receiver's refusal '$refusal'" >&2
      cat "$dir/migrate.log" >&2
      return 1
    fi
    running_on=hostA
    echo "   refused in time: $(head -1 "$dir/migrate.log")"
  fi
  if ! "$WORK/new/mdctl" -server "$reg_addr" ps |
    awk -v host="$running_on" '$1 == "smart-media-player" && $2 == host && $4 == "true" { found = 1 } END { exit !found }'; then
    echo "center does not list smart-media-player running on $running_on" >&2
    "$WORK/new/mdctl" -server "$reg_addr" ps >&2 || true
    return 1
  fi
  echo "   player running on $running_on"

  kill "$a_pid" "$b_pid" "$reg_pid" 2>/dev/null || true
  wait "$a_pid" "$b_pid" "$reg_pid" 2>/dev/null || true
}

run_pair "$WORK/new" "$WORK/old" old-client-vs-new-daemon
run_pair "$WORK/old" "$WORK/new" new-client-vs-old-daemon
run_snap_pair "$WORK/old" "$WORK/new" old-agentd-vs-new-registry
run_snap_pair "$WORK/new" "$WORK/old" new-agentd-vs-old-registry
run_migrate_pair "$WORK/old" "$WORK/new" old-source-vs-new-destination "unsupported protocol version"
run_migrate_pair "$WORK/new" "$WORK/old" new-source-vs-old-destination "gob"
echo "== protocol-compat: all six mixed pairs passed"
