#!/usr/bin/env bash
# Cross-version protocol smoke: build mdctl/mdagentd/mdregistry from the
# merge-base of the change under test, then cross the two generations
# over real localhost TCP. Control plane: old client vs new daemon and
# new client vs old daemon, each smoking info, ps, and one watch event.
# Snapshot wire: old mdagentd replicating to a new mdregistry and the
# reverse, each asserting the center lists the app's snapshot — or, when
# the new mdagentd writes a snapshot frame version the old center does
# not read, that the center refuses every put with its typed "unsupported
# frame version" and lists nothing. (No pair drives registry.lookup-app:
# a single-center migration's commit demotes the source itself. An N-1
# center refuses the fast lookup with ErrVersion; see the registry's
# golden frame tests.) Migration:
# an mdagentd of one generation checks an application in at one of the
# other, and two new ones move it through a center of the old; whenever
# an encoding of the leg differs between the generations, the migration
# must fail promptly with the receiver's typed refusal (ErrVersion from a
# center or engine, ErrNoHandler from a media server) and leave the
# application running on the source. Bundles: a bundle pushed through an
# mdagentd of one generation is forwarded to a center of the other; the
# forward rides the center's ctl.bundle-push (one trust gate), so a daemon
# that still forwards over the retired registry.put-bundle op is refused
# promptly and nothing is stored. Store upgrades: a -store directory the
# old mdregistry wrote (standalone, then federated), holding a bundle
# over 64 KiB, opens under the new one with the same apps and bundles
# listed. These two pairs are the proof of the compatibility window for
# bytes at rest (DESIGN.md §2): a build reads the layout the build before
# it wrote, and refuses anything older with store.ErrLayout. Every wire
# op has one encoding and
# no fallback, so this N<->N-1 run is the only net under a wire-format
# break (sealed-frame layout, fast-frame layout, reply shapes) that every
# same-version test is blind to.
#
# All of that rides on the link envelope and its handshake
# (internal/transport/envelope.go), which is probed first and judged by
# outcome: a new mdctl asks an old mdregistry for info. If it answers,
# the generations share the envelope and the nine pairs run. If it is
# refused naming "unsupported protocol version" — a base from before the
# envelope — every cross-generation link ends at the handshake, so the
# script checks instead that each direction is refused in time and that
# the new daemon keeps serving.
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

# run_snap_pair AGENTD_DIR REGISTRY_DIR LABEL [REFUSAL]: a replicating
# mdagentd of one generation streams its running app's state to a center
# of the other. When both read the frames the agentd writes, the center
# must list the snapshot within 10 s. When the center is older than the
# frames (REFUSAL set: an mdagentd writing snapshot and delta frames v3
# against a center that reads v1 only), the agentd must print the
# center's typed refusal (REFUSAL, its error text) within 10 s and the
# center must list no snapshot.
run_snap_pair() {
  local agentd=$1 registry=$2 label=$3 refusal=${4:-}
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
    if [ -n "$refusal" ] && grep -q "$refusal" "$dir/agentd.log"; then
      if "$WORK/new/mdctl" -server "$reg_addr" snapshots 2>/dev/null | grep -q smart-media-player; then
        echo "the center lists a snapshot of a put it refused" >&2
        "$WORK/new/mdctl" -server "$reg_addr" snapshots >&2 || true
        return 1
      fi
      echo "   refused, nothing listed: $(grep -m1 "$refusal" "$dir/agentd.log")"
      kill "$agent_pid" "$reg_pid" 2>/dev/null || true
      wait "$agent_pid" "$reg_pid" 2>/dev/null || true
      return 0
    fi
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

# run_migrate_pair SRC_DIR DST_DIR LABEL REFUSAL [REGISTRY_DIR]: hostA
# (SRC_DIR's generation) runs the player and is told to migrate it, with
# adaptive binding, to hostB (DST_DIR's), both registered at a center of
# REGISTRY_DIR's generation (default: the new one). With the same
# encodings of every request of the leg on all sides (plan-move,
# check-in, media read, move-app) the migration succeeds and the center
# lists the player running on hostB. Otherwise mdctl must exit non-zero
# within 10 s — a hang is a failure — naming REFUSAL (the receiver's own
# error text), and the center must still list the player running on
# hostA. Either way the center must list it running on exactly one host:
# a pair that both registers the arrival and leaves the source's record
# running would show two.
run_migrate_pair() {
  local src=$1 dst=$2 label=$3 refusal=$4 registry=${5:-$WORK/new}
  echo "-- pair: $label"
  local dir="$WORK/run-$label"
  mkdir -p "$dir"

  "$registry/mdregistry" -listen 127.0.0.1:0 -space lab >"$dir/registry.log" 2>&1 &
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
    # Same encodings on all sides (the change under test did not touch
    # the leg's frames): the migration simply works.
    echo "   migrated: the leg's encodings unchanged between the generations"
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
    awk -v host="$running_on" '$1 == "smart-media-player" && $4 == "true" { n++; on = $2 } END { exit !(n == 1 && on == host) }'; then
    echo "center does not list smart-media-player running on $running_on and nowhere else" >&2
    "$WORK/new/mdctl" -server "$reg_addr" ps >&2 || true
    return 1
  fi
  echo "   player running on $running_on"

  kill "$a_pid" "$b_pid" "$reg_pid" 2>/dev/null || true
  wait "$a_pid" "$b_pid" "$reg_pid" 2>/dev/null || true
}

# run_bundle_pair AGENTD_DIR REGISTRY_DIR LABEL REFUSAL: both sides trust
# a key made with `mdctl bundle keygen`, and a bundle signed with it is
# pushed through the mdagentd (one generation), which forwards it to the
# center (the other). A push that succeeds must leave the bundle listed
# at the center: both generations forward over the same op. A push that
# fails must exit non-zero within 10 s naming REFUSAL (an empty REFUSAL
# means the pair has to succeed), and the center must list nothing. The
# refusal only happens when the old daemon predates the one bundle write
# gate and still forwards over the retired registry.put-bundle op.
run_bundle_pair() {
  local agentd=$1 registry=$2 label=$3 refusal=$4
  echo "-- pair: $label"
  local dir="$WORK/run-$label"
  mkdir -p "$dir"

  "$WORK/new/mdctl" -server 127.0.0.1:1 bundle keygen -out "$dir/publisher" >/dev/null
  local key
  key=$(cat "$dir/publisher.pub")
  cat >"$dir/spec.json" <<'SPEC'
{"app": "compat-notepad", "components": [{"name": "notes", "kind": "state"}],
 "state": {"notes": {"line1": "pushed through a host daemon"}}}
SPEC
  "$WORK/new/mdctl" -server 127.0.0.1:1 bundle pack -spec "$dir/spec.json" \
    -key "$dir/publisher.key" -out "$dir/notepad.mdab" >/dev/null

  "$registry/mdregistry" -listen 127.0.0.1:0 -space lab -trust-key "$key" \
    >"$dir/registry.log" 2>&1 &
  local reg_pid=$!
  wait_line "$dir/registry.log" "serving registry@lab on "
  local reg_addr
  reg_addr=$(addr_from "$dir/registry.log" "serving registry@lab on ")

  "$agentd/mdagentd" -host hostA -listen 127.0.0.1:0 -registry "$reg_addr" \
    -space lab -trust-key "$key" >"$dir/agentd.log" 2>&1 &
  local agent_pid=$!
  wait_line "$dir/agentd.log" "serving on "
  local agent_addr
  agent_addr=$(addr_from "$dir/agentd.log" "serving on ")

  local status=0
  timeout 10 "$WORK/new/mdctl" -server "$agent_addr" bundle push "$dir/notepad.mdab" \
    >"$dir/push.log" 2>&1 || status=$?
  if [ "$status" -eq 124 ]; then
    echo "mdctl bundle push hung for 10 s" >&2
    cat "$dir/push.log" "$dir/agentd.log" "$dir/registry.log" >&2
    return 1
  fi
  "$WORK/new/mdctl" -server "$reg_addr" bundle list >"$dir/list.log"
  local listed=0
  grep -q compat-notepad "$dir/list.log" || listed=$?
  if [ "$status" -eq 0 ]; then
    if [ "$listed" -ne 0 ]; then
      echo "forwarded push succeeded but the center does not list it" >&2
      cat "$dir/push.log" "$dir/agentd.log" "$dir/registry.log" >&2
      return 1
    fi
    echo "   forwarded and stored: $(head -1 "$dir/push.log")"
  else
    if [ -z "$refusal" ] || ! grep -q "$refusal" "$dir/push.log"; then
      echo "forwarded push failed (exit $status) without the refusal '$refusal'" >&2
      cat "$dir/push.log" "$dir/agentd.log" "$dir/registry.log" >&2
      return 1
    fi
    if [ "$listed" -eq 0 ]; then
      echo "the center stored a bundle it refused" >&2
      return 1
    fi
    echo "   refused in time, nothing stored: $(head -1 "$dir/push.log")"
  fi

  kill "$agent_pid" "$reg_pid" 2>/dev/null || true
  wait "$agent_pid" "$reg_pid" 2>/dev/null || true
}

# run_store_upgrade_pair SPACE LABEL: the old mdregistry — standalone
# when SPACE is empty, else the center of SPACE — takes one install
# registration (an old mdagentd's -install) and one bundle push into a
# -store directory, then stops. The bundle's notes value makes it larger
# than 64 KiB, past the blob threshold of the stores that kept a blob log
# (a base older than commit 63a41ad, whose store this build refuses). The new
# mdregistry opens the same directory and must list the same apps and
# bundles: the window's proof that a store the base wrote opens under
# the change.
run_store_upgrade_pair() {
  local space=$1 label=$2
  echo "-- pair: $label"
  local dir="$WORK/run-$label"
  mkdir -p "$dir"
  local name=registry-center
  local space_flags=()
  if [ -n "$space" ]; then
    name="registry@$space"
    space_flags=(-space "$space")
  fi

  "$WORK/new/mdctl" -server 127.0.0.1:1 bundle keygen -out "$dir/publisher" >/dev/null
  local key
  key=$(cat "$dir/publisher.pub")
  local notes
  notes=$(printf 'stored by one generation, read by the next. %.0s' $(seq 1500))
  cat >"$dir/spec.json" <<SPEC
{"app": "compat-notepad", "components": [{"name": "notes", "kind": "state"}],
 "state": {"notes": {"line1": "$notes"}}}
SPEC
  "$WORK/new/mdctl" -server 127.0.0.1:1 bundle pack -spec "$dir/spec.json" \
    -key "$dir/publisher.key" -out "$dir/notepad.mdab" >/dev/null
  if [ "$(wc -c <"$dir/notepad.mdab")" -le 65536 ]; then
    echo "the pushed bundle is not larger than 64 KiB" >&2
    return 1
  fi

  "$WORK/old/mdregistry" -listen 127.0.0.1:0 "${space_flags[@]}" -store "$dir/store" \
    -trust-key "$key" >"$dir/old-registry.log" 2>&1 &
  local reg_pid=$!
  wait_line "$dir/old-registry.log" "serving $name on "
  local reg_addr
  reg_addr=$(addr_from "$dir/old-registry.log" "serving $name on ")

  "$WORK/old/mdagentd" -host hostA -listen 127.0.0.1:0 -registry "$reg_addr" \
    "${space_flags[@]}" -install smart-media-player >"$dir/agentd.log" 2>&1 &
  local agent_pid=$!
  wait_line "$dir/agentd.log" "serving on "
  "$WORK/old/mdctl" -server "$reg_addr" bundle push "$dir/notepad.mdab" >/dev/null
  local deadline=$((SECONDS + 10))
  until "$WORK/new/mdctl" -server "$reg_addr" ps 2>/dev/null | grep -q smart-media-player; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "the old registry never listed the installed smart-media-player" >&2
      cat "$dir/agentd.log" "$dir/old-registry.log" >&2
      return 1
    fi
    sleep 0.2
  done
  "$WORK/new/mdctl" -server "$reg_addr" ps >"$dir/ps-old.txt"
  "$WORK/new/mdctl" -server "$reg_addr" bundle list >"$dir/bundles-old.txt"
  kill "$agent_pid" 2>/dev/null || true
  wait "$agent_pid" 2>/dev/null || true
  kill "$reg_pid" 2>/dev/null || true
  wait "$reg_pid" 2>/dev/null || true

  "$WORK/new/mdregistry" -listen 127.0.0.1:0 "${space_flags[@]}" -store "$dir/store" \
    >"$dir/new-registry.log" 2>&1 &
  reg_pid=$!
  wait_line "$dir/new-registry.log" "serving $name on "
  reg_addr=$(addr_from "$dir/new-registry.log" "serving $name on ")
  "$WORK/new/mdctl" -server "$reg_addr" ps >"$dir/ps-new.txt"
  "$WORK/new/mdctl" -server "$reg_addr" bundle list >"$dir/bundles-new.txt"
  if ! grep -q compat-notepad "$dir/bundles-old.txt" ||
    ! cmp -s "$dir/ps-old.txt" "$dir/ps-new.txt" ||
    ! cmp -s "$dir/bundles-old.txt" "$dir/bundles-new.txt"; then
    echo "the new mdregistry lists other apps or bundles from the old one's store" >&2
    diff "$dir/ps-old.txt" "$dir/ps-new.txt" >&2 || true
    diff "$dir/bundles-old.txt" "$dir/bundles-new.txt" >&2 || true
    cat "$dir/new-registry.log" >&2
    return 1
  fi
  echo "   same apps and bundles after the upgrade: $(grep smart-media-player "$dir/ps-new.txt" | head -1)"

  kill "$reg_pid" 2>/dev/null || true
  wait "$reg_pid" 2>/dev/null || true
}

# expect_refusal LABEL SECS LOG CMD...: CMD must exit non-zero within
# SECS naming the handshake's ErrVersion.
expect_refusal() {
  local label=$1 secs=$2 log=$3
  shift 3
  local status=0
  timeout "$secs" "$@" >"$log" 2>&1 || status=$?
  if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "$label: wanted a refusal within $secs s, got exit $status" >&2
    cat "$log" >&2
    return 1
  fi
  if ! grep -q "unsupported protocol version" "$log"; then
    echo "$label: failed without naming the envelope refusal" >&2
    cat "$log" >&2
    return 1
  fi
  echo "   $label: refused in time: $(grep -m1 "unsupported protocol version" "$log")"
}

# envelopes_differ: probe the envelope with a new mdctl against an old
# mdregistry. Returns 1 when they match; when they differ, checks both
# directions across the break and returns 0.
envelopes_differ() {
  echo "-- envelope probe"
  local dir="$WORK/run-envelope"
  mkdir -p "$dir"
  "$WORK/old/mdregistry" -listen 127.0.0.1:0 -space lab >"$dir/old-registry.log" 2>&1 &
  local old_pid=$!
  wait_line "$dir/old-registry.log" "serving registry@lab on " || return 2
  local old_addr
  old_addr=$(addr_from "$dir/old-registry.log" "serving registry@lab on ")

  local status=0
  timeout 5 "$WORK/new/mdctl" -server "$old_addr" info >"$dir/probe.log" 2>&1 || status=$?
  if [ "$status" -eq 0 ]; then
    echo "   envelopes match: $(head -1 "$dir/probe.log")"
    kill "$old_pid" 2>/dev/null || true
    wait "$old_pid" 2>/dev/null || true
    return 1
  fi
  expect_refusal "new mdctl -> old mdregistry" 5 "$dir/probe.log" \
    "$WORK/new/mdctl" -server "$old_addr" info || return 2
  expect_refusal "new mdagentd -> old mdregistry" 5 "$dir/new-agentd.log" \
    "$WORK/new/mdagentd" -host hostA -listen 127.0.0.1:0 -registry "$old_addr" -space lab || return 2

  "$WORK/new/mdregistry" -listen 127.0.0.1:0 -space lab >"$dir/new-registry.log" 2>&1 &
  local new_pid=$!
  wait_line "$dir/new-registry.log" "serving registry@lab on " || return 2
  local new_addr
  new_addr=$(addr_from "$dir/new-registry.log" "serving registry@lab on ")
  # An old client cannot read the new preamble and waits out its own
  # -timeout; it must not hang past it.
  status=0
  timeout 10 "$WORK/old/mdctl" -timeout 3s -server "$new_addr" info >"$dir/old-mdctl.log" 2>&1 || status=$?
  if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "old mdctl -> new mdregistry: wanted a failure within 10 s, got exit $status" >&2
    cat "$dir/old-mdctl.log" >&2
    return 2
  fi
  echo "   old mdctl -> new mdregistry: failed in time: $(head -1 "$dir/old-mdctl.log")"
  if ! "$WORK/new/mdctl" -timeout 5s -server "$new_addr" info >"$dir/new-mdctl.log" 2>&1; then
    echo "new mdregistry stopped answering after the old client" >&2
    cat "$dir/new-mdctl.log" "$dir/new-registry.log" >&2
    return 2
  fi
  echo "   new mdregistry still serving: $(head -1 "$dir/new-mdctl.log")"
  kill "$old_pid" "$new_pid" 2>/dev/null || true
  wait "$old_pid" "$new_pid" 2>/dev/null || true
}

status=0
envelopes_differ || status=$?
case $status in
0)
  echo "== protocol-compat: envelopes differ; every cross-generation link refused in time, nothing hung"
  exit 0
  ;;
1) ;;
*) exit 1 ;;
esac

run_pair "$WORK/new" "$WORK/old" old-client-vs-new-daemon
run_pair "$WORK/old" "$WORK/new" new-client-vs-old-daemon
run_snap_pair "$WORK/old" "$WORK/new" old-agentd-vs-new-registry
run_snap_pair "$WORK/new" "$WORK/old" new-agentd-vs-old-registry "unsupported frame version"
run_migrate_pair "$WORK/old" "$WORK/new" old-source-vs-new-destination "unsupported protocol version"
run_migrate_pair "$WORK/new" "$WORK/old" new-source-vs-old-destination "unknown fast opcode"
run_migrate_pair "$WORK/new" "$WORK/new" new-hosts-vs-old-center "unsupported protocol version" "$WORK/old"
run_bundle_pair "$WORK/new" "$WORK/old" new-agentd-vs-old-registry-bundle ""
run_bundle_pair "$WORK/old" "$WORK/new" old-agentd-vs-new-registry-bundle "no handler"
run_store_upgrade_pair "" standalone-store-upgrade
run_store_upgrade_pair lab federated-store-upgrade
echo "== protocol-compat: all nine mixed pairs and both store upgrades passed"
