#!/usr/bin/env bash
# Snapshot gate: regenerate all six BENCH_*.json snapshots with
# bench_snapshot.sh into a temporary directory and fail when a committed
# snapshot differs from its fresh copy. Host wall-clock is machine noise,
# so the comparison drops `git_sha` and every `host_*` member first; every
# other value -- modelled times, counters, decisions -- must match exactly.
# A change that moves a modelled number therefore has to commit the
# regenerated snapshot (scripts/bench_snapshot.sh) with it.
#
# Usage: scripts/check_snapshots.sh   (BUILD_DIR selects the build tree)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"
fresh="$(mktemp -d /tmp/check_snapshots_XXXX)"
trap 'rm -rf "$fresh"' EXIT

# The bench binaries' progress goes to a log, shown only on failure.
if ! BUILD_DIR="$build" FUSION_JSON="$fresh/BENCH_fusion.json" \
  MEMPROF_JSON="$fresh/BENCH_memprof.json" \
  bash "$repo/scripts/bench_snapshot.sh" \
  "$fresh/BENCH_table1.json" "$fresh/BENCH_serving.json" \
  "$fresh/BENCH_sharding.json" "$fresh/BENCH_ropes.json" \
  >"$fresh/log" 2>&1; then
  cat "$fresh/log"
  echo "check_snapshots: bench_snapshot.sh failed"
  exit 1
fi

python3 - "$repo" "$fresh" <<'PY'
import json, os, sys

repo, fresh = sys.argv[1], sys.argv[2]
NAMES = ["table1", "serving", "sharding", "ropes", "fusion", "memprof"]


def load(path):
    # Numbers stay strings, so a comparison is exact to the printed digit.
    with open(path) as f:
        return json.load(f, parse_float=str, parse_int=str)


def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items()
                if k != "git_sha" and not k.startswith("host_")}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def first_difference(a, b, path="$"):
    if type(a) is not type(b):
        return f"{path}: {a!r} != {b!r}"
    if isinstance(a, dict):
        for k in list(a) + [k for k in b if k not in a]:
            if k not in a or k not in b:
                return f"{path}.{k}: present on one side only"
            d = first_difference(a[k], b[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: {len(a)} != {len(b)} entries"
        for i, (x, y) in enumerate(zip(a, b)):
            d = first_difference(x, y, f"{path}[{i}]")
            if d:
                return d
        return None
    return None if a == b else f"{path}: committed {a} != fresh {b}"


stale = 0
for name in NAMES:
    file = f"BENCH_{name}.json"
    committed = strip(load(os.path.join(repo, file)))
    regenerated = strip(load(os.path.join(fresh, file)))
    diff = first_difference(committed, regenerated)
    if diff:
        stale += 1
        print(f"{file}: stale, {diff}")
    else:
        print(f"{file}: reproduces")
if stale:
    print(f"check_snapshots: {stale} snapshot(s) differ; regenerate them "
          "with scripts/bench_snapshot.sh and commit the result")
    sys.exit(1)
print("check_snapshots: all six snapshots reproduce")
PY
