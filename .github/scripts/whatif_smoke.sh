#!/usr/bin/env bash
# whatif-smoke: prove the incremental what-if path is an implementation
# detail, not a different answer. A `cdat serve --stdio` session first
# answers a plain witnessed `cdpf` solve of the paper's factory example
# (which caches the bare front, no subtree memo), then receives a
# 200-variant sweep (cost edits, damage edits, gate swaps) **twice** with
# witnesses — the first sweep meets the cached memo-less entry and builds
# the memo, the second reuses it — and once more with
# `"witnesses":false`. The session runs at `--workers 1` and again at
# `--workers 2` (a sweep's variants run on up to `--workers` threads).
# Every sweep's `variant` indices must ascend 0..N-1 per id. The solve
# line is diffed against `cdat batch` on the base tree, and every sweep
# response stream byte-for-byte against `cdat batch` solving every
# materialized variant from scratch (with or without `--witnesses`, as
# the sweep asked). Per the protocol's batch contract, stripping the
# `id`/`variant` prefix from a serve line and the `doc`/`name`/`cache`
# fields from a batch line must leave equal bytes. Each session's `stats`
# must show exactly one memo build.
#
# Usage: whatif_smoke.sh [path/to/cdat] [variants]
set -euo pipefail

CDAT=${1:-target/release/cdat}
VARIANTS=${2:-200}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

"$CDAT" example > "$workdir/base.cdat"

# Build the sweep requests (three `sweep` ops per server session, same
# patches) and the scratch suite (every patch materialized as its own
# document, textually — the patches only touch attributes and gate types,
# so the variant documents stay valid `cdat-format`).
python3 - "$workdir" "$VARIANTS" <<'EOF'
import json, sys

workdir, n = sys.argv[1], int(sys.argv[2])
base = open(workdir + "/base.cdat").read()
patches, docs = [], []
for k in range(n):
    cls = k % 3
    if cls == 0:
        patches.append({"cost": {"cyberattack": 1 + k}})
        text = base.replace("bas cyberattack cost=1",
                            "bas cyberattack cost=%d" % (1 + k))
    elif cls == 1:
        patches.append({"damage": {"destroy robot": 100 + k}})
        text = base.replace('and "destroy robot" damage=100',
                            'and "destroy robot" damage=%d' % (100 + k))
    else:
        patches.append({"gate": {"destroy robot": "or"},
                        "cost": {"force door": 2 + k}})
        text = base.replace('and "destroy robot"', 'or "destroy robot"') \
                   .replace('bas "force door" cost=2',
                            'bas "force door" cost=%d' % (2 + k))
    docs.append("--- v%d\n%s" % (k, text))

tree = json.dumps(base)
body = json.dumps(patches)
with open(workdir + "/requests.jsonl", "w") as f:
    f.write('{"id":2,"tree":%s,"query":"cdpf","witnesses":true}\n' % tree)
    for rid, witnesses in ((0, "true"), (1, "true"), (4, "false")):
        f.write('{"id":%d,"op":"sweep","tree":%s,"query":"cdpf",'
                '"witnesses":%s,"patches":%s}\n' % (rid, tree, witnesses, body))
with open(workdir + "/suite.cdat", "w") as f:
    f.write("".join(docs))
EOF

# The scratch references: every variant solved as its own document, with
# and without witnesses, and the base tree alone.
"$CDAT" batch "$workdir/suite.cdat" --cdpf --witnesses --workers 2 \
  | sed -E 's/^\{"doc":[0-9]+,"name":"v[0-9]+",/{/; s/"cache":"(hit|miss)",//' \
  > "$workdir/scratch.out"
"$CDAT" batch "$workdir/suite.cdat" --cdpf --workers 2 \
  | sed -E 's/^\{"doc":[0-9]+,"name":"v[0-9]+",/{/; s/"cache":"(hit|miss)",//' \
  > "$workdir/scratch-bare.out"
"$CDAT" batch "$workdir/base.cdat" --cdpf --witnesses --workers 2 \
  | sed -E 's/^\{"doc":[0-9]+,/{/; s/"cache":"(hit|miss)",//' \
  > "$workdir/base-batch.out"
seq 0 $((VARIANTS - 1)) > "$workdir/variants.want"

for workers in 1 2; do
  out="$workdir/serve-$workers"
  # One server session: the plain solve (id 2) is answered before the
  # sweeps are sent, so the first sweep (id 0) meets a cached memo-less
  # entry and builds the memo; the second (id 1) and the witness-free one
  # (id 4) reuse it. Each sweep's lines arrive in patch order; different
  # sweeps' lines may interleave, so split by id. `stats` (id 3) is sent
  # once every sweep line is read.
  python3 - "$CDAT" "$workdir" "$VARIANTS" "$workers" "$out.jsonl" <<'EOF'
import subprocess, sys

cdat, workdir, n, workers, out_path = sys.argv[1:6]
n = int(n)
solve, *sweeps = open(workdir + "/requests.jsonl").read().splitlines()
server = subprocess.Popen(
    [cdat, "serve", "--stdio", "--workers", workers, "--batch-window-us", "500"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

def send(*lines):
    server.stdin.write("".join(line + "\n" for line in lines))
    server.stdin.flush()

send(solve)
out = [server.stdout.readline()]
send(*sweeps)
out += [server.stdout.readline() for _ in range(len(sweeps) * n)]
send('{"op":"stats","id":3}')
out.append(server.stdout.readline())
server.stdin.close()
out += server.stdout.readlines()
server.wait()
open(out_path, "w").write("".join(out))
EOF
  grep '"id":2,' "$out.jsonl" | sed -E 's/^\{"id":2,/{/' > "$out.solve"
  for id in 0 1 4; do
    grep "\"id\":$id," "$out.jsonl" | sed -E 's/^\{"id":[0-9]+,"variant":([0-9]+),.*/\1/' \
      > "$out.variants-$id"
    cmp -s "$workdir/variants.want" "$out.variants-$id" || {
      echo "whatif-smoke: sweep $id at --workers $workers: variants not 0..$((VARIANTS - 1)) in order" >&2
      exit 1
    }
    grep "\"id\":$id," "$out.jsonl" | sed -E 's/^\{"id":[0-9]+,"variant":[0-9]+,/{/' \
      > "$out.sweep-$id"
  done

  echo "--- --workers $workers: plain solve of the base tree: serve vs batch ---"
  diff -u "$workdir/base-batch.out" "$out.solve" \
    || { echo "whatif-smoke: the plain solve diverged from cdat batch" >&2; exit 1; }
  echo "--- --workers $workers: $VARIANTS-variant sweep, memo built on the cached entry, vs scratch batch ---"
  diff -u "$workdir/scratch.out" "$out.sweep-0" \
    || { echo "whatif-smoke: cold sweep diverged from scratch solves" >&2; exit 1; }
  echo "--- --workers $workers: $VARIANTS-variant sweep, warm memo, vs scratch batch ---"
  diff -u "$workdir/scratch.out" "$out.sweep-1" \
    || { echo "whatif-smoke: warm sweep diverged from scratch solves" >&2; exit 1; }
  echo "--- --workers $workers: $VARIANTS-variant witness-free sweep vs scratch batch ---"
  diff -u "$workdir/scratch-bare.out" "$out.sweep-4" \
    || { echo "whatif-smoke: witness-free sweep diverged from scratch solves" >&2; exit 1; }

  builds=$(grep '"id":3,' "$out.jsonl" \
    | grep -o '"deterministic":{[^}]*}' | grep -o '"memo_builds":[0-9]*' || true)
  [ "$builds" = '"memo_builds":1' ] \
    || { echo "whatif-smoke: expected one memo build, stats say ${builds:-nothing}" >&2; exit 1; }
done

echo "whatif-smoke: $VARIANTS incremental variants byte-identical to scratch (cold, warm and witness-free) at --workers 1 and 2"
