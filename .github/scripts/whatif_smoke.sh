#!/usr/bin/env bash
# whatif-smoke: prove the incremental what-if path is an implementation
# detail, not a different answer. One `cdat serve --stdio` session first
# answers a plain witnessed `cdpf` solve of the paper's factory example
# (which caches the bare front, no subtree memo), then receives a
# 200-variant sweep (cost edits, damage edits, gate swaps) **twice** —
# the first sweep meets the cached memo-less entry and builds the memo,
# the second reuses it. The solve line is diffed against `cdat batch` on
# the base tree, and both sweep response streams byte-for-byte against
# `cdat batch` solving every materialized variant from scratch. Per the
# protocol's batch contract, stripping the `id`/`variant` prefix from a
# serve line and the `doc`/`name`/`cache` fields from a batch line must
# leave equal bytes. The session's `stats` must show exactly one memo
# build.
#
# Usage: whatif_smoke.sh [path/to/cdat] [variants]
set -euo pipefail

CDAT=${1:-target/release/cdat}
VARIANTS=${2:-200}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

"$CDAT" example > "$workdir/base.cdat"

# Build the sweep request (one `sweep` op per server pass, same patches)
# and the scratch suite (every patch materialized as its own document,
# textually — the patches only touch attributes and gate types, so the
# variant documents stay valid `cdat-format`).
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
    for rid in (0, 1):
        f.write('{"id":%d,"op":"sweep","tree":%s,"query":"cdpf",'
                '"witnesses":true,"patches":%s}\n' % (rid, tree, body))
with open(workdir + "/suite.cdat", "w") as f:
    f.write("".join(docs))
EOF

# One server session: the plain solve (id 2) is answered before the
# sweeps are sent, so the first sweep (id 0) meets a cached memo-less
# entry and builds the memo; the second (id 1) reuses it. Each sweep's
# lines arrive in patch order; the two sweeps' lines may interleave, so
# split by id. `stats` (id 3) is sent once every sweep line is read.
python3 - "$CDAT" "$workdir" "$VARIANTS" <<'EOF'
import subprocess, sys

cdat, workdir, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
solve, *sweeps = open(workdir + "/requests.jsonl").read().splitlines()
server = subprocess.Popen(
    [cdat, "serve", "--stdio", "--workers", "2", "--batch-window-us", "500"],
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
open(workdir + "/serve.out", "w").write("".join(out))
EOF
grep '"id":2,' "$workdir/serve.out" | sed -E 's/^\{"id":2,/{/' > "$workdir/solve.out"
grep '"id":0,' "$workdir/serve.out" \
  | sed -E 's/^\{"id":0,"variant":[0-9]+,/{/' > "$workdir/cold.out"
grep '"id":1,' "$workdir/serve.out" \
  | sed -E 's/^\{"id":1,"variant":[0-9]+,/{/' > "$workdir/warm.out"

[ "$(wc -l < "$workdir/cold.out")" -eq "$VARIANTS" ] \
  || { echo "whatif-smoke: expected $VARIANTS cold sweep responses" >&2; exit 1; }

# The scratch reference: every variant solved as its own document.
"$CDAT" batch "$workdir/suite.cdat" --cdpf --witnesses --workers 2 \
  | sed -E 's/^\{"doc":[0-9]+,"name":"v[0-9]+",/{/; s/"cache":"(hit|miss)",//' \
  > "$workdir/scratch.out"

"$CDAT" batch "$workdir/base.cdat" --cdpf --witnesses --workers 2 \
  | sed -E 's/^\{"doc":[0-9]+,/{/; s/"cache":"(hit|miss)",//' \
  > "$workdir/base-batch.out"

echo "--- plain solve of the base tree: serve vs batch ---"
diff -u "$workdir/base-batch.out" "$workdir/solve.out" \
  || { echo "whatif-smoke: the plain solve diverged from cdat batch" >&2; exit 1; }
echo "--- $VARIANTS-variant sweep: memo built on the cached entry vs per-variant scratch batch ---"
diff -u "$workdir/scratch.out" "$workdir/cold.out" \
  || { echo "whatif-smoke: cold sweep diverged from scratch solves" >&2; exit 1; }
echo "--- $VARIANTS-variant sweep: warm memo vs cold memo ---"
diff -u "$workdir/cold.out" "$workdir/warm.out" \
  || { echo "whatif-smoke: warm sweep diverged from the cold sweep" >&2; exit 1; }

builds=$(grep '"id":3,' "$workdir/serve.out" \
  | grep -o '"deterministic":{[^}]*}' | grep -o '"memo_builds":[0-9]*' || true)
[ "$builds" = '"memo_builds":1' ] \
  || { echo "whatif-smoke: expected one memo build, stats say ${builds:-nothing}" >&2; exit 1; }

echo "whatif-smoke: $VARIANTS incremental variants byte-identical to scratch, cold and warm"
