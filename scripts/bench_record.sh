#!/usr/bin/env bash
# Record a micro_throughput bench artifact for the current tree.
#
#   scripts/bench_record.sh [out.json] [build-dir]
#
# Runs the full BM_FullPipeline* family plus the stage profiler breakdown
# and writes the machine-readable report (config row with the dispatched
# kernel set, per-stage cycles, batched/sharded/streaming ratios) to
# out.json — BENCH_<PR>.json checked into the repo root tracks the perf
# trajectory across PRs; CI uploads the same file as an artifact.
#
# Parallel rows (".../threads:N/...") with N above the config row's
# hardware_threads are dropped before recording: on such a host their
# sharded/streamed ratios measure time-slicing, not scaling.  The dropped
# rows are listed on stdout.
set -euo pipefail

OUT="${1:-BENCH_micro_throughput.json}"
BUILD="${2:-build}"
BIN="$BUILD/bench/micro_throughput"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (cmake --build $BUILD --target micro_throughput)" >&2
  exit 1
fi

"$BIN" \
  --benchmark_filter='BM_FullPipeline' \
  --benchmark_min_time=0.2 \
  --json "$OUT"

python3 - "$OUT" <<'EOF'
import json, re, sys
path = sys.argv[1]
doc = json.load(open(path))
rows = {r.get("name", r.get("row", "")): r for r in doc["rows"]}
cfg = rows.get("config", {})
hw = int(cfg.get("hardware_threads", 0))
if hw <= 0:
    print("warning: config row has no hardware_threads; kept every row")
def oversubscribed(row):
    m = re.search(r"/threads:(\d+)(/|$)", row.get("name", ""))
    return hw > 0 and m is not None and int(m.group(1)) > hw
dropped = [r["name"] for r in doc["rows"] if oversubscribed(r)]
if dropped:
    doc["rows"] = [r for r in doc["rows"] if not oversubscribed(r)]
    with open(path, "w") as f:
        f.write('{\n  "bench": %s,\n  "rows": [\n' % json.dumps(doc["bench"]))
        f.write(",\n".join("    " + json.dumps(r) for r in doc["rows"]))
        f.write("\n  ]\n}\n")
    print(f"dropped {len(dropped)} row(s) above hardware_threads={hw}:")
    for name in dropped:
        print(f"  {name}")
kernels = [k.removeprefix("kernel_") for k in
           ("kernel_scalar", "kernel_slice8", "kernel_pclmul",
            "kernel_avx2_soa") if cfg.get(k)]
print(f"recorded {sys.argv[1]}: kernels={'+'.join(kernels) or 'unknown'}")
stages = rows.get("stages", {})
for s in ("compression", "filter", "address", "salu"):
    v = stages.get(f"{s}_cycles_per_item")
    if v is not None:
        print(f"  {s:12s} {v:8.2f} cycles/item")
EOF
