"""amoebagraph benchmark: one workload, one seed, end-to-end or traced.

Usage (from the repository root):
    python3 bench/run.py --workload corpus-sweep --seed 1 --seconds 10 --trace 0

Workloads (all closed loop, one caller, no threads; the seed draws a random
relabeling of every input graph):
  corpus-sweep   classify_graph on every class with 5 or 6 vertices, rooted
                 at each label: 1,106 small, distinct inputs.
  large-groups   fer_group(..).order on K7, K8, K1,7, K1,8, P12, P16 and
                 classify_graph on P14, counterexample_GH_labeled, b_family 3,
                 P4*P3, P3*K3 and hang_symm_8: 12 large groups.
  cli-verbs      105 sequential `python -m amoebagraph.cli` calls cycling over
                 every verb on graphs of 2 to 12 labels, after one untimed call.

Each pass runs in a fresh interpreter (bench/worker.py), because the
package memoises every result per graph for the life of the process.  With
--trace 0 the run repeats passes for about --seconds (it starts another pass
while that would end nearer to --seconds than stopping) and reports the
end-to-end metrics: medians over passes of set-up time (import plus the
median of three input builds), wall time, correct ops per second and peak
RSS, and the 50th and 90th percentile over every op of every pass.  A
failed op (raised, wrong answer, wrong exit code or verdict) is counted in
"failed" and makes "correct" false.

With --trace 1 it runs one untraced pass and at least two traced passes.  A
traced pass stages each op: it calls the public functions of each layer in
dependency order on the op's graph (tracing.Tracer.stage), so the memo in
`fer` leaves each stage's span with that stage's own work, and the op's own
call is left with its module's self time.  Per-layer rows are inclusive
span times per stage (lgraph.aut_s, fer.feasible_s, fer.generating_set_s,
fer.derived_s, permgroup.order_s), spans of the isomorphism calls `fer`
makes (lgraph.iso_s, lgraph.label_iso_s), self times per layer, work
counters, and CLI latencies by verb (from cli-verbs itself, or from its
first two cycles on the other workloads).  fer.candidates is the number of
(removed, added) pairs the feasible search has to test over the distinct
graphs staged.  trace.remainder_s is op time no stage covers (for CLI calls:
interpreter start and import); trace.overhead_s is traced minus untraced
wall time.  The run fails if a work counter does not repeat exactly across
the traced passes, and writes one pass's spans to bench/out/.

Every answer is checked against bench/reference.json (bench/make_reference.py
writes it without using the engine).  The last line of stdout is the JSON
result.  The default seed is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("corpus-sweep", "large-groups", "cli-verbs")
PASS_TIMEOUT_S = 170
# Traced runs of the in-process workloads also run the first two cycles of
# cli-verbs, so that every workload reports the cli rows.
CLI_PROBE_OPS = 30
CLI_VERBS = ("classify", "fer", "check", "oracle")

# Work counters that must repeat exactly across traced passes of one seed.
REPEATING = (
    "permgroup.compose_calls",
    "lgraph.iso_calls",
    "lgraph.label_iso_calls",
    "lgraph.aut_elements",
    "fer.candidates",
    "fer.generators",
)


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def run_pass(workload: str, seed: int, trace: bool, workdir: str, limit=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if trace else "0", workdir]
    if limit is not None:
        cmd.append(str(limit))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload} pass exited with code {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes: list) -> dict:
    """Medians over passes; latency percentiles over every op of every pass."""
    lat_ms = [x * 1000 for p in passes for x in p["latencies_s"]]
    ok_rate = [(p["attempted"] - p["failed"]) / p["wall_s"] for p in passes]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "ops_per_s": (statistics.median(ok_rate), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def span_totals(spans: list):
    """Inclusive time per span name and self time per layer."""
    covered = [0.0] * len(spans)
    for _name, _layer, start, end, parent, _op in spans:
        if parent is not None:
            covered[parent] += end - start
    by_name, self_by_layer = defaultdict(float), defaultdict(float)
    for k, (name, layer, start, end, _parent, _op) in enumerate(spans):
        by_name[name] += end - start
        self_by_layer[layer] += end - start - covered[k]
    return by_name, self_by_layer


def traced_metrics(p: dict) -> dict:
    by_name, self_by_layer = span_totals(p["spans"])
    counts = p["counts"]
    candidates = counts.get("fer.candidates", 0)
    return {
        "permgroup.order_s": (by_name["order"], "s"),
        "permgroup.compose_calls": (counts.get("permgroup.compose_calls", 0), "count"),
        "lgraph.aut_s": (by_name["aut"], "s"),
        "lgraph.aut_elements": (counts.get("lgraph.aut_elements", 0), "count"),
        "lgraph.iso_calls": (counts.get("lgraph.iso_calls", 0), "count"),
        "lgraph.iso_s": (by_name["iso"], "s"),
        "lgraph.label_iso_calls": (counts.get("lgraph.label_iso_calls", 0), "count"),
        "lgraph.label_iso_s": (by_name["label_iso"], "s"),
        "lgraph.self_s": (self_by_layer["lgraph"], "s"),
        "fer.feasible_s": (by_name["feasible"], "s"),
        "fer.candidates": (candidates, "count"),
        "fer.feasible_ratio": (counts.get("fer.feasible", 0) / max(candidates, 1), "ratio"),
        "fer.generators": (counts.get("fer.generators", 0), "count"),
        "fer.generating_set_s": (by_name["generating_set"], "s"),
        "fer.derived_s": (by_name["derived"], "s"),
        "fer.self_s": (self_by_layer["fer"], "s"),
        "classify.self_s": (self_by_layer["classify"], "s"),
        "construct.build_s": (self_by_layer["construct"], "s"),
        "trace.remainder_s": (self_by_layer["op"], "s"),
    }


def cli_metrics(p: dict) -> dict:
    by_kind = defaultdict(list)
    for kind, seconds in zip(p["kinds"], p["latencies_s"]):
        by_kind[kind].append(seconds * 1000)
    out = {"cli.floor_ms": (statistics.median(by_kind["family"]), "ms")}
    for verb in CLI_VERBS:
        out[f"cli.verb.{verb}_ms"] = (statistics.median(by_kind[verb]), "ms")
    return out


def src_lines() -> int:
    total = 0
    for folder, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def write_trace(workload: str, seed: int, p: dict, self_by_layer: dict) -> str:
    """Write one traced pass's spans, and each layer's self time."""
    keys = ("name", "layer", "start", "end", "parent", "op")
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "layer_self_s": dict(self_by_layer),
                "counts": p["counts"],
                "spans": [dict(zip(keys, span)) for span in p["spans"]],
            },
            handle,
        )
    return path


def measure(args, workdir: str):
    """Run the passes; returns (metrics, all passes, notes, counters repeated)."""
    started = time.perf_counter()

    def another(done: list) -> bool:
        """Whether one more pass would end nearer to --seconds than stopping now."""
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / len(done) / 2 < args.seconds

    notes = []
    if not args.trace:
        passes = [run_pass(args.workload, args.seed, False, workdir)]
        while another(passes):
            passes.append(run_pass(args.workload, args.seed, False, workdir))
        ops = sum(p["attempted"] for p in passes)
        notes.append(f"passes {len(passes)}, latency samples {ops}")
        return end_to_end(passes), passes, notes, True

    untraced = run_pass(args.workload, args.seed, False, workdir)
    traced = []
    while len(traced) < 2 or another([untraced] + traced):
        traced.append(run_pass(args.workload, args.seed, True, workdir))
    if args.workload == "cli-verbs":
        probe = untraced
    else:
        probe = run_pass("cli-verbs", args.seed, False, workdir, limit=CLI_PROBE_OPS)
    per_pass = [traced_metrics(p) for p in traced]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced) - untraced["wall_s"], "s")
    metrics.update(cli_metrics(probe))
    metrics["src.lines"] = (src_lines(), "count")
    drift = [k for k in REPEATING if len({p["counts"].get(k, 0) for p in traced}) > 1]
    if drift:
        notes.append("counters did not repeat across traced passes: " + ", ".join(drift))
    _by_name, self_by_layer = span_totals(traced[0]["spans"])
    path = write_trace(args.workload, args.seed, traced[0], self_by_layer)
    notes.append(f"traced passes {len(traced)}; spans written to {os.path.relpath(path, ROOT)}")
    for layer, seconds in sorted(self_by_layer.items()):
        notes.append(f"self time {layer} (first traced pass): {seconds:.4f} s")
    return metrics, [untraced, probe] + traced, notes, not drift


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (os.path.join(SRC, "amoebagraph", "__init__.py"),
                   os.path.join(HERE, "reference.json")):
        if not os.path.isfile(needed):
            print(f"error: {os.path.relpath(needed, ROOT)} is missing", file=sys.stderr)
            return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        metrics, passes, notes, repeated = measure(args, workdir)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<26} {value:>14.6g} {unit}")
    print(f"{'failed_ops_frac':<26} {failed / attempted:>14.6g} ({failed} of {attempted})")
    if not args.trace:
        print(f"{'src.lines':<26} {src_lines():>14} (context, not gated)")
    for note in notes:
        print(note)
    for p in passes:
        for error in p["errors"]:
            print(f"wrong: {error}")
    result = {
        "correct": failed == 0 and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
