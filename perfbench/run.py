#!/usr/bin/env python3
"""The repository benchmark: one private-query workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source (perfbench/build.py), runs
the benchmark JVM on Spark local[*], and prints a report followed by one
JSON result line. --trace 0 reports the end-to-end metrics; --trace 1 the
per-layer metrics. Exits 1 when any answer fails the correctness gate, 2
when the benchmark cannot run. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent

# A run, build excluded, must end well within this many seconds.
RUN_LIMIT_S = 170

JVM_OPTS = [
    "-Xmx3g",
    # JIT pinned to C1: with tiered C2, Spark code was still compiling 40 s
    # into a run (query latency halving over the window) and the in-memory
    # row walk settled at 0.4 or 0.8 ms depending on the JVM; under C1 a run
    # is at its steady state once the warm-up ends
    "-XX:TieredStopAtLevel=1",
    # C1 alone gets a 48 MB code cache; Spark's code and generated classes
    # filled it within seconds of the window, and each flush of ~25 000
    # methods stalled queries up to 4x; this is the tiered default
    "-XX:ReservedCodeCacheSize=240m",
    "-XX:+IgnoreUnrecognizedVMOptions",
    # module access Spark needs on Java 17+, as spark-submit grants it
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]

# Spans of the traced query, in protocol order.
SPANS = ["federation.covering", "federation.summary", "federation.allocate",
         "federation.plan", "core.scan", "federation.finish", "dp.release", "smc.release"]

# Setup jobs that write or cache the clustered tensor, by call-site action.
MATERIALIZE_ACTIONS = {"parquet", "save", "count", "cache"}


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _p50(xs):
    return stats.median(xs) if xs else 0.0


def end_to_end(raw):
    """End-to-end metrics, name -> (value, unit), from an untraced run."""
    q, e, r = raw["query_ms"], raw["exact_ms"], raw["rel_err"]
    return {
        "setup_s": (stats.median(raw["setup_s"]), "s"),
        "queries_per_s": (len(q) / raw["private_s"], "1/s"),
        "query_p50_ms": (stats.percentile(q, 50), "ms"),
        "query_p95_ms": (stats.percentile(q, 95), "ms"),
        "exact_p50_ms": (stats.percentile(e, 50), "ms"),
        "exact_p95_ms": (stats.percentile(e, 95), "ms"),
        "rel_err_p50": (stats.percentile(r, 50), "ratio"),
        "rel_err_p90": (stats.percentile(r, 90), "ratio"),
        "store_mb": (raw["store_bytes"] / 1e6, "MB"),
        "metadata_kb": (raw["metadata_bytes"] / 1e3, "KB"),
        "heap_retained_mb": (raw["heap_retained_bytes"] / 1e6, "MB"),
    }


# Percentile metrics and the samples behind them.
SAMPLED = {"query_p50_ms": ("query_ms", 50), "query_p95_ms": ("query_ms", 95),
           "exact_p50_ms": ("exact_ms", 50), "exact_p95_ms": ("exact_ms", 95),
           "rel_err_p50": ("rel_err", 50), "rel_err_p90": ("rel_err", 90)}


def setup_split(jobs):
    """Setup jobs grouped by layer: Metadata.scala jobs are metadata; the
    other jobs that write or cache the tensor are materialization; the rest
    (provider split, tensor, cluster assignment) are tensor."""
    meta = [j for j in jobs if j["file"] == "Metadata.scala"]
    rest = [j for j in jobs if j["file"] != "Metadata.scala"]
    mat = [j for j in rest if j["site"].split(" at ")[0] in MATERIALIZE_ACTIONS]
    tensor = [j for j in rest if j not in mat]
    return tensor, mat, meta


def per_layer(raw):
    """Per-layer metrics, name -> (value, unit), from a traced run."""
    tensor, mat, meta = setup_split(raw["setup_jobs"])
    n = len(raw["traced_ms"])
    if n == 0:
        raise ValueError("the traced run completed no query")
    wall = sum(raw["traced_ms"])
    out = {
        "federation.setup.jobs": (len(raw["setup_jobs"]), "count"),
        "federation.setup.tensor_ms": (sum(j["ms"] for j in tensor), "ms"),
        "federation.setup.materialize_ms": (sum(j["ms"] for j in mat), "ms"),
        "core.metadata.ms": (sum(j["ms"] for j in meta), "ms"),
        "core.metadata.jobs": (len(meta), "count"),
        "core.replay_build.ms": (raw["replay_build_ms"], "ms"),
        "core.store.files": (raw["store_files"], "count"),
    }
    child = 0.0
    for name in SPANS:
        xs = raw["spans"].get(name, [])
        child += sum(xs)
        out[f"{name}.ms"] = (_p50(xs), "ms")
        out[f"{name}.share"] = (100.0 * sum(xs) / wall, "%")
    out["federation.run.self_share"] = (100.0 * (wall - child) / wall, "%")
    out["core.scan.jobs"] = (raw["scan_jobs"] / n, "count")
    for k, unit in (("files", "count"), ("bytes", "B"), ("rows", "count"), ("partitions", "count")):
        out[f"core.scan.{k}"] = (_p50(raw["scan"][k]), unit)
    out["core.exact.ms"] = (_p50(raw["exact_ms"]), "ms")
    for k, unit in (("files", "count"), ("bytes", "B"), ("partitions", "count")):
        out[f"core.exact.{k}"] = (_p50(raw["exact"][k]), unit)
    out["federation.covering_clusters"] = (_mean(raw["covering_clusters"]), "count")
    out["federation.sampled_clusters"] = (_mean(raw["sampled_clusters"]), "count")
    out["federation.exact_path_frac"] = (raw["exact_path_providers"] / max(1, raw["plans"]), "ratio")
    out["dp.em_draws"] = (_mean(raw["em_draws"]), "count")
    m = max(1, len(raw["untraced_ms"]))
    out["jvm.gc_ms"] = (raw["gc_ms"] / m, "ms")
    out["jvm.alloc_mb"] = (raw["alloc_bytes"] / m / 1e6, "MB")
    traced, untraced = _p50(raw["traced_ms"]), _p50(raw["untraced_ms"])
    out["trace.query_p50_ms"] = (traced, "ms")
    out["trace.untraced_p50_ms"] = (untraced, "ms")
    out["trace.overhead_pct"] = (100.0 * (traced / untraced - 1) if untraced > 0 else 0.0, "%")
    return out


def report(raw, metrics):
    """Human-readable lines printed before the result line."""
    lines = [f"perfbench workload={raw['workload']} seed={raw['seed']} "
             f"trace={int(raw['trace'])}",
             f"  attempted={raw['attempted']} failed={raw['failed']} "
             f"failed_frac={raw['failed'] / max(1, raw['attempted']):.4f} ratio  "
             f"checks={raw['checked']} mismatches={raw['mismatch_count']}"]
    if raw.get("accuracy_failed"):
        lines.append(f"  accuracy pass: {raw['accuracy_failed']} runs failed, left out of rel_err")
    for msg in raw["failures"]:
        lines.append(f"  failure: {msg}")
    for msg in raw["mismatches"]:
        lines.append(f"  MISMATCH: {msg}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name in SAMPLED and not raw["trace"]:
            key, p = SAMPLED[name]
            n = len(raw[key])
            note = f"  (n={n}{'' if stats.supports(p, n) else ', UNDER-SAMPLED'})"
        elif name == "setup_s":
            note = f"  (median of {', '.join(f'{x:.2f}' for x in raw['setup_s'])})"
        lines.append(f"  {name:<34} {value:>14.4f} {unit}{note}")
    if not raw["trace"]:
        q, e = metrics["query_p50_ms"][0], metrics["exact_p50_ms"][0]
        lines.append(f"  speed-up exact_p50/query_p50 = {e / q:.2f}x (derived, not gated)")
    else:
        by_site = {}
        for j in raw["setup_jobs"]:
            c, t = by_site.get(j["site"], (0, 0.0))
            by_site[j["site"]] = (c + 1, t + j["ms"])
        lines.append("  setup jobs by call site:")
        for site, (c, t) in sorted(by_site.items()):
            lines.append(f"    {site:<40} {c:>4} jobs {t:>10.1f} ms")
        if raw["scan"]["partitions"]:
            lines.append(f"  pruning checked on {len(raw['scan']['partitions'])} sampled scans "
                         f"(partitions read = partitions sampled) and "
                         f"{len(raw['exact']['partitions'])} exact scans "
                         f"(partitions read = all {raw['total_partitions']})")
        lines.append(f"  tracing overhead: traced p50 {metrics['trace.query_p50_ms'][0]:.3f} ms vs "
                     f"untraced {metrics['trace.untraced_p50_ms'][0]:.3f} ms")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        classpath = build.build()
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    work = build.OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    out = work / "raw.json"
    cmd = [build.java_bin(), *JVM_OPTS,
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--out", str(out)]
    # keep Spark's scratch space inside the run directory
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 2
    try:
        if code != 0 or not out.exists():
            print(f"perfbench: benchmark JVM exited with code {code}", file=sys.stderr)
            return 2
        raw = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    correct = raw["mismatch_count"] == 0
    for line in report(raw, metrics):
        print(line)
    print(stats.result_line(correct, raw["attempted"], raw["failed"], metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
