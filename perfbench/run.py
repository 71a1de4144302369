"""paircodes benchmark: one workload, timed in fresh processes.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Set-up time is the median over SETUP_STARTS fresh interpreters.  Then one
process per pass (see workloads.py) runs, one at a time, for as many
passes as fit in `--seconds` (at least one).  Times are nominal seconds,
corrected for the host's speed (see workloads.SpeedProbe).  With `--trace 0` the
end-to-end metrics of BENCHMARK.json are printed; with `--trace 1` one
untraced pass of the workload is followed by cycles of traced passes of
every workload, which give the per-layer metrics.  Every metric line shows
its unit and sample count; the last stdout line is one JSON object.  The
exit code is 1 when any output check failed and 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_STARTS = 21
RUN_LIMIT_S = 170  # every run ends within the 180 s the benchmark promises


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(sorted_xs: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(pct / 100 * len(sorted_xs)) - 1)]


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def metadata() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_line_count(),
    }


def setup_samples(fields: list[tuple[int, int]]) -> list[float]:
    """Seconds from starting an interpreter until every field is built.

    The interpreter runs with -I -S: site-packages start-up is the host's
    configuration, not paircodes, and on a shared host its file reads
    swamp the package's own set-up.
    """
    code = (
        f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\nimport paircodes\n"
        f"for p, m in {fields!r}:\n    paircodes.build_field(p, m)\n"
        "print(time.perf_counter())\n"
        f"sys.path.insert(0, {str(HERE)!r})\nfrom workloads import setup_reference_s\n"
        "print(setup_reference_s())\n"
    )
    samples = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        done, ref = map(float, proc.stdout.split()[-2:])
        samples.append((done - t0, ref))
    return samples


def timed_loop(seconds: float):
    """Yield 0, 1, 2, ... while the next step, as long as the last one,
    still ends within `seconds` of the start; always at least once."""
    start = time.perf_counter()
    k = 0
    last = 0.0
    while k == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        yield k
        last = time.perf_counter() - began
        k += 1


def run_pass(workload: str, seed: int, traced: bool, deadline: float, spans: Path | None = None):
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """attempted, failed and problems over passes, with the cold-cache check.

    A pass that started with a warm `build_field` or codebook cache, or
    that ran in a process another pass also used, counts all of its
    operations as failed: its timings could be cache hits.
    """
    attempted = failed = 0
    problems = []
    pids = set()
    for k, res in enumerate(passes):
        attempted += res["attempted"]
        failed += res["failed"]
        problems += res["problems"]
        if not res["cold"] or res["pid"] in pids or res["pid"] == os.getpid():
            failed += res["attempted"] - res["failed"]
            problems.append(f"pass {k}: caches were not cold at its start")
        pids.add(res["pid"])
    return attempted, failed, problems


def end_to_end(setup: list[tuple[float, float]], passes: list[dict]) -> dict:
    """Medians over passes of nominal times (see workloads.SpeedProbe);
    latency percentiles are taken within each pass first."""
    from workloads import REF_NOMINAL_S

    ops = [sorted(r["op_ms"]) for r in passes]
    n_ops = sum(map(len, ops))
    return {
        "setup_s": (statistics.median(t * REF_NOMINAL_S / ref for t, ref in setup), len(setup)),
        "wall_s": (statistics.median(r["wall_s"] for r in passes), len(passes)),
        "op_p50_ms": (statistics.median(percentile(xs, 50) for xs in ops), n_ops),
        "op_p99_ms": (statistics.median(percentile(xs, 99) for xs in ops), n_ops),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in passes), len(passes)),
    }


def raw_times(setup: list[tuple[float, float]], passes: list[dict]) -> dict:
    """The end-to-end times before the host-speed correction, for the record."""
    ops = [sorted(r["op_raw_ms"]) for r in passes]
    return {
        "setup_s": statistics.median(t for t, ref in setup),
        "wall_s": statistics.median(r["wall_raw_s"] for r in passes),
        "op_p50_ms": statistics.median(percentile(xs, 50) for xs in ops),
        "op_p99_ms": statistics.median(percentile(xs, 99) for xs in ops),
        "ref_ms": statistics.median(r["ref_median_ms"] for r in passes),
    }


def per_layer(workload: str, untraced: dict, cycles: list[dict]) -> dict:
    """Median over cycles of every per-layer metric; the named workload's
    own value wins where several workloads report one (gf.build_field_ms)."""
    merged = []
    for cycle in cycles:
        layer = {}
        for name in sorted(cycle, key=lambda wl: wl == workload):
            layer.update(cycle[name]["layer"])
        merged.append(layer)
    out = {k: (statistics.median(m[k] for m in merged), len(merged)) for k in merged[0]}
    traced_wall = statistics.median(c[workload]["wall_s"] for c in cycles)
    out["trace.overhead_s"] = (traced_wall - untraced["wall_s"], len(cycles))
    return out


def run_workload(workload: str, seed: int, seconds: int, traced: bool, spec: dict) -> dict:
    from workloads import WORKLOADS, fields_of

    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    declared = spec["per_layer" if traced else "end_to_end"]
    if traced:
        untraced = run_pass(workload, seed, False, deadline)
        order = [workload] + [wl for wl in WORKLOADS if wl != workload]
        cycles = []
        for k in timed_loop(seconds):
            cycles.append({
                wl: run_pass(wl, seed, True, deadline,
                             OUT_DIR / f"spans-{wl}-seed{seed}-cycle{k}.json")
                for wl in order
            })
        passes = [untraced] + [c[wl] for c in cycles for wl in order]
        values = per_layer(workload, untraced, cycles)
        self_s = {wl: cycles[0][wl]["layer_self_s"] for wl in order}
        raw = None
    else:
        setup = setup_samples(fields_of(workload))
        passes = [run_pass(workload, seed, False, deadline) for _ in timed_loop(seconds)]
        values = end_to_end(setup, passes)
        raw = raw_times(setup, passes)
        self_s = None
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    attempted, failed, problems = tally(passes)
    values = {name: values[name] for name in names}
    units = {m["name"]: m["unit"] for m in declared}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "meta": metadata(), "passes": len(passes),
        "metrics": {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in values.items()},
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "layer_self_s": self_s, "raw": raw,
    }
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def report(rec: dict) -> None:
    meta = rec["meta"]
    print(f"== {rec['workload']}  seed={rec['seed']} trace={rec['trace']}  "
          f"passes={rec['passes']} (one fresh process each)  cores={meta['cores']} "
          f"python={meta['python']} src_lines={meta['src_lines']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:8s} n={m['n']}")
    ratio = rec["failed"] / rec["attempted"]
    print(f"  {'fail_ratio':34s} {ratio:>14.6g} {'ratio':8s} "
          f"n={rec['attempted']} ({rec['failed']} failed)")
    if rec["raw"]:
        cells = "  ".join(f"{k}={v:.6g}" for k, v in rec["raw"].items())
        print(f"  before the host-speed correction: {cells}")
    for msg in rec["problems"]:
        print(f"  FAILED CHECK: {msg}")
    if rec["layer_self_s"]:
        print("  self time by layer, first traced cycle (s):")
        for wl, layers in rec["layer_self_s"].items():
            cells = "  ".join(f"{k}={v:.4g}" for k, v in sorted(layers.items()))
            print(f"    {wl:8s} {cells}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paircodes benchmark")
    ap.add_argument("--workload", required=True, help="certify, decode, codec or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "paircodes" / "__init__.py").is_file():
            raise BenchError(f"no paircodes sources under {SRC}; run from a checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from workloads import WORKLOADS

        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if not set(names) <= set(WORKLOADS):
            raise BenchError(f"unknown workload {args.workload!r}")
        ok = True
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            report(rec)
            ok = ok and rec["failed"] == 0
            print(json.dumps({
                "correct": rec["failed"] == 0,
                "attempted": rec["attempted"],
                "failed": rec["failed"],
                "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                            for k, m in rec["metrics"].items()},
            }), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
