"""The repo benchmark: five edge-to-gateway workloads, one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--out F]
                                  [--trace-out DIR]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Without ``--workload`` every workload runs in turn.  Metric names, units,
directions and regression bounds are read from ``BENCHMARK.json``; see
``README.md`` beside this file for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
ARTIFACTS = ROOT / "bench-artifacts" / "e2e"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


#: Which round speaks for a run.  Contention only ever adds time, and the
#: kernel removes the part of it that outlasts a round; what is left are
#: bursts inside single rounds, so the estimate comes from the better half:
#: the quartile, not the minimum, so that no single round — one whose
#: kernel over-read, say — sets the value.  Over three ten-run sweeps it was
#: the steadiest of min / decile / quartile / median (README, "Noise").
ROUND_QUANTILE = 0.25


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, inclusive of both ends."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def over_rounds(records: List[Dict], name: str, calibrate: bool, key: str = "slowdown") -> Dict:
    """The better quartile of a run's rounds (ROUND_QUANTILE), each round
    first divided by the box's slowdown (a rate is multiplied instead).

    The quartiles over rounds and the uncalibrated median are kept beside
    the value as the noise record.
    """
    raw = [r[name] for r in records]
    lower = E2E[name]["better"] == "lower"
    values = raw
    if calibrate:
        values = [v / r[key] if lower else v * r[key] for v, r in zip(raw, records)]
    return {
        "value": quantile(values, ROUND_QUANTILE if lower else 1 - ROUND_QUANTILE),
        "q1": quantile(values, 0.25), "median": quantile(values, 0.5),
        "q3": quantile(values, 0.75),
        "raw_median": quantile(raw, 0.5), "rounds": len(values),
    }


def end_to_end(out, closed_loop: bool) -> Dict[str, Dict[str, float]]:
    # An open loop's rate is set by its schedule and its latency holds fixed
    # waits (batch window, timer slack): neither scales with the box.
    metrics = {
        name: over_rounds(out.rounds, name, closed_loop)
        for name in ("tick_ms_p50", "tick_ms_p95", "windows_per_s")
    }
    metrics["learn_s"] = over_rounds(out.updates, "learn_s", True, "learn_slowdown")
    metrics["calibrate_s"] = over_rounds(out.updates, "calibrate_s", True, "calibrate_slowdown")
    # set-up is repeated, not raced: its value is the median
    setup = over_rounds(out.setups, "setup_s", True)
    metrics["setup_s"] = dict(setup, value=setup["median"])
    metrics["accuracy"] = {"value": out.hits / out.scored if out.scored else 0.0}
    metrics["peak_rss_mb"] = {"value": out.peak_rss_mb}
    return {n: dict(metrics[n], unit=E2E[n]["unit"]) for n in E2E}


def per_layer(ctx, out, tracer, build_s: float, e2e) -> Dict[str, Dict[str, float]]:
    import ladder

    if ctx.cfg["kind"] == "edge_learn":
        untraced_top_ms = (e2e["learn_s"]["median"] + e2e["calibrate_s"]["median"]) / 2 * 1e3
    else:
        untraced_top_ms = e2e["tick_ms_p50"]["median"]
    values = {"scenario.build_s": build_s, **out.counters}
    values["loadgen.sent"] = out.attempted
    values["loadgen.ok"] = out.attempted - out.failed
    values["loadgen.failed"] = out.failed
    if tracer.spans:
        values.update(
            ladder.layer_metrics(tracer, ctx.cfg["kind"], untraced_top_ms)
        )
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in SPEC["per_layer"]
    }


def show(name: str, result: Dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} error_share={result['error_share']:.6f}")
    for section in ("end_to_end", "per_layer"):
        for metric, row in result.get(section, {}).items():
            noise = ""
            if "rounds" in row:
                noise = (f"   (quartiles {row['q1']:.4g} {row['median']:.4g} {row['q3']:.4g} "
                         f"over {row['rounds']} rounds; uncalibrated median {row['raw_median']:.4g})")
            print(f"  {metric:<28} {row['value']:>12.5g} {row['unit']:<6}{noise}")
    for line in result["errors"][:10]:
        print(f"  ! {line}")


def run_workload(name: str, args, scale: str, package_path: str, user, build_s: float) -> Dict:
    import calibration
    import ladder
    import workloads as wl

    speed = calibration.BoxSpeed()
    tracer = ladder.Tracer(name, speed) if args.trace else None
    ctx = wl.Context(
        speed=speed,
        name=name, scale=scale, seed=args.seed,
        # a traced run spends the other half of its time on the ladder
        seconds=args.seconds / 2 if args.trace else args.seconds,
        package_path=package_path, user=user, tracer=tracer,
    )
    out = wl.RUNNERS[ctx.cfg["kind"]](ctx)
    e2e = end_to_end(out, closed_loop=ctx.cfg["loop"] == "closed")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "error_share": out.failed / out.attempted,
        "errors": out.errors,
        "end_to_end": e2e,
        "rounds": {"ticks": out.rounds, "updates": out.updates, "setups": out.setups},
    }
    if tracer is not None:
        result["per_layer"] = per_layer(ctx, out, tracer, build_s, e2e)
        trace_dir = Path(args.trace_out) if args.trace_out else ARTIFACTS
        tracer.write(str(trace_dir / f"trace-{name}-seed{args.seed}.jsonl"))
    return result


def contract_line(result: Dict, trace: bool) -> str:
    """The driver's result line: exactly correct/attempted/failed/metrics."""
    section = result["per_layer"] if trace else result["end_to_end"]
    metrics = {n: {"value": r["value"], "unit": r["unit"]} for n, r in section.items()}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def compare(a_path: str, b_path: str) -> int:
    """B against A: relative change of every (workload, end-to-end metric)."""
    a = json.loads(Path(a_path).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(b_path).read_text(encoding="utf-8"))["workloads"]
    past = 0
    print(f"{'workload':<18}{'metric':<15}{'A':>12}{'B':>12}{'worse by':>10}{'bound':>8}")
    for workload in a:
        if workload not in b:
            continue
        for name, spec in E2E.items():
            va = a[workload]["end_to_end"][name]["value"]
            vb = b[workload]["end_to_end"][name]["value"]
            worse = (vb - va) / va if spec["better"] == "lower" else (va - vb) / va
            flag = "  REGRESSION" if worse > spec["bound"] else ""
            past += bool(flag)
            print(f"{workload:<18}{name:<15}{va:>12.5g}{vb:>12.5g}"
                  f"{worse:>+10.1%}{spec['bound']:>8.0%}{flag}")
        if b[workload]["failed"] > a[workload]["failed"]:
            past += 1
            print(f"{workload:<18}{'failed':<15}{a[workload]['failed']:>12}"
                  f"{b[workload]['failed']:>12}  REGRESSION")
    print(f"{past} (workload, metric) pairs past their bound")
    return 1 if past else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default 8, smoke 0.5)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="also run the traced ladder and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny scenario, short rounds")
    parser.add_argument("--out", default=None, help="write every result as JSON here")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="directory for the span JSONL (default bench-artifacts/e2e)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    scale = "smoke" if args.smoke else "benchmark"
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(SPEC["run_seconds"])

    # Harness-side, before numpy loads: one BLAS thread per process (the
    # gateway child inherits it), so a 2-core box is never oversubscribed.
    for var in BLAS_ENV:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import scenario as sc
    import workloads as wl

    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=ARTIFACTS)
    try:
        package_path = os.path.join(workdir, "package.npz")
        user, build_s = sc.build_package(scale, package_path)
        selected = [args.workload] if args.workload else names
        results = {
            name: run_workload(name, args, scale, package_path, user, build_s)
            for name in selected
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = sc.env_block(
        scale, args.seed, args.seconds,
        {var: os.environ[var] for var in BLAS_ENV},
        {n: wl.WORKLOADS[n] for n in selected},
    )
    print("env " + json.dumps(env))
    for name, result in results.items():
        show(name, result)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"env": env, "workloads": results}, indent=2) + "\n", encoding="utf-8"
        )
    if args.workload:
        print(contract_line(results[args.workload], bool(args.trace)))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
