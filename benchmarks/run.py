"""Run one bwsl benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train_paper --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run. ``all`` runs every workload untraced, each in its own
process, and prints one line per metric. Results, the run environment and
a traced run's spans are also written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("train_paper", "backtest_wide", "explain_narrow")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """One BLAS thread per usable core, set before NumPy loads OpenBLAS:
    left unset, the count depends on the library's own default."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def run_all(args) -> int:
    """Every workload untraced, one process at a time, one line per metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        summary = json.loads(lines[-2].split(" ", 1)[1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_share={summary['fail_share']}")
        for metric, m in result["metrics"].items():
            note = ""
            if metric == "op_ms_tail":
                pct = summary["op_ms_tail_percentile"]
                tail_of = "not applicable, repeats op_ms_p50" if pct is None else f"p{pct:.1f}"
                note = f"  ({tail_of}; {summary['op_samples']} samples)"
            print(f"  {metric:<22} {m['value']:>14.6g} {m['unit']}{note}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bwsl" / "__init__.py").is_file():
        print(f"error: no bwsl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    # imported only now: these modules import NumPy
    import harness
    import layers
    import spans
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reference = json.loads((BENCH / "reference.json").read_text())
    workload = WORKLOADS[args.workload](reference=reference.get(args.workload))
    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        metrics, tallies, details = harness.untraced_run(workload, args.seed, args.seconds)
    else:
        metrics, tallies, details = layers.traced_run(workload, args.seed, args.seconds, tracer)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    errors = [e for t in tallies for e in t.errors]
    env = harness.environment(ROOT, threads)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "digest": workload.digest(), "errors": errors,
               "reference": str(args.seed) in workload.reference,
               **details}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(
        json.dumps({"env": env, "summary": summary, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out / f"{stem}-spans.jsonl")
    print("env " + json.dumps(env))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
