"""Timing loop, latency statistics and the run-environment record."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from bwsl.errors import BwslError

from workloads import CheckFailed

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile


def tail(values) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND samples beyond it, or None if there are too few samples
    for any percentile to have that many beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    j = n - TAIL_BEYOND - 1
    return xs[j], 100.0 * (j + 1) / n


class Tally:
    """Counts, latencies and nominal work of the operations run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.errors: list[str] = []

    def run(self, op) -> None:
        """Run one op, time it and check its output."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
            dt = time.perf_counter() - t0
            self.work += op.check(out)
        except (BwslError, CheckFailed) as e:
            dt = time.perf_counter() - t0
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.label}: {type(e).__name__}: {e}")
        self.busy += dt
        if op.sampled:
            self.latencies.append(dt)

    def run_all(self, ops) -> None:
        """Run a pass's ops; they are released when this returns."""
        for op in ops:
            self.run(op)


def run_passes(seconds: float, one_pass, min_passes: int = 1) -> None:
    """Call ``one_pass(i)`` for whole passes until ``seconds`` have elapsed
    and at least ``min_passes`` ran."""
    start = time.perf_counter()
    count = 0
    while count < min_passes or time.perf_counter() - start < seconds:
        one_pass(count)
        count += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(root: Path, blas_threads: int) -> dict:
    """What the numbers depend on besides the code: machine, versions, load."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src" / "bwsl"),
    }


def git_sha(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(package: Path) -> str:
    """sha256 over the package's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# one run of one workload

SETUP_FIRST_REPS = 5  # set-ups timed before the timed phase
SETUP_SHARE = 0.15  # of each pass's time spent timing set-ups after it


def untraced_run(workload, seed: int, seconds: float):
    """End-to-end metrics of an untraced run: (metrics, tallies, details).

    Set-up is timed a few times before the timed phase and again after each
    pass, for about SETUP_SHARE of the pass's time. The machine's speed
    drifts over seconds, so set-up samples spread over the run like the
    operations' do, instead of all falling in its first second or two.
    Each set-up replaces the previous state, which is released first, and
    the next pass runs on the new state: only one set-up is alive at a
    time, so peak_rss_mb counts one.
    """
    setup_times = []
    state = None

    def set_up():
        nonlocal state
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)

    for _ in range(SETUP_FIRST_REPS):
        set_up()
    tally = Tally()

    def one_pass(i):
        began = time.perf_counter()
        tally.run_all(workload.pass_ops(state, seed, i))
        now = time.perf_counter()
        until = now + SETUP_SHARE * (now - began)
        while time.perf_counter() < until:
            set_up()

    run_passes(seconds, one_pass)
    p50 = median(tally.latencies)
    # Too few samples for a tail (train_paper: a few train() calls per run):
    # the tail does not apply and op_ms_tail repeats op_ms_p50.
    value, pct = tail(tally.latencies) or (p50, None)
    metrics = {
        "setup_s": median(setup_times),
        "stock_periods_per_s": tally.work / tally.busy,
        "op_ms_p50": p50 * 1e3,
        "op_ms_tail": value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - tally.failed / tally.attempted,
    }
    details = {
        "op_ms_tail_percentile": pct,
        "op_samples": len(tally.latencies),
        "setup_reps": len(setup_times),
        "fail_share": tally.failed / tally.attempted,
    }
    return metrics, [tally], details
