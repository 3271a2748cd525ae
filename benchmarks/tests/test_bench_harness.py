"""Self-tests of the benchmark: tiny workloads, statistics, checks, tracing."""

import json
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import harness
import layers
import workloads
from spans import Span, Tracer, self_times

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name, **kw):
    sizes = {
        "train_paper": dict(stocks=8, periods=30, t=3, n=2, epochs=2),
        "backtest_wide": dict(stocks=16, periods=30),
        "explain_narrow": dict(stocks=6, periods=30, span=2),
    }[name]
    return workloads.WORKLOADS[name](**sizes, **kw)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_completes_at_tiny_size(name):
    metrics, tallies, details = harness.untraced_run(tiny(name), seed=3, seconds=0.0)
    assert sum(t.failed for t in tallies) == 0
    assert details["fail_share"] == 0.0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values())

    metrics, tallies, details = layers.traced_run(tiny(name), 3, 0.0, Tracer())
    assert sum(t.failed for t in tallies) == 0
    assert details["missing"] == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_runs_are_bitwise_equal(name):
    digests = []
    for _ in range(2):
        w = tiny(name)
        harness.untraced_run(w, seed=5, seconds=0.0)
        digests.append(w.digest())
    assert digests[0] == digests[1]


def test_too_few_samples_for_a_tail_repeat_the_median():
    metrics, _, details = harness.untraced_run(tiny("train_paper"), seed=3, seconds=0.0)
    assert details["op_samples"] == 1 and details["op_ms_tail_percentile"] is None
    assert metrics["op_ms_tail"] == metrics["op_ms_p50"]


def test_one_set_up_is_alive_at_a_time():
    class State:
        pass

    class Counting:
        def __init__(self):
            self.alive = weakref.WeakSet()
            self.most = 0

        def setup(self, seed):
            self.most = max(self.most, len(self.alive))
            time.sleep(0.001)
            state = State()
            self.alive.add(state)
            return state

        def pass_ops(self, state, seed, i):
            time.sleep(0.01)
            return [workloads.Op("noop", lambda: state, lambda out: 1)]

    w = Counting()
    _, _, details = harness.untraced_run(w, seed=0, seconds=0.1)
    assert details["setup_reps"] > harness.SETUP_FIRST_REPS
    assert w.most == 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert harness.tail(range(1, 101)) == (90, 90.0)
    value, pct = harness.tail(range(11))
    assert value == 0 and pct == pytest.approx(100 / 11)
    assert harness.tail([3, 1, 2]) is None
    assert harness.tail(range(10)) is None
    value, _ = harness.tail(range(35))
    assert sum(1 for v in range(35) if v > value) == 10


def test_self_time_subtracts_the_children():
    tree = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 5.0, 6.5, 0),
        Span(3, "c", 2.0, 3.0, 1),
        Span(4, "d", 3.0, 3.5, 1),
    ]
    st = self_times(tree)
    assert st[0] == pytest.approx(5.5)
    assert st[1] == pytest.approx(1.5)
    assert st[2] == pytest.approx(1.5)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(0.5)


def test_tracer_nests_spans_and_restores_the_package():
    import bwsl.trainer
    from bwsl import policy

    original = policy.policy_forward
    tracer = Tracer()
    with tracer.installed():
        assert policy.policy_forward is not original
        assert bwsl.trainer.policy_forward is policy.policy_forward
    assert policy.policy_forward is original and bwsl.trainer.policy_forward is original


def test_tampered_return_counts_as_failed(monkeypatch):
    from bwsl import portfolio

    real = portfolio.realize_return
    monkeypatch.setattr(portfolio, "realize_return", lambda pair, z: real(pair, z) + 1e-6)
    metrics, tallies, details = harness.untraced_run(tiny("backtest_wide"), 1, 0.0)
    assert tallies[0].failed > 0
    assert details["fail_share"] > 0 and metrics["ok_share"] < 1.0


def test_reference_mismatch_counts_as_failed():
    w = tiny("train_paper")
    harness.untraced_run(w, seed=2, seconds=0.0)
    log = w.first["train"][0]
    off = tiny("train_paper", reference={"2": (log * (1 + 1e-6)).tolist()})
    _, tallies, _ = harness.untraced_run(off, seed=2, seconds=0.0)
    assert tallies[0].failed == tallies[0].attempted
    same = tiny("train_paper", reference={"2": log.tolist()})
    _, tallies, _ = harness.untraced_run(same, seed=2, seconds=0.0)
    assert tallies[0].failed == 0


def test_vanished_public_name_is_reported_missing(monkeypatch):
    import bwsl.trainer

    monkeypatch.delattr(bwsl.trainer, "market_threshold")
    metrics, tallies, details = layers.traced_run(tiny("explain_narrow"), 1, 0.0, Tracer())
    assert "trainer.threshold" in details["missing"]
    assert "trainer.threshold_ms" not in metrics
    assert "interpret.replay_ms" in metrics


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "explain_narrow",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
