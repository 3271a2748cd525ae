"""The traced run: per-layer figures from spans and isolated layer probes."""

from __future__ import annotations

import time

import numpy as np

from bwsl import autodiff as ad
from bwsl import policy
from bwsl.autodiff import Tape, Tensor

from harness import Tally, median, run_passes
from spans import WRAPPED, self_times

PROBE_REPS = 5


def _probe(fn, arrays, rng):
    """Median fwd/bwd seconds and the layer's own record count for ``fn``
    on leaf inputs, reduced to a scalar with a fixed random cotangent."""
    cotangents = None
    fwd, bwd = [], []
    records = 0
    for _ in range(PROBE_REPS):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        tape = Tape()
        with tape:
            t0 = time.perf_counter()
            out = fn(leaves)
            t1 = time.perf_counter()
            outs = out if isinstance(out, list) else [out]
            records = len(tape)  # before the probe's own cotangent records
            if cotangents is None:
                cotangents = [rng.standard_normal(o.shape) for o in outs]
            root = ad.tsum(ad.mul(outs[0], Tensor(cotangents[0])))
            for o, c in zip(outs[1:], cotangents[1:]):
                root = root + ad.tsum(ad.mul(o, Tensor(c)))
        t2 = time.perf_counter()
        tape.gradients(root)
        t3 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
    return median(fwd), median(bwd), records


def probe_layers(window_set, params) -> tuple[dict, list]:
    """policy.<layer>.{fwd_ms,bwd_ms,records} for each layer alone at the
    window set's I, plus the names of layers no longer in ``policy``."""
    names = ("lstm_encode", "history_attention", "caan_forward", "winner_scores")
    fns = [getattr(policy, n, None) for n in names]
    if any(f is None for f in fns):
        return {}, [f"policy.{n}" for n, f in zip(names, fns) if f is None]
    lstm, hist, caan, head = fns
    ranks = np.asarray(window_set.ranks)
    states = lstm(window_set.features, params)  # plain values feed the next layer
    rep = hist(states, params)
    attended = caan(rep, ranks, params)
    layers = {
        "lstm": (lambda x: lstm(x[0], params), [window_set.features]),
        "hist_att": (lambda x: hist(x, params), [s.data for s in states]),
        "caan": (lambda x: caan(x[0], ranks, params), [rep.data]),
        "head": (lambda x: head(x[0], params), [attended.data]),
    }
    rng = np.random.default_rng(0)
    out = {}
    for layer, (fn, arrays) in layers.items():
        fwd, bwd, records = _probe(fn, arrays, rng)
        out[f"policy.{layer}.fwd_ms"] = fwd * 1e3
        out[f"policy.{layer}.bwd_ms"] = bwd * 1e3
        out[f"policy.{layer}.records"] = records
    return out, []


def span_metrics(spans, missing=()) -> dict:
    """Per-layer figures from a traced run's spans.

    ``<layer>_ms`` is the median self time of one call; ``<layer>_calls``
    is calls per traced pass (per traced set-up for features.windows).
    Layers the workload never calls read 0; names in ``missing`` are left
    out.
    """
    by_id = {s.sid: s for s in spans}
    self_t = self_times(spans)

    def root(s):
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    def under(s, name):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)
    n_pass = max(len(named.get("pass", [])), 1)
    n_setup = max(len(named.get("setup", [])), 1)

    out = {}
    for name, _, _ in WRAPPED:
        if name in missing or name == "interpret.sensitivity":
            continue
        calls = named.get(name, [])
        out[f"{name}_ms"] = median([self_t[s.sid] for s in calls]) * 1e3
        home, n_home = ("setup", n_setup) if name == "features.windows" else ("pass", n_pass)
        out[f"{name}_calls"] = sum(1 for s in calls if root(s).name == home) / n_home

    if "policy.forward" not in missing:
        fwd_by_pass: dict[int, list] = {}
        for s in named.get("policy.forward", []):
            r = root(s)
            if r.name == "pass":
                fwd_by_pass.setdefault(r.sid, []).append(s.attrs.get("key"))
        calls = sum(len(v) for v in fwd_by_pass.values())
        distinct = sum(len(set(v)) for v in fwd_by_pass.values())
        out["policy.forward_distinct"] = distinct / n_pass
        out["trainer.distinct_share"] = distinct / calls if calls else 0.0

    if "autodiff.backward" not in missing:
        bwd = named.get("autodiff.backward", [])
        out["autodiff.records_per_backward"] = median([s.attrs.get("records", 0) for s in bwd])
        out["autodiff.grad_mb"] = median([s.attrs.get("grad_bytes", 0) for s in bwd]) / 1e6
        if "interpret.sensitivity" not in missing:
            replays = [s for s in bwd if under(s, "interpret.sensitivity")]
            times = len(named.get("interpret.sensitivity", []))
            out["interpret.replays_per_time"] = len(replays) / times if times else 0.0
            out["interpret.replay_ms"] = median([self_t[s.sid] for s in replays]) * 1e3
    return out


def traced_run(workload, seed: int, seconds: float, tracer):
    """Per-layer metrics. Passes alternate untraced / traced, so the run
    also measures the tracing overhead on the workload's operations."""
    with tracer.installed(), tracer.span("setup"):
        state = workload.setup(seed)
    plain, traced = Tally(), Tally()

    def one_pass(i):
        ops = workload.pass_ops(state, seed, i)
        if i % 2 == 0:
            plain.run_all(ops)
            return
        with tracer.installed(), tracer.span("pass"):
            for op in ops:
                with tracer.span("op." + op.label):
                    traced.run(op)

    run_passes(seconds, one_pass, min_passes=2)
    metrics = span_metrics(tracer.spans, tracer.missing)
    probes, gone = probe_layers(state.prep.windows(state.prep.decision_times[0]), state.params)
    metrics.update(probes)
    tracer.missing.extend(gone)
    metrics["trace.overhead_share"] = median(traced.latencies) / median(plain.latencies) - 1.0
    details = {"traced_ops": len(traced.latencies), "untraced_ops": len(plain.latencies),
               "missing": list(tracer.missing)}
    return metrics, [plain, traced], details
