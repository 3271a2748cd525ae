"""Record the reference outputs that the benchmark's checks compare against.

    python3 benchmarks/record_reference.py

Writes ``benchmarks/reference.json``: for each of the SEEDS, the
learning log of one ``train_paper`` train() call and the delta_bar of every
``explain_narrow`` decision time. Record it once, at the commit whose
outputs are the reference; the benchmark only reads it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(20)


def main() -> int:
    from run import pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(BENCH.parent / "src"))
    from workloads import ExplainNarrow, TrainPaper

    train, explain = TrainPaper(), ExplainNarrow()
    reference = {"train_paper": {}, "explain_narrow": {}}
    for seed in SEEDS:
        state = train.setup(seed)
        [op] = train.pass_ops(state, seed, 0)
        log = op.run().log
        reference["train_paper"][str(seed)] = [
            [e.mean_sharpe, e.mean_advantage, e.grad_norm] for e in log
        ]
        state = explain.setup(seed)
        times = {}
        for i, t in enumerate(state.span):
            [op] = explain.pass_ops(state, seed, i)
            times[str(t)] = op.run().delta_bar.tolist()
        reference["explain_narrow"][str(seed)] = times
        print(f"seed {seed} recorded", flush=True)
    (BENCH / "reference.json").write_text(json.dumps(reference) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
