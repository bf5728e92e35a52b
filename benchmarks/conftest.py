"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures, prints
its text rendering (to stdout when run with ``--benchmark-only -s``;
``repro-tom bundle DIR --scale SMALL`` writes the same text to files),
and asserts the *shape* invariants the reproduction targets. Set ``REPRO_BENCH_SCALE`` (TINY/SMALL/MEDIUM/
LARGE) to trade run time for fidelity; SMALL is the default.

The simulations are deterministic, so every figure runs exactly once
(``rounds=1``) — pytest-benchmark records the wall time of that single
reproduction run.
"""

from __future__ import annotations

import pytest


def run_figure(benchmark, figure_fn, *args, **kwargs):
    """Run a figure driver once under pytest-benchmark and print it."""
    result = benchmark.pedantic(
        figure_fn, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
    print()
    print(result.render())
    return result


@pytest.fixture
def figure(benchmark):
    def _run(figure_fn, *args, **kwargs):
        return run_figure(benchmark, figure_fn, *args, **kwargs)

    return _run
