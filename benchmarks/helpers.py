"""Shared helpers for the host-time benches."""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single round and return its result.

    The experiments are deterministic simulations; repeated rounds would
    only measure interpreter noise while multiplying wall time.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)

