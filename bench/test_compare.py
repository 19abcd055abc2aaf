"""Unit tests of ``bench/compare.py``'s verdict rule: ``pytest bench/``."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.compare import verdict  # noqa: E402


def summary(value, q1, q3, lo, hi):
    return {"value": value, "q1": q1, "q3": q3, "min": lo, "max": hi}


def mirrored(m, better):
    """The same rounds read as a higher-is-better rate (1000 / seconds)."""
    if better == "lower":
        return m
    return summary(1000 / m["value"], 1000 / m["q3"], 1000 / m["q1"],
                   1000 / m["max"], 1000 / m["min"])


STEADY = summary(100, 98, 102, 95, 105)
NOISY = summary(100, 70, 130, 60, 140)


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("b, expected", [
    (summary(110, 108, 112, 105, 115), "ok"),       # +10 %, inside the bound
    (summary(140, 138, 142, 135, 145), "worse"),    # +40 %, steady
    (summary(60, 58, 62, 55, 65), "ok"),            # an improvement
])
def test_steady_sides_are_judged_by_their_medians(better, b, expected):
    a, b = mirrored(STEADY, better), mirrored(b, better)
    assert verdict(a, b, better, 0.25, 0.0) == expected


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("b, expected", [
    (summary(140, 120, 160, 110, 170), "unresolved"),  # +40 % but overlapping
    (summary(100, 70, 130, 60, 140), "unresolved"),    # same, too noisy to say
    (summary(200, 170, 230, 150, 250), "worse"),       # every round worse
    (summary(40, 30, 50, 20, 55), "ok"),               # every round better
])
def test_noisy_sides_are_decided_only_by_disjoint_rounds(better, b, expected):
    a, b = mirrored(NOISY, better), mirrored(b, better)
    assert verdict(a, b, better, 0.25, 0.0) == expected


def test_noisy_throughput_drop_is_not_ok():
    a = summary(100, 70, 130, 60, 140)
    b = summary(60, 40, 80, 30, 70)
    assert verdict(a, b, "higher", 0.25, 0.0) == "unresolved"


def test_absolute_floor_applies_to_small_setups():
    a = summary(0.010, 0.010, 0.010, 0.010, 0.010)
    b = summary(0.015, 0.015, 0.015, 0.015, 0.015)
    assert verdict(a, b, "lower", 0.25, 0.010) == "ok"
    assert verdict(a, b, "lower", 0.25, 0.0) == "worse"
