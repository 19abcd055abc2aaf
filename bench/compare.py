"""Compare two result records of ``bench/run.py`` under the benchmark's bounds.

    python bench/compare.py A.json B.json

``A`` is the baseline (the parent commit, or the first of two sets of the
same commit) and ``B`` the candidate.  Prints one row per (workload,
end-to-end metric) with both medians, both inter-quartile ranges and a
verdict, applying the bound ``BENCHMARK.json`` fixes for the metric:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is (for ``setup_s``: by more than the bound *and* 10 ms);
* ``unresolved`` — the round-to-round spread of either side is wider than
  the bound, and the two sides' rounds overlap.

The simulated seconds and dollars, the values digest and every ``count``
metric depend only on the inputs, so with equal seeds they must be
identical; any difference is ``worse``.  (Tallies that follow wall time —
heartbeats, the flight events they cause — carry the unit ``events``, not
``count``, and are not compared.)  So is a failed round in B that A
did not have.  Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: a regression also has to exceed this much, in the metric's own unit
ABSOLUTE_FLOOR = {"setup_s": 0.010}
#: simulated time and cost are deterministic: equal to within rounding
SIM_RELATIVE_BOUND = 1e-9


def verdict(a: dict, b: dict, better: str, bound: float, floor: float) -> str:
    lower = better == "lower"
    worse_by = b["value"] - a["value"] if lower else a["value"] - b["value"]
    regressed = worse_by > bound * a["value"] and worse_by > floor
    spread = max(_iqr(a) / a["value"], _iqr(b) / b["value"])
    if spread <= bound:
        return "worse" if regressed else "ok"
    # Too noisy for the medians alone: only disjoint rounds decide.
    a_best, a_worst = _ends(a, lower)
    b_best, b_worst = _ends(b, lower)
    if _beats(b_worst, a_best, lower):
        return "ok"
    if regressed and _beats(a_worst, b_best, lower):
        return "worse"
    return "unresolved"


def _ends(m: dict, lower: bool) -> tuple[float, float]:
    """``(best, worst)`` round of a metric summary."""
    lo, hi = m.get("min", m["value"]), m.get("max", m["value"])
    return (lo, hi) if lower else (hi, lo)


def _beats(x: float, y: float, lower: bool) -> bool:
    return x < y if lower else x > y


def _iqr(m: dict) -> float:
    return m.get("q3", m["value"]) - m.get("q1", m["value"])


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, a_median, a_iqr, b_median, b_iqr, verdict)``."""
    rows = []
    same_inputs = a["seed"] == b["seed"] and a["quick"] == b["quick"]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        ea, eb = wa.get("end_to_end") or {}, wb.get("end_to_end") or {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in ea or key not in eb:
                rows.append((name, key, None, None, None, None, "worse"))
                continue
            rows.append((
                name, key, ea[key]["value"], _iqr(ea[key]),
                eb[key]["value"], _iqr(eb[key]),
                verdict(ea[key], eb[key], metric["better"], metric["bound"],
                        ABSOLUTE_FLOOR.get(key, 0.0)),
            ))
        frac_a = wa["failed"] / wa["attempted"]
        frac_b = wb["failed"] / wb["attempted"]
        rows.append((name, "failed_frac", frac_a, 0.0, frac_b, 0.0,
                     "worse" if frac_b > frac_a else "ok"))
        if not same_inputs:
            continue
        da, db = wa["deterministic"], wb["deterministic"]
        for key in ("sim_s", "sim_usd"):
            if da[key] is None or db[key] is None:
                continue
            close = abs(db[key] - da[key]) <= SIM_RELATIVE_BOUND * abs(da[key])
            rows.append((name, key, da[key], 0.0, db[key], 0.0,
                         "ok" if close else "worse"))
        differing = [] if da["digest"] == db["digest"] else ["values digest"]
        la, lb = wa.get("per_layer") or {}, wb.get("per_layer") or {}
        differing += [
            k for k, m in la.items()
            if m["unit"] == "count" and k in lb and lb[k]["value"] != m["value"]
        ]
        for what in differing:
            rows.append((name, what, None, None, None, None, "worse"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)

    def cell(x) -> str:
        return f"{x:>13.6g}" if x is not None else f"{'-':>13}"

    print(f"{'workload':<14} {'metric':<28} {'A median':>13} {'A iqr':>13} "
          f"{'B median':>13} {'B iqr':>13} {'change':>8}  verdict")
    for name, key, ma, ia, mb, ib, v in rows:
        change = f"{(mb - ma) / ma:>+8.1%}" if ma and mb is not None else f"{'':>8}"
        print(f"{name:<14} {key:<28} {cell(ma)} {cell(ia)} {cell(mb)} "
              f"{cell(ib)} {change}  {v}")
    if a["seed"] != b["seed"] or a["quick"] != b["quick"]:
        print("note: the records ran different inputs (seed or --quick); "
              "simulated results, digests and counts were not compared")
    counts = {v: sum(r[-1] == v for r in rows) for v in ("ok", "unresolved", "worse")}
    print(f"{counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['worse']} worse")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
