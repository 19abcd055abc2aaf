"""Paper numbers against ``tests/paper/golden.json``, compared exactly.

``python -m repro report`` writes the golden file from every figure at
``BENCH_SCALE``; a change that moves a paper number must regenerate it
(and EXPERIMENTS.md) and say why.  Table 1 and Fig. 3 are recomputed
here: Fig. 3's rows are integer message counts.
"""

import json
import math
from pathlib import Path

from repro.analysis import bc_scenario, paper
from repro.graph import datasets

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def test_table1_and_fig3_equal_the_golden_file():
    fresh = paper.golden([
        paper.table1({key: datasets.load(key) for key in ("SD", "WG", "CP", "LJ")}),
        paper.fig03(bc_scenario("WG")),
    ])
    assert paper.compare({key: GOLDEN[key] for key in fresh}, fresh) == []


def test_compare_names_figure_row_and_column_of_a_one_ulp_change():
    moved = json.loads(json.dumps(GOLDEN))
    f8 = moved["fig16"]["WG Fixed-8"]
    f8["norm_time"] = math.nextafter(f8["norm_time"], math.inf)
    mem = moved["fig05"]["baseline"]["peak_mem"]
    mem[3] = math.nextafter(mem[3], -math.inf)
    assert paper.compare(GOLDEN, moved) == [
        f"fig05 / baseline / peak_mem[3]: "
        f"{GOLDEN['fig05']['baseline']['peak_mem'][3]!r} -> {mem[3]!r}",
        f"fig16 / WG Fixed-8 / norm_time: "
        f"{GOLDEN['fig16']['WG Fixed-8']['norm_time']!r} -> {f8['norm_time']!r}",
    ]
