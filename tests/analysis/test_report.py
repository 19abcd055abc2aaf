"""`repro report`: the generated blocks of EXPERIMENTS.md and the golden file."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import paper
from repro.cli import main
from repro.graph import datasets

ROOT = Path(__file__).resolve().parents[2]
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text()
GOLDEN = json.loads((ROOT / "tests" / "paper" / "golden.json").read_text())
BLOCK = re.compile(r"<!-- begin (\w+) -->\n(.*?)<!-- end \1 -->", re.S)


def _from_golden():
    return [
        paper.Figure(key, f"claim of {key}", rows, {f"{key} holds": True})
        for key, rows in GOLDEN.items()
    ]


class TestReport:
    def test_all_sections_present(self):
        """Every figure's block renders, and holds the golden file's rows."""
        out = paper.render_experiments(EXPERIMENTS, _from_golden())
        assert BLOCK.sub("", out) == BLOCK.sub("", EXPERIMENTS)  # prose untouched
        for fig in _from_golden():
            assert f"<!-- begin {fig.key} -->\nPaper: claim of {fig.key}\n" in out
            md = paper.markdown(fig).splitlines()
            rows = [line for line in md if line.startswith("| ")]
            assert len(rows) == len(fig.rows) + 1
            for line in rows:
                assert line in EXPERIMENTS, line

    def test_a_missing_block_is_refused(self):
        with pytest.raises(ValueError, match="begin table1"):
            paper.render_experiments("no generated blocks", _from_golden())

    def test_mentions_all_datasets(self):
        keys = ("SD", "WG", "CP", "LJ")
        fig = paper.table1({key: datasets.load(key, scale=0.1) for key in keys})
        text = paper.markdown(fig)
        for key in keys:
            assert f"| {key} |" in text

    def test_tables_are_markdown(self):
        blocks = dict(BLOCK.findall(EXPERIMENTS))
        assert list(blocks) == list(GOLDEN)
        for key, text in blocks.items():
            assert "\n|---|" in text, key

    def test_contains_speedups_and_policies(self):
        blocks = dict(BLOCK.findall(EXPERIMENTS))
        assert "| speedup |" in blocks["fig04"]
        for policy in ("Oracle", "Dynamic", "Fixed-8"):
            assert f"| WG {policy}" in blocks["fig16"]

    def test_cli_report_command(self, tmp_path, monkeypatch, capsys):
        """The CLI writes both files and exits 1 on a moved number or a
        failed check."""
        rows = {"BC": {"msgs": np.array([1, 5, 2]), "peak": 0.25}}
        check = {"BC peaks": True}
        fig = paper.Figure("fig03", "c", rows, check)
        monkeypatch.setattr(paper, "figures", lambda: [fig])
        experiments = tmp_path / "EXPERIMENTS.md"
        experiments.write_text("prose\n<!-- begin fig03 -->\nold\n<!-- end fig03 -->\n")
        golden = tmp_path / "paper" / "golden.json"
        argv = ["report", "--experiments", str(experiments), "--golden", str(golden)]

        assert main(argv) == 0
        assert json.loads(golden.read_text()) == {
            "fig03": {"BC": {"msgs": [1, 5, 2], "peak": 0.25}}}
        text = experiments.read_text()
        assert text.startswith("prose\n<!-- begin fig03 -->\nPaper: c\n")
        assert "old" not in text
        assert "wrote" in capsys.readouterr().out
        assert main(argv) == 0  # a fixed point

        rows["BC"]["msgs"][1] = 6
        assert main(argv) == 1
        assert "moved: fig03 / BC / msgs[1]: 5 -> 6" in capsys.readouterr().err
        assert main(argv) == 0  # the rewritten golden file is the new record

        check["BC peaks"] = False
        assert main(argv) == 1
        assert "fig03: check failed: BC peaks" in capsys.readouterr().err
