"""Seeded sweeps against CSVs recorded under tests/data.

Labels (resource, kind, diagnostic) must match exactly and values within
1e-9, so a change that keeps the numbers passes and one that moves them
fails.  To re-record a golden after a deliberate change, run its command,
e.g.

    gamemac sweep --game mpp:3 --channel-type 2 --eta-grid 0.1:1:4 \\
        --resources L-exact --seed 0 --out tests/data/sweep_mpp3_type2.csv

and say in the change which rows moved and why.
"""

import csv
import io
from pathlib import Path

import pytest
from cli_run import invoke

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"

GOLDENS = {
    "sweep_chsh_type2.csv": (
        "--game", "chsh", "--channel-type", "2", "--eta-grid", "0.1:1:10",
        "--resources", "L-exact,Q-lower,NS-exact,L-bound", "--seed", "0",
    ),
    "sweep_mpp3_type2.csv": (
        "--game", "mpp:3", "--channel-type", "2", "--eta-grid", "0.1:1:4",
        "--resources", "L-exact", "--seed", "0",
    ),
    # the resource column prints the box file's path, so it runs from the repo root
    "sweep_chsh_type1_vertex_file.csv": (
        "--game", "chsh", "--channel-type", "1", "--eta-grid", "0:0.9:4", "--resources",
        "vertex-file:tests/data/pr_tsirelson_boxes.csv,Q-lower,NS-exact", "--seed", "0",
    ),
}


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("golden", list(GOLDENS))
def test_sweep_matches_golden(golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = invoke("sweep", *GOLDENS[golden])
    assert result.exit_code == 0, result.output
    got, want = _rows(result.output), _rows((DATA / golden).read_text())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        labels = ("eta", "resource", "kind", "diagnostic")
        assert [g[k] for k in labels] == [w[k] for k in labels]
        assert abs(float(g["value"]) - float(w["value"])) <= 1e-9, (g, w)
