"""Seeded ascents pinned bit for bit against tests/data/ascent_bits.json.

Each case records the value's float.hex(), the bytes of its argmax factors
and the full diagnostics dict of one `maximize_over_pi` call, so any drift
in the last bit of a value, a factor or a step count fails here, where the
sweep goldens allow 1e-9.  To re-record after a deliberate change, run

    PYTHONPATH=src python tests/test_ascent_bits.py

and say in the change which cases moved and why.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gamemac.capacity import (
    OptimizerConfig,
    channel_for,
    classical_capacity_exact,
    classical_upper_bound,
    vertex_file_bound,
)
from gamemac.games import game_by_name

DATA = Path(__file__).parent / "data"
BITS = DATA / "ascent_bits.json"
BOXES = DATA / "pr_tsirelson_boxes.csv"

RESOURCES = {
    "L-exact": classical_capacity_exact,
    "L-bound": classical_upper_bound,
    "vertex-file": lambda ch, cfg: vertex_file_bound(ch, BOXES, cfg),
}
RUNS = (("chsh", "L-exact"), ("chsh", "L-bound"), ("mpp:3", "L-exact"), ("mpp:3", "L-bound"),
        ("magic-square", "L-bound"), ("chsh", "vertex-file"))
# (channel type, eta, seed)
CHANNELS = ((2, 0.1, 0), (2, 1.0, 0), (1, 0.5, 3))
CASES = [
    f"{game} {resource} type-{'I' * t} eta={eta} seed={seed}" for game, resource in RUNS for t, eta, seed in CHANNELS
]


def record(case: str) -> dict:
    game, resource, channel, eta, seed = case.split()
    ch = channel_for(game_by_name(game), channel.count("I"), float(eta[len("eta="):]))
    r = RESOURCES[resource](ch, OptimizerConfig(seed=int(seed[len("seed="):])))
    return {
        "value": r.value.hex(),
        "factors": np.stack(r.argmax_pi.factors).tobytes().hex(),
        "diagnostics": r.diagnostics,
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(BITS.read_text())


def test_every_case_is_recorded(recorded):
    assert list(recorded) == CASES


@pytest.mark.parametrize("case", CASES)
def test_ascent_matches_its_recorded_bits(case, recorded):
    assert record(case) == recorded[case]


if __name__ == "__main__":
    BITS.write_text(json.dumps({case: record(case) for case in CASES}, indent=1) + "\n")
