"""Self-tests of the benchmark: the output checker and the tracer.

    python3 -m pytest perfbench

The fixtures hold each workload's outputs at seed 0, as child.py returned
them at the commit that defined the benchmark.  Clean outputs must give no
failed check; each perturbation must give at least one, while changes a
correct program may make (higher lower bounds, other labels, another row
order) must still give none.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from check import Tally, check_command
from workloads import WORKLOADS, commands

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"


def outputs_of(workload: str) -> list[dict]:
    return json.loads((FIXTURES / f"{workload}.json").read_text())


def failed(outputs: list[dict]) -> int:
    tally = Tally()
    for out in outputs:
        tally.add(check_command(out["args"], out["exit_code"], out["stdout"]))
    assert tally.attempted > 0
    return tally.failed


def edit_rows(outputs: list[dict], edit) -> list[dict]:
    """Apply edit(fields) to every CSV data row; it returns the new fields
    or None to drop the row."""
    edited = []
    for out in outputs:
        header, *rows = out["stdout"].splitlines()
        kept = [edit(row.split(",")) for row in rows]
        text = "\n".join([header] + [",".join(f) for f in kept if f is not None]) + "\n"
        edited.append(dict(out, stdout=text))
    return edited


def set_value(resource: str, eta: str, value):
    def edit(fields):
        if fields[0] == eta and fields[1] == resource:
            fields[3] = str(value(float(fields[3])))
        return fields

    return edit


def value_of(outputs, resource, eta) -> float:
    for out in outputs:
        for row in out["stdout"].splitlines()[1:]:
            fields = row.split(",")
            if fields[0] == eta and fields[1] == resource:
                return float(fields[3])
    raise KeyError((resource, eta))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_outputs_pass(workload):
    outputs = outputs_of(workload)
    assert [out["args"] for out in outputs] == commands(workload, 0)
    assert failed(outputs) == 0


def test_ns_exact_off_by_1e_6_fails():
    chsh = outputs_of("chsh-sweep")
    assert failed(edit_rows(chsh, set_value("NS-exact", "0.75", lambda v: v + 1e-6))) > 0
    assert failed(edit_rows(chsh, set_value("NS-exact", "0.75", lambda v: v - 1e-6))) > 0
    pt = outputs_of("pt-scale")
    assert failed(edit_rows(pt, set_value("Q-exact", "1", lambda v: v - 1e-6))) > 0


def test_l_exact_above_l_bound_fails():
    chsh = outputs_of("chsh-sweep")
    bound = value_of(chsh, "L-bound", "1")
    assert failed(edit_rows(chsh, set_value("L-exact", "1", lambda v: bound + 1e-6))) > 0


@pytest.mark.parametrize(
    "resource,eta,change",
    [
        ("L-exact", "0.5", lambda v: v - 1e-5),  # a lower bound fell
        ("Q-lower", "1", lambda v: v - 1e-5),
        ("L-bound", "0.75", lambda v: v + 0.02),  # outside the reference table tolerance
        ("L-bound", "0.75", lambda v: float("nan")),
    ],
)
def test_wrong_sweep_value_fails(resource, eta, change):
    assert failed(edit_rows(outputs_of("chsh-sweep"), set_value(resource, eta, change))) > 0


def test_missing_or_repeated_row_fails():
    chsh = outputs_of("chsh-sweep")
    assert failed(edit_rows(chsh, lambda f: None if f[1] == "Q-lower" else f)) > 0
    doubled = [dict(out, stdout=out["stdout"] + out["stdout"].splitlines()[1] + "\n") for out in chsh]
    assert failed(doubled) > 0
    assert failed([dict(out, exit_code=1) for out in chsh]) > 0


def test_legitimate_changes_pass():
    chsh = outputs_of("chsh-sweep")
    raised = edit_rows(chsh, set_value("L-exact", "0.5", lambda v: v + 1e-4))
    assert failed(raised) == 0
    relabelled = edit_rows(chsh, lambda f: f[:2] + ["certified"] + f[3:4] + ["vertex:0"])
    assert failed(relabelled) == 0
    reordered = [
        dict(out, stdout="\n".join([lines[0]] + lines[:0:-1]) + "\n")
        for out in chsh
        for lines in [out["stdout"].splitlines()]
    ]
    assert failed(reordered) == 0


def test_fail_line_in_verify_fails():
    clean = outputs_of("verify-suite")
    (out,) = clean
    flipped = out["stdout"].replace("PASS", "FAIL", 1)
    assert failed([dict(out, stdout=flipped)]) > 0
    assert failed([dict(out, exit_code=1)]) > 0
    assert failed([dict(out, stdout="")]) > 0


def drop_checks(out: dict, drop) -> dict:
    """out with the check lines that drop(line) selects removed and the
    summary recounted, as a verify that skipped that work would print."""
    kept = [line for line in out["stdout"].splitlines()[:-1] if not drop(line)]
    return dict(out, stdout="\n".join(kept + [f"{len(kept)}/{len(kept)} checks passed"]) + "\n")


def test_verify_skipping_checks_fails():
    (out,) = outputs_of("verify-suite")
    for game in ("chsh", "magic-square", "mpp:3", "pr"):
        assert failed([drop_checks(out, lambda line: f"  {game}: " in line)]) > 0
    # only chsh's four propositions left: 4/4 passed, but work was skipped
    only_chsh = drop_checks(out, lambda line: not line.startswith("PASS  chsh: ") or "noise" in line)
    assert only_chsh["stdout"].endswith("4/4 checks passed\n")
    assert failed([only_chsh]) > 0
    lines = out["stdout"].splitlines()
    repeated = lines[:-1] + lines[:1]  # the first check made twice
    summary = f"{len(repeated)}/{len(repeated)} checks passed"
    assert failed([dict(out, stdout="\n".join(repeated + [summary]) + "\n")]) > 0


def test_verify_ops_count_only_games_checked():
    (out,) = outputs_of("verify-suite")
    assert check_command(out["args"], 0, out["stdout"]).ops == 900
    no_mpp = drop_checks(out, lambda line: "  mpp:3: " in line)
    assert check_command(out["args"], 0, no_mpp["stdout"]).ops == 600


def test_verify_added_check_passes():
    (out,) = outputs_of("verify-suite")
    lines = out["stdout"].splitlines()
    added = lines[:-1] + ["PASS  chsh: a later check: residual 0.000e+00 (tol 1.0e-10)", "28/28 checks passed"]
    assert failed([dict(out, stdout="\n".join(added) + "\n")]) == 0


def test_tracer_sees_calls_through_names_imported_by_other_modules(tmp_path):
    spec = {
        "commands": [["sweep", "--game", "chsh", "--channel-type", "2", "--eta-grid", "1:1:1",
                      "--resources", "NS-exact,L-bound", "--seed", "0"]],
        "trace": True,
        "spans": str(tmp_path / "spans.npz"),
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")),
        capture_output=True, text=True, check=True,
    )
    layers = json.loads(proc.stdout)["layers"]
    # capacity calls its own names type_ii, e_star and entropy; channels its input_win_mask
    assert layers["channels.build.calls"] == 4  # channel_for -> type_ii -> depolarizing_mac -> two_branch_mac
    assert layers["games.input_win_mask.calls"] == 1
    assert layers["correlations.e_star.calls"] == 1
    assert layers["infotheory.calls"] > layers["capacity.objective.evals"] > 0
    assert layers["capacity.maximize_over_pi.calls"] == 1
    assert (tmp_path / "spans.npz").is_file()
