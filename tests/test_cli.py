import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from cli_run import invoke as run

from gamemac import capacity, verify
from gamemac.channels import MacChannel, noise_f, type_ii
from gamemac.cli import SUBCOMMANDS, CliError, main, parse_eta_grid
from gamemac.games import mpp_game


BOXES = str(Path(__file__).parent / "data" / "pr_tsirelson_boxes.csv")


def test_parse_eta_grid():
    grid = parse_eta_grid("0.2:0.8:4")
    assert np.allclose(grid, [0.2, 0.4, 0.6, 0.8])


def test_parse_eta_grid_errors():
    assert run("sweep", "--game", "chsh", "--channel-type", "2",
               "--eta-grid", "nope", "--resources", "NS-exact").exit_code != 0
    assert run("sweep", "--game", "chsh", "--channel-type", "2",
               "--eta-grid", "0:2:3", "--resources", "NS-exact").exit_code != 0
    for spec in ("nan:1:2", "0.1:inf:2"):
        result = run("sweep", "--game", "chsh", "--channel-type", "2",
                     "--eta-grid", spec, "--resources", "NS-exact")
        assert result.exit_code == 1 and "eta-grid" in result.output, result.output


def test_sweep_stdout_csv():
    result = run(
        "sweep", "--game", "chsh", "--channel-type", "2",
        "--eta-grid", "0.5:1:2", "--resources", "NS-exact",
    )
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[0] == "eta,resource,kind,value,diagnostic"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.5
    assert cells[1] == "NS-exact"
    assert float(cells[3]) == float(f"{2.0 - noise_f(4, 0.5):.10g}")


def test_sweep_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "game = chsh\n"
        "channel-type = 2\n"
        "eta-grid = 0.3:0.9:3\n"
        "resources = NS-exact,Q-lower,L-bound\n"
        "seed = 11  # comment survives\n"
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run("sweep", "--config", str(cfg), "--out", str(out1))
    r2 = run("sweep", "--config", str(cfg), "--out", str(out2))
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0, r2.output
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().strip().split("\n")) == 1 + 9


def test_sweep_flag_overrides_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "game = chsh\nchannel-type = 2\neta-grid = 0.5:0.5:1\nresources = NS-exact\n"
    )
    result = run("sweep", "--config", str(cfg), "--eta-grid", "1:1:1")
    assert result.exit_code == 0, result.output
    assert result.output.strip().split("\n")[1].startswith("1,")


# every setting that is both a flag and a config key -> a config value that
# would end the run in an error, or write elsewhere, if it won over the flag
LOSING_CONFIG_VALUES = {
    "game": "nope", "channel-type": "3", "eta-grid": "0:2:3",
    "resources": "bogus", "seed": "-1", "out": "lost.csv",
}


@pytest.mark.parametrize("key", LOSING_CONFIG_VALUES)
def test_sweep_setting_as_flag_or_config_key(tmp_path, key):
    out = tmp_path / "sweep.csv"
    settings = {"game": "chsh", "channel-type": "1", "eta-grid": "0.5:1:2",
                "resources": "L-exact,NS-exact", "seed": "3", "out": str(out)}
    losing = LOSING_CONFIG_VALUES[key]
    if key == "out":
        losing = str(tmp_path / losing)

    def sweep(config, flags):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        out.unlink(missing_ok=True)
        args = [arg for k, v in flags.items() for arg in (f"--{k}", v)]
        result = run("sweep", "--config", str(cfg), *args)
        assert result.exit_code == 0, result.output
        return result.output, out.read_bytes()

    rest = {k: v for k, v in settings.items() if k != key}
    from_config = sweep(settings, {})
    assert sweep(rest, {key: settings[key]}) == from_config
    assert sweep({**rest, key: losing}, {key: settings[key]}) == from_config
    assert not (tmp_path / "lost.csv").exists()


def test_sweep_missing_field_and_bad_config(tmp_path):
    result = run("sweep", "--game", "chsh", "--channel-type", "2")
    assert result.exit_code != 0
    assert "eta-grid" in result.output
    bad = tmp_path / "bad.cfg"
    bad.write_text("game chsh\n")
    result = run("sweep", "--config", str(bad))
    assert result.exit_code != 0
    assert "key = value" in result.output


@pytest.mark.parametrize("reader", ["config", "vertex-file"])
def test_a_file_that_is_not_utf8_is_refused_at_its_line(tmp_path, reader):
    cfg, boxes = tmp_path / "sweep.cfg", tmp_path / "boxes.csv"

    def write_config(path, newline):
        cfg.write_bytes(newline.join([
            "game = chsh", "channel-type = 2  # type II, \u03b7 below",
            "eta-grid = 1:1:1", f"resources = vertex-file:{path}", "",
        ]).encode())

    # CRLF endings and a UTF-8 comment read as before; the stray byte does not
    args = ("sweep", "--config", str(cfg))
    write_config(BOXES, "\n")
    lf = run(*args)
    assert lf.exit_code == 0, lf.output
    write_config(boxes, "\r\n")
    boxes.write_bytes(Path(BOXES).read_bytes().replace(b"\n", b"\r\n"))
    crlf = run(*args)
    assert crlf.exit_code == 0, crlf.output
    assert crlf.output.replace(str(boxes), BOXES) == lf.output
    path = cfg if reader == "config" else boxes
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))
    result = run(*args)
    assert (result.exit_code, result.output) == (1, f"Error: {path}:3: not UTF-8 text\n")


def test_sweep_refuses_magic_square_exact():
    result = run(
        "sweep", "--game", "magic-square", "--channel-type", "2",
        "--eta-grid", "1:1:1", "--resources", "L-exact",
    )
    assert result.exit_code != 0
    assert "classical_upper_bound" in result.output
    # the advice names the sweep resource a command line can ask for
    assert result.output.splitlines()[-1] == (
        "Error: magic-square encoding scenario has 191102976 deterministic encoder "
        "vertices, over the cap of 10000000; use the L-bound resource "
        "(classical_upper_bound) instead"
    )


def test_verify_command_passes():
    result = run("verify", "--seed", "3", "--count", "5")
    assert result.exit_code == 0, result.output
    assert "27/27 checks passed" in result.output


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_refuses_count_below_one(count):
    result = run("verify", "--count", count)
    assert result.exit_code == 1, result.output
    assert not isinstance(result.exception, ValueError)
    assert "count must be at least 1" in result.output
    assert "PASS" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ("table", "--seed", "-1"),
        ("verify", "--seed", "-4", "--count", "3"),
        ("sweep", "--game", "chsh", "--channel-type", "2", "--eta-grid", "1:1:1",
         "--resources", "L-exact", "--seed", "-1"),
    ],
    ids=lambda args: args[0],
)
def test_negative_seed_is_refused_by_name(args):
    result = run(*args)
    assert result.exit_code == 1, result.output
    assert not isinstance(result.exception, ValueError)
    assert f"seed must be >= 0, got {args[args.index('--seed') + 1]}" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--seed", "2.5"),
        ("table", "--seed", "x"),
        ("sweep", "--game", "chsh", "--channel-type", "2", "--eta-grid", "1:1:1",
         "--resources", "NS-exact", "--seed", "x"),
    ],
    ids=lambda args: args[0],
)
def test_a_seed_that_is_not_an_integer_is_a_usage_error(args):
    result = run(*args)
    assert result.exit_code == 2, result.output
    assert f"Error: argument --seed: invalid int value: {args[-1]!r}" in result.output
    assert "--seed INTEGER" in run(args[0], "--help").output


_SWEEP_OPTIONS = ["--game", "--channel-type", "--eta-grid", "--resources", "--seed", "--out", "--config"]


@pytest.mark.parametrize(
    "command, options",
    [
        ("sweep", _SWEEP_OPTIONS),
        ("verify", ["--seed", "--count"]),
        ("table", ["--seed"]),
        ("game-value", ["GAME"]),
        ("box-export", ["BOX", "--out"]),
    ],
)
def test_every_subcommand_help_lists_its_options(command, options):
    assert sorted(SUBCOMMANDS.choices) == ["box-export", "game-value", "sweep", "table", "verify"]
    result = run(command, "--help")
    assert result.exit_code == 0, result.output
    assert result.output.startswith(f"usage: gamemac {command} ")
    for option in options:
        assert f" {option}" in result.output, option


def _assert_usage_error(result, fragment):
    """Refused by the parser: exit code 2, the usage line, one `Error:` line."""
    assert result.exit_code == 2, result.output
    assert result.output.startswith("usage: gamemac"), result.output
    assert result.output.splitlines()[-1].startswith("Error: ")
    assert fragment in result.output, result.output


def test_sweep_config_that_does_not_exist_is_a_usage_error(tmp_path):
    missing = tmp_path / "missing.cfg"
    _assert_usage_error(run("sweep", "--config", str(missing)),
                        f"Error: argument --config: path {str(missing)!r} does not exist")


@pytest.mark.parametrize(
    "args, option",
    [(("sweep", "--see", "1"), "--see"), (("verify", "--cou", "3"), "--cou"),
     (("table", "--seed=1", "--s", "2"), "--s")],
)
def test_an_option_prefix_is_a_usage_error(args, option):
    _assert_usage_error(run(*args), f"unrecognized arguments: {option}")


@pytest.mark.parametrize(
    "option, first, second",
    [("--seed", "1", "2"), ("--resources", "L-exact", "NS-exact")],
)
def test_a_flag_given_twice_is_a_usage_error(tmp_path, monkeypatch, option, first, second):
    # last-wins would run the second value; neither runs
    calls = []
    monkeypatch.setattr(capacity, "sweep", lambda *args: calls.append(args))
    args = ["sweep", "--game", "chsh", "--channel-type", "2", "--eta-grid", "1:1:1",
            "--resources", "NS-exact", "--seed", "0", "--out", str(tmp_path / "rows.csv")]
    given = args.index(option)
    args[given + 1] = first
    _assert_usage_error(run(*args, option, second), f"Error: argument {option}: given twice")
    _assert_usage_error(run(*args, f"{option}={second}"), f"Error: argument {option}: given twice")
    # a flag over a config key stays allowed: test_sweep_setting_as_flag_or_config_key
    assert calls == [] and not (tmp_path / "rows.csv").exists()


def test_a_value_that_starts_with_a_dash_is_refused():
    # a dash-led value that is not a plain negative number reads as an option
    args = ("sweep", "--game", "chsh", "--channel-type", "2", "--resources", "NS-exact")
    _assert_usage_error(run(*args, "--eta-grid", "-0.5:1:2"),
                        "Error: argument --eta-grid: expected one argument")
    # attached with `=`, it is a value, and the grid refuses it
    result = run(*args, "--eta-grid=-0.5:1:2")
    assert (result.exit_code, result.output) == (
        1, "Error: eta-grid '-0.5:1:2' must stay within [0, 1] with n >= 1\n")


def test_without_standalone_mode_the_boundary_raises():
    # the benchmark's child process runs commands this way and reports the raised error
    with pytest.raises(CliError, match="^seed must be >= 0, got -1$") as caught:
        main(["table", "--seed", "-1"], standalone_mode=False)
    assert (caught.value.exit_code, caught.value.usage) == (1, "")
    with pytest.raises(CliError, match="^argument --seed: invalid int value: 'x'$") as caught:
        main(["table", "--seed", "x"], standalone_mode=False)
    assert caught.value.exit_code == 2 and caught.value.usage.startswith("usage: gamemac table")


def test_a_seed_in_a_config_file_that_is_not_an_integer_is_refused_by_its_key(tmp_path):
    # a config value is read after the command line's parsing: an error line, not a usage error
    result = _sweep_with_config(tmp_path, "seed = x\n")
    assert (result.exit_code, result.output) == (1, "Error: seed must be an integer, got 'x'\n")


def test_verify_exits_1_when_a_check_fails(monkeypatch):
    failing = verify.Check("planted residual", residual=1.0, tolerance=1e-9)
    monkeypatch.setattr(verify, "run_verification", lambda seed, count: [failing])
    result = run("verify", "--count", "3")
    assert result.exit_code == 1, result.output
    assert result.output == "FAIL  planted residual: residual 1.000e+00 (tol 1.0e-09)\n0/1 checks passed\n"


def test_verify_deterministic_output():
    a = run("verify", "--seed", "5", "--count", "5")
    b = run("verify", "--seed", "5", "--count", "5")
    assert a.output == b.output


def test_game_value_command():
    result = run("game-value", "mpp:3")
    assert result.exit_code == 0
    assert "omega*_L = 0.875" in result.output
    assert run("game-value", "nope").exit_code != 0
    # the first optimal strategy tuple in `product` order
    assert run("game-value", "magic-square").output == (
        "game magic-square: omega*_L = 0.8888888889\n"
        "  player 1: answers [0, 0, 3] for questions 0..2\n"
        "  player 2: answers [4, 4, 1] for questions 0..2\n"
    )


def test_table_builds_no_dense_channel_matrix(monkeypatch):
    # its L-exact and L-bound rows read slots and circulants, never the
    # (dD)^n x Δ matrix; the perfect-box rows read the slots alone
    monkeypatch.setattr(MacChannel, "matrix", property(lambda ch: pytest.fail("matrix was built")))
    result = run("table", "--seed", "0")
    assert result.exit_code == 0, result.output
    assert len(result.output.splitlines()) == 7


def test_table_stdout():
    result = run("table", "--seed", "0")
    assert result.exit_code == 0, result.output
    assert result.output == (
        "game          resource  computed      reference  delta\n"
        "chsh          L-exact   1.435280943   1.44       -0.0047\n"
        "chsh          L-bound   1.627638829   1.63       -0.0024\n"
        "magic-square  L-bound   2.928351264   2.93       -0.0016\n"
        "magic-square  Q-exact   3.169925001   3.17       -0.0001\n"
        "mpp:3         L-bound   2.722815365   2.72       +0.0028\n"
        "mpp:3         Q-exact   3             3.00       +0.0000\n"
    )


def test_box_export_roundtrip(tmp_path):
    from gamemac.correlations import boxes_from_csv, pr_box

    out = tmp_path / "pr.csv"
    result = run("box-export", "pr", "--out", str(out))
    assert result.exit_code == 0
    (box,) = boxes_from_csv(out)
    assert np.allclose(box.table, pr_box().table)
    nope = tmp_path / "nope.csv"
    result = run("box-export", "nope", "--out", str(nope))
    assert (result.exit_code, result.output) == (1, "Error: unknown box 'nope'\n")
    assert not nope.exists()


def test_box_export_writes_only_winning_rows(tmp_path):
    # mpp:3: 4 odd-parity questions x 8 answers at 1/8, 4 even-parity
    # questions x 4 winning answers at 1/4, and no losing answer
    out = tmp_path / "mpp3.csv"
    assert run("box-export", "mpp:3", "--out", str(out)).exit_code == 0
    header, *rows = out.read_text().splitlines()
    assert header == "3,2,2" and len(rows) == 48
    game = mpp_game(3)
    for row in rows:
        *digits, p = row.split(",")
        digits = list(map(int, digits))
        assert game.wins(digits[:3], digits[3:])
        assert p == ("0.125" if sum(digits[:3]) % 2 else "0.25")


def test_box_export_refuses_a_table_over_the_cap_before_building_it(tmp_path, monkeypatch):
    from gamemac import correlations

    def unbuilt(*args):
        raise AssertionError("the box table was built")

    monkeypatch.setattr(correlations, "uniform_over_wins", unbuilt)
    out = tmp_path / "mpp11.csv"
    result = run("box-export", "mpp:11", "--out", str(out))
    assert (result.exit_code, result.output) == (
        1, f"Error: mpp:11 box has {4**11} table entries, over the cap of {2**20}\n"
    )
    assert not out.exists()


def test_cli_import_leaves_dataclasses_unloaded():
    # generating dataclass methods through exec cost every command about 7 ms of start-up
    code = "import sys, gamemac.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_cli_import_leaves_click_and_uuid_unloaded():
    # click's import, which also loaded uuid, cost every command 7-9 ms of start-up
    code = "import sys, gamemac.cli; print([m for m in ('click', 'uuid') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("name", ["mpp:x", "mpp:", "mpp:1"])
def test_box_export_bad_mpp_name(tmp_path, name):
    result = run("box-export", name, "--out", str(tmp_path / "x.csv"))
    assert result.exit_code == 1, result.output
    assert not isinstance(result.exception, ValueError)
    assert "Error:" in result.output and "mpp" in result.output
    assert not (tmp_path / "x.csv").exists()


def _sweep_vertex_file(path, eta):
    """`sweep` of chsh type II at one eta over the box file path."""
    return run("sweep", "--game", "chsh", "--channel-type", "2", "--eta-grid", f"{eta}:{eta}:1",
               "--resources", f"vertex-file:{path}")


def test_vertex_bound_of_the_pr_box(tmp_path):
    # the E* rate of the PR box is the NS-exact closed form
    out = tmp_path / "pr.csv"
    run("box-export", "pr", "--out", str(out))
    result = _sweep_vertex_file(out, 0.9)
    assert result.exit_code == 0, result.output
    value = float(result.output.splitlines()[1].split(",")[3])
    assert abs(value - (2.0 - noise_f(4, 0.9))) < 1e-5


def test_vertex_bound_reports_a_lower_bound(tmp_path):
    # E* of the Tsirelson box at its local-search pi is achievable; the
    # classical capacity (1.435281 at this eta) lies above it
    out = tmp_path / "tsirelson.csv"
    run("box-export", "tsirelson", "--out", str(out))
    result = _sweep_vertex_file(out, 1)
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[1] == (
        f"1,vertex-file:{out},lower-bound,1.326497774,vertex-file:0"
    )


def test_l_bound_is_the_papers_expression_not_an_upper_bound():
    # an exact classical rate lies above the subset-partition value on mpp:3
    result = run(
        "sweep", "--game", "mpp:3", "--channel-type", "2", "--eta-grid", "0.3:0.3:1",
        "--resources", "L-exact,L-bound", "--seed", "0",
    )
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
    (_, _, exact_kind, exact, _), (_, _, bound_kind, bound, _) = rows
    assert (exact_kind, bound_kind) == ("exact", "paper-bound")
    assert abs(float(exact) - 0.282669117) < 1e-9
    assert abs(float(bound) - 0.2792130379) < 1e-9
    assert float(exact) > float(bound)


@pytest.mark.parametrize(
    "box, eta, value",
    [("pr", 0.9, "1.496816268"), ("pr", 0.5, "0.4512050593"),
     ("tsirelson", 0.9, "1.058012046"), ("tsirelson", 0.5, "0.3328154563")],
)
def test_vertex_bound_values_of_the_built_in_boxes(tmp_path, box, eta, value):
    out = tmp_path / f"{box}.csv"
    run("box-export", box, "--out", str(out))
    result = _sweep_vertex_file(out, eta)
    assert result.output == (
        "eta,resource,kind,value,diagnostic\n"
        f"{eta},vertex-file:{out},lower-bound,{value},vertex-file:0\n"
    )


def test_vertex_bound_empty_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    result = _sweep_vertex_file(empty, 0.9)
    assert result.exit_code != 0
    assert "no boxes found" in result.output


@pytest.mark.parametrize("spelling", ["sweep", "config"])
def test_vertex_file_with_nan_is_refused(tmp_path, spelling):
    # one nan probability in a PR box used to print a negative lower bound
    path = tmp_path / "pr.csv"
    run("box-export", "pr", "--out", str(path))
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    if spelling == "sweep":
        result = _sweep_vertex_file(path, 0.9)
    else:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"game = chsh\nchannel-type = 2\neta-grid = 0.9:0.9:1\n"
                       f"resources = vertex-file:{path}\n")
        result = run("sweep", "--config", str(cfg))
    _assert_error_line(result, f"{path}:2: probability 'nan' is not finite")
    assert "bound" not in result.output


def _sweep_with_config(tmp_path, extra):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "game = chsh\nchannel-type = 2\neta-grid = 1:1:1\nresources = NS-exact\n" + extra
    )
    return run("sweep", "--config", str(cfg))


@pytest.mark.parametrize(
    "line,key",
    [
        ("channel-type = abc", "channel-type"),
        ("restarts = zero", "restarts"),
        ("restarts = 0", "restarts"),
        ("tolerance = x", "tolerance"),
        ("tolerance = 0", "tolerance"),
        # an infinite tolerance once stopped every start at its first
        # evaluation: CHSH's L-exact row at eta = 1 read 1.424605067,
        # labelled exact, for 1.435280943
        ("tolerance = inf", "tolerance"),
        ("tolerance = nan", "tolerance"),
        ("seed = s", "seed"),
    ],
)
def test_sweep_bad_config_value_names_its_key(tmp_path, line, key):
    result = _sweep_with_config(tmp_path, line + "\n")
    assert result.exit_code == 1, result.output
    assert not isinstance(result.exception, ValueError)
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1, result.output
    assert key in result.output


@pytest.mark.parametrize("line", ["restart = 5", "grid-step = 0.1"])
def test_sweep_config_rejects_unknown_key(tmp_path, line):
    result = _sweep_with_config(tmp_path, "# optimizer\n" + line + "\n")
    assert result.exit_code == 1, result.output
    key = line.split(" =")[0]
    assert f"sweep.cfg:6: unknown key '{key}'" in result.output


def test_sweep_config_refuses_channel_type_3(tmp_path):
    # the --channel-type flag has the choices 1 and 2: only a config value reaches this check
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("game = chsh\nchannel-type = 3\neta-grid = 1:1:1\nresources = NS-exact\n")
    result = run("sweep", "--config", str(cfg))
    _assert_error_line(result, "Error: channel-type must be 1 or 2, got 3")
    assert "eta,resource" not in result.output


def test_sweep_config_refuses_a_repeated_key(tmp_path):
    result = _sweep_with_config(tmp_path, "seed = 1\ngame = mpp:3\n")
    _assert_error_line(result, "sweep.cfg:6: key 'game' is already set on line 1")
    assert "eta,resource" not in result.output


def test_import_does_not_load_scipy():
    code = "import sys, gamemac.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_sweep_and_verify_do_not_load_numpy_random():
    # the ascent starts and verify's triples come from Python's random module
    code = """if True:
        import sys
        from gamemac.cli import main
        for args in (
            "sweep --game chsh --channel-type 2 --eta-grid 0.5:1:2 "
            "--resources L-exact,Q-lower,NS-exact,L-bound",
            "verify --count 3",
        ):
            try:
                main(args.split(), standalone_mode=False)
            except SystemExit as exc:
                assert not exc.code, (args, exc.code)
        print("numpy.random" in sys.modules, file=sys.stderr)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "eta,resource" in out.stdout and "27/27 checks passed" in out.stdout
    assert out.stderr.strip() == "False"


@pytest.mark.parametrize(
    "resources, message",
    [
        ("L-exact,bogus", "unknown resource 'bogus'"),
        (",", "no resource given"),
        ("vertex-file", "resource 'vertex-file' needs a box CSV path"),
        ("vertex-file:", "resource 'vertex-file:' needs a box CSV path"),
    ],
    ids=["unknown", "empty", "vertex-file-without-path", "vertex-file-with-an-empty-path"],
)
def test_sweep_refuses_bad_resources_before_any_row(monkeypatch, resources, message):
    calls = []
    monkeypatch.setattr(capacity, "classical_capacity_exact", lambda *args: calls.append(args))
    result = run("sweep", "--game", "chsh", "--channel-type", "2", "--eta-grid", "1:1:1",
                 "--resources", resources)
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert "L-exact, L-bound, Q-lower, Q-exact, NS-exact, vertex-file:<path>" in result.output
    assert calls == []


def test_sweep_refuses_a_resource_named_twice(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(capacity, "classical_capacity_exact", lambda *args: calls.append(args))
    for out in ((), ("--out", str(tmp_path / "rows.csv"))):
        result = run("sweep", "--game", "chsh", "--channel-type", "2", "--eta-grid", "0.5:0.5:1",
                     "--resources", "L-exact,L-exact", *out)
        _assert_error_line(result, "resource 'L-exact' given twice")
        assert "L-exact, L-bound, Q-lower, Q-exact, NS-exact, vertex-file:<path>" in result.output
        assert "eta,resource" not in result.output
    assert not (tmp_path / "rows.csv").exists()
    assert calls == []


def test_sweep_prints_a_clamp_warning_as_one_line():
    args = ["sweep", "--game", "chsh", "--channel-type", "2", "--eta-grid", "0:0.5:3",
            "--resources", "NS-exact"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-m", "gamemac.cli", *args], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == "Warning: type-II eta=0.0 clamped above 0 (degenerate f_w = f_l)\n"
    assert out.stdout == (
        "eta,resource,kind,value,diagnostic\n"
        "0,NS-exact,exact,2.16404672e-12,e*(pr)\n"
        "0.25,NS-exact,exact,0.1197591851,e*(pr)\n"
        "0.5,NS-exact,exact,0.4512050593,e*(pr)\n"
    )


def _assert_error_line(result, fragment=""):
    """Ended by the CLI's error boundary: exit code 1 and an `Error:`
    line, not an exception escaping the command."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Error:" in result.output and fragment in result.output


def test_mpp60_perfect_box_row_is_refused_at_once():
    # refused before the parity route's 60 x 2^60 question digits
    result = run("sweep", "--game", "mpp:60", "--channel-type", "2", "--eta-grid", "0.5:1:2",
                 "--resources", "NS-exact")
    # 2^60 has 19 digits, so it prints as its order of magnitude
    _assert_error_line(result, f"mpp:60 perfect-box row has about 1.1e18 outputs, over the cap of {2**22}")
    assert result.output.count("\n") == 1


def test_mpp20_perfect_box_rows_print_the_closed_form_and_mpp23_is_refused():
    # the O(Δ) cross-check passes at Δ = 2^20; mpp:23 is the first game over the cap
    result = run("sweep", "--game", "mpp:20", "--channel-type", "2", "--eta-grid", "0.5:1:2",
                 "--resources", "NS-exact,Q-exact")
    assert result.exit_code == 0, result.output
    rows = [
        f"{eta:.10g},{resource},exact,{20 - type_ii(mpp_game(20), eta).f_w:.10g},e*(mpp:20)"
        for eta in (0.5, 1.0) for resource in ("NS-exact", "Q-exact")
    ]
    assert result.output.splitlines() == ["eta,resource,kind,value,diagnostic", *rows]
    result = run("sweep", "--game", "mpp:23", "--channel-type", "2", "--eta-grid", "0.5:1:2",
                 "--resources", "NS-exact")
    _assert_error_line(result, f"mpp:23 perfect-box row has {2**23} outputs")
    assert result.output.count("\n") == 1


@pytest.mark.parametrize(
    "args, fragment",
    [
        # L-exact's vertex cap refuses in its prepare, before the channel's
        # 2 EiB noise profile (mpp:58) or its float overflow (mpp:5000)
        (("sweep", "--game", "mpp:58", "--channel-type", "2", "--eta-grid", "0.5:1:1",
          "--resources", "L-exact"), "mpp:58 encoding scenario has about 6.9e69"),
        # a box larger than any address space, refused at the box cap before any memory is touched
        pytest.param(("box-export", "mpp:58", "--out", "mpp58.csv"),
                     "mpp:58 box has about 8.3e34 table entries", id="box-export-too big"),
        (("sweep", "--game", "mpp:5000", "--channel-type", "2", "--eta-grid", "0.5:1:1",
          "--resources", "L-exact"), "mpp:5000 encoding scenario has about 3.9e6020"),
        # the file's boxes are checked against the game before any channel
        (("sweep", "--game", "mpp:5000", "--channel-type", "2", "--eta-grid", "0.5:1:1",
          "--resources", "vertex-file:pr.csv"), "needs (5000,2,2)"),
    ],
    ids=lambda x: x[0] if isinstance(x, tuple) else None,
)
def test_error_boundary_catches_memory_and_overflow(tmp_path, monkeypatch, args, fragment):
    monkeypatch.chdir(tmp_path)
    run("box-export", "pr", "--out", "pr.csv")
    _assert_error_line(run(*args), fragment)
    assert not (tmp_path / "mpp58.csv").exists()


@pytest.mark.parametrize(
    "args, fragment",
    [
        (("game-value", "mpp:5000"), "mpp:5000 has about 1.9e3010 deterministic strategy tuples"),
        (("sweep", "--game", "mpp:5000", "--channel-type", "2", "--eta-grid", "0.5:1:1",
          "--resources", "L-exact"), "has about 3.9e6020 deterministic encoder vertices"),
    ],
    ids=["game-value", "L-exact"],
)
def test_over_cap_counts_print_as_one_short_line(args, fragment):
    # the exact counts have 3,011 and 6,021 digits
    result = run(*args)
    _assert_error_line(result, fragment)
    assert result.output.count("\n") == 1 and len(result.output) < 200


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 2.00 EiB")


@pytest.mark.parametrize(
    "module, name, args",
    [
        (verify, "run_verification", ("verify", "--count", "3")),
        (capacity, "sweep", ("table",)),
        (capacity, "bruteforce_classical_game_value", ("game-value", "chsh")),
    ],
    ids=lambda x: x[0] if isinstance(x, tuple) else None,
)
def test_error_boundary_covers_every_command(monkeypatch, module, name, args):
    monkeypatch.setattr(module, name, _out_of_memory)
    _assert_error_line(run(*args), "Unable to allocate 2.00 EiB")


def test_table_runs_no_game_search(monkeypatch):
    # every table game's omega*_L is a closed form
    monkeypatch.setattr(capacity, "bruteforce_classical_game_value", _out_of_memory)
    result = run("table", "--seed", "0")
    assert result.exit_code == 0, result.output


_SWEEP_CHSH = ("sweep", "--game", "chsh", "--channel-type", "2", "--eta-grid", "1:1:1")


@pytest.mark.parametrize(
    "args, path",
    [
        ((*_SWEEP_CHSH, "--resources", "vertex-file:{tmp}/no-such.csv"), "{tmp}/no-such.csv"),
        (("box-export", "pr", "--out", "{tmp}/no/dir/x.csv"), "{tmp}/no/dir/x.csv"),
        ((*_SWEEP_CHSH, "--resources", "NS-exact", "--out", "{tmp}/no/dir/x.csv"), "{tmp}/no/dir/x.csv"),
        (("sweep", "--config", "{tmp}", "--game", "chsh"), "{tmp}"),
    ],
    ids=["missing-vertex-file", "box-export-to-missing-dir", "sweep-to-missing-dir", "config-is-a-dir"],
)
def test_error_boundary_names_the_path_of_an_os_error(tmp_path, args, path):
    result = run(*(arg.format(tmp=tmp_path) for arg in args))
    _assert_error_line(result, repr(path.format(tmp=tmp_path)))
    # one line: no CSV header before the error, and no traceback
    assert result.output.count("\n") == 1, result.output


def _readme_block(after: str, fence: str) -> str:
    """The first `fence` code block of README.md after the line `after`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"\n{after}\n", 1)[1].split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def _readme_cli_commands() -> list[list[str]]:
    """The `gamemac ...` lines of README.md's `## CLI` block, in order,
    without the program name."""
    block = _readme_block("## CLI", "sh")
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gamemac ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("sweep.cfg").write_text(
        "game = chsh\nchannel-type = 2\neta-grid = 0.1:1:10\n"
        "resources = NS-exact,Q-lower,L-bound\nseed = 0\nout = sweep.csv\n"
    )
    commands = _readme_cli_commands()
    assert {args[0] for args in commands} == set(SUBCOMMANDS.choices)
    for args in commands:
        result = run(*args)
        assert result.exit_code == 0, (args, result.output)


def test_readme_python_example_values():
    # README.md's library example runs, and each `name = ...  # value` comment
    # states name.value to 1e-4
    block = _readme_block("## Library overview", "python")
    stated = re.findall(r"^(\w+) = .*#\s*(\d+\.\d+)\b", block, flags=re.MULTILINE)
    assert [name for name, _ in stated] == ["exact", "bound", "ns"]
    scope: dict = {}
    exec(block, scope)
    for name, value in stated:
        assert abs(scope[name].value - float(value)) <= 1e-4, (name, scope[name].value, value)
