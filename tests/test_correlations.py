from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamemac import correlations, qkernel
from gamemac.correlations import (
    CorrelationBox,
    Encoder,
    EnumerationCapExceeded,
    answer_marginals,
    box_to_csv,
    box_win_probabilities,
    boxes_from_csv,
    builtin_box,
    deterministic_box,
    e_star,
    local_deterministic_boxes,
    local_deterministic_count,
    magic_square_box,
    mpp_box,
    pr_box,
    support_marginal_uniformity_error,
    tsirelson_box,
    validate_box,
)
from gamemac.games import (
    chsh_game, game_by_name, input_indices, magic_square_game, mpp_game, pack_tuple
)


def test_box_shape_check():
    with pytest.raises(ValueError):
        CorrelationBox(2, 2, 2, np.ones((4, 3)))


def test_validate_box_flags_signaling():
    # party 2's marginal depends on party 1's question: blatant signaling
    table = np.zeros((4, 4))
    table[0, 0] = 1.0  # q=(0,0): a=(0,0)
    table[1, 0] = 1.0
    table[2, 1] = 1.0  # q=(1,0): a=(0,1) -- party 2 learns q1
    table[3, 1] = 1.0
    report = validate_box(CorrelationBox(2, 2, 2, table))
    assert report.normalization_error <= 1e-12
    assert report.no_signaling_error == pytest.approx(1.0)
    assert not report.ok()


def test_deterministic_boxes_no_signal():
    box = deterministic_box(2, 2, 2, ((0, 1), (1, 1)))
    assert ((box.table == 0) | (box.table == 1)).all()
    assert validate_box(box).ok()


def test_local_enumeration_counts():
    assert local_deterministic_count(2, 2, 2) == 16
    assert len(list(local_deterministic_boxes(2, 2, 2))) == 16
    # (2,3,8): 8^3 per party squared
    assert local_deterministic_count(2, 3, 8) == 512**2


def test_local_enumeration_cap_refusal():
    with pytest.raises(EnumerationCapExceeded):
        next(local_deterministic_boxes(3, 3, 8))  # 512^3 boxes


def test_best_local_chsh_value_is_three_quarters():
    # independent oracle: scan all 16 vertices against the win table
    game = chsh_game()
    best = max(
        box_win_probabilities(b, game).mean() for b in local_deterministic_boxes(2, 2, 2)
    )
    assert best == pytest.approx(0.75, abs=1e-15)


def test_pr_box_wins_chsh_everywhere():
    wins = box_win_probabilities(pr_box(), chsh_game())
    assert np.allclose(wins, 1.0)
    assert validate_box(pr_box()).ok()
    assert support_marginal_uniformity_error(pr_box()) <= 1e-12


def test_tsirelson_box_hits_quantum_optimum():
    box = tsirelson_box()
    wins = box_win_probabilities(box, chsh_game())
    assert np.allclose(wins, np.cos(np.pi / 8) ** 2, atol=1e-12)
    assert validate_box(box).ok()


def test_tsirelson_marginals_uniform():
    assert support_marginal_uniformity_error(tsirelson_box()) <= 1e-10


def test_magic_square_box_is_pseudo_telepathic():
    box = magic_square_box()
    wins = box_win_probabilities(box, magic_square_game())
    assert np.abs(wins - 1.0).max() <= 1e-12
    assert validate_box(box).ok()
    assert support_marginal_uniformity_error(box) <= 1e-10


def test_magic_square_support_size():
    # each question pair spreads over the 8 winning answer pairs uniformly
    box = magic_square_box()
    support = (box.table > 1e-12).sum(axis=1)
    assert (support == 8).all()
    nz = box.table[box.table > 1e-12]
    assert np.allclose(nz, 0.125, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mpp_box_wins_with_certainty(n):
    box = mpp_box(n)
    wins = box_win_probabilities(box, mpp_game(n))
    assert np.abs(wins - 1.0).max() <= 1e-12
    assert validate_box(box).ok()
    assert support_marginal_uniformity_error(box) <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_mpp_box_matches_per_row_construction(n):
    # reference: one apply_local_unitary call per player and question row
    ghz = np.zeros(2**n, dtype=complex)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    table = np.zeros((2**n, 2**n))
    for qi, q in enumerate(product(range(2), repeat=n)):
        state = ghz
        for k in range(n):
            phase = np.diag([1.0, np.exp(1j * np.pi * q[k] / 2)])
            state = qkernel.apply_local_unitary(state, qkernel.HADAMARD @ phase, k, 1)
        table[qi] = np.abs(state) ** 2
    assert np.abs(mpp_box(n).table - table).max() <= 1e-14


def test_tsirelson_box_matches_bell_state_strategy():
    # reference: σ_z / σ_x against (σ_z ± σ_x)/√2 on (|00> + |11>)/√2,
    # Born probabilities from qkernel, eigenvalue +1 read as answer 0
    bell = qkernel.state_vector(np.array([1, 0, 0, 1]) / np.sqrt(2))
    z, x = qkernel.PAULI_Z, qkernel.PAULI_X
    obs_1 = [z, x]
    obs_2 = [(z + x) / np.sqrt(2), (z - x) / np.sqrt(2)]
    table = np.array([
        qkernel.projective_binary_measurement(bell, obs_1[q1], obs_2[q2]).ravel()
        for q1, q2 in product(range(2), repeat=2)
    ])
    assert np.abs(tsirelson_box().table - table).max() <= 1e-14


# Mermin-Peres strategy on two Bell pairs: per-question two-qubit unitaries
# of party 1 (row q1) and party 2 (column q2), then a computational-basis
# measurement of each party's two qubits
_MS_H = 1 / np.sqrt(2)
_MS_U = [
    _MS_H * np.array([[1j, 0, 0, 1], [0, -1j, 1, 0], [0, 1j, 1, 0], [1, 0, 0, 1j]]),
    0.5 * np.array([[1j, 1, 1, 1j], [-1j, 1, -1, 1j], [1j, 1, -1, -1j], [-1j, 1, 1, -1j]]),
    0.5 * np.array([[-1, -1, -1, 1], [1, 1, -1, 1], [1, -1, 1, 1], [1, -1, -1, -1]]),
]
_MS_V = [
    0.5 * np.array([[1j, -1j, 1, 1], [-1j, -1j, 1, -1], [1, 1, -1j, 1j], [-1j, 1j, 1, 1]]),
    0.5 * np.array([[-1, 1j, 1, 1j], [1, 1j, 1, -1j], [1, -1j, 1, 1j], [-1, -1j, 1, -1j]]),
    _MS_H * np.array([[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0]]),
]


def test_magic_square_box_matches_four_qubit_strategy():
    # (|00>|11> - |01>|10> - |10>|01> + |11>|00>)/2, party 1 on the high
    # qubits; measured bits (b0, b1) become the answer b0 | b1 << 1 with the
    # third entry completing the parity (even for party 1, odd for party 2)
    psi = np.zeros(16, dtype=complex)
    psi[[0b0011, 0b0110, 0b1001, 0b1100]] = [0.5, -0.5, -0.5, 0.5]
    psi = qkernel.state_vector(psi)
    table = np.zeros((9, 64))
    for q1, q2 in product(range(3), repeat=2):
        state = qkernel.apply_local_unitary(psi, qkernel.unitary(_MS_U[q1]), 0, 2)
        state = qkernel.apply_local_unitary(state, qkernel.unitary(_MS_V[q2]), 2, 2)
        probs = qkernel.measurement_distribution(state, [2, 2])
        for o1, o2 in product(range(4), repeat=2):
            b1, b2 = divmod(o1, 2), divmod(o2, 2)
            a1 = b1[0] | b1[1] << 1 | (b1[0] ^ b1[1]) << 2
            a2 = b2[0] | b2[1] << 1 | (1 ^ b2[0] ^ b2[1]) << 2
            table[q1 * 3 + q2, a1 * 8 + a2] += probs[o1, o2]
    assert np.abs(magic_square_box().table - table).max() <= 1e-14


@pytest.mark.parametrize("name", ["pr", "magic-square", *(f"mpp:{n}" for n in range(2, 9))])
def test_pseudo_telepathy_boxes_are_uniform_over_wins(name):
    # exactly: no probability on a losing answer, not even a rounding residue
    win = game_by_name("chsh" if name == "pr" else name).win_table()
    assert np.array_equal(builtin_box(name).table, win / win.sum(axis=1, keepdims=True))


def test_box_game_scenario_mismatch():
    with pytest.raises(ValueError):
        box_win_probabilities(pr_box(), magic_square_game())


@pytest.mark.parametrize(
    "name", ["pr", "tsirelson", "magic-square", *(f"mpp:{n}" for n in range(3, 9))]
)
def test_box_win_probabilities_match_the_product_form(name):
    # bit for bit: the masked sum adds the entries that the sum of table * win adds
    box = builtin_box(name)
    game = game_by_name("chsh" if name in ("pr", "tsirelson") else name)
    expected = (box.table * game.win_table()).sum(axis=1)
    assert box_win_probabilities(box, game).tobytes() == expected.tobytes()


def test_uniform_over_wins_keeps_the_divided_table(monkeypatch):
    passed = []

    class RecordingBox(CorrelationBox):
        def __post_init__(self):
            passed.append(self.table)
            super().__post_init__()

    monkeypatch.setattr(correlations, "CorrelationBox", RecordingBox)
    box = correlations.uniform_over_wins(mpp_game(3), "mpp:3")
    assert box.table is passed[0] and not box.table.flags.writeable


def test_e_star_passes_its_input_indices_through(monkeypatch):
    made = []

    def recording(n, d, D):
        made.append(input_indices(n, d, D))
        return made[-1]

    monkeypatch.setattr(correlations, "input_indices", recording)
    enc = e_star(mpp_box(4))
    assert len(made) == 1 and np.shares_memory(enc.cols, made[0])


def test_e_star_echoes_message_in_question_slot():
    enc = e_star(pr_box())
    assert isinstance(enc, Encoder)
    assert enc.table.shape == (4, 16)
    for mi in range(4):
        m = np.unravel_index(mi, (2, 2))
        for xi in np.flatnonzero(enc.table[mi]):
            s1, s2 = np.unravel_index(int(xi), (4, 4))
            assert (s1 // 2, s2 // 2) == m


def test_e_star_rows_reproduce_box_probabilities():
    box = tsirelson_box()
    enc = e_star(box)
    assert np.allclose(enc.table.sum(axis=1), 1.0)
    for mi in range(4):
        row = enc.table[mi]
        # the nonzero entries are exactly the box's answer probabilities
        assert np.allclose(np.sort(row[row > 0]), np.sort(box.table[mi][box.table[mi] > 0]))


def test_encoder_rejects_substochastic_rows():
    cols = np.zeros((4, 1), dtype=np.intp)
    with pytest.raises(ValueError):
        Encoder(2, 2, 2, cols, np.full((4, 1), 0.5))


@pytest.mark.parametrize("x", [-1, 16])
def test_encoder_rejects_out_of_range_inputs(x):
    cols = np.zeros((4, 2), dtype=np.intp)
    cols[2, 1] = x  # CHSH encoders have 16 channel inputs
    with pytest.raises(ValueError, match=r"\[0, 16\)"):
        Encoder(2, 2, 2, cols, np.full((4, 2), 0.5))


def test_encoder_table_is_lazy_and_frozen():
    enc = e_star(pr_box())
    assert "table" not in enc.__dict__
    assert not enc.cols.flags.writeable and not enc.probs.flags.writeable
    with pytest.raises(ValueError):
        enc.table[0, 0] = 1.0
    assert enc.table is enc.table


def test_encoder_copies_the_callers_support():
    cols = np.zeros((4, 1), dtype=np.intp)
    probs = np.ones((4, 1))
    enc = Encoder(2, 2, 2, cols, probs)
    assert cols.flags.writeable and probs.flags.writeable
    assert not np.shares_memory(enc.cols, cols) and not np.shares_memory(enc.probs, probs)
    assert not enc.cols.flags.writeable and not enc.probs.flags.writeable


def test_box_copies_the_callers_table_as_float():
    table = np.ones((4, 4), dtype=np.int64) * np.eye(4, dtype=np.int64)
    box = CorrelationBox(2, 2, 2, table)
    assert table.flags.writeable and not np.shares_memory(box.table, table)
    assert box.table.dtype == float and not box.table.flags.writeable
    assert (box.table == table).all()


def _read_only_view(values):
    view = values[:]
    view.setflags(write=False)
    return view


@pytest.mark.parametrize("handed", [np.asarray, _read_only_view], ids=["writable", "read-only view"])
def test_box_and_encoder_copy_what_the_caller_can_still_write(handed):
    table, cols, probs = np.eye(4), np.arange(4, dtype=np.intp)[:, None], np.ones((4, 1))
    box = CorrelationBox(2, 2, 2, handed(table))
    enc = Encoder(2, 2, 2, handed(cols), handed(probs))
    table[0], cols[0], probs[0] = 0.5, 3, 0.5
    assert np.array_equal(box.table, np.eye(4))
    assert np.array_equal(enc.cols, np.arange(4)[:, None]) and np.array_equal(enc.probs, np.ones((4, 1)))


def test_box_copies_an_int_table_even_when_frozen():
    for frozen in (False, True):
        table = np.eye(4, dtype=np.int64)
        table.setflags(write=not frozen)
        box = CorrelationBox(2, 2, 2, table)
        assert box.table.dtype == float and not np.shares_memory(box.table, table)
        if not frozen:
            table[0, 0] = 0
            assert box.table[0, 0] == 1.0


def test_box_and_encoder_keep_frozen_arrays_that_own_their_data():
    table, cols, probs = np.eye(4), np.array([[0], [1], [2], [3]], dtype=np.intp), np.ones((4, 1))
    for values in (table, cols, probs):
        values.setflags(write=False)
    box = CorrelationBox(2, 2, 2, table)
    enc = Encoder(2, 2, 2, cols, probs)
    assert np.shares_memory(box.table, table)
    assert np.shares_memory(enc.cols, cols) and np.shares_memory(enc.probs, probs)
    # e_star hands the box's frozen table to its encoder as is
    assert np.shares_memory(e_star(box).probs, box.table)


def test_box_csv_roundtrip(tmp_path):
    for box in (pr_box(), tsirelson_box(), magic_square_box(), mpp_box(5)):
        path = tmp_path / f"{box.name}.csv"
        box_to_csv(box, path)
        (back,) = boxes_from_csv(path)
        assert (back.n, back.d, back.D) == (box.n, box.d, box.D)
        assert np.abs(back.table - box.table).max() <= 1e-16


@pytest.mark.parametrize("box", [pr_box(), tsirelson_box(), magic_square_box(), mpp_box(3)])
def test_box_to_csv_matches_per_entry_loop(tmp_path, box):
    # reference: the former loop over every (question, answer) index pair
    lines = [f"{box.n},{box.d},{box.D}"]
    for qi in range(box.d**box.n):
        for ai in range(box.D**box.n):
            if box.table[qi, ai] != 0.0:
                digits = np.unravel_index(qi, (box.d,) * box.n) + np.unravel_index(ai, (box.D,) * box.n)
                lines.append(",".join(map(str, digits)) + f",{box.table[qi, ai]:.17g}")
    path = tmp_path / "box.csv"
    box_to_csv(box, path)
    assert path.read_text() == "\n".join(lines) + "\n"


def test_multi_block_csv(tmp_path):
    path = tmp_path / "two.csv"
    with open(path, "w") as fh:
        for box in (pr_box(), deterministic_box(2, 2, 2, ((0, 0), (0, 0)))):
            fh.write(f"{box.n},{box.d},{box.D}\n")
            for qi in range(4):
                for ai in range(4):
                    if box.table[qi, ai]:
                        q = np.unravel_index(qi, (2, 2))
                        a = np.unravel_index(ai, (2, 2))
                        fh.write(f"{q[0]},{q[1]},{a[0]},{a[1]},{box.table[qi, ai]}\n")
    boxes = boxes_from_csv(path)
    assert len(boxes) == 2
    assert np.allclose(boxes[0].table, pr_box().table)


def test_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        boxes_from_csv(empty)
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("0,0,0,0,0.5\n")
    with pytest.raises(ValueError):
        boxes_from_csv(headerless)
    short_row = tmp_path / "short.csv"
    short_row.write_text("2,2,2\n0,0,0.5\n")
    with pytest.raises(ValueError):
        boxes_from_csv(short_row)


@pytest.mark.parametrize(
    "row,problem",
    [
        ("0,0,0,2,1", "answer (0, 2) has a digit outside [0, 2)"),
        ("2,0,0,0,1", "question (2, 0) has a digit outside [0, 2)"),
        ("0,-1,0,0,1", "question (0, -1) has a digit outside [0, 2)"),
        ("0,0,0,0,0.5", "repeated row for question (0, 0), answer (0, 0)"),
        ("0,0,x,0,1", "non-numeric cell"),
    ],
)
def test_csv_rejects_bad_rows_with_location(tmp_path, row, problem):
    # before the check, answer digit 2 for D = 2 silently landed on answer (1, 0)
    path = tmp_path / "bad.csv"
    path.write_text(f"2,2,2\n0,0,0,0,0.5\n{row}\n")
    with pytest.raises(ValueError) as err:
        boxes_from_csv(path)
    assert f"{path}:3: {problem}" in str(err.value)


@pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_probability_with_location(tmp_path, p):
    # a nan entry used to pass the normalisation check
    path = tmp_path / "bad.csv"
    path.write_text(f"2,2,2\n0,0,0,0,0.5\n0,0,1,1,{p}\n")
    with pytest.raises(ValueError, match=rf"bad\.csv:3: probability '{p}' is not finite"):
        boxes_from_csv(path)


def test_box_errors_propagate_nan():
    table = pr_box().table.copy()
    table[0, 0] = np.nan
    box = CorrelationBox(2, 2, 2, table)
    assert np.isnan(box.normalization_error())
    assert np.isnan(box.no_signaling_error())
    assert not validate_box(box).ok()


def test_csv_repeated_row_allowed_across_blocks(tmp_path):
    path = tmp_path / "two.csv"
    # each block is the normalised box answering (0, 0) to every question
    block = "2,2,2\n0,0,0,0,1\n0,1,0,0,1\n1,0,0,0,1\n1,1,0,0,1\n"
    path.write_text(block + block)
    assert len(boxes_from_csv(path)) == 2


def test_csv_rejects_unnormalised_block_at_its_header(tmp_path):
    path = tmp_path / "loose.csv"
    good = "2,2,2\n0,0,0,0,1\n0,1,0,0,1\n1,0,0,0,1\n1,1,0,0,1\n"
    # second block (header on line 6): question (1, 0) sums to 0.9
    path.write_text(good + "2,2,2\n0,0,0,0,1\n0,1,0,0,1\n1,0,0,0,0.9\n1,1,0,0,1\n")
    with pytest.raises(ValueError, match=r"loose\.csv:6: box rows are not distributions"):
        boxes_from_csv(path)
    # a block whose question (1, 1) has no rows at all
    path.write_text("2,2,2\n0,0,0,0,1\n0,1,0,0,1\n1,0,0,0,1\n")
    with pytest.raises(ValueError, match=r"loose\.csv:1: box rows are not distributions"):
        boxes_from_csv(path)


def test_csv_rejects_empty_scenario_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,0,2\n")
    with pytest.raises(ValueError, match=r"bad\.csv:1: n, d, D must be positive"):
        boxes_from_csv(path)


def test_csv_rejects_a_one_party_box_at_its_header(tmp_path):
    # a one-party data row has 3 cells, so it used to be read as a new header
    # and the block reported as `:1: box rows are not distributions`
    path = tmp_path / "one.csv"
    path.write_text("1,2,2\n0,0,1\n1,1,1\n")
    with pytest.raises(ValueError, match=r"one\.csv:1: a box needs n >= 2 parties, got n=1"):
        boxes_from_csv(path)


def test_csv_reads_utf8_and_refuses_other_bytes_at_their_line(tmp_path):
    path = tmp_path / "pr.csv"
    box_to_csv(pr_box(), path)
    lf = path.read_bytes()
    (box,) = boxes_from_csv(path)
    # CRLF endings read as before
    path.write_bytes(lf.replace(b"\n", b"\r\n"))
    (back,) = boxes_from_csv(path)
    assert np.array_equal(back.table, box.table)
    lines = lf.split(b"\n")
    lines[4] = b"\xff" + lines[4]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError) as err:
        boxes_from_csv(path)
    assert str(err.value) == f"{path}:5: not UTF-8 text"


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
SCENARIOS = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 3, 3), (3, 2, 3)]


@PROPERTY
@given(scenario=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**32 - 1))
def test_e_star_matches_per_entry_lift(scenario, seed):
    n, d, D = scenario
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.full(D**n, 0.5), size=d**n)
    table[rng.random(table.shape) < 0.3] = 0.0
    table /= np.maximum(table.sum(axis=1, keepdims=True), 1e-300)
    table[table.sum(axis=1) == 0, 0] = 1.0
    box = CorrelationBox(n, d, D, table)
    expected = np.zeros((d**n, (d * D) ** n))
    for mi in range(d**n):
        m = np.unravel_index(mi, (d,) * n)
        for ai in range(D**n):
            a = np.unravel_index(ai, (D,) * n)
            expected[mi, pack_tuple([m[k] * D + a[k] for k in range(n)], d * D)] = table[mi, ai]
    assert (e_star(box).table == expected).all()


@PROPERTY
@given(scenario=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**32 - 1))
def test_deterministic_box_matches_answer_maps(scenario, seed):
    n, d, D = scenario
    strategies = np.random.default_rng(seed).integers(0, D, size=(n, d))
    expected = np.zeros((d**n, D**n))
    for q in product(range(d), repeat=n):
        a = [strategies[k][q[k]] for k in range(n)]
        expected[pack_tuple(q, d), pack_tuple(a, D)] = 1.0
    assert (deterministic_box(n, d, D, strategies).table == expected).all()


@PROPERTY
@given(scenario=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**32 - 1))
def test_support_uniformity_matches_per_row_loop(scenario, seed):
    n, d, D = scenario
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.full(D**n, 0.5), size=d**n)
    table[rng.random(table.shape) < 0.3] = 0.0
    box = CorrelationBox(n, d, D, table)
    worst = 0.0
    t = table.reshape((d,) * n + (D,) * n)
    for k in range(n):
        marg = t.sum(axis=tuple(n + j for j in range(n) if j != k))
        for row in marg.reshape(-1, D):
            support = row > 1e-12
            if support.any():
                worst = max(worst, float(np.abs(row[support] - 1.0 / support.sum()).max()))
    assert support_marginal_uniformity_error(box) == worst


def _reference_no_signaling_error(box):
    # the per-party loop that answer_marginals replaced
    t = box.table.reshape((box.d,) * box.n + (box.D,) * box.n)
    worst = 0.0
    for k in range(box.n):
        other_a = tuple(box.n + j for j in range(box.n) if j != k)
        marg = t.sum(axis=other_a)
        other_q = tuple(j for j in range(box.n) if j != k)
        spread = marg.max(axis=other_q) - marg.min(axis=other_q)
        worst = np.maximum(worst, spread.max())
    return float(worst)


def _reference_uniformity_error(box):
    # the per-party loop that answer_marginals replaced
    worst = 0.0
    t = box.table.reshape((box.d,) * box.n + (box.D,) * box.n)
    for k in range(box.n):
        other_a = tuple(box.n + j for j in range(box.n) if j != k)
        rows = t.sum(axis=other_a).reshape(-1, box.D)
        support = rows > 1e-12
        target = 1.0 / np.maximum(support.sum(axis=1, keepdims=True), 1)
        worst = max(worst, float(np.abs(rows - target)[support].max(initial=0.0)))
    return worst


def _assert_box_checks_match_references(box):
    assert abs(box.no_signaling_error() - _reference_no_signaling_error(box)) <= 1e-15
    assert abs(support_marginal_uniformity_error(box) - _reference_uniformity_error(box)) <= 1e-15


@PROPERTY
@given(
    scenario=st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]),
    seed=st.integers(0, 2**32 - 1),
    signaling=st.booleans(),
    zeros=st.booleans(),
)
def test_box_checks_match_per_party_loops(scenario, seed, signaling, zeros):
    n, d, D = scenario
    rng = np.random.default_rng(seed)
    if signaling:  # independent random rows
        table = rng.dirichlet(np.full(D**n, 0.5), size=d**n)
    else:  # a mixture of local deterministic boxes
        boxes = list(local_deterministic_boxes(n, d, D))
        weights = rng.dirichlet(np.ones(len(boxes)))
        table = sum(w * b.table for w, b in zip(weights, boxes))
    if zeros:
        table[rng.random(table.shape) < 0.3] = 0.0
        table[table.sum(axis=1) == 0, 0] = 1.0
        table /= table.sum(axis=1, keepdims=True)
    _assert_box_checks_match_references(CorrelationBox(n, d, D, table))


@pytest.mark.parametrize("name", ["pr", "tsirelson", "magic-square", *(f"mpp:{n}" for n in range(2, 9))])
def test_builtin_box_checks_match_per_party_loops(name):
    box = builtin_box(name)
    assert answer_marginals(box).shape == (box.d**box.n, box.n, box.D)
    _assert_box_checks_match_references(box)
