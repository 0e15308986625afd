"""Sum-capacity computations: optimization over product message
distributions, exact classical capacity by vertex enumeration, the
paper's subset-partition expression, pseudo-telepathy exact values,
and η sweeps.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable

import numpy as np

from .channels import MacChannel, type_i, type_ii
from .correlations import (
    NO_SIGNALING_TOL,
    CorrelationBox,
    Encoder,
    boxes_from_csv,
    box_win_probabilities,
    builtin_box,
    e_star,
    local_deterministic_count,
    refuse_over_cap,
    support_marginal_uniformity_error,
    tsirelson_box,
)
from .games import NonlocalGame, input_win_mask, local_map_indices, local_maps, question_indices
from .infotheory import ProductDistribution, entropy, message_output_kernel, product_joint, sum_rate

# Ascent steps after which a start of `maximize_over_pi` stops regardless of
# its gap; also the step cap of the vertex pruning in `classical_capacity_exact`.
MAX_ITERATIONS = 4000


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of `maximize_over_pi`.

    restarts: starts of the ascent, the uniform distribution plus
        restarts - 1 seeded Dirichlet draws.
    tolerance: a start stops once its certified block gap (the most any
        single sender's factor could still add) is at most this, in bits.
    seed: seeds the Dirichlet starts.

    A start also stops after MAX_ITERATIONS ascent steps, a module
    constant.  One step of the I(M;Y) objective is an extrapolated
    Blahut-Arimoto step of three sweeps; one of the subset bound is one
    sweep.
    """

    restarts: int = 20
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class CapacityResult:
    value: float
    kind: str  # exact | lower-bound | paper-bound
    resource: str  # L | Q | NS | any | user label
    argmax_pi: ProductDistribution | None = None
    argmax_encoder: str | None = None
    diagnostics: dict = field(default_factory=dict)


# An ascent objective maps one batch (F, group), the factors F of shape
# (B, n, d) and the candidate of each row, group (B,) in ascending order,
# to the values (B,) and certified block gaps (B,) at F, and F after one
# ascent step, at which the value is no lower.
AscentObjective = Callable[
    [tuple[np.ndarray, np.ndarray]], tuple[np.ndarray, np.ndarray, np.ndarray]
]

# Values closer than this are equal up to rounding.
_VALUE_ROUNDING = 1e-12


def _ascend(
    objective: AscentObjective, groups: int, n: int, d: int, cfg: OptimizerConfig
) -> list[tuple[float, ProductDistribution, dict]]:
    """The multi-start ascent of `maximize_over_pi`, one result per candidate.

    Row g*R + r of the batch is start r of candidate g; every candidate gets
    the same R = cfg.restarts starts, so its result is the one a
    one-candidate call returns."""
    R = cfg.restarts
    rng = np.random.default_rng(cfg.seed)
    starts = np.empty((R, n, d))
    starts[0] = 1.0 / d
    starts[1:] = rng.dirichlet(np.ones(d), size=(R - 1, n))
    F = np.tile(starts, (groups, 1, 1))
    best = np.full(groups * R, -np.inf)
    best_F = F.copy()
    best_gap = np.full(groups * R, np.inf)
    active = np.arange(groups * R)
    group = active // R
    stepped_rows = []
    for _ in range(MAX_ITERATIONS):
        stepped_rows.append(active)
        values, gaps, stepped = objective((F[active], group))
        better = values >= best[active]
        idx = active[better]
        best[idx] = values[better]
        best_F[idx] = F[idx]
        best_gap[idx] = gaps[better]
        F[active] = stepped
        keep = gaps > cfg.tolerance
        active, group = active[keep], group[keep]
        if not active.size:
            break
    steps = np.bincount(np.concatenate(stepped_rows), minlength=groups * R)
    # starts still active ran out of steps with their last gap above tolerance
    capped = np.bincount(active // R, minlength=groups)
    results = []
    for g in range(groups):
        rows = slice(g * R, (g + 1) * R)
        value, gap = best[rows], best_gap[rows]
        # converged starts differ by rounding: of those, report the best-certified one
        close = np.flatnonzero(value >= value.max() - _VALUE_ROUNDING)
        winner = int(close[np.argmin(gap[close])])
        diagnostics = {
            "grid_points": 0,
            "restarts": R,
            "iterations": int(steps[rows].sum()),
            "capped": int(capped[g]),
            "winner": winner,
            "gap": float(gap[winner]),
        }
        pi = ProductDistribution(tuple(best_F[rows][winner]))
        results.append((float(value[winner]), pi, diagnostics))
    return results


def maximize_over_pi(
    objective: AscentObjective,
    n: int,
    d: int,
    cfg: OptimizerConfig | None = None,
    groups: int = 1,
) -> tuple[float, ProductDistribution, dict]:
    """Batched multi-start block-coordinate ascent over product distributions.

    All starts (uniform, then cfg.restarts - 1 seeded Dirichlet draws) run
    as one batch.  A start stops once its block gap is at most
    cfg.tolerance or after MAX_ITERATIONS ascent steps.  Returns the
    best evaluated value, its distribution and diagnostics: `grid_points`
    (0), `iterations` (steps summed over the starts), `capped` (starts that
    ran all MAX_ITERATIONS steps with a gap still above cfg.tolerance),
    `restarts`, `winner` (the winning start: of the starts within rounding
    of the best value, the one with the smallest gap), `gap` (its block
    gap) and `group`.

    With groups = G > 1 the objective scores G candidates in the same
    batch, and each candidate runs the starts a one-candidate call gives
    it.  The result is the best candidate's, `group` its index: in index
    order, a later candidate replaces the best only if it is better by
    more than rounding.  `iterations` and `capped` then sum over every
    candidate.

    A small gap certifies a block-wise optimum, not the global maximum:
    the value is a local-search result, a lower bound on the true maximum.
    Deterministic under a fixed cfg.seed.
    """
    results = _ascend(objective, groups, n, d, cfg or OptimizerConfig())
    group = 0
    for g, (value, _, _) in enumerate(results):
        if value > results[group][0] + _VALUE_ROUNDING:
            group = g
    value, pi, diagnostics = results[group]
    totals = {
        key: sum(diag[key] for _, _, diag in results) for key in ("iterations", "capped")
    }
    return value, pi, dict(diagnostics, **totals, group=group)


def _block_average(x: np.ndarray, F: np.ndarray, k: int) -> np.ndarray:
    """E over m_-k ~ p_-k of x(m), as a function of m_k: shape (R, d).

    x has shape (R, d^n) over the joint message index."""
    R, n, d = F.shape
    operands = [x.reshape((R,) + (d,) * n), [n, *range(n)]]
    for j in range(n):
        if j != k:
            operands += [F[:, j], [n, j]]
    return np.einsum(*operands, [n, k])


def _kernel_mi_objective(kernels: np.ndarray) -> AscentObjective:
    """I(M;Y) for P(y|m) = kernel, with an extrapolated Blahut-Arimoto step.

    With q = pi @ kernel and D_m = D(kernel[m] || q), block k's score is
    g_k(m_k) = E_{m_-k}[D_m]; the product-form BA sweep S sets
    p_k <- p_k 2^{g_k} / Z block by block, and max_k (max g_k - I) bounds
    what any one block can still add.  Values and gaps are those at the
    input F0.

    The step is squared extrapolation (SQUAREM; Varadhan & Roland, 2008)
    of S, per row: F1 = S(F0), F2 = S(F1), r = F1 - F0, v = F2 - 2 F1 + F0,
    alpha = min(-|r|/|v|, -1) (-1 when v = 0), and F' = F0 - 2 alpha r +
    alpha^2 v renormalised per factor, or F2 when some entry of F' is not
    positive.  It returns S(F') if I(F') >= I(F1), else F2.  BA sweeps
    never lower I, so I(returned) >= I(F1) >= I(F0), and the values
    compared are those the second and third sweeps compute anyway.

    kernels is one kernel (Δ, Y) or a stack (G, Δ, Y), one per group.  Each
    group's rows go through the matrix products a one-kernel batch of
    those rows makes, and alpha is chosen per row, so a row's result does
    not depend on other groups.
    """
    kernels = kernels.reshape((-1,) + kernels.shape[-2:])
    kernels_t = kernels.transpose(0, 2, 1)
    h_rows = entropy(kernels, axis=-1)  # H(Y | M = m), shape (G, Δ)

    def objective(batch: tuple[np.ndarray, np.ndarray]):
        F0, group = batch
        n = F0.shape[1]
        # rows come sorted by group, so each group is one run of rows
        bounds = np.searchsorted(group, np.arange(len(kernels) + 1)).tolist()
        runs = [(g, lo, hi) for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]
        h = h_rows[group]

        def by_group(x: np.ndarray, mats: np.ndarray) -> np.ndarray:
            return np.concatenate([x[lo:hi] @ mats[g] for g, lo, hi in runs])

        def divergences(pm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            q = by_group(pm, kernels)
            log_q = np.log2(np.where(q > 0, q, 1.0))
            return -h - by_group(log_q, kernels_t), q

        def sweep(F: np.ndarray, certify: bool = False):
            """I at F, its block gap if certify, and S(F)."""
            F = F.copy()
            pm = product_joint(F)
            div, q = divergences(pm)
            values = entropy(q, axis=-1) - by_group(pm, h_rows)
            scores = [_block_average(div, F, k) for k in range(n if certify else 1)]
            gaps = np.max([g.max(axis=-1) for g in scores], axis=0) - values if certify else None
            for k in range(n):
                score = scores[0] if k == 0 else _block_average(divergences(product_joint(F))[0], F, k)
                w = F[:, k] * np.exp2(score - score.max(axis=-1, keepdims=True))
                F[:, k] = w / w.sum(axis=-1, keepdims=True)
            return values, gaps, F

        values, gaps, F1 = sweep(F0, certify=True)
        value1, _, F2 = sweep(F1)
        r, v = F1 - F0, F2 - 2.0 * F1 + F0
        r_norm, v_norm = (np.linalg.norm(x, axis=(1, 2)) for x in (r, v))
        alpha = -np.maximum(r_norm / np.where(v_norm > 0, v_norm, np.inf), 1.0)
        a = alpha[:, None, None]
        F_ext = F0 - 2.0 * a * r + a * a * v
        # alpha = -1 gives F2 itself; so does a step off the open simplex
        take = (alpha < -1.0) & (F_ext > 0).all(axis=(1, 2))
        F_ext[~take] = F2[~take]
        F_ext[take] /= F_ext[take].sum(axis=-1, keepdims=True)
        value_ext, _, F3 = sweep(F_ext)
        return values, gaps, np.where((value_ext >= value1)[:, None, None], F3, F2)

    return objective


def sum_rate_objective(enc: Encoder, ch: MacChannel) -> AscentObjective:
    """I(M;Y) as an ascent objective, with the x axis pre-summed."""
    return _kernel_mi_objective(message_output_kernel(enc, ch))


def _kernel_rates(kernels: np.ndarray, pms: np.ndarray) -> np.ndarray:
    """I(M;Y) = H(Y) - H(Y|M) for each kernel (..., Δ, Y) at each message
    distribution pms (G, Δ): shape (..., G).  Each kernel's H(Y|M=m)
    rides along as one more column, so every kernel takes one product of
    the same shape and its rates do not depend on how many are stacked."""
    rows = entropy(kernels, axis=-1)[..., None]
    out = pms @ np.concatenate([kernels, rows], axis=-1)
    return entropy(out[..., :-1], axis=-1) - out[..., -1]


# ---------------------------------------------------------------------------
# classical capacity (exact, via local polytope vertices)
# ---------------------------------------------------------------------------


def vertex_count(game: NonlocalGame) -> int:
    return local_deterministic_count(game.n, game.d, game.d * game.D)


def _representatives(ch: MacChannel) -> tuple[np.ndarray, np.ndarray]:
    """One vertex per message-relabelling orbit and distinct kernel: their
    indices in `local_maps(n, d, dD)` order (R,), ascending, and kernels
    P(y|m) (R, Δ, Δ).  Relabelling a sender's messages changes no rate, and
    the vertex with non-decreasing per-sender maps is its orbit's lowest
    index.  A channel row depends on x only through (win bit, question
    index), so of vertices sending every message to the same such pair
    the first is kept.  Raises EnumerationCapExceeded over
    DEFAULT_ENUMERATION_CAP vertices."""
    game = ch.game
    refuse_over_cap(
        vertex_count(game),
        f"{game.name} encoding scenario",
        "deterministic encoder vertices",
        "; use classical_upper_bound instead",
    )
    dD = game.d * game.D
    maps = local_maps(game.n, game.d, dD)
    canonical = np.flatnonzero((np.diff(maps, axis=-1) >= 0).all(axis=(1, 2)))
    cols = local_map_indices(maps[canonical], dD)
    keys = input_win_mask(game)[cols] * ch.delta + question_indices(game)[cols]
    first = np.sort(np.unique(keys, axis=0, return_index=True)[1])
    cols = cols[first].reshape(-1, 1)
    kernels = ch.kernel(cols, np.ones(cols.shape)).reshape(len(first), ch.delta, ch.delta)
    return canonical[first], kernels


def classical_capacity_exact(ch: MacChannel, cfg: OptimizerConfig | None = None) -> CapacityResult:
    """Classical d-message sum-capacity: the best I(M;Y) = I(X;Y) over
    deterministic encoders, each sender sending each of its d messages as
    one channel input.  Not the product-input sum-capacity, where a
    sender may use more than d of its dD inputs.

    A representative (see `_representatives`) is dropped once the
    Blahut-Arimoto bound max_m D(K_m || q) on its capacity over all Δ
    messages (Blahut 1972, Arimoto 1972), which holds at every step, is
    below the floor: the best rate at uniform messages.  It is kept once
    its BA value reaches the floor, or after MAX_ITERATIONS steps.
    The survivors (`candidates`, of `representatives` and `vertices`)
    share one grouped ascent; `vertex:N` names the lowest-index one
    within rounding of the best.
    """
    cfg = cfg or OptimizerConfig()
    vertices, kernels = _representatives(ch)
    floor = _kernel_rates(kernels, np.full((1, ch.delta), 1.0 / ch.delta)).max() - _VALUE_ROUNDING
    objective = _kernel_mi_objective(kernels)
    F = np.full((len(kernels), 1, ch.delta), 1.0 / ch.delta)  # one sender, Δ messages
    active, kept = np.arange(len(kernels)), []
    for _ in range(MAX_ITERATIONS):
        values, gaps, F[active] = objective((F[active], active))
        kept.append(active[values >= floor])
        active = active[(values < floor) & (values + gaps >= floor)]
        if not active.size:
            break
    survivors = np.sort(np.concatenate([*kept, active]))
    val, pi, diag = maximize_over_pi(
        _kernel_mi_objective(kernels[survivors]), ch.game.n, ch.game.d, cfg, groups=len(survivors)
    )
    diag = dict(diag, vertices=vertex_count(ch.game), representatives=len(vertices), candidates=len(survivors))
    return CapacityResult(
        value=val,
        kind="exact",
        resource="L",
        argmax_pi=pi,
        argmax_encoder=f"vertex:{vertices[survivors[diag['group']]]}",
        diagnostics=diag,
    )


def best_vertex_rate_at_pi(ch: MacChannel, pi: ProductDistribution) -> float:
    """Best deterministic-encoder sum rate at a fixed message distribution:
    every representative at every per-sender relabelling of pi."""
    orders = np.array(list(permutations(range(pi.d))))
    per_sender = orders[local_maps(pi.n, 1, len(orders))[..., 0]]  # (d!^n, n, d)
    relabelled = np.stack(pi.factors)[np.arange(pi.n)[:, None], per_sender]
    return float(_kernel_rates(_representatives(ch)[1], product_joint(relabelled)).max())


# ---------------------------------------------------------------------------
# game values and bounds
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def bruteforce_classical_game_value(game: NonlocalGame) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """Best uniform-question win probability over deterministic strategies.

    Returns (omega, strategies) with one optimal per-player answer map:
    the first maximiser in `itertools.product` order of the players'
    answer maps.

    The last player best-responds to every strategy tuple s of the first
    n - 1 players: T[s, q_n, a_n] counts the question tuples ending in q_n
    that (s, a_n) wins, and the best response picks, per q_n, the first
    a_n maximising T.  Its wins, summed over q_n, are the most any map of
    player n wins against s, so omega is the best such sum over s, / d^n.
    The first optimal s in product order, with its per-question first best
    responses, is the first maximiser over all n players, since the best
    responses of player n form a product set over its questions.

    The work is (D^d)^(n-1) d^n D, not (D^d)^n d^n, but the enumeration
    cap still bounds the (D^d)^n strategy tuples the maximum ranges over,
    so which games are refused does not depend on how the maximum is found.
    The last game's answer is kept, so a sweep's bounds share one search.
    """
    n, d, D = game.n, game.d, game.D
    refuse_over_cap(local_deterministic_count(n, d, D), game.name, "deterministic strategy tuples")
    # axes (q_1..q_{n-1}, a_1..a_{n-1}, q_n, a_n)
    w = np.moveaxis(game.win_table().reshape((d,) * n + (D,) * n), n - 1, 2 * n - 2)
    per = local_maps(1, d, D)[:, 0]  # (S, d): one player's answer maps
    T = np.zeros((len(per),) * (n - 1) + (d, D), dtype=np.int64)
    for q in np.ndindex((d,) * (n - 1)):
        T += w[q][np.ix_(*(per[:, q_k] for q_k in q))]
    T = T.reshape(-1, d, D)
    best = T.max(axis=2).sum(axis=1)  # wins of the best response to each s
    i = int(np.argmax(best))
    head = np.unravel_index(i, (len(per),) * (n - 1))
    strategies = tuple(tuple(int(a) for a in per[s]) for s in head)
    return float(best[i]) / d**n, strategies + (tuple(int(a) for a in T[i].argmax(axis=1)),)


def resource_dependent_bound(ch: MacChannel, max_omega: float) -> float:
    """max_pi { H(M) + (f_l - f_w) * max_omega } - f_l, in bits.

    max_omega is the resource's best win probability; H(M) peaks at the
    uniform distribution, so the value is log2 Δ + (f_l - f_w) max_omega - f_l.
    It is not a bound: a non-uniform pi can win more often than max_omega,
    and H(Y) can exceed H(M).  Nothing in the package calls it and it is
    not exported; it stays defined only because perfbench/spans.py wraps
    it by name.
    """
    return float(np.log2(ch.delta)) + (ch.f_l - ch.f_w) * max_omega - ch.f_l


def _subset_bound_objective(ch: MacChannel, r_max: int) -> AscentObjective:
    """H(M) + (f_l - f_w) * (mass of the r_max likeliest messages) - f_l.

    Block k's step re-picks the top-r_max set S (stable argsort), takes
    a_k(m_k) = sum of p_-k(m_-k) over m in S, and sets p_k to the block
    maximiser p_k ∝ 2^{c a_k}, c = f_l - f_w.  With S held, the block gap
    is log2 sum 2^{c a_k} - (H(p_k) + c sum p_k a_k).
    """
    spread = ch.f_l - ch.f_w

    def top_set(F: np.ndarray) -> np.ndarray:
        pm = product_joint(F)
        top = np.argsort(-pm, axis=-1, kind="stable")[:, :r_max]
        mask = np.zeros(pm.shape)
        np.put_along_axis(mask, top, 1.0, axis=-1)
        return mask

    def objective(batch: tuple[np.ndarray, np.ndarray]):
        F = batch[0].copy()  # one candidate: every row's group is 0
        n = F.shape[1]
        mask = top_set(F)
        h = entropy(F, axis=-1)  # (R, n)
        values = h.sum(axis=-1) + spread * (mask * product_joint(F)).sum(axis=-1) - ch.f_l
        gaps = np.zeros(F.shape[0])
        for k in range(n):
            a = _block_average(mask, F, k)
            block = h[:, k] + spread * (F[:, k] * a).sum(axis=-1)
            gaps = np.maximum(gaps, np.logaddexp2.reduce(spread * a, axis=-1) - block)
        for k in range(n):
            if k:
                mask = top_set(F)
            w = np.exp2(spread * _block_average(mask, F, k))
            F[:, k] = w / w.sum(axis=-1, keepdims=True)
        return values, gaps, F

    return objective


def classical_upper_bound(ch: MacChannel, cfg: OptimizerConfig | None = None) -> CapacityResult:
    """The paper's subset-partition expression for the classical sum-capacity.

    It takes r_max = round(ω*_L Δ) message tuples, with ω*_L the game's
    classical value (diagnostic `omega_star`), as the most that land in
    the winning set, bounds the win probability by the r_max largest
    message masses and H(Y) by H(M).  It is not a proven
    upper bound: on a noisy channel H(Y) can exceed H(M), and mpp:3
    type-II at η = 0.3 has an encoder above it.  So the kind is
    `paper-bound`.  The maximum over pi comes from block-coordinate
    ascent, a local search, not a certified global maximum.
    """
    omega_star, _ = bruteforce_classical_game_value(ch.game)
    r_max = round(omega_star * ch.delta)
    val, pi, diag = maximize_over_pi(
        _subset_bound_objective(ch, r_max), ch.game.n, ch.game.d, cfg
    )
    return CapacityResult(
        value=val,
        kind="paper-bound",
        resource="L",
        argmax_pi=pi,
        diagnostics=dict(diag, r_max=r_max, omega_star=omega_star),
    )


# ---------------------------------------------------------------------------
# pseudo-telepathy and quantum paths
# ---------------------------------------------------------------------------

PT_WIN_TOL = 1e-10
PT_UNIFORMITY_TOL = 1e-10
PT_CROSS_CHECK_TOL = 1e-9


def _box_resource(box: CorrelationBox) -> str:
    """Q for the built-in quantum boxes, NS for every other box."""
    return "Q" if box.name in ("tsirelson", "magic-square") or box.name.startswith("mpp:") else "NS"


class PseudoTelepathyHypothesisError(ValueError):
    """The supplied box fails a hypothesis of the exact-capacity formula."""


def _check_perfect_box(box: CorrelationBox, game: NonlocalGame) -> float:
    """Raise unless box wins game on every question tuple and its output
    marginals are uniform over their support; return the largest
    deviation of a win probability from 1.  Depends on the game only, not
    on the channel."""
    wins = box_win_probabilities(box, game)
    worst = float(np.abs(wins - 1.0).max())
    if not worst <= PT_WIN_TOL:
        raise PseudoTelepathyHypothesisError(
            f"box {box.name!r} does not win {game.name} on every question tuple "
            f"(max deviation {worst})"
        )
    uni_err = support_marginal_uniformity_error(box)
    if not uni_err <= PT_UNIFORMITY_TOL:
        raise PseudoTelepathyHypothesisError(
            f"box {box.name!r} output marginals deviate from uniform-over-support "
            f"by {uni_err}"
        )
    return worst


def pseudo_telepathy_capacity(
    ch: MacChannel,
    box: CorrelationBox,
    resource: str | None = None,
    *,
    win_deviation: float | None = None,
) -> CapacityResult:
    """Exact sum-capacity log2(Δ) - f_w for a perfect, output-uniform box.

    Verifies both hypotheses (win probability 1 on every question tuple,
    output marginals uniform over their support) and cross-checks the
    closed form against the direct sum rate at uniform messages.  Both
    hypotheses depend on the game only: a caller that has checked them
    for this box and game passes win_deviation, the value
    `_check_perfect_box` returned, and only the cross-check runs.
    """
    game = ch.game
    if win_deviation is None:
        win_deviation = _check_perfect_box(box, game)
    value = float(np.log2(ch.delta)) - ch.f_w
    pi = ProductDistribution.uniform(game.n, game.d)
    direct = sum_rate(pi, e_star(box), ch)
    if not abs(direct - value) <= PT_CROSS_CHECK_TOL:
        raise PseudoTelepathyHypothesisError(
            f"closed form {value} disagrees with direct sum rate {direct}"
        )
    return CapacityResult(
        value=value,
        kind="exact",
        resource=resource or _box_resource(box),
        argmax_pi=pi,
        argmax_encoder=f"e*({box.name})",
        diagnostics={"direct_sum_rate": direct, "win_deviation": win_deviation},
    )


def quantum_lower_bound_chsh(ch: MacChannel, cfg: OptimizerConfig | None = None) -> CapacityResult:
    """Lower bound on the quantum sum-capacity via the Tsirelson-box encoder."""
    if ch.game.name != "chsh":
        raise ValueError(f"quantum lower bound is defined for CHSH channels, got {ch.game.name}")
    enc = e_star(tsirelson_box())
    val, pi, diag = maximize_over_pi(sum_rate_objective(enc, ch), ch.game.n, ch.game.d, cfg)
    return CapacityResult(
        value=val,
        kind="lower-bound",
        resource="Q",
        argmax_pi=pi,
        argmax_encoder=enc.name,
        diagnostics=diag,
    )


def _vertex_file_encoders(vertex_csv_path, game: NonlocalGame) -> list[Encoder]:
    """E* encoders of the boxes in a vertex file.

    Raises unless every box matches the game's scenario and is
    no-signaling within NO_SIGNALING_TOL.  Depends on the game only, not
    on the channel."""
    boxes = boxes_from_csv(vertex_csv_path)
    for i, box in enumerate(boxes):
        if (box.n, box.d, box.D) != (game.n, game.d, game.D):
            raise ValueError(
                f"vertex {i} has scenario ({box.n},{box.d},{box.D}), channel "
                f"needs ({game.n},{game.d},{game.D})"
            )
        signaling = box.no_signaling_error()
        if not signaling <= NO_SIGNALING_TOL:
            raise ValueError(
                f"vertex {i} signals: no-signaling error {signaling:.3g} exceeds {NO_SIGNALING_TOL:g}"
            )
    return [e_star(box) for box in boxes]


def _vertex_encoders_bound(
    ch: MacChannel, encoders: list[Encoder], cfg: OptimizerConfig | None
) -> CapacityResult:
    """Best E* sum rate over checked vertex-file encoders, one grouped ascent."""
    kernels = np.stack([message_output_kernel(enc, ch) for enc in encoders])
    val, pi, diag = maximize_over_pi(
        _kernel_mi_objective(kernels), ch.game.n, ch.game.d, cfg, groups=len(encoders)
    )
    return CapacityResult(
        value=val,
        kind="lower-bound",
        resource="file",
        argmax_pi=pi,
        argmax_encoder=f"vertex-file:{diag['group']}",
        diagnostics=dict(diag, boxes=len(encoders)),
    )


def vertex_file_bound(
    ch: MacChannel, vertex_csv_path, cfg: OptimizerConfig | None = None
) -> CapacityResult:
    """Max sum rate over user-supplied correlation-box vertices via E*.

    Every box must match the channel's scenario and be no-signaling
    within NO_SIGNALING_TOL.  All boxes share one grouped ascent; each
    box's rate is a local-search maximum over pi, achieved by its E*
    encoder, so the value is a lower bound.  `sweep` reads and checks a
    file once for all its η.
    """
    encoders = _vertex_file_encoders(vertex_csv_path, ch.game)
    return _vertex_encoders_bound(ch, encoders, cfg)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

# large enough that the clamped branch entropy is strictly inside (0, log2 delta)
# in double precision; f(delta, eta) differs from log2(delta) only at order eta^2
_ETA_CLAMP = 1e-6


def pseudo_telepathy_box(game: NonlocalGame) -> CorrelationBox:
    """The built-in perfect box for a game: the PR box for CHSH, else the
    built-in box named after the game (magic-square, mpp:<n>)."""
    try:
        return builtin_box("pr" if game.name == "chsh" else game.name)
    except ValueError:
        raise ValueError(f"no built-in pseudo-telepathy box for {game.name}") from None


def channel_for(game: NonlocalGame, channel_type: int, eta: float) -> MacChannel:
    """Type-I/II constructor with degenerate endpoints clamped."""
    if channel_type == 1:
        if eta >= 1.0:
            warnings.warn(f"type-I eta={eta} clamped below 1 (degenerate f_w = f_l)")
            eta = 1.0 - _ETA_CLAMP
        return type_i(game, eta)
    if channel_type == 2:
        if eta <= 0.0:
            warnings.warn(f"type-II eta={eta} clamped above 0 (degenerate f_w = f_l)")
            eta = _ETA_CLAMP
        return type_ii(game, eta)
    raise ValueError(f"channel type must be 1 or 2, got {channel_type}")


@dataclass
class SweepRow:
    eta: float
    resource: str
    kind: str
    value: float
    diagnostic: str = ""


def _check_resources(resources: list[str]) -> None:
    """Raise ValueError, listing the valid names, unless resources is a
    non-empty list of them."""
    names = ("L-exact", "L-bound", "Q-lower", "Q-exact", "NS-exact")
    valid = f"expected one or more of {', '.join(names)}, vertex-file:<path>"
    if not resources:
        raise ValueError(f"no resource given; {valid}")
    for res in resources:
        if res == "vertex-file":
            raise ValueError(
                "resource 'vertex-file' needs a box CSV path: vertex-file:<path>, "
                f"or --vertex-file on the command line; {valid}"
            )
        if res not in names and not res.startswith("vertex-file:"):
            raise ValueError(f"unknown resource {res!r}; {valid}")


def sweep(
    game: NonlocalGame,
    channel_type: int,
    etas,
    resources: list[str],
    cfg: OptimizerConfig | None = None,
) -> list[SweepRow]:
    """Capacity table over an η grid; one row per (η, resource).  The
    resource list is checked before any row is computed."""
    _check_resources(resources)
    cfg = cfg or OptimizerConfig()
    rows: list[SweepRow] = []
    pt_box: CorrelationBox | None = None
    pt_deviation = 0.0
    vertex_encoders: dict[str, list[Encoder]] = {}
    for eta in etas:
        ch = channel_for(game, channel_type, float(eta))
        for res in resources:
            if res == "L-exact":
                r = classical_capacity_exact(ch, cfg)
                diag = r.argmax_encoder or ""
            elif res == "L-bound":
                r = classical_upper_bound(ch, cfg)
                diag = f"omega*={r.diagnostics['omega_star']:.10g}"
            elif res == "Q-lower":
                r = quantum_lower_bound_chsh(ch, cfg)
                diag = r.argmax_encoder or ""
            elif res in ("Q-exact", "NS-exact"):
                if pt_box is None:
                    pt_box = pseudo_telepathy_box(game)
                    pt_deviation = _check_perfect_box(pt_box, game)  # game-only: once per sweep
                if res == "Q-exact" and _box_resource(pt_box) != "Q":
                    raise ValueError(
                        f"{game.name} has no built-in quantum pseudo-telepathy box"
                    )
                label = "Q" if res == "Q-exact" else "NS"
                r = pseudo_telepathy_capacity(ch, pt_box, label, win_deviation=pt_deviation)
                diag = r.argmax_encoder or ""
            else:  # vertex-file:<path>
                path = res.split(":", 1)[1]
                if path not in vertex_encoders:  # game-only: once per sweep
                    vertex_encoders[path] = _vertex_file_encoders(path, game)
                r = _vertex_encoders_bound(ch, vertex_encoders[path], cfg)
                diag = r.argmax_encoder or ""
            rows.append(
                SweepRow(eta=float(eta), resource=res, kind=r.kind, value=r.value, diagnostic=diag)
            )
    return rows
