"""Sum-capacity computations: optimization over product message
distributions, exact classical capacity by vertex enumeration, the
paper's subset-partition expression, pseudo-telepathy exact values,
and η sweeps.
"""

from __future__ import annotations

import functools
import random
import warnings
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable

import numpy as np

from .channels import MacChannel, circulant_view, input_slots, type_i, type_ii
from .correlations import (
    NO_SIGNALING_TOL,
    CorrelationBox,
    Encoder,
    UnknownBoxError,
    box_win_probabilities,
    boxes_from_csv,
    builtin_box,
    e_star,
    local_deterministic_count,
    refuse_over_cap,
    support_marginal_uniformity_error,
    tsirelson_box,
    uniform_over_wins,
)
from .games import NonlocalGame, is_builtin, local_map_indices, local_maps
from .infotheory import ProductDistribution, entropy, message_output_kernel, product_joint

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
    seed: seeds the Dirichlet starts, drawn from Python's
        random.Random(seed) (see _Draws).

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


# A sweep row of one channel: its result and its CSV diagnostic.
Solve = Callable[[MacChannel], tuple[CapacityResult, str]]


def _row(r: CapacityResult, diagnostic: str = "") -> tuple[CapacityResult, str]:
    """r and its diagnostic: `diagnostic` filled from r's diagnostics, or
    by default r's encoder."""
    return r, diagnostic.format(**r.diagnostics) or r.argmax_encoder or ""


# An ascent objective maps one batch (F, group), the factors F of shape
# (B, n, d) and the candidate of each row, group (B,), to the values (B,)
# and certified block gaps (B,) at F, and F after one ascent step, at which
# the value is no lower.
AscentObjective = Callable[
    [tuple[np.ndarray, np.ndarray]], tuple[np.ndarray, np.ndarray, np.ndarray]
]

# Values closer than this are equal up to rounding.
_VALUE_ROUNDING = 1e-12


class _Draws:
    """Seeded numbers read in turn from a block of integers k in [0, 2^53).

    `seeded(rng, size)` makes the block with one rng.getrandbits call: k is
    the top 53 bits of each little-endian 64-bit word.  A uniform in
    [lo, hi) is lo + (hi - lo) u with u = k 2^-53 in [0, 1), numpy's own
    `random()` construction; the sum can round up to hi when u is near 1
    (about half of all lo in [0.1, 0.8) with hi = 1 at the top k), so it
    is capped at the float below hi.  An exponential is -log1p(-u), always
    finite; an integer below m is (k m) >> 53, in integer arithmetic.  A
    Python random.Random drives the draws because `import gamemac.cli`
    loads `random` anyway, while numpy.random adds about 10 ms of imports."""

    def __init__(self, k: np.ndarray):
        self._k, self._used = k, 0

    @classmethod
    def seeded(cls, rng: random.Random, size: int) -> "_Draws":
        words = rng.getrandbits(64 * size).to_bytes(8 * size, "little")
        return cls(np.frombuffer(words, "<u8") >> 11)

    def _take(self, shape) -> np.ndarray:
        size = int(np.prod(shape))  # a block too short fails the reshape
        self._used += size
        return self._k[self._used - size : self._used].reshape(shape)

    def uniform(self, shape, lo=0.0, hi=1.0) -> np.ndarray:
        u = self._take(shape) * 2.0**-53
        return np.minimum(lo + (hi - lo) * u, np.nextafter(hi, -np.inf))

    def exponential(self, shape) -> np.ndarray:
        return -np.log1p(-self.uniform(shape))

    def dirichlet(self, shape) -> np.ndarray:
        """Dirichlet(1) draws over the last axis: normalised exponentials."""
        e = self.exponential(shape)
        return e / e.sum(axis=-1, keepdims=True)

    def integers(self, m: int, shape) -> np.ndarray:
        if not 1 <= m <= 2**11:
            raise ValueError(f"integers below m need 1 <= m <= 2048, so k m fits 64 bits; got {m}")
        return ((self._take(shape) * np.uint64(m)) >> 53).astype(np.int64)


def _ascend(
    objective: AscentObjective, groups: int, n: int, d: int, cfg: OptimizerConfig
) -> list[tuple[float, ProductDistribution, dict]]:
    """The multi-start ascent of `maximize_over_pi`, one result per candidate.

    Row g*R + r of the batch is start r of candidate g; every candidate gets
    the same R = cfg.restarts starts, so its result is the one a
    one-candidate call returns."""
    R = cfg.restarts
    starts = np.empty((R, n, d))
    starts[0] = 1.0 / d
    draws = _Draws.seeded(random.Random(cfg.seed), (R - 1) * n * d)
    starts[1:] = draws.dirichlet((R - 1, n, d))
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


def _kernel_mi_objective(kernels: np.ndarray, slots: np.ndarray | None = None) -> AscentObjective:
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

    kernels is a basis of rows (B, Y) and group g's kernel is
    kernels[slots[g]], with slots (G, Δ): the vertex kernels of
    `classical_capacity_exact` index the channel's 2Δ circulant rows.
    Without slots, kernels is one kernel (Δ, Y) or a stack (G, Δ, Y), one
    per group, and each kernel's rows are its own basis.  Every product is
    taken row by row, with the row's own kernel, and alpha is chosen per
    row, so a row's result does not depend on the other rows.
    """
    if slots is None:
        slots = np.arange(kernels.size // kernels.shape[-1]).reshape(-1, kernels.shape[-2])
        kernels = kernels.reshape(-1, kernels.shape[-1])
    h_rows = entropy(kernels, axis=-1)  # H(Y | M = m) of each basis row

    def objective(batch: tuple[np.ndarray, np.ndarray]):
        F0, group = batch
        n = F0.shape[1]
        rows = np.take(slots, group, axis=0)
        K, h = np.take(kernels, rows, axis=0), np.take(h_rows, rows)  # take: faster than [rows]

        def divergences(pm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            q = np.matmul(pm[:, None, :], K)[:, 0]
            log_q = np.log2(np.where(q > 0, q, 1.0))
            return -h - np.matmul(K, log_q[..., None])[..., 0], q

        def sweep(F: np.ndarray, certify: bool = False):
            """I at F, its block gap if certify, and S(F)."""
            F = F.copy()
            pm = product_joint(F)
            div, q = divergences(pm)
            values = entropy(q, axis=-1) - (pm * h).sum(-1)
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
    """I(M;Y) as an ascent objective of enc's dense kernel P(y | m)."""
    return _kernel_mi_objective(message_output_kernel(enc, ch))


# ---------------------------------------------------------------------------
# classical capacity (exact, via local polytope vertices)
# ---------------------------------------------------------------------------


def vertex_count(game: NonlocalGame) -> int:
    return local_deterministic_count(game.n, game.d, game.d * game.D)


def _canonical_maps(n: int, d: int, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `local_maps(n, d, base)` whose per-player maps are all
    non-decreasing: their indices (R,), ascending, and the rows (R, n, d).
    They are the non-decreasing maps of `local_maps(1, d, base)` combined
    over players in product order, so the base^(nd) rows are never formed;
    a row's index reads its n d entries as base-`base` digits."""
    per = local_maps(1, d, base)[:, 0]
    per = per[(np.diff(per, axis=-1) >= 0).all(axis=-1)].astype(np.min_scalar_type(base - 1))
    maps = per[np.indices((len(per),) * n).reshape(n, -1).T]
    return np.ravel_multi_index(tuple(maps.reshape(len(maps), n * d).T), (base,) * (n * d)), maps


def _representatives(ch: MacChannel) -> tuple[np.ndarray, np.ndarray]:
    """One vertex per message-relabelling orbit and distinct kernel: their
    indices in `local_maps(n, d, dD)` order (R,), ascending, and the slot
    (see channels.input_slots) of each message's input (R, Δ), in the
    smallest unsigned dtype that holds 2Δ - 1, so that
    `ch._circulants[slots[r]]` is vertex r's kernel P(y|m).  Relabelling a
    sender's messages changes no rate, and the vertex with non-decreasing
    per-sender maps (see `_canonical_maps`) is its orbit's lowest index.
    A channel row depends on x only through its slot, so of vertices with
    the same slots the first is kept.  Raises EnumerationCapExceeded over
    DEFAULT_ENUMERATION_CAP vertices."""
    game = ch.game
    refuse_over_cap(
        vertex_count(game),
        f"{game.name} encoding scenario",
        "deterministic encoder vertices",
        "; use classical_upper_bound instead",
    )
    dD = game.d * game.D
    canonical, maps = _canonical_maps(game.n, game.d, dD)
    slots = input_slots(game).astype(np.min_scalar_type(2 * ch.delta - 1))[local_map_indices(maps, dD)]
    # rows compared as raw bytes: np.unique(axis=0) compares them field by
    # field, about 15x slower at mpp:5
    rows = slots.view(np.dtype((np.void, slots.strides[0])))
    first = np.sort(np.unique(rows, return_index=True)[1])
    return canonical[first], slots[first]


def _message_relabellings(n: int, d: int) -> np.ndarray:
    """Every tuple of per-sender message relabellings, shape (d!^n, n, d)."""
    orders = np.array(list(permutations(range(d))))
    return orders[local_maps(n, 1, len(orders))[..., 0]]


def _patterns(slots: np.ndarray, delta: int) -> np.ndarray:
    """Each row of slots (..., Δ) with its question replaced by the first
    message with that question: b(m) Δ + f(m), same shape and dtype."""
    question = slots % delta
    rows = question.reshape(-1, delta)
    first = np.full(rows.shape, delta)  # [r, q]: the first message of row r with question q
    np.minimum.at(first, (np.arange(len(rows))[:, None], rows), np.arange(delta))
    return (slots - question + np.take_along_axis(first, rows, -1).reshape(slots.shape)).astype(slots.dtype)


def _orbit_firsts(ch: MacChannel, slots: np.ndarray) -> np.ndarray:
    """Index of the first row of slots (S, Δ) in each orbit, ascending.

    On a depolarizing channel, each profile constant off offset 0, the row
    of slot b Δ + q is c_b + e_b [y = q], so relabelling the outputs keeps
    every rate, and a row's rates depend on it only through its pattern
    (see `_patterns`).  Relabelling messages within senders and permuting
    senders keeps every product law, so a row whose pattern is one of the
    d!^n n! relabelled patterns of an earlier first row has that row's
    maximum over product laws.  Any other channel keeps every row."""
    game, delta = ch.game, ch.delta
    off_peak = np.stack([ch.lose_profile, ch.win_profile])[:, 1:]
    if (off_peak != off_peak[:, :1]).any():
        return np.arange(len(slots))
    grid = np.arange(delta).reshape((game.d,) * game.n)
    senders = np.stack([grid.transpose(order).ravel() for order in permutations(range(game.n))])
    # moves[g, m]: the message that relabelling g sends in place of m
    moves = senders[:, local_map_indices(_message_relabellings(game.n, game.d), game.d)].reshape(-1, delta)
    seen, firsts = set(), []
    for i, pattern in enumerate(_patterns(slots, delta)):
        if pattern.tobytes() not in seen:
            firsts.append(i)
            seen.update(map(bytes, _patterns(slots[i][moves], delta)))
    return np.array(firsts)


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
    On a depolarizing channel the survivors (`candidates`, of
    `representatives` and `vertices`) fall into orbits of equal maxima
    under output, message and sender relabellings (see `_orbit_firsts`);
    on any other channel each survivor is its own orbit.  The lowest-index
    survivor of each orbit (`orbits` of them) joins one grouped ascent, and
    `vertex:N` names the lowest-index one within rounding of the best.  As
    an orbit's members share one maximum, an ascent over every survivor
    gives the same value and label.
    """
    cfg = cfg or OptimizerConfig()
    vertices, slots = _representatives(ch)
    basis = ch._circulants
    objective = _kernel_mi_objective(basis, slots)
    F = np.full((len(slots), 1, ch.delta), 1.0 / ch.delta)  # one sender, Δ messages
    active, kept = np.arange(len(slots)), []
    for step in range(MAX_ITERATIONS):
        values, gaps, F[active] = objective((F[active], active))
        if not step:  # every representative at uniform messages
            floor = values.max() - _VALUE_ROUNDING
        kept.append(active[values >= floor])
        active = active[(values < floor) & (values + gaps >= floor)]
        if not active.size:
            break
    survivors = np.sort(np.concatenate([*kept, active]))
    orbits = survivors[_orbit_firsts(ch, slots[survivors])]
    val, pi, diag = maximize_over_pi(
        _kernel_mi_objective(basis, slots[orbits]), ch.game.n, ch.game.d, cfg, groups=len(orbits)
    )
    diag = dict(diag, vertices=vertex_count(ch.game), representatives=len(vertices), candidates=len(survivors))
    diag["orbits"] = len(orbits)
    return CapacityResult(
        value=val,
        kind="exact",
        resource="L",
        argmax_pi=pi,
        argmax_encoder=f"vertex:{vertices[orbits[diag['group']]]}",
        diagnostics=diag,
    )


def best_vertex_rate_at_pi(ch: MacChannel, pi: ProductDistribution) -> float:
    """Best deterministic-encoder sum rate at a fixed message distribution:
    every representative at every per-sender relabelling of pi."""
    per_sender = _message_relabellings(pi.n, pi.d)
    relabelled = np.stack(pi.factors)[np.arange(pi.n)[:, None], per_sender]
    slots = _representatives(ch)[1]
    objective, everyone = _kernel_mi_objective(ch._circulants, slots), np.arange(len(slots))
    return max(
        float(objective((np.broadcast_to(F, (len(slots), *F.shape)), everyone))[0].max())
        for F in relabelled
    )


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

# Tolerance of the perfect-box hypotheses: win probability 1 on every
# question tuple, output marginals uniform over their support.
PT_TOL = 1e-10
PT_CROSS_CHECK_TOL = 1e-9


def _box_resource(box: CorrelationBox) -> str:
    """Q for the built-in quantum boxes, NS for every other box.  The
    quantum strategies behind Q are in tests/test_correlations.py
    (test_tsirelson_box_matches_bell_state_strategy,
    test_magic_square_box_matches_four_qubit_strategy and
    test_mpp_box_matches_per_row_construction)."""
    return "Q" if box.name in ("tsirelson", "magic-square") or box.name.startswith("mpp:") else "NS"


class PseudoTelepathyHypothesisError(ValueError):
    """The supplied box or encoder fails a hypothesis of a closed-form
    capacity: the pseudo-telepathy formula's, or that of a symmetric E*
    kernel (see `_prepare_symmetric_encoder`)."""


def _echo_rate(ch: MacChannel, pm: np.ndarray, t: np.ndarray) -> float:
    """I(M;Y) of E*(box) at the message distribution pm (Δ,), with t =
    box_win_probabilities(box, game).  E* puts message m on the inputs
    (m, a), so kernel row m is t_m C_w[m] + (1 - t_m) C_l[m], with C_b the
    circulant rows of branch b: a box reaches a rate only through t.  I(M;Y)
    is H(pm (1 - t) @ C_l + pm t @ C_w), minus sum_m pm_m H(t_m P_w +
    (1 - t_m) P_l), with P_b the profiles; a kernel row is a cyclic shift of
    its profile mix, so both have one entropy.  C_l and C_w are read through
    `circulant_view`, so the products take O(Δ) memory, with no Δ x Δ copy."""
    lose, win = circulant_view(np.stack([ch.lose_profile, ch.win_profile]))
    mixes, which = np.unique(t, return_inverse=True)
    h_rows = entropy(np.outer(mixes, ch.win_profile) + np.outer(1 - mixes, ch.lose_profile), axis=1)
    return entropy(pm * (1 - t) @ lose + pm * t @ win) - float(pm @ h_rows[which])


def _prepare_symmetric_encoder(
    box: CorrelationBox, game: NonlocalGame, kind: str, resource: str, omega: float | None = None
) -> Solve:
    """Check that the kernel of E*(box) is a symmetric channel on every
    channel of game; return the Solve of its capacity in closed form.

    Every win probability t_q = box_win_probabilities(box, game)[q] must lie
    within PT_TOL of omega (by default t_0); diagnostic `win_deviation` is
    the largest |t_q - omega|; an explicit omega = 1 is refused as box not
    winning every question tuple.  Every kernel row is then a cyclic shift
    of r = omega P_w + (1 - omega) P_l, with P_b the branch profiles, so
    the capacity over all message distributions is log2 Δ - H(r), reached
    at uniform messages (Cover & Thomas, Elements of Information Theory,
    Thm 7.2.1), a product distribution.  With omega = 1, r is P_w, and the
    value is log2 Δ - f_w bit for bit.  Each row cross-checks the closed
    form against `_echo_rate` at uniform messages (`direct_sum_rate`)
    within PT_CROSS_CHECK_TOL.  Failures raise
    PseudoTelepathyHypothesisError.  E*(box) itself is built only for the
    rows' `argmax_encoder` name."""
    encoder = e_star(box)
    t = box_win_probabilities(box, game)
    perfect = omega == 1.0
    omega = float(t[0]) if omega is None else omega
    win_deviation = float(np.abs(t - omega).max())
    if not win_deviation <= PT_TOL:
        raise PseudoTelepathyHypothesisError(
            f"box {box.name!r} does not win {game.name} on every question tuple "
            f"(max deviation {win_deviation})"
            if perfect
            else f"box {box.name!r} wins {game.name} with probabilities up to "
            f"{win_deviation} apart from {omega}"
        )
    pi = ProductDistribution.uniform(game.n, game.d)
    pm = pi.joint()

    def solve(ch: MacChannel) -> tuple[CapacityResult, str]:
        row = omega * ch.win_profile + (1 - omega) * ch.lose_profile
        value = float(np.log2(ch.delta)) - entropy(row)
        direct = _echo_rate(ch, pm, t)
        if not abs(direct - value) <= PT_CROSS_CHECK_TOL:
            raise PseudoTelepathyHypothesisError(
                f"closed form {value} disagrees with direct sum rate {direct}"
            )
        return _row(CapacityResult(
            value=value,
            kind=kind,
            resource=resource,
            argmax_pi=pi,
            argmax_encoder=encoder.name,
            diagnostics=dict(win_deviation=win_deviation, direct_sum_rate=direct),
        ))

    return solve


def _prepare_perfect_box(box: CorrelationBox, game: NonlocalGame) -> Solve:
    """Check box's two hypotheses on game, which no channel changes: it
    wins every question tuple (omega = 1 for `_prepare_symmetric_encoder`)
    and its output marginals are uniform over their support.  Return the
    Solve of pseudo_telepathy_capacity on game: its E* encoder is a
    symmetric kernel that always wins."""
    solve = _prepare_symmetric_encoder(box, game, "exact", _box_resource(box), 1.0)
    uni_err = support_marginal_uniformity_error(box)
    if not uni_err <= PT_TOL:
        raise PseudoTelepathyHypothesisError(
            f"box {box.name!r} output marginals deviate from uniform-over-support "
            f"by {uni_err}"
        )
    return solve


def pseudo_telepathy_capacity(ch: MacChannel, box: CorrelationBox) -> CapacityResult:
    """Exact sum-capacity log2(Δ) - f_w for a perfect, output-uniform box.

    Verifies both hypotheses (win probability 1 on every question tuple,
    output marginals uniform over their support) and cross-checks the
    closed form against the E* encoder's sum rate at uniform messages
    (`direct_sum_rate`), computed from its win probabilities (see
    `_echo_rate`) in O(Δ^2) time and O(Δ) memory, with no Δ x Δ array.
    Both hypotheses and the win probabilities depend on the game only: a
    sweep derives them once and cross-checks every row.
    """
    return _prepare_perfect_box(box, ch.game)(ch)[0]


def _prepare_q_lower(game: NonlocalGame, cfg: OptimizerConfig | None = None) -> Solve:
    """The Solve of quantum_lower_bound_chsh on game, with its checks done
    once; cfg is unused, as the closed form needs no ascent."""
    if game.name != "chsh":
        raise ValueError(f"quantum lower bound is defined for CHSH channels, got {game.name}")
    return _prepare_symmetric_encoder(tsirelson_box(), game, "lower-bound", "Q")


def quantum_lower_bound_chsh(ch: MacChannel) -> CapacityResult:
    """Lower bound on the quantum sum-capacity: the capacity of the
    Tsirelson-box encoder E*(tsirelson), log2 Δ - H(ω_Q P_w + (1 - ω_Q) P_l)
    at uniform messages.

    Each message of E*(tsirelson) echoes its own question tuple and wins
    with probability ω_Q = cos²(π/8) (Tsirelson 1980), so its kernel is a
    symmetric channel (see `_prepare_symmetric_encoder`), and the closed
    form is its exact maximum over all message distributions, product or
    not: no local search runs.  On depolarizing channels it is
    log2 Δ - f(Δ, ω_Q η_w + (1 - ω_Q) η_l).

    It is a lower bound because E*(tsirelson) is one quantum encoder among
    many, and it can sit below `L-exact`: at type-II η = 0.1 it is 0.014986
    against 0.015319.
    """
    return _prepare_q_lower(ch.game)(ch)[0]


def _prepare_vertex_file(vertex_csv_path, game: NonlocalGame, cfg: OptimizerConfig | None) -> Solve:
    """Read and check a vertex file's boxes against game and read their win
    probabilities; return the Solve of vertex_file_bound for a channel of
    game, whose E* kernels are t C_w + (1 - t) C_l (see `_echo_rate`)."""
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
    t = np.stack([box_win_probabilities(box, game) for box in boxes])[..., None]

    def solve(ch: MacChannel) -> tuple[CapacityResult, str]:
        lose, win = circulant_view(np.stack([ch.lose_profile, ch.win_profile]))
        kernels = t * win + (1 - t) * lose
        val, pi, diag = maximize_over_pi(
            _kernel_mi_objective(kernels), game.n, game.d, cfg, groups=len(boxes)
        )
        return _row(CapacityResult(
            value=val,
            kind="lower-bound",
            resource="file",
            argmax_pi=pi,
            argmax_encoder=f"vertex-file:{diag['group']}",
            diagnostics=dict(diag, boxes=len(boxes)),
        ))

    return solve


def vertex_file_bound(
    ch: MacChannel, vertex_csv_path, cfg: OptimizerConfig | None = None
) -> CapacityResult:
    """Max sum rate over user-supplied correlation-box vertices via E*.

    Every box must match the channel's scenario and be no-signaling
    within NO_SIGNALING_TOL.  All boxes share one grouped ascent; each
    box's rate is a local-search maximum over pi, achieved by its E*
    encoder, so the value is a lower bound.  A sweep reads and checks a
    file once for all its η.
    """
    return _prepare_vertex_file(vertex_csv_path, ch.game, cfg)(ch)[0]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

# large enough that the clamped branch entropy is strictly inside (0, log2 delta)
# in double precision; f(delta, eta) differs from log2(delta) only at order eta^2
_ETA_CLAMP = 1e-6


def pseudo_telepathy_box(game: NonlocalGame) -> CorrelationBox:
    """The built-in perfect box for a game: the PR box for CHSH, else the
    built-in box named after the game (magic-square, mpp:<n>).  Each is
    uniform over its game's winning answers, so a built-in game (see
    games.is_builtin) lends the box its own win table, and a sweep
    evaluates the game's predicate once."""
    name = "pr" if game.name == "chsh" else game.name
    if is_builtin(game):
        return uniform_over_wins(game, name)
    try:
        return builtin_box(name)
    except UnknownBoxError:
        raise ValueError(f"no built-in pseudo-telepathy box for {game.name}") from None


def channel_for(game: NonlocalGame, channel_type: int, eta: float) -> MacChannel:
    """Type-I/II constructor with the degenerate endpoint clamped: type-I
    eta = 1 and type-II eta = 0 (f_w = f_l).  type_i and type_ii refuse
    every other eta outside their range."""
    if channel_type == 1:
        if eta == 1.0:
            warnings.warn(f"type-I eta={eta} clamped below 1 (degenerate f_w = f_l)")
            eta = 1.0 - _ETA_CLAMP
        return type_i(game, eta)
    if channel_type == 2:
        if eta == 0.0:
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


@functools.lru_cache(maxsize=1)
def _builtin_perfect_box(game: NonlocalGame) -> tuple[CorrelationBox, Solve]:
    """The game's built-in perfect box and its checked closed form; kept
    for the last game, so a sweep's NS-exact and Q-exact share one check."""
    box = pseudo_telepathy_box(game)
    return box, _prepare_perfect_box(box, game)


def _prepare_builtin_box(game: NonlocalGame, quantum: bool) -> Solve:
    box, solve = _builtin_perfect_box(game)
    if quantum and _box_resource(box) != "Q":
        raise ValueError(f"{game.name} has no built-in quantum pseudo-telepathy box")
    return solve


# The sweep resources but vertex-file:<path>: name -> prepare(game, cfg),
# which does the game-level work and checks once and returns the Solve.
# Entries call the capacity functions by their module-global names when
# they run, so a rebound function is the one a sweep calls.
_RESOURCES: dict[str, Callable[[NonlocalGame, OptimizerConfig], Solve]] = {
    "L-exact": lambda game, cfg: lambda ch: _row(classical_capacity_exact(ch, cfg)),
    "L-bound": lambda game, cfg: lambda ch: _row(
        classical_upper_bound(ch, cfg), "omega*={omega_star:.10g}"
    ),
    "Q-lower": _prepare_q_lower,
    "Q-exact": lambda game, cfg: _prepare_builtin_box(game, quantum=True),
    "NS-exact": lambda game, cfg: _prepare_builtin_box(game, quantum=False),
}


def _check_resources(resources: list[str]) -> None:
    """Raise ValueError, listing the valid names, unless resources is a
    non-empty list of distinct ones."""
    valid = f"expected one or more of {', '.join(_RESOURCES)}, vertex-file:<path>"
    if not resources:
        raise ValueError(f"no resource given; {valid}")
    for i, res in enumerate(resources):
        if res in resources[:i]:
            raise ValueError(f"resource {res!r} given twice; {valid}")
        if res == "vertex-file":
            raise ValueError(
                "resource 'vertex-file' needs a box CSV path: vertex-file:<path>, "
                f"or --vertex-file on the command line; {valid}"
            )
        if res not in _RESOURCES and not res.startswith("vertex-file:"):
            raise ValueError(f"unknown resource {res!r}; {valid}")


def sweep(
    game: NonlocalGame,
    channel_type: int,
    etas,
    resources: list[str],
    cfg: OptimizerConfig | None = None,
) -> list[SweepRow]:
    """Capacity table over an η grid; one row per (η, resource).  The
    resource list is checked, and every resource prepared with its
    game-level checks, before any row is computed."""
    _check_resources(resources)
    cfg = cfg or OptimizerConfig()
    solves = [
        _prepare_vertex_file(res[len("vertex-file:"):], game, cfg)
        if res.startswith("vertex-file:") else _RESOURCES[res](game, cfg)
        for res in resources
    ]
    rows: list[SweepRow] = []
    for eta in etas:
        ch = channel_for(game, channel_type, float(eta))
        for res, solve in zip(resources, solves):
            r, diag = solve(ch)
            rows.append(
                SweepRow(eta=float(eta), resource=res, kind=r.kind, value=r.value, diagnostic=diag)
            )
    return rows
