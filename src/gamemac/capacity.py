"""Sum-capacity computations: optimization over product message
distributions, exact classical capacity by vertex enumeration, the
paper's subset-partition expression, pseudo-telepathy exact values,
and η sweeps.
"""

from __future__ import annotations

import functools
import random
import warnings
from itertools import permutations
from typing import Callable

import numpy as np

from .channels import MacChannel, input_slots, type_i, type_ii
from .correlations import (
    NO_SIGNALING_TOL,
    CorrelationBox,
    Encoder,
    _box_resource,
    _builtin_game,
    box_win_probabilities,
    boxes_from_csv,
    e_star,
    local_deterministic_power,
    pseudo_telepathy_box,
    refuse_over_cap,
    support_marginal_uniformity_error,
    tsirelson_box,
)
from . import games
from .games import NonlocalGame, ReadOnly, local_map_indices, local_maps
from .infotheory import ProductDistribution, entropy, message_output_kernel, product_joint

# Ascent steps after which a start of `maximize_over_pi` stops regardless of
# its gap; also the step cap of the vertex pruning in `classical_capacity_exact`.
MAX_ITERATIONS = 4000


class OptimizerConfig(ReadOnly):
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

    def __init__(self, restarts: int = 20, tolerance: float = 1e-10, seed: int = 0):
        for name, value in (("restarts", restarts), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        restarts, seed = int(restarts), int(seed)  # random.Random refuses numpy integers
        real = isinstance(tolerance, (int, float, np.integer, np.floating)) and not isinstance(tolerance, bool)
        if not (real and 0 < tolerance < np.inf):
            raise ValueError(f"tolerance must be a finite positive number, got {tolerance!r}")
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        vars(self).update(restarts=restarts, tolerance=tolerance, seed=seed)


class CapacityResult:
    def __init__(
        self,
        value: float,
        kind: str,  # exact | lower-bound | paper-bound
        resource: str,  # L | Q | NS | file
        argmax_pi: ProductDistribution | None = None,
        argmax_encoder: str | None = None,
        diagnostics: dict | None = None,
    ):
        self.value = value
        self.kind = kind
        self.resource = resource
        self.argmax_pi = argmax_pi
        self.argmax_encoder = argmax_encoder
        self.diagnostics = {} if diagnostics is None else diagnostics


# A sweep row of one channel: its result and its CSV diagnostic.
Solve = Callable[[MacChannel], tuple[CapacityResult, str]]


def _row(r: CapacityResult, diagnostic: str = "") -> tuple[CapacityResult, str]:
    """r and its diagnostic: `diagnostic` filled from r's diagnostics, or
    by default r's encoder."""
    return r, diagnostic.format(**r.diagnostics) or r.argmax_encoder or ""


# An ascent objective maps one batch (F, group), the factors F of shape
# (B, n, d) and the candidate of each row, group (B,), to the values (B,)
# and certified block gaps (B,) at F and a function step: step(rows), with
# rows the ascending indices of the rows that go on (never empty), returns
# F[rows] after one ascent step, at which the value is no lower.  The
# caller decides which rows go on, and calls step at most once, before it
# changes F, or not at all.  An objective never writes to F and returns
# fresh arrays, which are the caller's: `maximize_over_pi` keeps F, the
# values and the gaps as its best so far by reference, and writes the
# fallen rows' best into the F it passed once step has read it.
AscentObjective = Callable[[tuple], tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]]]

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
    batch: row g*R + r of the batch is start r of candidate g, and every
    candidate gets the same R = cfg.restarts starts, so a candidate's
    value, winner and gap are those a one-candidate call returns.  The
    result is the best candidate's, `group` its index: in index order, a
    later candidate replaces the best only if it is better by more than
    rounding.  `iterations` and `capped` then sum over every candidate.

    A small gap certifies a block-wise optimum, not the global maximum:
    the value is a local-search result, a lower bound on the true maximum.
    Deterministic under a fixed cfg.seed.

    The live starts form one compact batch, of which only the starts with
    a gap above cfg.tolerance step.  The best so far is kept by reference
    while every live start improves (an objective never writes to its F);
    only the rows whose value fell are copied, into F after its step.
    Each time a start stops, the best value, gap and factors of every live
    start are written back, so a start's last write is its own stop.
    """
    cfg = cfg or OptimizerConfig()
    R = cfg.restarts
    starts = np.empty((R, n, d))
    starts[0] = 1.0 / d
    draws = _Draws.seeded(random.Random(cfg.seed), (R - 1) * n * d)
    starts[1:] = draws.dirichlet((R - 1, n, d))
    F = np.tile(starts, (groups, 1, 1))
    # each start's best value, gap and factors, last written when it stops
    value, gap, best_factors = np.empty(groups * R), np.empty(groups * R), np.empty_like(F)
    # the live starts, ascending; row i of the batch F is start live[i], of
    # candidate group[i], whose best so far is best[i], best_gap[i], best_F[i]
    live = np.arange(groups * R)
    group, best_F = live // R, F
    best, best_gap = np.full(live.size, -np.inf), np.full(live.size, np.inf)
    iterations = 0
    for _ in range(MAX_ITERATIONS):
        iterations += live.size
        values, gaps, step = objective((F, group))
        on = np.flatnonzero(gaps > cfg.tolerance)  # the starts that go on
        stepped = step(on) if on.size else None
        del step  # its gathered kernels go before the next batch gathers its own
        better = values >= best
        if np.count_nonzero(better) < live.size:  # step has read F: it takes the fallen rows' best
            fell = ~better
            values, gaps = np.where(better, values, best), np.where(better, gaps, best_gap)
            F[fell] = best_F[fell]
        best, best_gap, best_F, F = values, gaps, F, stepped
        if on.size < live.size:
            # every live start's best so far; one that goes on is written again later
            value[live], gap[live], best_factors[live] = best, best_gap, best_F
            live, group, best, best_gap = live.take(on), group.take(on), best.take(on), best_gap.take(on)
            best_F = best_F.take(on, 0)
            if not live.size:
                break
    value[live], gap[live], best_factors[live] = best, best_gap, best_F
    value, gap = value.reshape(groups, R), gap.reshape(groups, R)
    # converged starts differ by rounding: of those, report the best-certified one
    close = value >= value.max(axis=1, keepdims=True) - _VALUE_ROUNDING
    winners = np.where(close, gap, np.inf).argmin(axis=1)
    tops = value[np.arange(groups), winners].tolist()
    pick = 0
    for g, top in enumerate(tops):
        if top > tops[pick] + _VALUE_ROUNDING:
            pick = g
    winner = int(winners[pick])
    diagnostics = {
        "grid_points": 0,
        "restarts": R,
        "iterations": iterations,
        # starts still live ran out of steps with their last gap above tolerance
        "capped": live.size,
        "winner": winner,
        "gap": float(gap[pick, winner]),
        "group": pick,
    }
    return tops[pick], ProductDistribution(tuple(best_factors[pick * R + winner])), diagnostics


def _block_averages(x: np.ndarray, F: np.ndarray, block: int | None = None) -> np.ndarray:
    """E over m_-k ~ p_-k of x(m) (R, d^n), as a function of m_k: of sender
    k = block alone, shape (R, d), or by default of every sender, shape
    (R, n, d).  Senders n-1, ..., k+1 are summed out by right-hand stacked
    matmuls, then 0, ..., k-1 by left-hand ones, each row with its own p_j.
    The right-hand chain is formed once, from the last sender down: one
    block takes n - 1 products, all n blocks n(n+1)/2 - 1."""
    R, n, d = F.shape
    outs, top = [], n - 1
    for k in reversed(range(n)) if block is None else (block,):
        for j in range(top, k, -1):
            x = np.matmul(x.reshape(R, -1, d), F[:, j, :, None])
        top, y = k, x
        for j in range(k):
            y = np.matmul(F[:, j, None, :], y.reshape(R, d, -1))
        if block is not None:
            return y.reshape(R, d)
        outs.append(y.reshape(R, 1, d))
    return outs[0] if n == 1 else np.concatenate(outs[::-1], axis=1)


# Factors 2^-j, j = 1..4, of alpha + 1 when an extrapolated point leaves the
# simplex: at CHSH, mpp:3 and mpp:4 type-II η = 0.1 more j change no step.
_STEP_BACK = 2.0 ** -np.arange(1, 5)


def _kernel_mi_objective(
    kernels: np.ndarray, slots: np.ndarray | None = None, extrapolate: bool = True
) -> AscentObjective:
    """I(M;Y) for P(y|m) = kernel, with an extrapolated Blahut-Arimoto step.

    With q = pi @ kernel and D_m = D(kernel[m] || q), block k's score is
    g_k(m_k) = E_{m_-k}[D_m]; the product-form BA sweep S sets
    p_k <- p_k 2^{g_k} / Z block by block, and max_k (max g_k - I) bounds
    what any one block can still add.  Values and gaps are those at the
    input F0.

    The step is squared extrapolation (SQUAREM; Varadhan & Roland, 2008)
    of S, per row: F1 = S(F0), F2 = S(F1), r = F1 - F0, v = F2 - 2 F1 + F0,
    alpha = min(-|r|/|v|, -1) (-1 when v = 0), and F' = F0 - 2 alpha r +
    alpha^2 v renormalised per factor.  When some entry of F' is not
    positive, alpha steps back toward -1, alpha_j = -1 + (alpha + 1) 2^-j
    for j = 1..4, and F' is the first point inside the simplex, or F2 when
    there is none.  It returns S(F') if I(F') >= I(F1), else F2.  BA sweeps
    never lower I, so I(returned) >= I(F1) >= I(F0), and the values
    compared are those the second and third sweeps compute anyway.  With
    extrapolate False the step is the plain sweep S alone: the same values
    and gaps at F0, bit for bit, and F1.  The objective computes the
    values and gaps; its step (see AscentObjective) gathers the kernels of
    the rows that go on, unless they are every row, and steps them.

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
    neg_h_rows = -entropy(kernels, axis=-1)  # -H(Y | M = m) of each basis row

    def objective(batch: tuple):
        F0, group = batch
        rows = slots.take(group, axis=0)
        K, neg_h = kernels.take(rows, axis=0), neg_h_rows.take(rows)  # take: faster than [rows]

        def divergences(pm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            q = np.matmul(pm[:, None, :], K)[:, 0]
            log_q = np.log2(np.where(q > 0, q, 1.0))
            return neg_h - np.matmul(K, log_q[..., None])[..., 0], q, log_q

        def evaluate(F: np.ndarray, block: int | None) -> tuple[np.ndarray, np.ndarray]:
            """I at F and the block averages of its divergences (see `_block_averages`)."""
            pm = product_joint(F)
            div, q, log_q = divergences(pm)
            values = np.add.reduce(pm * neg_h, -1) - np.add.reduce(q * log_q, -1)  # H(q) - H(Y | M)
            return values, _block_averages(div, F, block)

        def sweep(F: np.ndarray, score: np.ndarray) -> np.ndarray:
            """S(F), in place, from block 0's score (R, d); each later block
            takes one joint, one divergence pass and one block average."""
            for k in range(F.shape[1]):
                if k:
                    score = _block_averages(divergences(product_joint(F))[0], F, k)
                w = F[:, k] * np.exp2(score - np.maximum.reduce(score, -1, keepdims=True))
                F[:, k] = w / np.add.reduce(w, -1, keepdims=True)
            return F

        values, scores = evaluate(F0, None)
        gaps = np.maximum.reduce(scores, (1, 2)) - values

        def step(on: np.ndarray) -> np.ndarray:
            nonlocal K, neg_h  # the rows' own, which the sweeps read
            F, score = F0, scores[:, 0]
            if on.size < len(F):  # take: faster than a mask on these small batches
                F, score, K, neg_h = F.take(on, 0), score.take(on, 0), K.take(on, 0), neg_h.take(on, 0)
            F1 = sweep(F.copy(), score)
            if not extrapolate:
                return F1
            value1, score = evaluate(F1, 0)
            F2 = sweep(F1.copy(), score)
            r, v = F1 - F, F2 - 2.0 * F1 + F
            r_norm, v_norm = (np.sqrt(np.add.reduce(x * x, (1, 2))) for x in (r, v))
            alpha = -np.maximum(r_norm / np.where(v_norm > 0, v_norm, np.inf), 1.0)
            a = alpha[:, None, None]
            F_ext = F - 2.0 * a * r + a * a * v
            extrapolated, inside = alpha < -1.0, np.logical_and.reduce(F_ext > 0, (1, 2))
            off = extrapolated & ~inside
            if np.count_nonzero(off):  # step back: the first alpha_j = -1 + (alpha + 1) / 2^j inside
                b = (-1.0 + (alpha[off, None] + 1.0) * _STEP_BACK)[..., None, None]  # (off, J, 1, 1)
                trial = F[off, None] - 2.0 * b * r[off, None] + b * b * v[off, None]
                ok = (trial > 0).all(axis=(2, 3))
                F_ext[off] = trial[np.arange(len(ok)), ok.argmax(axis=1)]
                inside[off] = ok.any(axis=1)
            # alpha = -1 gives F2 itself; so does a point off the open simplex at every alpha_j
            take = (extrapolated & inside)[:, None, None]
            np.copyto(F_ext, F2, where=~take)
            np.divide(F_ext, np.add.reduce(F_ext, -1, keepdims=True), out=F_ext, where=take)
            value_ext, score = evaluate(F_ext, 0)
            F3 = sweep(F_ext, score)  # F_ext is built here: swept in place
            return np.where((value_ext >= value1)[:, None, None], F3, F2)

        return values, gaps, step

    return objective


def sum_rate_objective(enc: Encoder, ch: MacChannel) -> AscentObjective:
    """I(M;Y) as an ascent objective of enc's dense kernel P(y | m)."""
    return _kernel_mi_objective(message_output_kernel(enc, ch))


# ---------------------------------------------------------------------------
# classical capacity (exact, via local polytope vertices)
# ---------------------------------------------------------------------------


def vertex_power(game: NonlocalGame) -> tuple[int, int]:
    """(base, exponent) of game's deterministic encoder vertices: each of
    the n senders maps its d messages to one of its d D inputs."""
    return local_deterministic_power(game.n, game.d, game.d * game.D)


def vertex_count(game: NonlocalGame) -> int:
    base, exponent = vertex_power(game)
    return base**exponent


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


@functools.lru_cache(maxsize=1)
def _representatives(game: NonlocalGame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """game's vertex table, kept for the last game: one vertex per
    message-relabelling orbit and distinct kernel, their indices in
    `local_maps(n, d, dD)` order (R,), ascending; the slot (see
    channels.input_slots) of each message's input (R, Δ), in the smallest
    unsigned dtype that holds 2Δ - 1, so vertex r's kernel P(y|m) is
    `ch._circulants[slots[r]]`; and moves (see `_orbit_firsts`).
    Relabelling a sender's messages changes no rate, and the vertex with
    non-decreasing per-sender maps (see `_canonical_maps`) is its orbit's
    lowest index.  A channel row depends on x only through its slot, so of
    vertices with the same slots the first is kept.  Raises
    EnumerationCapExceeded over DEFAULT_ENUMERATION_CAP vertices."""
    refuse_over_cap(
        *vertex_power(game),
        f"{game.name} encoding scenario",
        "deterministic encoder vertices",
        "; use the L-bound resource (classical_upper_bound) instead",
    )
    delta, dD = game.d**game.n, game.d * game.D
    canonical, maps = _canonical_maps(game.n, game.d, dD)
    slots = input_slots(game).astype(np.min_scalar_type(2 * delta - 1))[local_map_indices(maps, dD)]
    # rows compared as raw bytes: np.unique(axis=0) compares them field by
    # field, about 15x slower at mpp:5
    rows = slots.view(np.dtype((np.void, slots.strides[0])))
    first = np.sort(np.unique(rows, return_index=True)[1])
    grid = np.arange(delta).reshape((game.d,) * game.n)
    senders = np.stack([grid.transpose(order).ravel() for order in permutations(range(game.n))])
    # moves[g, m]: the message that relabelling g sends in place of m
    moves = senders[:, local_map_indices(_message_relabellings(game.n, game.d), game.d)].reshape(-1, delta)
    return canonical[first], slots[first], moves


def _message_relabellings(n: int, d: int) -> np.ndarray:
    """Every tuple of per-sender message relabellings, shape (d!^n, n, d)."""
    orders = np.array(list(permutations(range(d))))
    return orders[local_maps(n, 1, len(orders))[..., 0]]


def _patterns(slots: np.ndarray, delta: int) -> np.ndarray:
    """Each row of slots (..., Δ) with its question replaced by the first
    message with that question: b(m) Δ + f(m), same shape and dtype."""
    question = slots % delta
    # the comparison holds Δ² booleans a row: 3.9 MB for mpp:5's 3,840 relabellings, 4 KB a row at Δ = 64
    first = (question[..., :, None] == question[..., None, :]).argmax(-1)
    return (slots - question + first).astype(slots.dtype)


def _orbit_firsts(ch: MacChannel, slots: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """Index of the first row of slots (S, Δ) in each orbit, ascending.

    On a depolarizing channel (see `MacChannel._peaks`), the row of slot
    b Δ + q is c_b + e_b [y = q], so relabelling the outputs keeps every
    rate, and a row's rates depend on it only through its pattern
    (see `_patterns`).  Relabelling messages within senders and permuting
    senders keeps every product law, so a row whose pattern is one of the
    d!^n n! relabellings `moves` of an earlier first row's pattern has that
    row's maximum over product laws.  Any other channel keeps every row."""
    if any(offsets.any() for _, offsets, _ in ch._peaks):  # a peak off offset 0
        return np.arange(len(slots))
    orbit_of, firsts = _orbit_of(ch.game), {}
    for i, pattern in enumerate(map(bytes, _patterns(slots, ch.delta))):
        if pattern not in orbit_of:  # an orbit new to this game: form its relabelled patterns
            orbit_of.update(dict.fromkeys(map(bytes, _patterns(slots[i][moves], ch.delta)), pattern))
        firsts.setdefault(orbit_of[pattern], i)
    return np.array(list(firsts.values()))


@functools.lru_cache(maxsize=1)
def _orbit_of(game: NonlocalGame) -> dict[bytes, bytes]:
    """Pattern -> orbit of each relabelled pattern `_orbit_firsts` met on game, kept for the last game."""
    return {}


# Kernel entries (rows x Δ x outputs) one objective call of the L-exact
# pruning gathers at most: rows are independent, so the chunks change no
# value, and mpp:5's first step never holds all 7,776 kernels at once.
_PRUNE_CHUNK_ELEMENTS = 2**18

# L-exact pruning steps that are plain Blahut-Arimoto sweeps before SQUAREM
# steps take over: the values and gaps at uniform messages and after one
# sweep decide most representatives, and a plain step costs a quarter of a
# SQUAREM step (42 against 173 µs on CHSH's 68 representatives).  Pruning
# medians in one process, 2-core Intel Xeon, representatives and orbits
# included, with 0 / 1 / 2 plain steps: type-II η = 1 chsh 0.55 / 0.42 /
# 0.33 ms, mpp:4 7.3 / 5.3 / 5.1 ms; η = 0.1 mpp:3 1.55 / 1.44 / 1.39 ms,
# mpp:4 10.8 / 8.9 / 8.7 ms, but chsh 0.59 / 0.59 / 0.62 ms, where the
# second plain step decides none of the 16 rows left.  Three plain steps
# were slower than two at η = 0.1 on mpp:3 and mpp:4; every step plain took
# mpp:3 there 133 steps and 7.0 ms.  chsh-sweep's `wall_s` fell from 14.71
# to 14.04 ms with two.
_PLAIN_PRUNE_STEPS = 2


def classical_capacity_exact(ch: MacChannel, cfg: OptimizerConfig | None = None) -> CapacityResult:
    """Classical d-message sum-capacity: the best I(M;Y) = I(X;Y) over
    deterministic encoders, each sender sending each of its d messages as
    one channel input.  Not the product-input sum-capacity, where a
    sender may use more than d of its dD inputs.

    A representative (see `_representatives`) is dropped once the
    Blahut-Arimoto bound max_m D(K_m || q) on its capacity over all Δ
    messages (Blahut 1972, Arimoto 1972), which holds at every step, is
    below the floor: the best rate at uniform messages.  It is kept once
    its BA value reaches the floor, or after MAX_ITERATIONS steps.  The
    first _PLAIN_PRUNE_STEPS steps are plain BA sweeps, the later ones
    SQUAREM steps (see `_kernel_mi_objective`); step 0 computes the same
    values either way, so the floor is the same.  Every representative
    takes step 0, which sets the floor; later steps step only the ones
    still undecided, chunk by chunk (`_PRUNE_CHUNK_ELEMENTS`).  Neither kind of step
    moves the survivors: every step's value I(F_t) and bound bracket the capacity
    C_r, I(F_t) <= C_r <= max_m D(K_m || q_t), so both keep exactly the
    representatives with C_r at or above the floor, but for one still
    undecided after MAX_ITERATIONS steps or within rounding of the floor.
    On a depolarizing channel the survivors (`candidates`, of
    `representatives` and `vertices`) fall into orbits of equal maxima
    under output, message and sender relabellings (see `_orbit_firsts`);
    on any other channel each survivor is its own orbit.  The lowest-index
    survivor of each orbit (`orbits` of them) joins one grouped ascent, and
    `vertex:N` names the lowest-index one within rounding of the best.  As
    an orbit's members share one maximum, an ascent over every survivor
    gives the same value and label.
    """
    vertices, slots, moves = _representatives(ch.game)
    basis = ch._circulants
    plain, squarem = (_kernel_mi_objective(basis, slots, extrapolate) for extrapolate in (False, True))
    F = np.full((len(slots), 1, ch.delta), 1.0 / ch.delta)  # one sender, Δ messages; row i is active[i]'s
    active, kept = np.arange(len(slots)), []
    chunk = max(1, _PRUNE_CHUNK_ELEMENTS // (ch.delta * basis.shape[-1]))  # rows per call

    def undecided(values: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        return np.flatnonzero((values < floor) & (values + gaps >= floor))

    def prune(objective: AscentObjective, lo: int, first: bool) -> tuple:
        """Values and gaps of the chunk of F at lo, and the offsets and new
        factors of its rows that step: all at the first step, which sets the
        floor, the undecided ones after.  The chunk's kernels go on return."""
        values, gaps, step = objective((F[lo : lo + chunk], active[lo : lo + chunk]))
        on = np.arange(len(values)) if first else undecided(values, gaps)
        return values, gaps, on + lo, step(on) if on.size else F[:0]

    for t in range(MAX_ITERATIONS):
        objective = plain if t < _PLAIN_PRUNE_STEPS else squarem
        if len(F) <= chunk:  # one chunk, with no list or concatenation
            values, gaps, on, F = prune(objective, 0, not t)
        else:
            parts = [prune(objective, lo, not t) for lo in range(0, len(F), chunk)]
            values, gaps, on, F = (np.concatenate(part) for part in zip(*parts))
        if not t:  # step 0: every representative at uniform messages, all stepped
            floor = values.max() - _VALUE_ROUNDING
            on = undecided(values, gaps)
            F = F.take(on, 0)
        kept.append(active[values >= floor])
        active = active.take(on)
        if not active.size:
            break
    survivors = np.sort(np.concatenate([*kept, active]))
    orbits = survivors[_orbit_firsts(ch, slots[survivors], moves)]
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
    every representative at every per-sender relabelling of pi, evaluated
    with no step."""
    per_sender = _message_relabellings(pi.n, pi.d)
    relabelled = np.stack(pi.factors)[np.arange(pi.n)[:, None], per_sender]
    slots = _representatives(ch.game)[1]
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
    refuse_over_cap(*local_deterministic_power(n, d, D), game.name, "deterministic strategy tuples")
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


def _classical_value(game: NonlocalGame) -> float:
    """ω*_L of game, with no search or win table for the built-in
    predicates, keyed on the predicate function and the dimensions, never
    on the name:
    - `games._chsh_wins` with (n, d, D) = (2, 2, 2): 3/4 (Clauser, Horne,
      Shimony & Holt, PRL 23, 880, 1969);
    - `games._magic_square_wins` with (2, 3, 8): 8/9, one of the nine
      question pairs lost (Brassard, Broadbent & Tapp, QIC 5, 2005);
    - `games._mpp_wins` with d = D = 2, any n: it wins every odd question
      tuple, and its even half is Mermin's game, of classical value
      1/2 + 2^-⌈n/2⌉ (Mermin, PRL 65, 3373, 1990; Brassard, Broadbent &
      Tapp), so ω*_L = 3/4 + 2^-(⌈n/2⌉+1).
    Each float equals the brute force's bit for bit.  Every other game
    takes `bruteforce_classical_game_value`."""
    if game._wins is games._mpp_wins and (game.d, game.D) == (2, 2):
        return 0.75 + 2.0 ** -((game.n + 1) // 2 + 1)
    closed_forms = {(games._chsh_wins, 2, 2, 2): 3 / 4, (games._magic_square_wins, 2, 3, 8): 8 / 9}
    omega = closed_forms.get((game._wins, game.n, game.d, game.D))
    return bruteforce_classical_game_value(game)[0] if omega is None else omega


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


def _top_mask(pm: np.ndarray, r: int) -> np.ndarray:
    """The 0/1 float mask of the r largest entries of each row of pm (R, Δ),
    ties to the lowest index: the first r of a stable argsort, found in O(Δ).
    np.partition finds the r-th largest entry t; every entry above t is in,
    and the entries equal to t fill the rest in index order."""
    if not r:
        return np.zeros(pm.shape)
    t = np.partition(pm, -r, axis=-1)[:, -r, None]
    mask = pm >= t
    over = np.add.reduce(mask, -1) > r  # rows with more ties at t than places left
    if np.count_nonzero(over):
        p, t = pm[over], t[over]
        above, tie = p > t, p == t
        mask[over] = above | (tie & (np.cumsum(tie, axis=-1) <= r - above.sum(axis=-1, keepdims=True)))
    return mask.astype(float)


def _subset_bound_objective(ch: MacChannel, r_max: int) -> AscentObjective:
    """H(M) + (f_l - f_w) * (mass of the r_max likeliest messages) - f_l.

    Block k's step re-picks the top-r_max set S (ties to the lowest index),
    takes a_k(m_k) = sum of p_-k(m_-k) over m in S, and sets p_k to the
    block maximiser p_k ∝ 2^{c a_k}, c = f_l - f_w.  With S held, the block
    gap is log2 sum 2^{c a_k} - (H(p_k) + c sum p_k a_k).  The step (see
    AscentObjective) updates a fresh copy of the rows that go on.
    """
    spread = ch.f_l - ch.f_w

    def objective(batch: tuple):
        F, _ = batch  # one candidate: every row's group is 0
        pm = product_joint(F)
        mask = _top_mask(pm, r_max)
        h = entropy(F, axis=-1)  # (R, n)
        values = np.add.reduce(h, -1) + spread * np.add.reduce(mask * pm, -1) - ch.f_l
        averages = _block_averages(mask, F)  # (R, n, d)
        blocks = h + spread * np.add.reduce(F * averages, -1)
        gaps = np.maximum(np.maximum.reduce(np.logaddexp2.reduce(spread * averages, -1) - blocks, -1), 0.0)

        def step(on: np.ndarray) -> np.ndarray:
            # fresh rows for the updates; block 0 reuses the certificate's average
            F1, average = F.take(on, 0), averages.take(on, 0)[:, 0]
            for k in range(F1.shape[1]):
                if k:
                    average = _block_averages(_top_mask(product_joint(F1), r_max), F1, k)
                w = np.exp2(spread * average)
                F1[:, k] = w / np.add.reduce(w, -1, keepdims=True)
            return F1

        return values, gaps, step

    return objective


# Outputs Δ of the largest game an L-bound sweep takes: mpp:17's.  Its
# ascent holds (restarts, Δ) joints per block and step; a two-η type-II
# L-bound sweep as a CLI command took 20 s and 93 MB at mpp:16, 49 s and
# 155 MB at mpp:17 and 183 s and 276 MB at mpp:18 (2-core Intel Xeon, one
# BLAS thread), over 90 s: mpp:18 is refused.
_L_BOUND_CAP = 2**17


def _l_bound_omega(game: NonlocalGame) -> float:
    """ω*_L of game's L-bound row, after its checks: Δ at most _L_BOUND_CAP
    (EnumerationCapExceeded), and ω*_L, whose search for a game with no
    closed form has its own cap and is kept for the next row (see
    `bruteforce_classical_game_value`)."""
    refuse_over_cap(game.d, game.n, f"{game.name} L-bound row", "outputs", cap=_L_BOUND_CAP)
    return _classical_value(game)


def classical_upper_bound(ch: MacChannel, cfg: OptimizerConfig | None = None) -> CapacityResult:
    """The paper's subset-partition expression for the classical sum-capacity.

    It takes r_max = round(ω*_L Δ) message tuples, with ω*_L the game's
    classical value (diagnostic `omega_star`; in closed form, with no
    search, on the CHSH, magic-square and Mermin-GHZ predicates, see
    `_classical_value`), as the most that land in
    the winning set, bounds the win probability by the r_max largest
    message masses and H(Y) by H(M).  It is not a proven
    upper bound: on a noisy channel H(Y) can exceed H(M), and mpp:3
    type-II at η = 0.3 has an encoder above it.  So the kind is
    `paper-bound`.  The maximum over pi comes from block-coordinate
    ascent, a local search, not a certified global maximum.  A game with
    more than _L_BOUND_CAP outputs is refused (EnumerationCapExceeded)
    before the ascent, as in a sweep's prepare (`_l_bound_omega`).
    """
    omega_star = _l_bound_omega(ch.game)
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


def _refuse_signaling(box: CorrelationBox, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise error, naming the box `what`, if it signals by more than NO_SIGNALING_TOL."""
    signaling = box.no_signaling_error()
    if not signaling <= NO_SIGNALING_TOL:
        raise error(f"{what} signals: no-signaling error {signaling:.3g} exceeds {NO_SIGNALING_TOL:g}")


class PseudoTelepathyHypothesisError(ValueError):
    """The supplied box or encoder fails a hypothesis of a closed-form
    capacity: the pseudo-telepathy formula's, or that of a symmetric E*
    kernel (see `_prepare_symmetric_encoder`)."""


def _echo_rate(
    ch: MacChannel, pm: np.ndarray, t: np.ndarray, levels: tuple[np.ndarray, np.ndarray]
) -> float:
    """I(M;Y) of E*(box) at the message distribution pm (Δ,), with t =
    box_win_probabilities(box, game) and levels = np.unique(t,
    return_inverse=True), its distinct values and the index of each t_m
    among them.  E* puts message m on the inputs (m, a), so kernel row m is
    t_m C_w[m] + (1 - t_m) C_l[m], with C_b the circulant rows of branch b:
    a box reaches a rate only through t.  I(M;Y) is H(`MacChannel.output_law`
    of the slot weights pm (1 - t), pm t) minus sum_m pm_m H(t_m P_w +
    (1 - t_m) P_l), with P_b the profiles: a kernel row is a cyclic shift of
    its profile mix, so both have one entropy, taken once per level."""
    mixes, which = levels
    h_rows = entropy(np.outer(mixes, ch.win_profile) + np.outer(1 - mixes, ch.lose_profile), axis=1)
    q = ch.output_law(np.concatenate([pm * (1 - t), pm * t]))
    return entropy(q) - float(pm @ h_rows[which])


def _prepare_symmetric_encoder(box: CorrelationBox, game: NonlocalGame, resource: str, perfect: bool) -> Solve:
    """`_symmetric_solve` of what box reads: t = box_win_probabilities(box,
    game), its support-marginal error if perfect, and its and E*'s names
    (E*(box) is built only for its name).  The built-in Mermin-GHZ games'
    sweeps skip the box and this step (see `_builtin_perfect_box`)."""
    t = box_win_probabilities(box, game)
    marginal_error = support_marginal_uniformity_error(box) if perfect else None
    return _symmetric_solve(game, t, marginal_error, box.name, e_star(box).name, resource)


def _symmetric_solve(
    game: NonlocalGame, t: np.ndarray, marginal_error: float | None, name: str, encoder: str, resource: str
) -> Solve:
    """Check that the kernel of E*(box) is a symmetric channel on every
    channel of game; return the Solve of its capacity in closed form.

    Every win probability t_q of the box, named `name`, must lie within PT_TOL
    of omega: 1 if perfect, that is when marginal_error (of its output marginals
    from uniform over their support) is given and within PT_TOL too, else t_0;
    `win_deviation` is the largest |t_q - omega|.  Every kernel row is then a
    cyclic shift of r = omega P_w + (1 - omega) P_l, with P_b the branch
    profiles, so the capacity over all message distributions is log2 Δ - H(r),
    reached at uniform messages (Cover & Thomas, Elements of Information Theory,
    Thm 7.2.1), a product distribution.  A perfect box's r is P_w, its value
    log2 Δ - f_w bit for bit and its row `exact`; any other box's row is a
    `lower-bound`.  Rows carry `resource`, which the caller that chose the box
    passes.  Each channel cross-checks the closed form against `_echo_rate` at
    uniform messages (`direct_sum_rate`) within PT_CROSS_CHECK_TOL.  Failures
    raise PseudoTelepathyHypothesisError.
    The rows name E*(box) `encoder`; the Solve keeps t and its distinct
    values (`_echo_rate`'s levels, sorted once per box), not the box."""
    perfect = marginal_error is not None
    omega = 1.0 if perfect else float(t[0])
    win_deviation = float(np.abs(t - omega).max())
    if not win_deviation <= PT_TOL:
        raise PseudoTelepathyHypothesisError(
            f"box {name!r} does not win {game.name} on every question tuple "
            f"(max deviation {win_deviation})"
            if perfect
            else f"box {name!r} wins {game.name} with probabilities up to "
            f"{win_deviation} apart from {omega}"
        )
    if perfect and not marginal_error <= PT_TOL:
        raise PseudoTelepathyHypothesisError(
            f"box {name!r} output marginals deviate from uniform-over-support "
            f"by {marginal_error}"
        )
    pi = ProductDistribution.uniform(game.n, game.d)
    pm, levels = pi.joint(), np.unique(t, return_inverse=True)

    def solve(ch: MacChannel) -> tuple[CapacityResult, str]:
        row = omega * ch.win_profile + (1 - omega) * ch.lose_profile
        value = float(np.log2(ch.delta)) - entropy(row)
        direct = _echo_rate(ch, pm, t, levels)
        if not abs(direct - value) <= PT_CROSS_CHECK_TOL:
            raise PseudoTelepathyHypothesisError(
                f"closed form {value} disagrees with direct sum rate {direct}"
            )
        return _row(CapacityResult(
            value=value,
            kind="exact" if perfect else "lower-bound",
            resource=resource,
            argmax_pi=pi,
            argmax_encoder=encoder,
            diagnostics=dict(win_deviation=win_deviation, direct_sum_rate=direct),
        ))

    return solve


def pseudo_telepathy_capacity(ch: MacChannel, box: CorrelationBox) -> CapacityResult:
    """Exact sum-capacity log2(Δ) - f_w for a perfect, output-uniform box.

    Verifies both hypotheses (win probability 1 on every question tuple,
    output marginals uniform over their support) and cross-checks the
    closed form against the E* encoder's sum rate at uniform messages
    (`direct_sum_rate`), computed from its win probabilities (see
    `_echo_rate`) in O(Δ) time and memory on a depolarizing channel.
    Both hypotheses and the win probabilities depend on the game only: a
    sweep derives them once, and cross-checks once per channel for the
    rows that share a box.  A signaling box is refused.  The resource is
    read from the box's table, not its name: Q only for the table of a
    quantum pseudo_telepathy_box(game), NS for any other box or game.
    """
    try:
        builtin = pseudo_telepathy_box(ch.game)
        quantum = _box_resource(builtin.name) == "Q" and np.array_equal(box.table, builtin.table)
    except ValueError:  # a game with no built-in box
        quantum = False
    solve = _prepare_symmetric_encoder(box, ch.game, "Q" if quantum else "NS", perfect=True)
    _refuse_signaling(box, f"box {box.name!r}", PseudoTelepathyHypothesisError)
    return solve(ch)[0]


def _prepare_q_lower(game: NonlocalGame) -> Solve:
    """The Solve of quantum_lower_bound_chsh on game, with its checks done
    once."""
    if game.name != "chsh":
        raise ValueError(f"quantum lower bound is defined for CHSH channels, got {game.name}")
    return _prepare_symmetric_encoder(tsirelson_box(), game, "Q", perfect=False)


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
    game: row m of a box's E* kernel is the `MacChannel.output_law` of
    weight 1 - t_m on slot m and t_m on slot Δ + m (see `_echo_rate`)."""
    boxes = boxes_from_csv(vertex_csv_path)
    for i, box in enumerate(boxes):
        if (box.n, box.d, box.D) != (game.n, game.d, game.D):
            raise ValueError(
                f"vertex {i} has scenario ({box.n},{box.d},{box.D}), channel "
                f"needs ({game.n},{game.d},{game.D})"
            )
        _refuse_signaling(box, f"vertex {i}")
    t = np.stack([box_win_probabilities(box, game) for box in boxes])[..., None]
    eye = np.eye(t.shape[1])
    weights = np.concatenate([(1 - t) * eye, t * eye], axis=-1)

    def solve(ch: MacChannel) -> tuple[CapacityResult, str]:
        kernels = ch.output_law(weights)
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


def _parity_hypotheses(game: NonlocalGame) -> tuple[np.ndarray, float]:
    """t and the support-marginal error of pseudo_telepathy_box(game) for
    a built-in Mermin-GHZ game, without the box.  `games._mpp_wins` reads
    the answers only through their parity, so one call over every question
    tuple and the answers 0...0 and 10...0 gives each question's winning
    parities.  The box is uniform over the answers of those, so t_q is 1
    wherever one wins, a sum of powers of two as exact as the box's.  With
    n >= 2 each player's bit is 0 in half of a parity class: every marginal
    is 1/2 on the support {0, 1}, and the error is 0."""
    n = game.n
    q = np.indices((2,) * n, dtype=np.uint8).reshape(n, -1, 1)
    a = np.zeros((n, 1, 2), dtype=q.dtype)
    a[0, 0, 1] = 1
    wins = np.broadcast_to(game._wins(tuple(q), tuple(a)), (2**n, 2))
    return wins.any(axis=1).astype(float), 0.0


def channel_for(game: NonlocalGame, channel_type: int, eta: float) -> MacChannel:
    """Type-I/II constructor with the degenerate endpoint clamped: type-I
    eta = 1 and type-II eta = 0 (f_w = f_l).  A type-II eta in (0,
    _ETA_CLAMP) whose branch entropies both round to log2 Δ, so that
    type_ii refuses it as f_w >= f_l, is clamped as eta = 0 is; every
    other such eta builds as it is.  type_i and type_ii refuse every other
    eta outside their range."""
    if channel_type == 1:
        if eta == 1.0:
            warnings.warn(f"type-I eta={eta} clamped below 1 (degenerate f_w = f_l)")
            eta = 1.0 - _ETA_CLAMP
        return type_i(game, eta)
    if channel_type == 2:
        if 0.0 < eta < _ETA_CLAMP:
            try:
                return type_ii(game, eta)
            except ValueError:  # in range, so only the branch order can fail: f_w rounds to f_l
                pass
        if 0.0 <= eta < _ETA_CLAMP:  # eta = 0, or one type_ii refused above
            warnings.warn(f"type-II eta={eta} clamped above 0 (degenerate f_w = f_l)")
            eta = _ETA_CLAMP
        return type_ii(game, eta)
    raise ValueError(f"channel type must be 1 or 2, got {channel_type}")


class SweepRow:
    def __init__(self, eta: float, resource: str, kind: str, value: float, diagnostic: str = ""):
        self.eta = eta
        self.resource = resource
        self.kind = kind
        self.value = value
        self.diagnostic = diagnostic


# Outputs Δ of the largest game a perfect-box sweep takes: mpp:22's.  A
# two-η NS-exact,Q-exact sweep took 1.4 s and 400 MB at mpp:22 and 3.3 s and
# 768 MB at mpp:23 (2-core Intel Xeon), over 500 MB: mpp:23 is refused.
_PERFECT_BOX_CAP = 2**22


@functools.lru_cache(maxsize=1)
def _builtin_perfect_box(game: NonlocalGame) -> tuple[str, Solve]:
    """The resource label of the game's built-in perfect box and its
    checked closed form; kept for the last game, so a sweep's NS-exact and
    Q-exact share one check.  A game whose Δ is over _PERFECT_BOX_CAP is
    refused (EnumerationCapExceeded) before anything is built.  A built-in
    Mermin-GHZ game (named mpp:n, on `games._mpp_wins`) reads its
    hypotheses from `_parity_hypotheses`, in O(2^n), with no box, win table
    or E*: they are the box's own, bit for bit.  Every other game, and a
    game named mpp:n on another predicate, reads them from
    pseudo_telepathy_box(game).  The box is not kept."""
    refuse_over_cap(game.d, game.n, f"{game.name} perfect-box row", "outputs", cap=_PERFECT_BOX_CAP)
    if game._wins is games._mpp_wins and _builtin_game(game) is game:
        name, (t, marginal_error) = game.name, _parity_hypotheses(game)
        resource = _box_resource(name)
        return resource, _symmetric_solve(game, t, marginal_error, name, f"e*({name})", resource)
    box = pseudo_telepathy_box(game)
    resource = _box_resource(box.name)
    return resource, _prepare_symmetric_encoder(box, game, resource, perfect=True)


def _prepare_builtin_box(game: NonlocalGame, quantum: bool) -> Solve:
    resource, solve = _builtin_perfect_box(game)
    if quantum and resource != "Q":
        raise ValueError(f"{game.name} has no built-in quantum pseudo-telepathy box")
    return solve


def _prepare_l_exact(game: NonlocalGame, cfg: OptimizerConfig) -> Solve:
    """The Solve of classical_capacity_exact on game, its vertex table (and
    so its vertex cap) built before any row: the rows read the kept table."""
    _representatives(game)
    return lambda ch: _row(classical_capacity_exact(ch, cfg))


def _prepare_l_bound(game: NonlocalGame, cfg: OptimizerConfig) -> Solve:
    """The Solve of classical_upper_bound on game, with its checks
    (`_l_bound_omega`) done once, before any row."""
    _l_bound_omega(game)
    return lambda ch: _row(classical_upper_bound(ch, cfg), "omega*={omega_star:.10g}")


# The sweep resources but vertex-file:<path>: name -> prepare(game, cfg),
# which does the game-level work and checks once and returns the Solve.
# Entries call the capacity functions by their module-global names when
# they run, so a rebound function is the one a sweep calls.
_RESOURCES: dict[str, Callable[[NonlocalGame, OptimizerConfig], Solve]] = {
    "L-exact": _prepare_l_exact,
    "L-bound": _prepare_l_bound,
    "Q-lower": lambda game, cfg: _prepare_q_lower(game),
    "Q-exact": lambda game, cfg: _prepare_builtin_box(game, quantum=True),
    "NS-exact": lambda game, cfg: _prepare_builtin_box(game, quantum=False),
}


def _check_resources(resources: list[str]) -> None:
    """Raise ValueError, listing the valid names, unless resources is a
    non-empty list of distinct ones."""
    valid = f"expected one or more of {', '.join(_RESOURCES)}, vertex-file:<path>"
    if isinstance(resources, str):
        raise ValueError(f"resources must be a list of names, got the string {resources!r}; {valid}")
    if not resources:
        raise ValueError(f"no resource given; {valid}")
    for i, res in enumerate(resources):
        if res in resources[:i]:
            raise ValueError(f"resource {res!r} given twice; {valid}")
        if res in ("vertex-file", "vertex-file:"):
            raise ValueError(f"resource {res!r} needs a box CSV path: vertex-file:<path>; {valid}")
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
    game-level checks, before any row is computed; resources that share a
    Solve (NS-exact and Q-exact of one box) share its result per channel."""
    _check_resources(resources)
    solves = [
        _prepare_vertex_file(res[len("vertex-file:"):], game, cfg)
        if res.startswith("vertex-file:") else _RESOURCES[res](game, cfg)
        for res in resources
    ]
    rows: list[SweepRow] = []
    for eta in etas:
        ch = channel_for(game, channel_type, float(eta))
        solved = {solve: solve(ch) for solve in dict.fromkeys(solves)}
        for res, solve in zip(resources, solves):
            r, diag = solved[solve]
            rows.append(
                SweepRow(eta=float(eta), resource=res, kind=r.kind, value=r.value, diagnostic=diag)
            )
    return rows
