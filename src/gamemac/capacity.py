"""Sum-capacity computations: optimization over product message
distributions, exact classical capacity by vertex enumeration, the
subset-partition classical upper bound, pseudo-telepathy exact values,
and η sweeps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .channels import MacChannel, type_i, type_ii
from .correlations import (
    DEFAULT_ENUMERATION_CAP,
    NO_SIGNALING_TOL,
    CorrelationBox,
    Encoder,
    EnumerationCapExceeded,
    boxes_from_csv,
    box_win_probabilities,
    e_star,
    magic_square_box,
    mpp_box,
    pr_box,
    support_marginal_uniformity_error,
    tsirelson_box,
)
from .games import NonlocalGame, local_map_indices
from .infotheory import ProductDistribution, entropy, sum_rate


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of `maximize_over_pi` and of the vertex prefilter.

    restarts: starts of the ascent, the uniform distribution plus
        restarts - 1 seeded Dirichlet draws.
    tolerance: a start stops once its certified block gap (the most any
        single sender's factor could still add) is at most this, in bits.
    max_iterations: sweeps over the senders' factors after which a start
        stops regardless of its gap.
    grid_step: spacing of the fine simplex grid on which
        `classical_capacity_exact` ranks its candidate vertices; None means
        0.05 for d=2 and 0.1 otherwise.
    seed: seeds the Dirichlet starts.
    """

    grid_step: float | None = None
    restarts: int = 20
    tolerance: float = 1e-10
    max_iterations: int = 4000
    seed: int = 0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.grid_step is not None and not 0.0 < self.grid_step <= 1.0:
            raise ValueError(f"grid-step must lie in (0, 1], got {self.grid_step}")

    def step_for(self, d: int) -> float:
        if self.grid_step is not None:
            return self.grid_step
        return 0.05 if d == 2 else 0.1


@dataclass
class CapacityResult:
    value: float
    kind: str  # exact | lower-bound | upper-bound
    resource: str  # L | Q | NS | any | user label
    argmax_pi: ProductDistribution | None = None
    argmax_encoder: str | None = None
    diagnostics: dict = field(default_factory=dict)


def simplex_grid(d: int, step: float) -> list[np.ndarray]:
    """Lattice points on the (d-1)-simplex with spacing ~step, in
    deterministic lexicographic order."""
    k = max(1, round(1.0 / step))

    def rec(remaining, parts):
        if len(parts) == d - 1:
            yield parts + [remaining]
            return
        for i in range(remaining + 1):
            yield from rec(remaining - i, parts + [i])

    return [np.array(p, dtype=float) / k for p in rec(k, [])]


# An ascent objective maps a batch of factors F, shape (R, n, d), to its
# values (R,), certified block gaps (R,) and F after one sweep.
AscentObjective = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

# Values closer than this are equal up to rounding.
_VALUE_ROUNDING = 1e-12


def maximize_over_pi(
    objective: AscentObjective,
    n: int,
    d: int,
    cfg: OptimizerConfig | None = None,
) -> tuple[float, ProductDistribution, dict]:
    """Batched multi-start block-coordinate ascent over product distributions.

    All starts (uniform, then cfg.restarts - 1 seeded Dirichlet draws) run
    as one batch.  A start stops once its block gap is at most
    cfg.tolerance or after cfg.max_iterations sweeps.  Returns the best
    evaluated value, its distribution and diagnostics: `grid_points` (0),
    `iterations` (sweeps summed over the starts), `restarts`, `winner`
    (the winning start: of the starts within rounding of the best value,
    the one with the smallest gap) and `gap` (its block gap).

    A small gap certifies a block-wise optimum, not the global maximum:
    the value is a local-search result, a lower bound on the true maximum.
    Deterministic under a fixed cfg.seed.
    """
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(cfg.seed)
    F = np.empty((cfg.restarts, n, d))
    F[0] = 1.0 / d
    F[1:] = rng.dirichlet(np.ones(d), size=(cfg.restarts - 1, n))
    best = np.full(cfg.restarts, -np.inf)
    best_F = F.copy()
    best_gap = np.full(cfg.restarts, np.inf)
    active = np.arange(cfg.restarts)
    iterations = 0
    for _ in range(cfg.max_iterations):
        values, gaps, swept = objective(F[active])
        better = values >= best[active]
        idx = active[better]
        best[idx] = values[better]
        best_F[idx] = F[idx]
        best_gap[idx] = gaps[better]
        iterations += active.size
        F[active] = swept
        active = active[gaps > cfg.tolerance]
        if not active.size:
            break
    # converged starts differ by rounding: of those, report the best-certified one
    close = np.flatnonzero(best >= best.max() - _VALUE_ROUNDING)
    winner = int(close[np.argmin(best_gap[close])])
    diagnostics = {
        "grid_points": 0,
        "restarts": cfg.restarts,
        "iterations": iterations,
        "winner": winner,
        "gap": float(best_gap[winner]),
    }
    return float(best[winner]), ProductDistribution(tuple(best_F[winner])), diagnostics


def _joint(F: np.ndarray) -> np.ndarray:
    """Joint message distributions (R, d^n) of factors F (R, n, d)."""
    out = F[:, 0]
    for k in range(1, F.shape[1]):
        out = (out[:, :, None] * F[:, k, None, :]).reshape(F.shape[0], -1)
    return out


def _block_average(x: np.ndarray, F: np.ndarray, k: int) -> np.ndarray:
    """E over m_-k ~ p_-k of x(m), as a function of m_k: shape (R, d).

    x has shape (R, d^n) over the joint message index."""
    R, n, d = F.shape
    operands = [x.reshape((R,) + (d,) * n), [n, *range(n)]]
    for j in range(n):
        if j != k:
            operands += [F[:, j], [n, j]]
    return np.einsum(*operands, [n, k])


def _kernel_mi_objective(kernel: np.ndarray) -> AscentObjective:
    """I(M;Y) for P(y|m) = kernel, with the product-form Blahut-Arimoto sweep.

    With q = pi @ kernel and D_m = D(kernel[m] || q), block k's score is
    g_k(m_k) = E_{m_-k}[D_m]; the update is p_k <- p_k 2^{g_k} / Z, and
    max_k (max g_k - I) bounds what any one block can still add.
    """
    h_rows = entropy(kernel, axis=-1)  # H(Y | M = m)

    def divergences(pm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = pm @ kernel
        log_q = np.log2(np.where(q > 0, q, 1.0))
        return -h_rows - log_q @ kernel.T, q

    def objective(F: np.ndarray):
        F = F.copy()
        n = F.shape[1]
        pm = _joint(F)
        div, q = divergences(pm)
        values = entropy(q, axis=-1) - pm @ h_rows
        scores = [_block_average(div, F, k) for k in range(n)]
        gaps = np.max([g.max(axis=-1) for g in scores], axis=0) - values
        for k in range(n):
            if k:
                div, _ = divergences(_joint(F))
                scores[k] = _block_average(div, F, k)
            w = F[:, k] * np.exp2(scores[k] - scores[k].max(axis=-1, keepdims=True))
            F[:, k] = w / w.sum(axis=-1, keepdims=True)
        return values, gaps, F

    return objective


def sum_rate_objective(enc: Encoder, ch: MacChannel) -> AscentObjective:
    """I(M;Y) as an ascent objective, with the x axis pre-summed."""
    return _kernel_mi_objective(ch.kernel(enc.cols, enc.probs))


def _kernel_rates(kernels: np.ndarray, pms: np.ndarray) -> np.ndarray:
    """I(M;Y) = H(Y) - H(Y|M) for each kernel (..., Δ, Y) at each message
    distribution pms (G, Δ): shape (..., G)."""
    return entropy(pms @ kernels, axis=-1) - entropy(kernels, axis=-1) @ pms.T


# ---------------------------------------------------------------------------
# classical capacity (exact, via local polytope vertices)
# ---------------------------------------------------------------------------


def vertex_count(game: NonlocalGame) -> int:
    dD = game.d * game.D
    return (dD**game.d) ** game.n


def _vertex_kernels(ch: MacChannel) -> np.ndarray:
    """P(y|m) for every deterministic encoder vertex, shape (V, Δ, Δ)."""
    game = ch.game
    dD = game.d * game.D
    per = np.array(list(product(range(dD), repeat=game.d)))  # one sender's maps m_k -> symbol
    maps = per[np.indices((len(per),) * game.n).reshape(game.n, -1).T]  # (V, n, d)
    return ch.matrix[local_map_indices(maps, dD)]


def _grid_pms(n: int, d: int, step: float) -> np.ndarray:
    per = simplex_grid(d, step)
    pms = []
    for combo in product(per, repeat=n):
        pm = combo[0]
        for f in combo[1:]:
            pm = np.outer(pm, f).ravel()
        pms.append(pm)
    return np.array(pms)


def _batch_grid_values(kernels: np.ndarray, pms: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Best grid value per vertex: max_g I(M;Y) at pm_g under K_v."""
    out = np.empty(kernels.shape[0])
    for lo in range(0, kernels.shape[0], chunk):
        out[lo : lo + chunk] = _kernel_rates(kernels[lo : lo + chunk], pms).max(axis=1)
    return out


def classical_capacity_exact(
    ch: MacChannel,
    cfg: OptimizerConfig | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CapacityResult:
    """Exact classical sum-capacity by enumerating deterministic encoders.

    Uses I(X;Y) = I(M;Y) for deterministic encoders, so each vertex only
    needs its Δ x Δ message-output kernel.  Vertices are prefiltered on a
    coarse grid, then the leading candidates get the full optimizer.
    """
    cfg = cfg or OptimizerConfig()
    game = ch.game
    count = vertex_count(game)
    if count > cap:
        raise EnumerationCapExceeded(
            f"{game.name} encoding scenario has {count} deterministic encoder "
            f"vertices, over the cap of {cap}; use classical_upper_bound instead"
        )
    n, d = game.n, game.d
    kernels = _vertex_kernels(ch)

    coarse_step = 0.25 if d == 2 else 0.2
    coarse = _batch_grid_values(kernels, _grid_pms(n, d, coarse_step))
    order = np.argsort(-coarse, kind="stable")
    threshold = coarse[order[0]] - 0.1
    candidates = [int(v) for v in order if coarse[v] >= threshold][:128]

    fine = _batch_grid_values(kernels[candidates], _grid_pms(n, d, cfg.step_for(d)))
    fine_order = np.argsort(-fine, kind="stable")
    finalists = [candidates[int(i)] for i in fine_order[:8]]

    best = None
    for vi in sorted(finalists):
        val, pi, diag = maximize_over_pi(_kernel_mi_objective(kernels[vi]), n, d, cfg)
        if best is None or val > best[0] + _VALUE_ROUNDING:
            best = (val, pi, vi, diag)
    val, pi, vi, diag = best
    diag = dict(diag, vertices=count, candidates=len(candidates))
    return CapacityResult(
        value=val,
        kind="exact",
        resource="L",
        argmax_pi=pi,
        argmax_encoder=f"vertex:{vi}",
        diagnostics=diag,
    )


def best_vertex_rate_at_pi(ch: MacChannel, pi: ProductDistribution, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Best deterministic-encoder sum rate at a fixed message distribution."""
    count = vertex_count(ch.game)
    if count > cap:
        raise EnumerationCapExceeded(f"{count} vertices over the cap of {cap}")
    return float(_kernel_rates(_vertex_kernels(ch), pi.joint()[None]).max())


# ---------------------------------------------------------------------------
# game values and bounds
# ---------------------------------------------------------------------------


def bruteforce_classical_game_value(
    game: NonlocalGame, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """Best uniform-question win probability over deterministic strategies.

    Returns (omega, strategies) with one optimal per-player answer map.
    """
    n, d, D = game.n, game.d, game.D
    count = (D**d) ** n
    if count > cap:
        raise EnumerationCapExceeded(
            f"{game.name} has {count} deterministic strategy tuples, over the cap of {cap}"
        )
    w = game.win_table().reshape((d,) * n + (D,) * n)
    per = np.array(list(product(range(D), repeat=d)))  # (S, d)
    # counts[s_1..s_n]: questions won when player k answers with per[s_k]
    counts = np.zeros((len(per),) * n, dtype=np.int64)
    for q in product(range(d), repeat=n):
        counts += w[q][np.ix_(*(per[:, q_k] for q_k in q))]
    idx = np.unravel_index(np.argmax(counts), counts.shape)
    return float(counts[idx]) / d**n, tuple(tuple(int(a) for a in per[i]) for i in idx)


def resource_dependent_bound(ch: MacChannel, max_omega: float) -> float:
    """max_pi { H(M) + (f_l - f_w) * max_omega } - f_l, in bits.

    max_omega is the resource's best win probability; H(M) peaks at the
    uniform distribution, so the bound is log2 Δ + (f_l - f_w) max_omega - f_l.
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
        pm = _joint(F)
        top = np.argsort(-pm, axis=-1, kind="stable")[:, :r_max]
        mask = np.zeros(pm.shape)
        np.put_along_axis(mask, top, 1.0, axis=-1)
        return mask

    def objective(F: np.ndarray):
        F = F.copy()
        n = F.shape[1]
        mask = top_set(F)
        h = entropy(F, axis=-1)  # (R, n)
        values = h.sum(axis=-1) + spread * (mask * _joint(F)).sum(axis=-1) - ch.f_l
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


def classical_upper_bound(
    ch: MacChannel,
    omega_star_local: float,
    cfg: OptimizerConfig | None = None,
) -> CapacityResult:
    """Subset-partition upper bound on the classical sum-capacity.

    r_max = round(omega_star_local * Δ) message tuples can at most land
    in the winning set under any deterministic encoder, so the win
    probability is bounded by the r_max largest message masses.  The
    maximum over pi comes from block-coordinate ascent, a local search:
    the value is the best bound found, not a certified global maximum.
    """
    if not 0.0 < omega_star_local <= 1.0:
        raise ValueError(f"omega_star_local must lie in (0, 1], got {omega_star_local}")
    r_max = round(omega_star_local * ch.delta)
    val, pi, diag = maximize_over_pi(
        _subset_bound_objective(ch, r_max), ch.game.n, ch.game.d, cfg
    )
    return CapacityResult(
        value=val,
        kind="upper-bound",
        resource="L",
        argmax_pi=pi,
        diagnostics=dict(diag, r_max=r_max),
    )


# ---------------------------------------------------------------------------
# pseudo-telepathy and quantum paths
# ---------------------------------------------------------------------------

PT_WIN_TOL = 1e-10
PT_UNIFORMITY_TOL = 1e-10
PT_CROSS_CHECK_TOL = 1e-9

_BOX_RESOURCE = {"pr": "NS", "tsirelson": "Q", "magic-square": "Q"}


def _box_resource(box: CorrelationBox) -> str:
    if box.name.startswith("mpp:"):
        return "Q"
    return _BOX_RESOURCE.get(box.name, "NS")


class PseudoTelepathyHypothesisError(ValueError):
    """The supplied box fails a hypothesis of the exact-capacity formula."""


def pseudo_telepathy_capacity(
    ch: MacChannel, box: CorrelationBox, resource: str | None = None
) -> CapacityResult:
    """Exact sum-capacity log2(Δ) - f_w for a perfect, output-uniform box.

    Verifies both hypotheses (win probability 1 on every question tuple,
    output marginals uniform over their support) and cross-checks the
    closed form against the direct sum rate at uniform messages.
    """
    game = ch.game
    wins = box_win_probabilities(box, game)
    worst = float(np.abs(wins - 1.0).max())
    if worst > PT_WIN_TOL:
        raise PseudoTelepathyHypothesisError(
            f"box {box.name!r} does not win {game.name} on every question tuple "
            f"(max deviation {worst})"
        )
    uni_err = support_marginal_uniformity_error(box)
    if uni_err > PT_UNIFORMITY_TOL:
        raise PseudoTelepathyHypothesisError(
            f"box {box.name!r} output marginals deviate from uniform-over-support "
            f"by {uni_err}"
        )
    value = float(np.log2(ch.delta)) - ch.f_w
    pi = ProductDistribution.uniform(game.n, game.d)
    direct = sum_rate(pi, e_star(box), ch)
    if abs(direct - value) > PT_CROSS_CHECK_TOL:
        raise PseudoTelepathyHypothesisError(
            f"closed form {value} disagrees with direct sum rate {direct}"
        )
    return CapacityResult(
        value=value,
        kind="exact",
        resource=resource or _box_resource(box),
        argmax_pi=pi,
        argmax_encoder=f"e*({box.name})",
        diagnostics={"direct_sum_rate": direct, "win_deviation": worst},
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


def vertex_file_bound(
    ch: MacChannel,
    vertex_csv_path,
    cfg: OptimizerConfig | None = None,
    resource: str = "file",
) -> CapacityResult:
    """Max sum rate over user-supplied correlation-box vertices via E*.

    Every box must match the channel's scenario and be no-signaling
    within NO_SIGNALING_TOL.  Each box's rate is a local-search maximum
    over pi.
    """
    boxes = boxes_from_csv(vertex_csv_path)
    game = ch.game
    best = None
    for i, box in enumerate(boxes):
        if (box.n, box.d, box.D) != (game.n, game.d, game.D):
            raise ValueError(
                f"vertex {i} has scenario ({box.n},{box.d},{box.D}), channel "
                f"needs ({game.n},{game.d},{game.D})"
            )
        signaling = box.no_signaling_error()
        if signaling > NO_SIGNALING_TOL:
            raise ValueError(
                f"vertex {i} signals: no-signaling error {signaling:.3g} exceeds {NO_SIGNALING_TOL:g}"
            )
        enc = e_star(box)
        val, pi, diag = maximize_over_pi(sum_rate_objective(enc, ch), game.n, game.d, cfg)
        if best is None or val > best[0] + _VALUE_ROUNDING:
            best = (val, pi, i, diag)
    val, pi, i, diag = best
    return CapacityResult(
        value=val,
        kind="upper-bound",
        resource=resource,
        argmax_pi=pi,
        argmax_encoder=f"vertex-file:{i}",
        diagnostics=dict(diag, boxes=len(boxes)),
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

# large enough that the clamped branch entropy is strictly inside (0, log2 delta)
# in double precision; f(delta, eta) differs from log2(delta) only at order eta^2
_ETA_CLAMP = 1e-6


def pseudo_telepathy_box(game: NonlocalGame) -> CorrelationBox:
    """The built-in perfect box for a game, if one exists."""
    if game.name == "chsh":
        return pr_box()
    if game.name == "magic-square":
        return magic_square_box()
    if game.name.startswith("mpp:"):
        return mpp_box(game.n)
    raise ValueError(f"no built-in pseudo-telepathy box for {game.name}")


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


def sweep(
    game: NonlocalGame,
    channel_type: int,
    etas,
    resources: list[str],
    cfg: OptimizerConfig | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[SweepRow]:
    """Capacity table over an η grid; one row per (η, resource)."""
    cfg = cfg or OptimizerConfig()
    rows: list[SweepRow] = []
    omega_star: float | None = None
    pt_box: CorrelationBox | None = None
    for eta in etas:
        ch = channel_for(game, channel_type, float(eta))
        for res in resources:
            if res == "L-exact":
                r = classical_capacity_exact(ch, cfg, cap=cap)
                diag = r.argmax_encoder or ""
            elif res == "L-bound":
                if omega_star is None:
                    omega_star, _ = bruteforce_classical_game_value(game, cap=cap)
                r = classical_upper_bound(ch, omega_star, cfg)
                diag = f"omega*={omega_star:.10g}"
            elif res == "Q-lower":
                r = quantum_lower_bound_chsh(ch, cfg)
                diag = r.argmax_encoder or ""
            elif res in ("Q-exact", "NS-exact"):
                if pt_box is None:
                    pt_box = pseudo_telepathy_box(game)
                if res == "Q-exact" and _box_resource(pt_box) != "Q":
                    raise ValueError(
                        f"{game.name} has no built-in quantum pseudo-telepathy box"
                    )
                label = "Q" if res == "Q-exact" else "NS"
                r = pseudo_telepathy_capacity(ch, pt_box, resource=label)
                diag = r.argmax_encoder or ""
            elif res.startswith("vertex-file:"):
                path = res.split(":", 1)[1]
                r = vertex_file_bound(ch, path, cfg)
                diag = r.argmax_encoder or ""
            else:
                raise ValueError(f"unknown resource {res!r}")
            rows.append(
                SweepRow(eta=float(eta), resource=res, kind=r.kind, value=r.value, diagnostic=diag)
            )
    return rows
