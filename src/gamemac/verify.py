"""Randomized self-checks for the information-flow identities and the
pseudo-telepathy hypotheses.  Used by the CLI `verify` command and the
acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import capacity
from .channels import MacChannel, depolarizing_mac
from .correlations import (
    CorrelationBox,
    Encoder,
    box_win_probabilities,
    e_star,
    support_marginal_uniformity_error,
    validate_box,
)
from .games import (
    NonlocalGame,
    chsh_game,
    input_win_mask,
    local_map_indices,
    magic_square_game,
    mpp_game,
)
from .infotheory import ProductDistribution, entropy, product_joint

IDENTITY_TOL = 1e-10
CEILING_TOL = 1e-9
PT_TOL = 1e-10


# Vertex parts of a mixture encoder; a mixture may also hold the box's E*.
_MIXTURE_VERTICES = 4

# Most elements of the stacked (triple, M, X, Y) joint that one chunk of
# proposition_residuals builds; a single triple may exceed it.
_CHUNK_ELEMENTS = 2**15


def _mixture(
    game: NonlocalGame,
    vertex_cols: np.ndarray,
    weights: np.ndarray,
    box_encoder: Encoder | None,
) -> Encoder:
    """Encoder of the vertices with channel inputs vertex_cols (k, d^n),
    weighted by weights[:k], plus box_encoder weighted by weights[k] when
    weights has k + 1 entries.  The parts' supports are joined in part
    order, so the dense table adds them in that order.  One weight names
    the encoder a vertex, more a mixture."""
    k = len(vertex_cols)
    cols = [vertex_cols.T]
    probs = [np.broadcast_to(weights[:k], cols[0].shape)]
    if len(weights) > k:
        cols.append(box_encoder.cols)
        probs.append(weights[k] * box_encoder.probs)
    return Encoder(
        game.n, game.d, game.D, np.concatenate(cols, axis=1), np.concatenate(probs, axis=1),
        name="random-vertex" if len(weights) == 1 else "random-mixture",
    )


def random_product_distribution(game: NonlocalGame, rng: np.random.Generator) -> ProductDistribution:
    """Factors drawn from Dirichlet(1), one per sender."""
    return ProductDistribution(tuple(rng.dirichlet(np.ones(game.d), size=game.n)))


def random_vertex_encoder(game: NonlocalGame, rng: np.random.Generator) -> Encoder:
    """A uniformly random deterministic encoder vertex."""
    dD = game.d * game.D
    cols = local_map_indices(rng.integers(0, dD, size=(1, game.n, game.d)), dD)
    return _mixture(game, cols, np.ones(1), None)


def random_mixture_encoder(
    game: NonlocalGame, rng: np.random.Generator, box_encoder: Encoder
) -> Encoder:
    """Mixture of _MIXTURE_VERTICES deterministic vertices, with
    probability 0.3 blended with box_encoder, the E* encoder of the game's
    perfect box.  Markov structure holds by construction."""
    dD = game.d * game.D
    cols = local_map_indices(rng.integers(0, dD, size=(_MIXTURE_VERTICES, game.n, game.d)), dD)
    weights = rng.dirichlet(np.ones(_MIXTURE_VERTICES + (rng.random() < 0.3)))
    return _mixture(game, cols, weights, box_encoder)


def random_channel(game: NonlocalGame, rng: np.random.Generator) -> MacChannel:
    """Depolarizing MAC with eta_l in [0, 0.7) and eta_w in [eta_l + 0.1, 1)."""
    eta_l = rng.uniform(0.0, 0.7)
    return depolarizing_mac(game, rng.uniform(eta_l + 0.1, 1.0), eta_l)


@dataclass(frozen=True)
class _Triples:
    """Seeded (pi, encoder, channel) triples of one game, held as arrays;
    box_encoder is the E* encoder a mixture may hold as its last part."""

    game: NonlocalGame
    box_encoder: Encoder
    factors: np.ndarray  # (count, n, d): pi's factors
    vertex_cols: np.ndarray  # (count, 4, d^n): each vertex part's channel input per message
    weights: np.ndarray  # (count, 5): part weights, the box part last; 0 past `parts`
    parts: np.ndarray  # (count,): 1 (one vertex), 4 (mixture) or 5 (mixture with the box)
    etas: np.ndarray  # (count, 2): (eta_w, eta_l)

    def encoder(self, i: int) -> Encoder:
        p = int(self.parts[i])
        vertices = self.vertex_cols[i, : min(p, _MIXTURE_VERTICES)]
        return _mixture(self.game, vertices, self.weights[i, :p], self.box_encoder)

    def channel(self, i: int) -> MacChannel:
        return depolarizing_mac(self.game, *self.etas[i].tolist())


def _draw_triples(
    game: NonlocalGame, rng: np.random.Generator, count: int, box_encoder: Encoder
) -> _Triples:
    """The triples of proposition_residuals: triple i uses one vertex when
    i % 3 == 0 and otherwise a mixture of four vertices, which holds the
    box encoder as a fifth part with probability 0.3.  Each array is one
    generator call for all triples, so the number of calls does not
    depend on count; the public random_* helpers draw independently."""
    n, d, dD = game.n, game.d, game.d * game.D
    factors = rng.dirichlet(np.ones(d), size=(count, n))
    maps = rng.integers(0, dD, size=(count, _MIXTURE_VERTICES, n, d))
    with_box = rng.random(count) < 0.3
    parts = np.where(np.arange(count) % 3 == 0, 1, _MIXTURE_VERTICES + with_box)
    # Dirichlet(1) over each triple's parts: normalised exponentials
    weights = rng.standard_exponential((count, _MIXTURE_VERTICES + 1))
    weights *= np.arange(_MIXTURE_VERTICES + 1) < parts[:, None]
    weights /= weights.sum(axis=1, keepdims=True)
    eta_l = rng.uniform(0.0, 0.7, count)
    etas = np.stack([rng.uniform(eta_l + 0.1, 1.0), eta_l], axis=1)
    vertex_cols = local_map_indices(maps, dD)
    return _Triples(game, box_encoder, factors, vertex_cols, weights, parts, etas)


def _triple_quantities(triples: _Triples) -> np.ndarray:
    """Rows I(X;Y), I(M;Y), I(X;Y|M), the Prop-3 rate and the ceiling
    log(delta) - f_w, one column per triple.

    Consecutive triples form a chunk; their joints p(m) P(x|m) P(y|x) are
    stacked into one (B, M, X, Y) array, and every entropy is that of a
    marginal of it.  A chunk keeps only the inputs x that carry mass in
    one of its triples, which is exact since 0 log 0 = 0.  Triple i puts
    mass on at most widths[i] inputs, so a chunk's array holds at most
    B * M * Y * min(X, sum of its widths) elements; each chunk is the
    longest run of triples whose bound fits _CHUNK_ELEMENTS.
    """
    game = triples.game
    M = Y = game.d**game.n
    X = (game.d * game.D) ** game.n
    parts = triples.parts
    widths = M * np.minimum(parts, _MIXTURE_VERTICES) + np.where(
        parts > _MIXTURE_VERTICES, np.count_nonzero(triples.box_encoder.probs), 0
    )
    win = input_win_mask(game)
    out = np.empty((5, parts.size))
    lo = 0
    while lo < parts.size:
        inputs = np.minimum(X, np.cumsum(widths[lo : lo + _CHUNK_ELEMENTS // (M * Y) + 1]))
        sizes = np.arange(1, inputs.size + 1) * inputs * (M * Y)
        hi = lo + max(1, int(np.searchsorted(sizes, _CHUNK_ELEMENTS, side="right")))
        out[:, lo:hi] = _chunk_quantities(triples, range(lo, hi), win)
        lo = hi
    return out


def _chunk_quantities(triples: _Triples, chunk: range, win: np.ndarray):
    """The rows of _triple_quantities for the triples in `chunk`.  No
    entropy uses the Markov chain M -> X -> Y: that is what is checked."""
    tables = np.stack([triples.encoder(i).table for i in chunk])
    channels = [triples.channel(i) for i in chunk]
    kept = np.flatnonzero(tables.any(axis=(0, 1)))
    messages = product_joint(triples.factors[chunk.start : chunk.stop])
    pyx = np.stack([ch.matrix[kept] for ch in channels])
    joint = messages[:, :, None, None] * tables[:, :, kept, None] * pyx[:, None]
    pmx, pmy, pxy = joint.sum(axis=3), joint.sum(axis=2), joint.sum(axis=1)
    pm, px, py = pmx.sum(axis=2), pxy.sum(axis=2), pxy.sum(axis=1)
    h_m, h_x, h_y = (entropy(p, axis=1) for p in (pm, px, py))
    h_mx, h_my, h_xy = (entropy(p, axis=(1, 2)) for p in (pmx, pmy, pxy))
    h_mxy = entropy(joint, axis=(1, 2, 3))
    f_w = np.array([ch.f_w for ch in channels])
    f_l = np.array([ch.f_l for ch in channels])
    omega = px[:, win[kept]].sum(axis=1)
    return (
        h_x + h_y - h_xy,
        h_m + h_y - h_my,
        h_mx + h_my - h_mxy - h_m,
        h_y - f_l + omega * (f_l - f_w),
        np.log2(channels[0].delta) - f_w,
    )


@dataclass
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def proposition_residuals(
    game: NonlocalGame, seed: int, count: int
) -> list[Check]:
    """Max residuals of the chain identities over seeded random triples.

    Every third triple uses a deterministic encoder so the deterministic
    special case is exercised alongside the general one.  All triples are
    drawn first, then evaluated in chunks (see _triple_quantities).
    Raises ValueError unless count >= 1 and seed >= 0.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    triples = _draw_triples(game, rng, count, e_star(capacity.pseudo_telepathy_box(game)))
    i_xy, i_my, i_xy_m, rate, ceiling = _triple_quantities(triples)

    def worst(values):
        return float(np.max(values, initial=-np.inf))

    r1 = worst(abs(i_xy - i_my - i_xy_m))
    r2 = worst(abs(i_my - i_xy)[triples.parts == 1])
    r3 = worst(abs(rate - i_xy))
    r4 = worst(np.maximum(i_my, i_xy) - ceiling)
    return [
        Check(f"{game.name}: I(X;Y) = I(M;Y) + I(X;Y|M)", r1, IDENTITY_TOL),
        Check(f"{game.name}: deterministic I(M;Y) = I(X;Y)", r2, IDENTITY_TOL),
        Check(f"{game.name}: I(X;Y) = H(Y) - f_l + w(f_l - f_w)", r3, IDENTITY_TOL),
        Check(f"{game.name}: rates <= log(delta) - f_w", max(r4, 0.0), CEILING_TOL),
    ]


def pseudo_telepathy_checks(game: NonlocalGame, box: CorrelationBox) -> list[Check]:
    """Hypothesis checks for the exact-capacity formula plus box validity."""
    report = validate_box(box)
    wins = box_win_probabilities(box, game)
    ch = depolarizing_mac(game, 1.0, 0.0)
    return [
        Check(f"{box.name}: wins every question tuple", float(np.abs(wins - 1.0).max()), PT_TOL),
        Check(f"{box.name}: normalization", report.normalization_error, 1e-12),
        Check(f"{box.name}: no-signaling", report.no_signaling_error, PT_TOL),
        Check(
            f"{box.name}: uniform outputs over support",
            support_marginal_uniformity_error(box),
            PT_TOL,
        ),
        Check(
            f"{game.name}: constant branch noise",
            constant_noise_residual(ch),
            1e-12,
        ),
    ]


def constant_noise_residual(ch: MacChannel) -> float:
    """Max |H(Y|X=x) - f_branch| over the channel's rows."""
    return ch.branch_entropy_error()


def run_verification(seed: int = 0, count: int = 1000) -> list[Check]:
    """The full suite: proposition identities on random triples per game,
    plus the pseudo-telepathy hypothesis checks for all built-in boxes."""
    checks: list[Check] = []
    games = [chsh_game(), magic_square_game(), mpp_game(3)]
    for game in games:
        checks.extend(proposition_residuals(game, seed, count))
    for game in games:
        checks.extend(pseudo_telepathy_checks(game, capacity.pseudo_telepathy_box(game)))
    return checks


def format_report(checks: list[Check]) -> str:
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name}: residual {c.residual:.3e} (tol {c.tolerance:.1e})")
    failed = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"
