"""Randomized self-checks for the information-flow identities and the
pseudo-telepathy hypotheses.  Used by the CLI `verify` command and the
acceptance tests."""

from __future__ import annotations

import random

import numpy as np

from . import capacity
from .capacity import PT_TOL
from .channels import (
    MacChannel,
    check_branch_order,
    depolarizing_mac,
    depolarizing_profiles,
    echo_rows,
    input_slots,
)
from .correlations import (
    CorrelationBox,
    Encoder,
    box_win_probabilities,
    check_encoder_support,
    e_star,
    support_marginal_uniformity_error,
    validate_box,
)
from .games import (
    NonlocalGame,
    ReadOnly,
    chsh_game,
    local_map_indices,
    magic_square_game,
    mpp_game,
)
from .infotheory import ProductDistribution, entropy, product_joint

IDENTITY_TOL = 1e-10
CEILING_TOL = 1e-9


# Vertex parts of a mixture encoder; a mixture may also hold the box's E*.
_MIXTURE_VERTICES = 4

# Most joint-row elements, triples x M x support width x Y, that one chunk
# of proposition_residuals builds; a single triple may exceed it.
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
    """Depolarizing MAC with eta_l in [0, 0.7) and eta_w in [eta_l + 0.1, 1).
    rng.uniform(lo, 1) can round up to 1 near its top draw, so eta_w is
    capped at the float below 1, as capacity._Draws.uniform caps its draws."""
    eta_l = rng.uniform(0.0, 0.7)
    eta_w = min(rng.uniform(eta_l + 0.1, 1.0), np.nextafter(1.0, 0.0))
    return depolarizing_mac(game, eta_w, eta_l)


class _Triples(ReadOnly):
    """Seeded (pi, encoder, channel) triples of one game, held as arrays;
    box_encoder is the E* encoder a mixture may hold as its last part."""

    def __init__(
        self,
        game: NonlocalGame,
        box_encoder: Encoder,
        factors: np.ndarray,  # (count, n, d): pi's factors
        vertex_cols: np.ndarray,  # (count, 4, d^n): each vertex part's channel input per message
        weights: np.ndarray,  # (count, 5): part weights, the box part last; 0 past `parts`
        parts: np.ndarray,  # (count,): 1 (one vertex), 4 (mixture) or 5 (mixture with the box)
        etas: np.ndarray,  # (count, 2): (eta_w, eta_l)
    ):
        vars(self).update(
            game=game, box_encoder=box_encoder, factors=factors, vertex_cols=vertex_cols,
            weights=weights, parts=parts, etas=etas,
        )


def _draw_triples(
    game: NonlocalGame, rng: random.Random, count: int, box_encoder: Encoder
) -> _Triples:
    """The triples of proposition_residuals: triple i uses one vertex when
    i % 3 == 0 and otherwise a mixture of four vertices, which holds the
    box encoder as a fifth part with probability 0.3.  Every array is read
    from one block of draws (see capacity._Draws), one rng call for all
    triples, so the number of calls does not depend on count; the public
    random_* helpers draw independently, from a numpy Generator."""
    n, d, dD = game.n, game.d, game.d * game.D
    parts_max = _MIXTURE_VERTICES + 1
    # per triple: n d factor entries, 4 n d map entries, a box coin, 5 weights, 2 etas
    per_triple = (1 + _MIXTURE_VERTICES) * n * d + 1 + parts_max + 2
    draws = capacity._Draws.seeded(rng, count * per_triple)
    factors = draws.dirichlet((count, n, d))
    maps = draws.integers(dD, (count, _MIXTURE_VERTICES, n, d))
    with_box = draws.uniform(count) < 0.3
    parts = np.where(np.arange(count) % 3 == 0, 1, _MIXTURE_VERTICES + with_box)
    # Dirichlet(1) over each triple's parts: normalised exponentials
    weights = draws.exponential((count, parts_max))
    weights *= np.arange(parts_max) < parts[:, None]
    weights /= weights.sum(axis=1, keepdims=True)
    eta_l = draws.uniform(count, 0.0, 0.7)
    etas = np.stack([draws.uniform(count, eta_l + 0.1, 1.0), eta_l], axis=1)
    vertex_cols = local_map_indices(maps, dD)
    return _Triples(game, box_encoder, factors, vertex_cols, weights, parts, etas)


def _triple_quantities(triples: _Triples) -> np.ndarray:
    """Rows I(X;Y), I(M;Y), I(X;Y|M), the Prop-3 rate and the ceiling
    log(delta) - f_w, one column per triple.

    The message laws, the depolarizing profiles and their entropies
    f_l, f_w are built once for all triples, O(count * Delta) like the
    triples themselves, and f_w < f_l is checked on all of them before
    any chunk.  Consecutive triples then form a chunk, evaluated on their
    encoders' supports (see _chunk_quantities).  A triple's support is
    its four vertex parts plus the box part, at most `width` inputs per
    message, so its joint rows hold at most M * width * Y elements; a
    chunk has as many triples as fit _CHUNK_ELEMENTS, and at least one.
    """
    game = triples.game
    M = Y = game.d**game.n
    box = _box_support(triples.box_encoder)
    width = _MIXTURE_VERTICES + box[0].shape[1]
    step = max(1, _CHUNK_ELEMENTS // (M * width * Y))
    messages = product_joint(triples.factors)
    profiles = depolarizing_profiles(M, *triples.etas.T)
    f_l, f_w = entropy(profiles, axis=2)
    check_branch_order(f_w, f_l)
    count = triples.parts.size
    out = np.empty((5, count))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        out[:, lo:hi] = _chunk_quantities(
            triples, range(lo, hi), box, messages[lo:hi], profiles[:, lo:hi]
        )
    h_y, omega = out[3:]
    out[3:] = h_y - f_l + omega * (f_l - f_w), np.log2(M) - f_w
    return out


def _box_support(box_encoder: Encoder) -> tuple[np.ndarray, np.ndarray]:
    """The box encoder's (cols, probs) with each row's zero entries
    dropped, in support order, padded with zero weights to the widest row."""
    zero = box_encoder.probs == 0
    width = (~zero).sum(axis=1).max()
    order = np.argsort(zero, axis=1, kind="stable")[:, :width]
    return tuple(np.take_along_axis(a, order, 1) for a in (box_encoder.cols, box_encoder.probs))


def _merged_support(triples: _Triples, chunk: range, box, inputs: int):
    """The encoder supports of the triples in `chunk`, each repeated
    (triple, m, x) entry merged: (tm, x, P(x|m)) with tm = (i - chunk.start)
    * M + m for triple i, one entry per (triple, m, x) with mass, sorted.
    Entries add in support order, the vertex parts then the box part, as
    Encoder.table adds them; Encoder's checks apply to the stacked rows."""
    B, (M, k) = len(chunk), box[0].shape
    part = slice(chunk.start, chunk.stop)
    weights = triples.weights[part]
    cols = np.concatenate(
        [triples.vertex_cols[part].transpose(0, 2, 1), np.broadcast_to(box[0], (B, M, k))], axis=2
    )
    probs = np.concatenate(
        [
            np.broadcast_to(weights[:, None, :_MIXTURE_VERTICES], (B, M, _MIXTURE_VERTICES)),
            weights[:, _MIXTURE_VERTICES, None, None] * box[1],
        ],
        axis=2,
    )
    check_encoder_support(cols, probs, inputs)
    mass = probs != 0
    keys = (np.arange(B * M).reshape(B, M, 1) * inputs + cols)[mass]
    keys, merged = np.unique(keys, return_inverse=True)
    return *np.divmod(keys, inputs), np.bincount(merged, probs[mass])


def _chunk_quantities(triples: _Triples, chunk: range, box, messages, profiles):
    """Rows I(X;Y), I(M;Y), I(X;Y|M), H(Y) and the win probability omega
    for the triples in `chunk`, given their message laws (B, M) and their
    channels' depolarizing profiles (2, B, Y), whose echo rows give P(y|x).

    The joint p(m) P(x|m) P(y|x) is held as one row over y per (triple,
    m, x) with mass, and every entropy is that of a marginal summed from
    these rows by triple.  No entropy uses the Markov chain M -> X -> Y:
    that is what is checked."""
    slots = input_slots(triples.game)
    B, X = len(chunk), slots.size
    M = Y = box[0].shape[0]
    tm, x, p_x_given_m = _merged_support(triples, chunk, box, X)
    t = tm // M
    win, question = np.divmod(slots[x], M)
    weight = messages.ravel()[tm] * p_x_given_m
    joint = weight[:, None] * echo_rows(profiles)[win, t, question]

    def summed(groups, size):
        """Rows of the joint added by group: one row over y per group."""
        flat = (groups[:, None] * Y + np.arange(Y)).ravel()
        return np.bincount(flat, joint.ravel(), minlength=size * Y).reshape(size, Y)

    def by_triple(groups, rows):
        """Entropies of rows, one row per group, added by triple."""
        return np.bincount(groups, entropy(rows, axis=1), minlength=B)

    tx, by_tx = np.unique(t * X + x, return_inverse=True)
    t_tx = tx // X
    p_my, p_xy = summed(tm, B * M).reshape(B, M, Y), summed(by_tx, tx.size)
    p_mx, p_x = joint.sum(axis=1), p_xy.sum(axis=1)
    p_m, p_y = p_my.sum(axis=2), p_my.sum(axis=1)
    h_m, h_y, h_my = entropy(p_m, axis=1), entropy(p_y, axis=1), entropy(p_my, axis=(1, 2))
    h_x, h_xy = by_triple(t_tx, p_x[:, None]), by_triple(t_tx, p_xy)
    h_mx, h_mxy = by_triple(t, p_mx[:, None]), by_triple(t, joint)
    omega = np.bincount(t_tx, p_x * (slots[tx % X] >= M), minlength=B)
    return h_x + h_y - h_xy, h_m + h_y - h_my, h_mx + h_my - h_mxy - h_m, h_y, omega


class Check:
    def __init__(self, name: str, residual: float, tolerance: float):
        self.name = name
        self.residual = residual
        self.tolerance = tolerance

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
    box_encoder = e_star(capacity.pseudo_telepathy_box(game))
    triples = _draw_triples(game, random.Random(seed), count, box_encoder)
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
    """Max |H(Y|X=x) - f_branch| over the rows of the channel's dense matrix."""
    ent = entropy(ch.matrix, axis=1)
    return float(np.abs(ent - np.where(input_slots(ch.game) >= ch.delta, ch.f_w, ch.f_l)).max())


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
