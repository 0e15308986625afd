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
from .games import NonlocalGame, chsh_game, local_map_indices, magic_square_game, mpp_game
from .infotheory import (
    ProductDistribution,
    compose,
    conditional_mutual_information,
    mutual_information,
    prop3_rate,
)

IDENTITY_TOL = 1e-10
CEILING_TOL = 1e-9
PT_TOL = 1e-10


def random_product_distribution(game: NonlocalGame, rng: np.random.Generator) -> ProductDistribution:
    return ProductDistribution.random(game.n, game.d, rng)


def random_vertex_encoder(game: NonlocalGame, rng: np.random.Generator) -> Encoder:
    """A uniformly random deterministic encoder vertex."""
    n, d, D = game.n, game.d, game.D
    maps = [rng.integers(0, d * D, size=d) for _ in range(n)]
    cols = local_map_indices(maps, d * D)[:, None]
    return Encoder(n, d, D, cols, np.ones(cols.shape), deterministic=True, name="random-vertex")


def random_mixture_encoder(
    game: NonlocalGame, rng: np.random.Generator, box_encoder: Encoder, components: int = 4
) -> Encoder:
    """Mixture of deterministic vertices, sometimes blended with
    box_encoder, the E* encoder of the game's perfect box.  Markov
    structure holds by construction.  The parts' supports are joined in
    part order, so the dense table adds them in that order."""
    parts = [random_vertex_encoder(game, rng) for _ in range(components)]
    if rng.random() < 0.3:
        parts.append(box_encoder)
    weights = rng.dirichlet(np.ones(len(parts)))
    cols = np.concatenate([p.cols for p in parts], axis=1)
    probs = np.concatenate([w * p.probs for w, p in zip(weights, parts)], axis=1)
    return Encoder(game.n, game.d, game.D, cols, probs, name="random-mixture")


def random_channel(game: NonlocalGame, rng: np.random.Generator) -> MacChannel:
    eta_l = rng.uniform(0.0, 0.7)
    eta_w = rng.uniform(eta_l + 0.1, 1.0)
    return depolarizing_mac(game, eta_w, eta_l)


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
    special case is exercised alongside the general one.
    """
    rng = np.random.default_rng(seed)
    box_encoder = e_star(capacity.pseudo_telepathy_box(game))
    r1 = r2 = r3 = r4 = -np.inf
    for i in range(count):
        pi = random_product_distribution(game, rng)
        deterministic = i % 3 == 0
        enc = (
            random_vertex_encoder(game, rng)
            if deterministic
            else random_mixture_encoder(game, rng, box_encoder)
        )
        ch = random_channel(game, rng)
        joint = compose(pi, enc, ch)
        i_xy = mutual_information(joint, (1,), (2,))
        i_my = mutual_information(joint, (0,), (2,))
        i_xy_m = conditional_mutual_information(joint, (1,), (2,), (0,))
        r1 = max(r1, abs(i_xy - i_my - i_xy_m))
        if deterministic:
            r2 = max(r2, abs(i_my - i_xy))
        r3 = max(r3, abs(prop3_rate(pi, enc, ch) - i_xy))
        ceiling = np.log2(ch.delta) - ch.f_w
        r4 = max(r4, i_my - ceiling, i_xy - ceiling)
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
