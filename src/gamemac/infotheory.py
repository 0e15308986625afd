"""Exact finite-alphabet Shannon quantities and the M -> X -> Y composition.

All logarithms are base 2 with the 0·log0 := 0 convention.  Joints are
dense numpy arrays; the composed joint p(m, x, y) has axes (M, X, Y)
with the flattened tuple indices used throughout the package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .games import NonlocalGame, ReadOnly, input_win_mask

if TYPE_CHECKING:  # channels imports entropy from here
    from .channels import MacChannel
    from .correlations import Encoder

_SIMPLEX_TOL = 1e-12


class ProductDistribution(ReadOnly):
    """Per-sender message distributions; the joint is their outer product."""

    def __init__(self, factors: tuple[np.ndarray, ...]):
        cleaned = []
        for f in factors:
            f = np.asarray(f, dtype=float)
            if not (f.min() >= -_SIMPLEX_TOL and abs(f.sum() - 1.0) <= _SIMPLEX_TOL):
                raise ValueError(f"factor {f} is not on the simplex")
            f.setflags(write=False)
            cleaned.append(f)
        vars(self).update(factors=tuple(cleaned))

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def d(self) -> int:
        return self.factors[0].size

    def joint(self) -> np.ndarray:
        """Flattened joint message distribution of length d^n."""
        return product_joint(np.array(self.factors)[None])[0]

    @staticmethod
    def uniform(n: int, d: int) -> "ProductDistribution":
        return ProductDistribution(tuple(np.full(d, 1.0 / d) for _ in range(n)))


def product_joint(factors: np.ndarray) -> np.ndarray:
    """Joint message distributions (R, d^n) of a batch of product factors
    (R, n, d), flattened big-endian with player 1 as the high-order digit.
    The batch length is read once, so each sender costs one product."""
    R, n, _ = factors.shape
    out = factors[:, 0]
    for k in range(1, n):
        out = (out[:, :, None] * factors[:, k, None, :]).reshape(R, -1)
    return out


def entropy(dist: np.ndarray, axis=None):
    """Shannon entropy in bits.

    With axis=None the whole array is one distribution and a float is
    returned; otherwise `axis` (an int or a tuple) holds the outcomes and
    an array of entropies, one per remaining index, is returned.
    Nonpositive and NaN entries contribute nothing.

    p log p is formed in place, without compacting the support: entries
    off it are read as 1 (1 log 1 is exactly 0), and the products land in a
    C-ordered array, so each sum adds the same values in the same order as
    a zero array holding the support's products.
    """
    p = np.asarray(dist, dtype=float)
    q = np.where(p > 0, p, 1.0)
    plogp = np.log2(q, out=np.empty(p.shape))
    plogp *= q
    h = -plogp.sum(axis=axis)
    return float(h) if axis is None else h


def _marginal(joint: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    drop = tuple(ax for ax in range(joint.ndim) if ax not in keep)
    return joint.sum(axis=drop) if drop else joint


def mutual_information(joint: np.ndarray, axes_a, axes_b) -> float:
    """I(A;B) between two disjoint axis groups of a joint array."""
    axes_a = tuple(axes_a)
    axes_b = tuple(axes_b)
    pa = _marginal(joint, axes_a)
    pb = _marginal(joint, axes_b)
    pab = _marginal(joint, axes_a + axes_b)
    return entropy(pa) + entropy(pb) - entropy(pab)


def conditional_mutual_information(joint: np.ndarray, axes_a, axes_b, axes_c) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)."""
    axes_a = tuple(axes_a)
    axes_b = tuple(axes_b)
    axes_c = tuple(axes_c)
    return (
        entropy(_marginal(joint, axes_a + axes_c))
        + entropy(_marginal(joint, axes_b + axes_c))
        - entropy(_marginal(joint, axes_a + axes_b + axes_c))
        - entropy(_marginal(joint, axes_c))
    )


def _check_dims(enc: Encoder, ch: MacChannel) -> None:
    g = ch.game
    if (enc.n, enc.d, enc.D) != (g.n, g.d, g.D):
        raise ValueError(
            f"encoder scenario ({enc.n},{enc.d},{enc.D}) does not match "
            f"channel game ({g.n},{g.d},{g.D})"
        )


def compose(pi: ProductDistribution, enc: Encoder, ch: MacChannel) -> np.ndarray:
    """Joint p(m, x, y) = pi(m) * enc(x|m) * ch(y|x), axes (M, X, Y)."""
    _check_dims(enc, ch)
    pm = pi.joint()
    if pm.size != enc.table.shape[0]:
        raise ValueError(f"message alphabet {pm.size} does not match encoder")
    return pm[:, None, None] * enc.table[:, :, None] * ch.matrix[None, :, :]


def message_output_kernel(enc: Encoder, ch: MacChannel) -> np.ndarray:
    """P(y | m) with the x axis summed out; the fast path for sum rates."""
    _check_dims(enc, ch)
    return ch.kernel(enc.cols, enc.probs)


def sum_rate(pi: ProductDistribution, enc: Encoder, ch: MacChannel) -> float:
    """I(M;Y) under identity decoding."""
    kernel = message_output_kernel(enc, ch)
    joint = pi.joint()[:, None] * kernel
    return mutual_information(joint, (0,), (1,))


def input_distribution(pi: ProductDistribution, enc: Encoder) -> np.ndarray:
    """p(x) induced by the message distribution through the encoder."""
    return pi.joint() @ enc.table


def win_probability(pi: ProductDistribution, enc: Encoder, game: NonlocalGame) -> float:
    """Probability that the channel input lands in the winning set."""
    px = input_distribution(pi, enc)
    return float(px[input_win_mask(game)].sum())


def prop3_rate(pi: ProductDistribution, enc: Encoder, ch: MacChannel) -> float:
    """H(Y) - f_l + omega * (f_l - f_w); equals I(X;Y) for two-branch MACs."""
    _check_dims(enc, ch)
    px = input_distribution(pi, enc)
    py = px @ ch.matrix
    omega = float(px[input_win_mask(ch.game)].sum())
    return entropy(py) - ch.f_l + omega * (ch.f_l - ch.f_w)
