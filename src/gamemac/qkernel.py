"""Minimal complex linear algebra for small state-vector protocols.

States are dense complex vectors of length 2^q with qubit 0 as the
most significant bit (player 1 owns the high-order qubits).  Everything
is a pure function over numpy arrays; no mutation.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

_NORM_TOL = 1e-12
_UNITARY_TOL = 1e-10

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def state_vector(amplitudes) -> np.ndarray:
    """Validate and return a normalized state vector."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"state norm {norm} deviates from 1 by more than {_NORM_TOL}")
    return v


def unitary(matrix) -> np.ndarray:
    """Validate U U† = I and return the matrix; never renormalizes."""
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    err = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    if not err <= _UNITARY_TOL:
        raise ValueError(f"matrix fails unitarity check: max |UU† - I| = {err}")
    return u


def tensor(*factors) -> np.ndarray:
    """Kronecker product; the first factor supplies the high-order indices."""
    return reduce(np.kron, (np.asarray(f, dtype=complex) for f in factors))


def num_qubits(state: np.ndarray) -> int:
    q = int(np.log2(state.size))
    if 2**q != state.size:
        raise ValueError(f"state length {state.size} is not a power of two")
    return q


def apply_local_unitary(state: np.ndarray, u: np.ndarray, first: int, count: int) -> np.ndarray:
    """Apply u to the contiguous qubit block [first, first+count)."""
    q = num_qubits(state)
    if u.shape != (2**count, 2**count):
        raise ValueError(
            f"unitary of shape {u.shape} does not fit a {count}-qubit block"
        )
    if first < 0 or first + count > q:
        raise ValueError(f"qubit block [{first}, {first + count}) out of range for {q} qubits")
    left = 2**first
    right = 2 ** (q - first - count)
    work = state.reshape(left, 2**count, right)
    out = np.einsum("ij,ajb->aib", u, work)
    return out.reshape(-1)


def measurement_distribution(state: np.ndarray, blocks: list[int]) -> np.ndarray:
    """Born probabilities over computational outcomes, one axis per block.

    blocks lists per-player qubit counts in order and must partition all
    qubits.  Returns an array of shape (2^b_1, ..., 2^b_n).
    """
    q = num_qubits(state)
    if sum(blocks) != q:
        raise ValueError(f"blocks {blocks} do not partition {q} qubits")
    probs = np.abs(state) ** 2
    return probs.reshape(tuple(2**b for b in blocks))


def eigenprojectors_pm1(obs: np.ndarray) -> dict[int, np.ndarray]:
    """Projectors of a +-1-eigenvalue observable; eigenvalue +1 -> outcome 0."""
    obs = np.asarray(obs, dtype=complex)
    if np.abs(obs - obs.conj().T).max() > 1e-12:
        raise ValueError("observable is not Hermitian")
    w, v = np.linalg.eigh(obs)
    if np.abs(np.abs(w) - 1.0).max() > 1e-10:
        raise ValueError(f"observable eigenvalues {w} are not +-1")
    projs = {0: np.zeros_like(obs), 1: np.zeros_like(obs)}
    for val, vec in zip(w, v.T):
        outcome = 0 if val > 0 else 1
        projs[outcome] = projs[outcome] + np.outer(vec, vec.conj())
    return projs


def projective_binary_measurement(state: np.ndarray, obs_a: np.ndarray, obs_b: np.ndarray) -> np.ndarray:
    """Joint outcome distribution over {0,1}² for a two-qubit state.

    Party A owns the high-order qubit.  Eigenvalue +1 is labeled 0.
    """
    if state.size != 4:
        raise ValueError("projective_binary_measurement needs a two-qubit state")
    pa = eigenprojectors_pm1(obs_a)
    pb = eigenprojectors_pm1(obs_b)
    out = np.zeros((2, 2))
    for a in (0, 1):
        for b in (0, 1):
            proj = np.kron(pa[a], pb[b])
            out[a, b] = float(np.real(state.conj() @ proj @ state))
    return out
