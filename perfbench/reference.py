"""Reference values computed with numpy alone, apart from the program.

Nothing here imports ``entbat``.  Every quantity takes a different route
from the package: Schmidt data from an SVD of the coefficient vector,
reduced states from index contractions written out here, closed forms
evaluated scalar by scalar.  The numpy functions are bound at import time,
so the traced run (which wraps ``numpy.einsum`` and ``numpy.linalg.eigh``
for its counters) never counts this module's work.
"""
from __future__ import annotations

import math

import numpy as np
from numpy import einsum as _einsum
from numpy.linalg import eigvalsh as _eigvalsh
from numpy.linalg import svd as _svd

BELL_BASIS = (
    np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0),
    np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2.0),
    np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2.0),
    np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0),
)


def shannon_bits(p) -> float:
    total = 0.0
    for x in np.asarray(p, dtype=float).ravel():
        if x > 1e-15:
            total -= float(x) * math.log2(float(x))
    return total


def h2(x: float) -> float:
    """Binary entropy in bits."""
    return shannon_bits([x, 1.0 - x])


def entropy_bits(mat: np.ndarray) -> float:
    return shannon_bits(np.clip(_eigvalsh(mat), 0.0, None))


def reduce_a(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    return _einsum("ijkj->ik", mat.reshape(da, db, da, db))


def reduce_b(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    return _einsum("ijil->jl", mat.reshape(da, db, da, db))


def kron_cut(m1: np.ndarray, dims1, m2: np.ndarray, dims2) -> np.ndarray:
    """rho1 (x) rho2 ordered (A1, A2, B1, B2), the cut A1A2 | B1B2."""
    a1, b1 = dims1
    a2, b2 = dims2
    t = _einsum("ijkl,mnop->imjnkolp", m1.reshape(a1, b1, a1, b1), m2.reshape(a2, b2, a2, b2))
    d = a1 * b1 * a2 * b2
    return t.reshape(d, d)


def first_factor(mat: np.ndarray, dims1, dims2) -> np.ndarray:
    """Keep (A1, B1) of an operator ordered (A1, A2, B1, B2)."""
    a1, b1 = dims1
    a2, b2 = dims2
    t = mat.reshape(a1, a2, b1, b2, a1, a2, b1, b2)
    return _einsum("ixjyuxvy->ijuv", t).reshape(a1 * b1, a1 * b1)


def swap_halves(mat: np.ndarray, dims1, dims2) -> np.ndarray:
    """Relabel (A1, A2, B1, B2) -> (A2, A1, B2, B1)."""
    a1, b1 = dims1
    a2, b2 = dims2
    t = mat.reshape(a1, a2, b1, b2, a1, a2, b1, b2).transpose(1, 0, 3, 2, 5, 4, 7, 6)
    d = a1 * b1 * a2 * b2
    return np.ascontiguousarray(t).reshape(d, d)


def trace_distance(x: np.ndarray, y: np.ndarray) -> float:
    diff = x - y
    return 0.5 * float(np.sum(np.abs(_eigvalsh((diff + diff.conj().T) / 2.0))))


def max_abs_diff(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(x - y)))


def log_negativity(mat: np.ndarray, da: int, db: int) -> float:
    """log2 of the trace norm of the partial transpose on A, floored at 0."""
    pt = mat.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)
    tn = float(np.sum(np.abs(_eigvalsh((pt + pt.conj().T) / 2.0))))
    return max(0.0, math.log2(tn))


def schmidt_probs(vec: np.ndarray, da: int, db: int) -> np.ndarray:
    s = _svd(np.asarray(vec, dtype=complex).reshape(da, db), compute_uv=False)
    return np.sort(s**2)[::-1]


def schmidt_entropy(vec: np.ndarray, da: int, db: int) -> float:
    return shannon_bits(schmidt_probs(vec, da, db))


def pure_log_negativity(vec: np.ndarray, da: int, db: int) -> float:
    root_sum = float(np.sum(np.sqrt(schmidt_probs(vec, da, db))))
    return max(0.0, math.log2(root_sum**2))


def geometric_pure(vec: np.ndarray, da: int, db: int) -> float:
    return 1.0 - float(schmidt_probs(vec, da, db)[0])


def half_mutual_information(mat: np.ndarray, da: int, db: int) -> float:
    i_ab = (
        entropy_bits(reduce_a(mat, da, db))
        + entropy_bits(reduce_b(mat, da, db))
        - entropy_bits(mat)
    )
    return max(0.0, 0.5 * i_ab)


def coherent_information_bound(mat: np.ndarray, da: int, db: int) -> float:
    """Hashing lower bound on the relative entropy of entanglement."""
    s_ab = entropy_bits(mat)
    return max(entropy_bits(reduce_a(mat, da, db)), entropy_bits(reduce_b(mat, da, db))) - s_ab


def dephasing_bound(mat: np.ndarray) -> float:
    """S(rho || Delta(rho)) for the computational-basis dephasing, an upper bound."""
    return shannon_bits(np.clip(np.real(np.diag(mat)), 0.0, None)) - entropy_bits(mat)


def bell_diagonal_ree(lam_max: float) -> float:
    """REE of a two-qubit Bell-diagonal state (Vedral & Plenio 1998)."""
    return 1.0 - h2(lam_max) if lam_max > 0.5 else 0.0


def bell_diagonal_log_negativity(lam_max: float) -> float:
    return math.log2(2.0 * lam_max) if lam_max > 0.5 else 0.0


def continuity_rhs(eps: float, dim: int) -> float:
    if eps <= 0.0:
        return 0.0
    return eps * math.log2(dim) + (1.0 + eps) * h2(eps / (1.0 + eps))


def embezzler_entropy(d: int) -> float:
    return 1.0 + 0.5 * math.log2(d - 1.0)


def gibbs(energies, beta: float) -> np.ndarray:
    w = np.exp(-beta * np.asarray(energies, dtype=float))
    return w / float(np.sum(w))


def log2_partition(energies, beta: float) -> float:
    return math.log2(sum(math.exp(-beta * float(e)) for e in energies))


def free_energy(pops, energies, beta: float) -> float:
    """Standard-offset free energy KL(p || gamma) - log2 Z of populations."""
    g = gibbs(energies, beta)
    kl = sum(float(p) * math.log2(float(p) / float(q)) for p, q in zip(pops, g) if p > 1e-15)
    return kl - log2_partition(energies, beta)


def f_max(pops, energies, beta: float) -> float:
    g = gibbs(energies, beta)
    return math.log2(max(float(p) / float(q) for p, q in zip(pops, g)))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def noisy_pure(d: int, weight: float, rng: np.random.Generator) -> np.ndarray:
    """weight * |psi><psi| + (1 - weight) * I/d for a Haar-random psi."""
    v = haar_vector(d, rng)
    return weight * np.outer(v, v.conj()) + (1.0 - weight) * np.eye(d) / d


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return m / float(np.trace(m).real)


def bell_diagonal(lams, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    m = sum(float(l) * np.outer(b, b.conj()) for l, b in zip(lams, BELL_BASIS))
    u = np.kron(u_a, u_b)
    m = u @ m @ u.conj().T
    return (m + m.conj().T) / 2.0
