"""Dense linear algebra for bipartite density operators.

All operators are plain complex numpy arrays in row-major computational
basis ordering.  A bipartite state on dimensions (d_A, d_B) lives on the
d_A*d_B dimensional product space with the A index varying slowest.
Entropic quantities are reported in bits (base-2 logarithms) and
eigenvalues below ``EIG_CUTOFF`` are treated as exact zeros.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, ShapeError, ValidationError

# Tolerances used when admitting a matrix as a density operator.
HERM_ATOL = 1e-9
TRACE_ATOL = 1e-9
PSD_ATOL = 1e-9

# Eigenvalues smaller than this count as zero in entropic formulas.
EIG_CUTOFF = 1e-12

# Largest total dimension ``tensor`` will materialize.
MAX_TENSOR_DIM = 4096

LOG2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Validated density operator on a bipartite cut (A|B).

    ``factors`` records the registered tensor factors as (d_A_i, d_B_i)
    pairs so that states built with :func:`tensor` remember which slots
    they came from; ``partial_trace`` selects among them.

    Construction renormalizes the trace to exactly 1 and raises
    :class:`ValidationError` naming the violated invariant otherwise.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray
    factors: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ShapeError(f"dims must be positive, got ({self.dim_a}, {self.dim_b})")
        d = self.dim_a * self.dim_b
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (d, d):
            raise ShapeError(
                f"matrix shape {mat.shape} does not match dims ({self.dim_a}, {self.dim_b})"
            )
        object.__setattr__(self, "matrix", validate_density(mat))
        if not self.factors:
            object.__setattr__(self, "factors", ((self.dim_a, self.dim_b),))
        else:
            da = math.prod(f[0] for f in self.factors)
            db = math.prod(f[1] for f in self.factors)
            if (da, db) != (self.dim_a, self.dim_b):
                raise ShapeError(
                    f"factor registry {self.factors} inconsistent with dims "
                    f"({self.dim_a}, {self.dim_b})"
                )

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def validate_density(mat: np.ndarray) -> np.ndarray:
    """Check a square complex matrix is a density operator; return it cleaned.

    Raises :class:`ValidationError` naming the violated invariant (finite
    entries, Hermitian, unit trace, positive semidefinite).  The returned
    matrix is exactly Hermitian with trace exactly 1.
    """
    if not np.isfinite(mat).all():
        raise ValidationError("matrix has non-finite (NaN or inf) entries")
    herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_defect > HERM_ATOL:
        raise ValidationError(f"not Hermitian: max |m - m^dag| = {herm_defect:.3e}")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValidationError(f"trace differs from 1: trace = {tr.real:.12g}")
    mat = (mat + mat.conj().T) / (2.0 * tr.real)
    lo = float(np.linalg.eigvalsh(mat)[0])
    if lo < -PSD_ATOL:
        raise ValidationError(f"not positive semidefinite: min eigenvalue = {lo:.3e}")
    return mat


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def spectrum(mat: np.ndarray) -> Spectrum:
    """Hermitian eigendecomposition, eigenvalues sorted descending."""
    vals, vecs = np.linalg.eigh(mat)
    return Spectrum(values=vals[::-1].copy(), vectors=vecs[:, ::-1].copy())


def _as_matrix(x: BipartiteState | np.ndarray) -> np.ndarray:
    return x.matrix if isinstance(x, BipartiteState) else np.asarray(x, dtype=complex)


def permute_factors(mat: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Reorder the tensor factors of an operator on prod(dims) dimensions."""
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ShapeError(f"{perm} is not a permutation of {k} factors")
    d = math.prod(dims)
    t = mat.reshape(dims + dims)
    axes = list(perm) + [p + k for p in perm]
    return np.ascontiguousarray(t.transpose(axes)).reshape(d, d)


def tensor(a: BipartiteState, b: BipartiteState) -> BipartiteState:
    """Tensor two bipartite states, keeping the cut between the A and B sides.

    The joint state of (A|B) and (A'|B') is returned on the ordering
    (A, A', B, B') so the result is again bipartite with the cut
    (A,A') | (B,B').  Raises :class:`CapacityError` beyond
    ``MAX_TENSOR_DIM`` total dimensions.
    """
    d = a.dim * b.dim
    if d > MAX_TENSOR_DIM:
        raise CapacityError(f"tensor would need dimension {d} > {MAX_TENSOR_DIM}")
    raw = np.kron(a.matrix, b.matrix)  # ordering (A, B, A', B')
    dims = (a.dim_a, a.dim_b, b.dim_a, b.dim_b)
    mat = permute_factors(raw, dims, (0, 2, 1, 3))
    return BipartiteState(
        dim_a=a.dim_a * b.dim_a,
        dim_b=a.dim_b * b.dim_b,
        matrix=mat,
        factors=a.factors + b.factors,
    )


def _ptrace_raw(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace over the factors not listed in ``keep`` (raw index form)."""
    k = len(dims)
    t = mat.reshape(dims + dims)
    drop = [i for i in range(k) if i not in keep]
    for i in sorted(drop, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d = math.prod(dims[i] for i in keep)
    return t.reshape(d, d)


def partial_trace(s: BipartiteState, keep) -> BipartiteState:
    """Trace out part of a state.

    ``keep`` is either ``"a"``/``"b"`` (keep one side of the bipartite cut;
    the other side collapses to a trivial dimension-1 factor) or a sequence
    of indices into the registered tensor factors of ``s``.
    """
    if keep == "a" or keep == "b":
        t = s.matrix.reshape(s.dim_a, s.dim_b, s.dim_a, s.dim_b)
        if keep == "a":
            red = np.trace(t, axis1=1, axis2=3)
            return BipartiteState(dim_a=s.dim_a, dim_b=1, matrix=red)
        red = np.trace(t, axis1=0, axis2=2)
        return BipartiteState(dim_a=1, dim_b=s.dim_b, matrix=red)

    sel = tuple(keep)
    nf = len(s.factors)
    if not sel or any((i < 0 or i >= nf) for i in sel) or len(set(sel)) != len(sel):
        raise ShapeError(f"factor selector {sel} invalid for {nf} registered factors")
    sel = tuple(sorted(sel))
    # Factor layout on the full space is (A_0 .. A_{n-1}, B_0 .. B_{n-1}).
    dims = tuple(f[0] for f in s.factors) + tuple(f[1] for f in s.factors)
    keep_raw = sel + tuple(i + nf for i in sel)
    red = _ptrace_raw(s.matrix, dims, keep_raw)
    kept = tuple(s.factors[i] for i in sel)
    return BipartiteState(
        dim_a=math.prod(f[0] for f in kept),
        dim_b=math.prod(f[1] for f in kept),
        matrix=red,
        factors=kept,
    )


def partial_transpose(s: BipartiteState) -> np.ndarray:
    """Transpose the A side of the state; result may have negative eigenvalues."""
    da, db = s.dim_a, s.dim_b
    t = s.matrix.reshape(da, db, da, db)
    return np.ascontiguousarray(t.transpose(2, 1, 0, 3)).reshape(s.dim, s.dim)


def _require_hermitian(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > HERM_ATOL:
        raise ShapeError(f"matrix is not Hermitian: max |m - m^dag| = {defect:.3e}")
    return (mat + mat.conj().T) / 2.0


def trace_norm(mat: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    m = _require_hermitian(mat)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def trace_distance(x: BipartiteState | np.ndarray, y: BipartiteState | np.ndarray) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * trace_norm(_as_matrix(x) - _as_matrix(y))


def _entropy_of_probs(p: np.ndarray) -> float:
    p = p[p > EIG_CUTOFF]
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropy(s: BipartiteState | np.ndarray) -> float:
    """Entropy -Tr(rho log2 rho) in bits; zero eigenvalues contribute nothing."""
    vals = np.linalg.eigvalsh(_as_matrix(s))
    return _entropy_of_probs(np.clip(vals, 0.0, None))


def relative_entropy(rho: BipartiteState | np.ndarray, sigma: BipartiteState | np.ndarray) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns ``math.inf`` when the support of rho is not contained in the
    support of sigma; this is a well-defined value, not a failure.
    """
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise ShapeError(f"operands have different shapes {r.shape} vs {s.shape}")
    p = np.clip(np.linalg.eigvalsh(r), 0.0, None)
    q, v = np.linalg.eigh(s)
    q = np.clip(q, 0.0, None)
    # Weight of rho along each eigenvector of sigma.
    w = np.real(np.einsum("ji,jk,ki->i", v.conj(), r, v))
    w = np.clip(w, 0.0, None)
    dead = q <= EIG_CUTOFF
    if np.any(w[dead] > EIG_CUTOFF):
        return math.inf
    live = ~dead
    cross = float(-np.sum(w[live] * np.log2(q[live])))
    return -_entropy_of_probs(p) + cross


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * vals) @ vecs.conj().T


def fidelity(rho: BipartiteState | np.ndarray, sigma: BipartiteState | np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped to [0, 1]."""
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise ShapeError(f"operands have different shapes {r.shape} vs {s.shape}")
    sr = _psd_sqrt(r)
    vals = np.clip(np.linalg.eigvalsh(sr @ s @ sr), 0.0, None)
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(max(f, 0.0), 1.0)


def binary_entropy(x: float) -> float:
    """Shannon entropy of a biased coin, in bits."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy needs x in [0, 1], got {x!r}")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))
