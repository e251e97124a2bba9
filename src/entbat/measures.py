"""Entanglement measures and the separable-ansatz optimizer.

Measures are addressed by string ids (see ``MEASURES``).  Closed-form
measures return plain floats through their module functions; everything is
also reachable through :func:`evaluate`, which wraps values in
:class:`MeasureResult` together with convergence metadata and, for
variational measures, a certificate that reproduces the reported value.

The relative-entropy measure is an upper bound obtained by minimizing
S(rho || sigma) over an explicit mixture of product pure states.  Ansatz
eigenvalues are floored at ``SIGMA_FLOOR`` inside the objective so the
minimization stays finite; the same floored objective defines the
certificate check (:func:`ansatz_objective`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ApplicabilityError, CapacityError, DomainError, ShapeError, ValidationError
from .qmat import (
    BipartiteState,
    _entropy_of_probs,
    partial_trace,
    partial_transpose,
    trace_norm,
    von_neumann_entropy,
)
from .states import PureSchmidtState

PURITY_ATOL = 1e-9
PPT_ATOL = 1e-12

# Optimizer knobs for the relative-entropy measure.
ER_MAX_DIM = 36
SIGMA_FLOOR = 1e-15
ER_VALUE_SLACK = 5e-3  # calibrated one-sided accuracy of the optimizer value

ENTROPY_OF_ENTANGLEMENT = "entropy-of-entanglement"
LOG_NEGATIVITY = "log-negativity"
RELATIVE_ENTROPY = "relative-entropy"
GEOMETRIC = "geometric"
SQUASHED_UPPER = "squashed-upper"
SQUASHED_PURE = "squashed-pure"
ENTANGLEMENT_COST_PURE = "entanglement-cost-pure"


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Value of a measure plus how it was obtained."""

    measure: str
    value: float
    certificate: object | None = None
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True, eq=False)
class ProductCertificate:
    """Product pure state a (x) b witnessing a geometric-measure value."""

    vec_a: np.ndarray
    vec_b: np.ndarray


@dataclass(frozen=True, eq=False)
class SeparableAnsatz:
    """Convex mixture of k product pure states.

    ``weights`` lives on the probability simplex and the rows of ``vecs_a``
    / ``vecs_b`` are unit vectors; both are renormalized exactly on
    construction.
    """

    weights: np.ndarray
    vecs_a: np.ndarray
    vecs_b: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).ravel()
        a = np.asarray(self.vecs_a, dtype=complex)
        b = np.asarray(self.vecs_b, dtype=complex)
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] != w.size or b.shape[0] != w.size:
            raise ShapeError(
                f"ansatz arrays disagree: {w.size} weights, vecs {a.shape} and {b.shape}"
            )
        if np.any(w < -1e-12):
            raise ValidationError(f"negative ansatz weight: min = {w.min():.3e}")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"ansatz weights sum to {total:.12g}, not 1")
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        if np.any(na < 1e-12) or np.any(nb < 1e-12):
            raise ValidationError("ansatz contains a zero local vector")
        object.__setattr__(self, "weights", np.clip(w, 0.0, None) / total)
        object.__setattr__(self, "vecs_a", a / na[:, None])
        object.__setattr__(self, "vecs_b", b / nb[:, None])

    @property
    def k(self) -> int:
        return int(self.weights.size)

    @property
    def dims(self) -> tuple[int, int]:
        return int(self.vecs_a.shape[1]), int(self.vecs_b.shape[1])

    def separable_matrix(self) -> np.ndarray:
        """Assemble sum_i w_i |a_i b_i><a_i b_i|."""
        return _sigma_from(self.weights, _product_vectors(self.vecs_a, self.vecs_b))


@dataclass(frozen=True)
class OptimizerOptions:
    """Budget for the relative-entropy minimization."""

    restarts: int = 8
    max_iters: int = 5000
    tol: float = 1e-8
    seed: int = 0
    warm_start: SeparableAnsatz | None = None


def _as_bipartite(state) -> BipartiteState:
    if isinstance(state, PureSchmidtState):
        return state.to_bipartite()
    if isinstance(state, BipartiteState):
        return state
    raise ShapeError(f"expected a state, got {type(state).__name__}")


def _pure_bipartite(state, what: str) -> BipartiteState:
    """The state as a BipartiteState; ApplicabilityError when it is mixed."""
    s = _as_bipartite(state)
    purity = float(np.real(np.trace(s.matrix @ s.matrix)))
    if abs(purity - 1.0) > PURITY_ATOL:
        raise ApplicabilityError(f"{what} for pure states only; Tr rho^2 = {purity:.12g}")
    return s


def _schmidt_probs(state) -> np.ndarray:
    """Schmidt probabilities of a pure state, descending.

    Raises :class:`ApplicabilityError` when the input is mixed.
    """
    if isinstance(state, PureSchmidtState):
        return state.probs
    s = _pure_bipartite(state, "measure is defined")
    vals = np.linalg.eigvalsh(partial_trace(s, "a").matrix)
    vals = np.clip(vals, 0.0, None)
    return np.sort(vals)[::-1] / float(vals.sum())


def _pure_vector(s: BipartiteState) -> np.ndarray:
    vals, vecs = np.linalg.eigh(s.matrix)
    return vecs[:, -1]


def entanglement_entropy(state) -> float:
    """Reduced-state entropy of a pure state, in bits."""
    return _entropy_of_probs(_schmidt_probs(state))


def log_negativity(state) -> float:
    """log2 of the trace norm of the partial transpose; 0 for PPT states."""
    s = _as_bipartite(state)
    tn = trace_norm(partial_transpose(s))
    if tn <= 1.0 + 2.0 * PPT_ATOL:
        return 0.0
    return float(math.log2(tn))


def squashed_upper(state) -> float:
    """Half the mutual information; an upper bound from the trivial extension."""
    s = _as_bipartite(state)
    ia_b = (
        von_neumann_entropy(partial_trace(s, "a"))
        + von_neumann_entropy(partial_trace(s, "b"))
        - von_neumann_entropy(s)
    )
    return max(0.0, 0.5 * ia_b)


def geometric_entanglement(state) -> MeasureResult:
    """One minus the best product-state overlap, for pure inputs."""
    if isinstance(state, PureSchmidtState):
        p = state.probs
        i0 = int(np.argmax(p))
        d = state.dim
        ea = np.zeros(d, dtype=complex)
        ea[i0] = 1.0
        cert = ProductCertificate(vec_a=ea, vec_b=ea.copy())
        return MeasureResult(measure=GEOMETRIC, value=float(1.0 - p[i0]), certificate=cert)
    s = _pure_bipartite(state, "geometric measure implemented")
    psi = _pure_vector(s)
    m = psi.reshape(s.dim_a, s.dim_b)
    u, sv, vh = np.linalg.svd(m)
    cert = ProductCertificate(vec_a=u[:, 0], vec_b=vh[0, :].copy())
    return MeasureResult(measure=GEOMETRIC, value=float(1.0 - sv[0] ** 2), certificate=cert)


def product_overlap(state, cert: ProductCertificate) -> float:
    """Squared overlap |<a b|psi>|^2 used to re-check geometric certificates."""
    s = _as_bipartite(state)
    vec = np.kron(cert.vec_a, cert.vec_b)
    vec = vec / np.linalg.norm(vec)
    return float(np.real(vec.conj() @ s.matrix @ vec))


# ---------------------------------------------------------------------------
# Relative entropy of entanglement: multi-start descent over product mixtures.
# ---------------------------------------------------------------------------


def _product_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = a.shape[0]
    return (a[:, :, None] * b[:, None, :]).reshape(k, a.shape[1] * b.shape[1])


def _sigma_from(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v.T * w) @ v.conj()


def _quad_diag(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Real diagonal of u^H m u, i.e. <u_i|m|u_i> for each column u_i of u."""
    return np.real(np.sum(u.conj() * (m @ u), axis=0))


def _floored_kl(rho: np.ndarray, c_rho: float, w: np.ndarray, v: np.ndarray):
    """S(rho || sigma) in bits at sigma = sum_k w_k |v_k><v_k|.

    The eigenvalues of sigma are floored at SIGMA_FLOOR.  Also returns
    sigma's floored eigenpairs, from which :func:`_kl_gradient` works.
    """
    s, u = np.linalg.eigh(_sigma_from(w, v))
    s = np.clip(s, SIGMA_FLOOR, None)
    return float(c_rho - _quad_diag(rho, u) @ np.log2(s)), (s, u)


def _kl_gradient(rho: np.ndarray, eig) -> np.ndarray:
    """Gradient of S(rho || sigma) with respect to sigma (bits), from sigma's eigenpairs."""
    s, u = eig
    r = u.conj().T @ rho @ u
    ds = s[:, None] - s[None, :]
    avg = 0.5 * (s[:, None] + s[None, :])
    far = np.abs(ds) > 1e-10 * avg
    logs = np.log(s)
    ratio = np.where(far, (logs[:, None] - logs[None, :]) / np.where(far, ds, 1.0), 1.0 / avg)
    grad_ln = u @ (ratio * r) @ u.conj().T
    return -grad_ln / math.log(2.0)


def _weight_gradient(v: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """<v_k|grad|v_k> for each product vector, given gv = v @ grad.T."""
    return np.real(np.sum(v.conj() * gv, axis=1))


def _local_gradients(gv: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Gradients of sum_k w_k <a_k b_k|grad|a_k b_k> in a_k and b_k.

    Row k of gv = v @ grad.T is grad |a_k b_k>; as a dA x dB matrix G_k the
    two partial contractions are G_k conj(b_k) and conj(a_k) G_k.
    """
    g = gv.reshape(a.shape[0], a.shape[1], b.shape[1])
    ga = 2.0 * w[:, None] * (g @ b.conj()[:, :, None])[:, :, 0]
    gb = 2.0 * w[:, None] * (a.conj()[:, None, :] @ g)[:, 0, :]
    return ga, gb


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1)[:, None]


def ansatz_objective(state, ansatz: SeparableAnsatz) -> float:
    """Floored relative-entropy objective at an ansatz; re-checks certificates."""
    s = _as_bipartite(state)
    if ansatz.dims != (s.dim_a, s.dim_b):
        raise ShapeError(f"ansatz dims {ansatz.dims} do not match state ({s.dim_a}, {s.dim_b})")
    v = _product_vectors(ansatz.vecs_a, ansatz.vecs_b)
    return _floored_kl(s.matrix, -von_neumann_entropy(s), ansatz.weights, v)[0]


def _dephasings(s: BipartiteState):
    """rho's weights on the computational and the local-eigenbasis product bases.

    Each is ``(weights, rows_a, rows_b)``: term i is |a_i b_i> with weight
    <a_i b_i|rho|a_i b_i>, clipped at 0.  Dephasing in a product basis
    yields a separable state, so both are optimizer starts and both bound
    the measure.
    """
    da, db = s.dim_a, s.dim_b
    bases = (
        (np.eye(da, dtype=complex), np.eye(db, dtype=complex)),
        tuple(np.linalg.eigh(partial_trace(s, keep).matrix)[1] for keep in ("a", "b")),
    )
    out = []
    for ua, ub in bases:
        rows_a = np.repeat(ua.T, db, axis=0)
        rows_b = np.tile(ub.T, (da, 1))
        w = _quad_diag(s.matrix, _product_vectors(rows_a, rows_b).T)
        out.append((np.clip(w, 0.0, None), rows_a, rows_b))
    return out


def dephasing_upper_bound(state) -> float:
    """Cheap upper bound on the relative-entropy measure.

    S(rho || Delta(rho)) for a product-basis dephasing Delta; the better of
    the computational and local-eigenbasis dephasings is returned.  Useful
    for screening before running the optimizer.
    """
    s = _as_bipartite(state)
    s_rho = von_neumann_entropy(s)
    bounds = [_entropy_of_probs(w) - s_rho for w, _, _ in _dephasings(s)]
    return max(0.0, min(bounds))


def _descend(rho, c_rho, w, a, b, max_iters, tol):
    """Alternating exponentiated-gradient / sphere descent from one start.

    Each accepted point keeps its eigendecomposition of sigma, so the
    next gradient costs no further eigh; a weight step that fails to move
    keeps the gradient as well.
    """
    v = _product_vectors(a, b)
    f, eig = _floored_kl(rho, c_rho, w, v)
    hist = [f]
    converged = False
    iters = 0
    for it in range(max_iters):
        iters = it + 1
        moved = False

        gv = v @ _kl_gradient(rho, eig).T

        # (i) exponentiated-gradient step on the weights.
        gw = _weight_gradient(v, gv)
        gw = gw - gw.min()
        step = 1.0
        for _ in range(14):
            w_try = w * np.exp(-step * gw)
            z = float(w_try.sum())
            if z > 0.0:
                w_try /= z
                f_try, eig_try = _floored_kl(rho, c_rho, w_try, v)
                if f_try < f - 1e-15:
                    w, f, eig, moved = w_try, f_try, eig_try, True
                    break
            step *= 0.5

        # (ii) projected gradient step on the local unit vectors.
        if moved:
            gv = v @ _kl_gradient(rho, eig).T
        ga, gb = _local_gradients(gv, w, a, b)
        ga -= np.real(np.sum(a.conj() * ga, axis=1))[:, None] * a
        gb -= np.real(np.sum(b.conj() * gb, axis=1))[:, None] * b
        step = 1.0
        for _ in range(14):
            a_try = _normalize_rows(a - step * ga)
            b_try = _normalize_rows(b - step * gb)
            v_try = _product_vectors(a_try, b_try)
            f_try, eig_try = _floored_kl(rho, c_rho, w, v_try)
            if f_try < f - 1e-15:
                a, b, v, f, eig, moved = a_try, b_try, v_try, f_try, eig_try, True
                break
            step *= 0.5

        hist.append(f)
        if not moved:
            converged = True
            break
        if it >= 20 and hist[-21] - hist[-1] < tol:
            converged = True
            break
    return f, w, a, b, iters, converged


def _initial_points(s: BipartiteState, restarts: int, seed: int):
    """Deterministic list of optimizer starts: two dephasings, then random.

    A dephasing start keeps only its terms of positive weight: the
    multiplicative weight update never revives a zero weight.  Random
    starts mix k = (dA*dB)^2 product terms.
    """
    if restarts < 1:
        return []
    starts = []
    for w, a, b in _dephasings(s)[:restarts]:
        live = w > 0.0
        starts.append((w[live] / w.sum(), a[live], b[live]))
    da, db = s.dim_a, s.dim_b
    k = (da * db) ** 2
    for idx in range(2, restarts):
        rng = np.random.default_rng((seed, idx))
        w = rng.dirichlet(np.ones(k))
        a = _normalize_rows(rng.standard_normal((k, da)) + 1j * rng.standard_normal((k, da)))
        b = _normalize_rows(rng.standard_normal((k, db)) + 1j * rng.standard_normal((k, db)))
        starts.append((w, a, b))
    return starts


def relative_entropy_of_entanglement(state, opts: OptimizerOptions | None = None) -> MeasureResult:
    """Upper bound on the relative entropy of entanglement.

    Multi-start alternating descent over mixtures of product pure states:
    the dephasing starts carry their positive-weight basis terms, random
    starts k = (dA*dB)^2 terms.  The best run wins, ties broken by restart
    index.  The returned certificate reproduces the value through
    :func:`ansatz_objective`.
    """
    opts = opts or OptimizerOptions()
    if opts.restarts < 1 and opts.warm_start is None:
        raise DomainError("optimizer needs at least one start")
    s = _as_bipartite(state)
    if s.dim > ER_MAX_DIM:
        raise CapacityError(f"relative-entropy optimizer capped at dimension {ER_MAX_DIM}, got {s.dim}")
    rho = s.matrix
    c_rho = -von_neumann_entropy(s)

    starts = []
    if opts.warm_start is not None:
        ws = opts.warm_start
        if ws.dims != (s.dim_a, s.dim_b):
            raise ShapeError(f"warm start dims {ws.dims} do not match state ({s.dim_a}, {s.dim_b})")
        starts.append((ws.weights.copy(), ws.vecs_a.copy(), ws.vecs_b.copy()))
    starts.extend(_initial_points(s, opts.restarts, opts.seed))

    best = None
    total_iters = 0
    for run_idx, (w, a, b) in enumerate(starts):
        f, w, a, b, iters, conv = _descend(rho, c_rho, w, a, b, opts.max_iters, opts.tol)
        total_iters += iters
        if best is None or f < best[0]:
            best = (f, w, a, b, conv)
    f, w, a, b, conv = best
    cert = SeparableAnsatz(weights=w, vecs_a=a, vecs_b=b)
    return MeasureResult(
        measure=RELATIVE_ENTROPY,
        value=float(max(0.0, f)),
        certificate=cert,
        converged=conv,
        iterations=total_iters,
    )


# ---------------------------------------------------------------------------
# Registry and dispatch.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureSpec:
    """Declared properties of a measure used by battery-level logic.

    ``fn`` names the module function that computes the measure; aliases
    name the same function.  It is a name, not the function, so
    :func:`evaluate` calls whatever the module binds at call time.
    """

    id: str
    fn: str
    pure_only: bool
    additive: bool
    value_slack: float


MEASURES: dict[str, MeasureSpec] = {
    s.id: s
    for s in (
        MeasureSpec(ENTROPY_OF_ENTANGLEMENT, "entanglement_entropy", True, True, 0.0),
        # On pure states the asymptotic cost equals the reduced entropy.
        MeasureSpec(ENTANGLEMENT_COST_PURE, "entanglement_entropy", True, True, 0.0),
        MeasureSpec(LOG_NEGATIVITY, "log_negativity", False, True, 0.0),
        MeasureSpec(RELATIVE_ENTROPY, "relative_entropy_of_entanglement", False, False, ER_VALUE_SLACK),
        MeasureSpec(GEOMETRIC, "geometric_entanglement", True, False, 0.0),
        MeasureSpec(SQUASHED_UPPER, "squashed_upper", False, True, 0.0),
        # So does the squashed value.
        MeasureSpec(SQUASHED_PURE, "entanglement_entropy", True, True, 0.0),
    )
}


def measure_spec(measure_id: str) -> MeasureSpec:
    try:
        return MEASURES[measure_id]
    except KeyError:
        raise DomainError(f"unknown measure {measure_id!r}; known: {sorted(MEASURES)}") from None


def evaluate(measure_id: str, state, opts: OptimizerOptions | None = None) -> MeasureResult:
    """Evaluate any registered measure, wrapping plain values in MeasureResult."""
    spec = measure_spec(measure_id)
    fn = globals()[spec.fn]
    if spec.id == RELATIVE_ENTROPY:
        return fn(state, opts)
    out = fn(state)
    return out if isinstance(out, MeasureResult) else MeasureResult(measure=spec.id, value=float(out))
