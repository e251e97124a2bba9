"""Named state constructors, Schmidt-form pure states, and JSON state files.

The on-disk format is a single JSON object:

    {"kind": "matrix",      "dims": [dA, dB], "payload": [[[re, im], ...], ...]}
    {"kind": "pure-schmidt", "dims": [d, d],  "payload": [p_1, ..., p_d]}
    {"kind": "named",       "payload": {"name": "pure-alpha", "alpha": 0.3927}}

Matrix entries are row-major [re, im] pairs; pure-schmidt payloads are the
Schmidt probabilities (squared coefficients) sorted in any order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, DomainError, ParseError, ValidationError
from .qmat import MAX_TENSOR_DIM, BipartiteState

SCHMIDT_SUM_ATOL = 1e-9


@dataclass(frozen=True)
class PureSchmidtState:
    """Pure bipartite state given by its Schmidt probabilities.

    ``probs`` are the squared Schmidt coefficients, sorted descending and
    summing to 1 within ``SCHMIDT_SUM_ATOL`` (then renormalized exactly).
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float).ravel()
        if p.size == 0:
            raise ValidationError("empty Schmidt vector")
        if not np.all(np.isfinite(p)):
            raise ValidationError("Schmidt probabilities have non-finite (NaN or inf) entries")
        if np.any(p < -1e-12):
            raise ValidationError(f"negative Schmidt probability: min = {p.min():.3e}")
        total = float(p.sum())
        if abs(total - 1.0) > SCHMIDT_SUM_ATOL:
            raise ValidationError(f"Schmidt probabilities sum to {total:.12g}, not 1")
        p = np.sort(np.clip(p, 0.0, None))[::-1] / total
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return int(self.probs.size)

    def to_bipartite(self) -> BipartiteState:
        """Density matrix |psi><psi| with psi = sum_i sqrt(p_i) |ii>.

        Raises :class:`CapacityError` when d^2 exceeds ``MAX_TENSOR_DIM``.
        """
        d = self.dim
        if d * d > MAX_TENSOR_DIM:
            raise CapacityError(
                f"pure state of Schmidt rank {d} would need dimension {d * d} > {MAX_TENSOR_DIM}"
            )
        vec = np.zeros(d * d, dtype=complex)
        vec[np.arange(d) * d + np.arange(d)] = np.sqrt(self.probs)
        return BipartiteState(dim_a=d, dim_b=d, matrix=np.outer(vec, vec.conj()))


def bell() -> BipartiteState:
    """Two-qubit maximally entangled state (|00> + |11>)/sqrt(2)."""
    return PureSchmidtState(np.array([0.5, 0.5])).to_bipartite()


def pure_alpha(alpha: float) -> PureSchmidtState:
    """Two-qubit pure state cos(a)|00> + sin(a)|11> for a in (0, pi/2)."""
    if not 0.0 < alpha < math.pi / 2:
        raise DomainError(f"alpha must lie in (0, pi/2), got {alpha!r}")
    c2 = math.cos(alpha) ** 2
    return PureSchmidtState(np.array([c2, 1.0 - c2]))


def embezzler_psi(d: int) -> PureSchmidtState:
    """Pure d x d state with half its weight on |00> and the rest spread flat.

    Schmidt probabilities (1/2, 1/(2(d-1)), ..., 1/(2(d-1))).
    """
    if d < 2:
        raise DomainError(f"embezzler needs d >= 2, got {d}")
    p = np.full(d, 1.0 / (2.0 * (d - 1)))
    p[0] = 0.5
    return PureSchmidtState(p)


def maximally_correlated_lami() -> BipartiteState:
    """Rank-2 maximally correlated two-qutrit state.

    Supported on span{|00>, |11>, |22>} with diagonal 1/3 and off-diagonal
    -1/6; block eigenvalues are (1/2, 1/2, 0).
    """
    mat = np.zeros((9, 9), dtype=complex)
    idx = [0, 4, 8]  # |ii> for i = 0, 1, 2 in row-major order
    for a in idx:
        for b in idx:
            mat[a, b] = (1.0 / 3.0) if a == b else (-1.0 / 6.0)
    return BipartiteState(dim_a=3, dim_b=3, matrix=mat)


def werner(p: float) -> BipartiteState:
    """Bell state mixed with white noise: p |phi+><phi+| + (1-p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mixing parameter must lie in [0, 1], got {p!r}")
    mat = p * bell().matrix + (1.0 - p) * np.eye(4) / 4.0
    return BipartiteState(dim_a=2, dim_b=2, matrix=mat)


def maximally_mixed(dim_a: int, dim_b: int) -> BipartiteState:
    """White noise I/(dA*dB)."""
    d = dim_a * dim_b
    return BipartiteState(dim_a=dim_a, dim_b=dim_b, matrix=np.eye(d) / d)


def product_pure(dim_a: int, dim_b: int) -> BipartiteState:
    """|0><0| x |0><0| on the requested dimensions."""
    d = dim_a * dim_b
    mat = np.zeros((d, d), dtype=complex)
    mat[0, 0] = 1.0
    return BipartiteState(dim_a=dim_a, dim_b=dim_b, matrix=mat)


def random_pure(dim_a: int, dim_b: int, rng: np.random.Generator) -> BipartiteState:
    """Haar-random pure state on (dA|dB)."""
    d = dim_a * dim_b
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    vec /= np.linalg.norm(vec)
    return BipartiteState(dim_a=dim_a, dim_b=dim_b, matrix=np.outer(vec, vec.conj()))


def random_mixed(dim_a: int, dim_b: int, rng: np.random.Generator) -> BipartiteState:
    """Haar-random pure state mixed with white noise by a uniform weight."""
    p = rng.uniform(0.0, 1.0)
    d = dim_a * dim_b
    mat = p * random_pure(dim_a, dim_b, rng).matrix + (1.0 - p) * np.eye(d) / d
    return BipartiteState(dim_a=dim_a, dim_b=dim_b, matrix=mat)


def random_schmidt(dim: int, rng: np.random.Generator) -> PureSchmidtState:
    """Schmidt vector drawn flat on the probability simplex."""
    return PureSchmidtState(rng.dirichlet(np.ones(dim)))


_NAMED = {
    "bell": (bell, ()),
    "pure-alpha": (pure_alpha, ("alpha",)),
    "embezzler": (embezzler_psi, ("d",)),
    "maximally-correlated": (maximally_correlated_lami, ()),
    "werner": (werner, ("p",)),
    "maximally-mixed": (maximally_mixed, ("dim_a", "dim_b")),
}


def _matrix_to_payload(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _payload_to_matrix(payload, d: int) -> np.ndarray:
    try:
        arr = np.asarray(payload, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"matrix payload is not numeric: {exc}") from exc
    if arr.shape != (d, d, 2):
        raise ParseError(
            f"matrix payload has shape {arr.shape}, expected ({d}, {d}, 2) [re, im] entries"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_dict(state: BipartiteState | PureSchmidtState) -> dict:
    """JSON-ready dictionary for a state (always explicit, never 'named')."""
    if isinstance(state, PureSchmidtState):
        return {
            "kind": "pure-schmidt",
            "dims": [state.dim, state.dim],
            "payload": [float(p) for p in state.probs],
        }
    return {
        "kind": "matrix",
        "dims": [state.dim_a, state.dim_b],
        "payload": _matrix_to_payload(state.matrix),
    }


def state_from_dict(doc: dict) -> BipartiteState | PureSchmidtState:
    if not isinstance(doc, dict):
        raise ParseError(f"state document must be an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "named":
        payload = doc.get("payload")
        if not isinstance(payload, dict) or "name" not in payload:
            raise ParseError("named state needs a payload object with a 'name' field")
        name = payload["name"]
        if name not in _NAMED:
            raise ParseError(f"unknown named state {name!r}; known: {sorted(_NAMED)}")
        fn, params = _NAMED[name]
        try:
            kwargs = {k: payload[k] for k in params}
        except KeyError as exc:
            raise ParseError(f"named state {name!r} is missing parameter {exc.args[0]!r}") from exc
        return fn(**kwargs)

    if kind not in ("matrix", "pure-schmidt"):
        raise ParseError(f"unknown state kind {kind!r}")
    dims = doc.get("dims")
    if (
        not isinstance(dims, (list, tuple))
        or len(dims) != 2
        or not all(isinstance(d, int) and d >= 1 for d in dims)
    ):
        raise ParseError(f"dims must be two positive integers, got {dims!r}")
    payload = doc.get("payload")
    if payload is None:
        raise ParseError("state document has no payload")
    if kind == "pure-schmidt":
        if dims[0] != dims[1]:
            raise ParseError(f"pure-schmidt dims must be equal, got {dims!r}")
        try:
            probs = np.asarray(payload, dtype=float).ravel()
        except (TypeError, ValueError) as exc:
            raise ParseError(f"pure-schmidt payload is not numeric: {exc}") from exc
        if probs.size != dims[0]:
            raise ParseError(f"pure-schmidt payload has {probs.size} entries for dims {dims!r}")
        return PureSchmidtState(probs)
    mat = _payload_to_matrix(payload, dims[0] * dims[1])
    return BipartiteState(dim_a=dims[0], dim_b=dims[1], matrix=mat)


def _read_json(path: str | Path):
    """Decode a JSON file; ParseError with the position on malformed text."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_state(path: str | Path) -> BipartiteState | PureSchmidtState:
    """Read a state file; ParseError on malformed JSON, ValidationError on bad states."""
    return state_from_dict(_read_json(path))


def save_state(state: BipartiteState | PureSchmidtState, path: str | Path) -> None:
    """Write a state file that loads back to the same state exactly."""
    Path(path).write_text(json.dumps(state_to_dict(state)) + "\n", encoding="utf-8")
