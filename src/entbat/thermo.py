"""Thermal states, free energies, and the free-energy battery.

A thermodynamic system is a density operator together with a diagonal
Hamiltonian (energy eigenvalues) and an inverse temperature.  All free
energies are reported in bits with k_B T = 1, so they live on the same
scale as the entanglement measures: F(rho) = S(rho||gamma) - log2 Z and
F_max(rho) = log2 min {lambda : rho <= lambda * gamma}.  The battery
results mirror the entanglement ones: a transformation between systems
at a common temperature is feasible exactly when F does not increase,
the licensing protocol is a swap of system and battery (including their
Hamiltonians), and quantifying the battery by F_max instead of F buys a
self-dilution product F_max(rho)/F(rho) >= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .battery import FEASIBLE, SWAP_EXACTNESS_ATOL, ProtocolReport, _verdict
from .errors import (
    ApplicabilityError,
    CapacityError,
    DomainError,
    InfeasibleError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .qmat import (
    HERM_ATOL,
    LOG2,
    MAX_TENSOR_DIM,
    BipartiteState,
    partial_trace,
    permute_factors,
    relative_entropy,
    trace_distance,
    validate_density,
)
from .states import _payload_to_matrix, _read_json

# Off-diagonal mass above this disqualifies a state from the incoherent
# (classical, energy-diagonal) code paths.
INCOHERENT_ATOL = 1e-9

# Hamiltonian eigenvalues this close to their neighbour count as one
# degenerate energy level.
DEGENERATE_ATOL = 1e-9

# Populations this close to the Gibbs weights count as "at equilibrium"
# for the self-dilution ratios, whose denominator vanishes there.
GIBBS_ATOL = 1e-12

STANDARD_OFFSET = "standard-offset"
RELATIVE_TO_GIBBS = "relative-to-gibbs"


@dataclass(frozen=True, eq=False)
class ThermoState:
    """System state with a diagonal Hamiltonian at inverse temperature beta.

    ``energies`` lists the Hamiltonian eigenvalues in the computational
    basis; the Gibbs weights and partition function follow from them.
    Construction validates ``rho`` as a density matrix (renormalizing the
    trace exactly) and requires a finite positive ``beta`` so the Gibbs
    state is full rank.
    """

    rho: np.ndarray
    energies: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float).ravel()
        if e.size < 1 or not np.all(np.isfinite(e)):
            raise DomainError(f"energies must be finite reals, got {self.energies!r}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be finite and positive, got {self.beta!r}")
        mat = np.asarray(self.rho, dtype=complex)
        d = e.size
        if mat.shape != (d, d):
            raise ShapeError(f"rho shape {mat.shape} does not match {d} energy levels")
        mat = validate_density(mat)
        g = _gibbs_probs(e, self.beta)
        if float(np.min(g)) <= 0.0:
            raise DomainError(
                "Gibbs state is numerically singular: the energy spread "
                f"{float(np.ptp(e)):.6g} at beta {self.beta:.6g} underflows"
            )
        object.__setattr__(self, "rho", mat)
        object.__setattr__(self, "energies", e)

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def log2_z(self) -> float:
        """log2 of the partition function, evaluated in log space."""
        return float(np.logaddexp.reduce(-self.beta * self.energies)) / LOG2

    @property
    def gibbs_probs(self) -> np.ndarray:
        return _gibbs_probs(self.energies, self.beta)

    @property
    def gibbs(self) -> np.ndarray:
        return np.diag(self.gibbs_probs).astype(complex)


def _gibbs_probs(energies: np.ndarray, beta: float) -> np.ndarray:
    w = -beta * energies
    w = np.exp(w - np.max(w))
    return w / np.sum(w)


@dataclass(frozen=True)
class FreeEnergyValue:
    """A free energy in bits (k_B T = 1) tagged with its variant."""

    f: float
    variant: str
    alpha: float | None = None


def free_energy(s: ThermoState, variant: str = STANDARD_OFFSET) -> FreeEnergyValue:
    """Free energy of ``s`` relative to its own bath.

    ``standard-offset`` is S(rho||gamma) - log2 Z, the form that compares
    correctly across different Hamiltonians; ``relative-to-gibbs`` drops
    the offset and is zero exactly at the Gibbs state.
    """
    rel = max(0.0, relative_entropy(s.rho, s.gibbs))
    if variant == RELATIVE_TO_GIBBS:
        return FreeEnergyValue(f=rel, variant=variant)
    if variant == STANDARD_OFFSET:
        return FreeEnergyValue(f=rel - s.log2_z, variant=variant)
    raise DomainError(f"unknown free energy variant {variant!r}")


def f_max(s: ThermoState) -> FreeEnergyValue:
    """Max-relative-entropy free energy: log2 of the top eigenvalue of
    gamma^{-1/2} rho gamma^{-1/2}.  Upper-bounds the relative-to-gibbs
    free energy and equals it only on special states."""
    inv_sqrt_g = s.gibbs_probs ** -0.5
    m = s.rho * np.outer(inv_sqrt_g, inv_sqrt_g)
    lam = float(np.linalg.eigvalsh(m)[-1])
    return FreeEnergyValue(f=math.log2(lam), variant="max")


def incoherent_probs(s: ThermoState) -> np.ndarray:
    """Diagonal populations of an energy-incoherent state.

    Raises :class:`ApplicabilityError` if any off-diagonal entry exceeds
    ``INCOHERENT_ATOL``.
    """
    off = s.rho - np.diag(np.diag(s.rho))
    worst = float(np.max(np.abs(off)))
    if worst > INCOHERENT_ATOL:
        raise ApplicabilityError(
            f"state has energy coherences (max off-diagonal {worst:.3e}); "
            "this quantity is defined for incoherent states only"
        )
    return np.clip(np.real(np.diag(s.rho)), 0.0, None)


def renyi_free_energy(s: ThermoState, alpha: float) -> FreeEnergyValue:
    """Classical Renyi divergence D_alpha(p||g) of the populations from
    the Gibbs weights, for incoherent states.

    alpha = 1 falls back to the relative-to-gibbs free energy and
    alpha = inf to the max variant; the family is non-decreasing in alpha.
    """
    if alpha < 0.0 or math.isnan(alpha):
        raise DomainError(f"Renyi order must be >= 0, got {alpha!r}")
    p = incoherent_probs(s)
    g = s.gibbs_probs
    if alpha == 1.0:
        return FreeEnergyValue(f=free_energy(s, RELATIVE_TO_GIBBS).f, variant="renyi", alpha=1.0)
    supp = p > 1e-15
    if math.isinf(alpha):
        return FreeEnergyValue(f=math.log2(float(np.max(p[supp] / g[supp]))), variant="renyi", alpha=alpha)
    if alpha == 0.0:
        return FreeEnergyValue(f=-math.log2(float(np.sum(g[supp]))), variant="renyi", alpha=0.0)
    total = float(np.sum(p[supp] ** alpha * g[supp] ** (1.0 - alpha)))
    return FreeEnergyValue(f=math.log2(total) / (alpha - 1.0), variant="renyi", alpha=alpha)


def _require_same_bath(s1: ThermoState, s2: ThermoState) -> None:
    if s1.beta != s2.beta:
        raise DomainError(
            f"states sit at different inverse temperatures ({s1.beta!r} vs {s2.beta!r}); "
            "a single bath is required"
        )


def _free_energies(s1: ThermoState, s2: ThermoState) -> tuple[float, float]:
    _require_same_bath(s1, s2)
    return free_energy(s1).f, free_energy(s2).f


def thermo_feasible(s1: ThermoState, s2: ThermoState) -> str:
    """Verdict for transforming ``s1`` into ``s2`` with a free-energy battery.

    Compares standard-offset free energies (the -log2 Z terms make
    different Hamiltonians commensurable).  Both states must share one
    bath temperature.
    """
    return _verdict(*_free_energies(s1, s2), 0.0)


def compose(s1: ThermoState, s2: ThermoState) -> ThermoState:
    """Independent composition: joint state rho1 (x) rho2 with additive
    energies E_i + E_j on the product space."""
    _require_same_bath(s1, s2)
    d = s1.dim * s2.dim
    if d > MAX_TENSOR_DIM:
        raise CapacityError(f"composition would need dimension {d} > {MAX_TENSOR_DIM}")
    return ThermoState(
        rho=np.kron(s1.rho, s2.rho),
        energies=np.add.outer(s1.energies, s2.energies).ravel(),
        beta=s1.beta,
    )


def thermo_swap_protocol(s1: ThermoState, s2: ThermoState) -> ProtocolReport:
    """Licensing protocol for ``s1 -> s2``: the battery starts in the
    target system (state and Hamiltonian) and the swap relabels the two.

    The system ends exactly in ``s2.rho`` and the battery free energy
    moves from F(s2) to F(s1), which cannot be a decrease when the
    transformation is feasible.  Raises :class:`InfeasibleError` otherwise.
    """
    f1, f2 = _free_energies(s1, s2)
    if _verdict(f1, f2, 0.0) != FEASIBLE:
        raise InfeasibleError("free energy would need to increase")
    d1, d2 = s1.dim, s2.dim
    initial = BipartiteState(dim_a=d1, dim_b=d2, matrix=np.kron(s1.rho, s2.rho))
    final = BipartiteState(dim_a=d2, dim_b=d1, matrix=np.kron(s2.rho, s1.rho))
    swapped = permute_factors(initial.matrix, (d1, d2), (1, 0))
    exactness = trace_distance(swapped, final.matrix)
    if exactness > SWAP_EXACTNESS_ATOL:
        raise ValidationError(f"swap relabeling missed the target by {exactness:.3e}")
    report = ProtocolReport(
        initial_global=initial,
        final_global=final,
        battery_measure="free-energy",
        e_battery_before=f2,
        e_battery_after=f1,
        feasible=True,
        final_system_trace_distance=trace_distance(
            partial_trace(final, keep="a").matrix, s2.rho
        ),
    )
    return report


@dataclass(frozen=True)
class ThermoDilutionReport:
    """Distill-then-dilute round trip for an incoherent qubit.

    ``r`` is the distillation rate into the excited state when the
    battery is scored by F_max, ``r_prime`` the battery-free dilution
    rate back, and ``product = r * r_prime`` the net copy gain, which is
    at least one and exceeds one away from the equality cases.
    """

    r: float
    r_prime: float
    product: float
    at_gibbs: bool

    def __post_init__(self) -> None:
        if self.product < 1.0 - 1e-9:
            raise ValidationError(f"self-dilution product {self.product:.12g} fell below 1")


def thermo_self_dilution(s: ThermoState) -> ThermoDilutionReport:
    """Self-dilution product for an incoherent qubit state.

    Uses the closed classical forms on the populations (p, 1-p) and the
    Gibbs weights: F_max = log2 max(p/g1, (1-p)/g0) and F = the binary
    KL divergence.  The excited-state free energies cancel exactly in
    the product, which therefore equals F_max(rho)/F(rho) and hits 1
    precisely at p in {0, 1}; at the Gibbs state itself both free
    energies vanish and the report carries ``at_gibbs`` instead.
    """
    if s.dim != 2:
        raise ShapeError(f"self-dilution analysis needs a qubit, got dimension {s.dim}")
    p = float(incoherent_probs(s)[1])
    g0, g1 = (float(x) for x in s.gibbs_probs)
    f_exc = math.log2(1.0 / g1)  # F and F_max agree on the pure excited state
    if abs(p - g1) <= GIBBS_ATOL:
        return ThermoDilutionReport(r=0.0, r_prime=math.inf, product=1.0, at_gibbs=True)
    fmax_rho = math.log2(max(p / g1, (1.0 - p) / g0))
    f_rho = 0.0
    if p > 0.0:
        f_rho += p * math.log2(p / g1)
    if p < 1.0:
        f_rho += (1.0 - p) * math.log2((1.0 - p) / g0)
    # r * r_prime with the f_exc factors cancelled algebraically, so the
    # endpoint equalities at p = 0 and p = 1 are exact in floating point.
    return ThermoDilutionReport(
        r=fmax_rho / f_exc,
        r_prime=f_exc / f_rho,
        product=fmax_rho / f_rho,
        at_gibbs=False,
    )


def thermo_from_dict(doc: dict) -> ThermoState:
    """Build a :class:`ThermoState` from a scenario document.

    The document carries ``beta``, a ``rho`` that is either a flat list
    of populations or a nested [re, im] matrix, and either ``energies``
    (diagonal Hamiltonian, whose basis is kept) or a full ``hamiltonian``
    matrix, which is rotated to its eigenbasis together with ``rho``; inside
    a degenerate eigenspace that basis diagonalizes ``rho``.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"thermo scenario must be an object, got {type(doc).__name__}")
    if "beta" not in doc:
        raise ParseError("thermo scenario is missing 'beta'")
    beta = doc["beta"]
    if not isinstance(beta, (int, float)) or isinstance(beta, bool):
        raise ParseError(f"beta must be a number, got {beta!r}")

    has_e = "energies" in doc
    has_h = "hamiltonian" in doc
    if has_e == has_h:
        raise ParseError("thermo scenario needs exactly one of 'energies' or 'hamiltonian'")
    if has_e:
        try:
            energies = np.asarray(doc["energies"], dtype=float).ravel()
        except (TypeError, ValueError) as exc:
            raise ParseError(f"energies are not numeric: {exc}") from exc
        if energies.size < 1:
            raise ParseError("energies list is empty")
        basis = None
    else:
        ham_payload = doc["hamiltonian"]
        if not isinstance(ham_payload, list) or not ham_payload:
            raise ParseError("hamiltonian must be a nested [re, im] matrix")
        h = _payload_to_matrix(ham_payload, len(ham_payload))
        if not np.all(np.isfinite(h)):
            raise ValidationError("hamiltonian has non-finite (NaN or inf) entries")
        defect = float(np.max(np.abs(h - h.conj().T)))
        if defect > HERM_ATOL:
            raise ValidationError(f"hamiltonian is not Hermitian: defect {defect:.3e}")
        energies, basis = np.linalg.eigh((h + h.conj().T) / 2.0)

    d = energies.size
    rho_payload = doc.get("rho")
    if rho_payload is None:
        raise ParseError("thermo scenario is missing 'rho'")
    if isinstance(rho_payload, list) and rho_payload and not isinstance(rho_payload[0], list):
        try:
            diag = np.asarray(rho_payload, dtype=float).ravel()
        except (TypeError, ValueError) as exc:
            raise ParseError(f"rho populations are not numeric: {exc}") from exc
        if diag.size != d:
            raise ParseError(f"rho has {diag.size} populations for {d} levels")
        rho = np.diag(diag).astype(complex)
    else:
        rho = _payload_to_matrix(rho_payload, d)
    if basis is not None:
        rho = basis.conj().T @ rho @ basis
        # eigh picks an arbitrary basis inside a degenerate eigenspace, where a
        # state commuting with H can look coherent: diagonalize rho's block there.
        edges = np.flatnonzero(np.diff(energies) > DEGENERATE_ATOL) + 1
        for blk in np.split(np.arange(d), edges):
            if blk.size > 1:
                v = np.linalg.eigh(rho[np.ix_(blk, blk)])[1]
                rho[:, blk] = rho[:, blk] @ v
                rho[blk, :] = v.conj().T @ rho[blk, :]
    return ThermoState(rho=rho, energies=energies, beta=float(beta))


def load_thermo_scenario(path: str | Path) -> ThermoState:
    """Read a thermo scenario file; ParseError on malformed JSON."""
    return thermo_from_dict(_read_json(path))
