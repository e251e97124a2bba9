"""Self-dilution curves and the geometric-measure embezzlement table.

A battery scored by logarithmic negativity lets n copies of a partially
entangled pure state dilute into m > n copies of itself whenever
E_n/E_c > 1, which holds for every non-maximally-entangled pure state;
the ratio diverges as the state approaches a product state.  The curve
here is computed along the honest numeric route (assemble the 4x4
density matrix, partial-transpose, trace norm; reduce, diagonalize,
entropy) so closed forms remain available as an independent check.

Scoring the battery by geometric entanglement instead collapses the
theory: the states psi_d = sqrt(1/2)|00> + sum sqrt(1/(2(d-1)))|jj>
all carry E_g = 1/2, so a single battery "licenses" Bell -> psi_d for
every d while the entropy 1 + log2(d-1)/2 it hands over grows without
bound.  ``embezzlement_demo`` tabulates that amplification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .battery import swap_protocol
from .errors import DomainError, ValidationError
from .measures import GEOMETRIC, entanglement_entropy, geometric_entanglement, log_negativity
from .states import bell, embezzler_psi, pure_alpha

CURVE_RATIO_ATOL = 1e-9
ALPHA_MAX = math.pi / 4.0

# Largest padded global dimension for which the demo actually executes the
# swap; validating the joint state costs a dense eigendecomposition, which
# is a minute of work at the 4096 tensor capacity but seconds here.
SWAP_DEMO_DIM = 1296

CSV_HEADER = "alpha,e_n,e_c,ratio"


@dataclass(frozen=True)
class CurvePoint:
    """One sampled pure state sqrt(cos^2 a)|00> + sqrt(sin^2 a)|11>."""

    alpha: float
    e_n: float
    e_c: float
    ratio: float

    def __post_init__(self) -> None:
        if abs(self.ratio - self.e_n / self.e_c) > 1e-12:
            raise ValidationError(f"ratio field {self.ratio!r} is not e_n/e_c")
        if self.ratio < 1.0 - CURVE_RATIO_ATOL:
            raise ValidationError(
                f"self-dilution ratio {self.ratio:.12g} fell below 1 at alpha {self.alpha:.6g}"
            )


def self_dilution_curve(
    alpha_min: float = 0.01,
    alpha_max: float = ALPHA_MAX,
    steps: int = 200,
) -> list[CurvePoint]:
    """Sample E_n/E_c on a uniform alpha grid in (0, pi/4].

    Both measures are evaluated from the assembled density matrix, not
    from closed forms in alpha.  The ratio is 1 at the maximally
    entangled point alpha = pi/4 and grows without bound as alpha -> 0,
    so the grid must stay clear of zero.
    """
    if not (0.0 < alpha_min < alpha_max <= ALPHA_MAX + 1e-15):
        raise DomainError(
            f"need 0 < alpha_min < alpha_max <= pi/4, got [{alpha_min!r}, {alpha_max!r}]"
        )
    if steps < 2:
        raise DomainError(f"need at least 2 grid points, got {steps}")
    points = []
    for i in range(steps):
        alpha = alpha_min + (alpha_max - alpha_min) * i / (steps - 1)
        state = pure_alpha(alpha).to_bipartite()
        e_n = log_negativity(state)
        e_c = entanglement_entropy(state)
        points.append(CurvePoint(alpha=alpha, e_n=e_n, e_c=e_c, ratio=e_n / e_c))
    return points


def curve_to_csv(points: list[CurvePoint]) -> str:
    """Render curve points as CSV with 12 significant digits."""
    lines = [CSV_HEADER]
    for p in points:
        lines.append(f"{p.alpha:.12g},{p.e_n:.12g},{p.e_c:.12g},{p.ratio:.12g}")
    return "\n".join(lines) + "\n"


def distillation_bound(state) -> float:
    """Best achievable singlet yield per copy with a negativity battery.

    The battery framework turns the logarithmic negativity into the
    exact operational distillation rate, so the bound is E_n itself.
    """
    return log_negativity(state)


@dataclass(frozen=True)
class EmbezzlementRow:
    """One line of the geometric-measure amplification table."""

    d: int
    e_g: float
    entropy: float
    amplification: float
    swap_checked: bool
    battery_delta: float | None


def embezzlement_demo(d_list=(2, 3, 4, 5, 9, 17)) -> list[EmbezzlementRow]:
    """Tabulate how a geometric-measure battery amplifies entanglement.

    For each d the state psi_d keeps E_g = 1/2 while its entanglement
    entropy is 1 + log2(d-1)/2, so converting Bell pairs into psi_d
    copies multiplies the entropy by that factor at zero E_g cost.
    Where the padded swap fits ``SWAP_DEMO_DIM``, the conversion is
    actually executed and the battery E_g change recorded.
    """
    rows = []
    source = bell()
    for d in d_list:
        if d < 2:
            raise DomainError(f"embezzlement table needs d >= 2, got {d}")
        psi = embezzler_psi(d)
        e_g = geometric_entanglement(psi).value
        entropy = entanglement_entropy(psi)
        amplification = entropy / 1.0  # singlets handed over per Bell pair consumed
        swap_checked = False
        battery_delta = None
        if (2 * d) ** 4 <= SWAP_DEMO_DIM:
            report = swap_protocol(source, psi, GEOMETRIC)
            swap_checked = True
            battery_delta = report.e_battery_after - report.e_battery_before
        rows.append(
            EmbezzlementRow(
                d=d,
                e_g=e_g,
                entropy=entropy,
                amplification=amplification,
                swap_checked=swap_checked,
                battery_delta=battery_delta,
            )
        )
    return rows


def embezzlement_to_csv(rows: list[EmbezzlementRow]) -> str:
    """Render the amplification table as CSV."""
    lines = ["d,e_g,entropy,amplification,swap_checked"]
    for r in rows:
        lines.append(
            f"{r.d},{r.e_g:.12g},{r.entropy:.12g},{r.amplification:.12g},{int(r.swap_checked)}"
        )
    return "\n".join(lines) + "\n"
