"""Collective-attack secret key rates from Gaussian second moments.

The asymptotic extractable key of a two-mode Gaussian protocol is
k = min over the reconciliation direction of (mutual information between
the homodyne outcomes) - (Holevo bound on an eavesdropper holding the
purification). Both quantities are evaluated twice here, on purpose:

* formula path: closed forms in the four symplectic invariants of the
  covariance matrix (mutual_information, holevo)
* oracle path: first-principles Gaussian conditioning on the matrix itself
  (mi_oracle, holevo_oracle)

The two must agree; the oracle path exists to pin down the formula path
branch conventions. The formula quantities pick the quadrature branch with
the larger mutual information; the per-branch values are exposed on the
report so a two-basis protocol rate can be read off as well.

worst_case_key_rate accounts for finite measurement statistics: every
independent covariance entry is only known to a relative 1/sqrt(N), so the
rate is minimized over the 1024 corners of that uncertainty box (screened
for physicality as one batch and rated by one vectorized, leniently clamped
kernel over (..., 4, 4) stacks), together with a closed-form candidate
minimizer in the normal-form basis as a cross check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DegenerateBoxError,
    FormulaDomainError,
    InvalidArgumentError,
    InvalidStateError,
)
from .gaussian import (
    DEFAULT_TOL,
    DEGENERACY_SNAP,
    CovarianceMatrix,
    SymplecticInvariants,
    _require_two_modes,
    conditional_variance,
    invariants,
    normal_form,
    normal_form_matrix,
    symplectic_eigenvalues,
    symplectic_eigenvalues_from_invariants,
    symplectic_form,
)

#: index pairs of the 10 independent entries of a symmetric 4x4 matrix
INDEPENDENT_ENTRIES = (
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)

#: (1024, 4, 4) signs of the box corners: corner `mask` scales independent
#: entry b and its mirror by 1 + t where bit b of mask is set, else by 1 - t
_CORNER_SIGNS = np.zeros((2 ** len(INDEPENDENT_ENTRIES), 4, 4))
_ROWS, _COLS = np.array(INDEPENDENT_ENTRIES).T
_CORNER_SIGNS[:, _ROWS, _COLS] = _CORNER_SIGNS[:, _COLS, _ROWS] = np.where(
    (np.arange(len(_CORNER_SIGNS))[:, np.newaxis] >> np.arange(len(_ROWS))) & 1, 1.0, -1.0
)


@dataclass(frozen=True)
class HolevoIntermediates:
    """Symplectic-eigenvalue-like quantities entering the Holevo bound.

    d_plus and d_minus are the symplectic eigenvalues of the joint state;
    d_a and d_b are the conditional symplectic eigenvalues of the state
    remaining after the other party's homodyne measurement in the
    better-information quadrature. All are >= 1 for physical states, up to
    rounding.
    """

    d_plus: float
    d_minus: float
    d_a: float
    d_b: float


@dataclass(frozen=True)
class KeyRateReport:
    """Full key-rate summary for one covariance matrix.

    mi, holevo_a, holevo_b and k_nominal are the headline formula-path
    values, with k_nominal = min(mi - holevo_a, mi - holevo_b); negative
    rates are reported as-is and flagged through no_key. The per-quadrature
    branch detail (mi_x, mi_p, k_branch_x, k_branch_p and their average
    k_two_basis) comes from the conditioning oracle. k_worst_case and
    n_samples are filled only when a finite sample count was supplied.
    """

    mi: float
    holevo_a: float
    holevo_b: float
    k_nominal: float
    no_key: bool
    mi_x: float
    mi_p: float
    d_plus: float
    d_minus: float
    d_a: float
    d_b: float
    k_branch_x: float
    k_branch_p: float
    k_two_basis: float
    k_worst_case: float | None = None
    n_samples: float | None = None

    def as_dict(self) -> dict:
        """Plain-dict form with the same field names, for JSON output."""
        return asdict(self)


@dataclass(frozen=True)
class WorstCaseBreakdown:
    """Diagnostic decomposition of a worst-case key-rate evaluation.

    corner_min is the minimum over the physical corners of the uncertainty
    box, candidate the closed-form minimizer value (None when that matrix
    is unphysical), value the reported worst case, and n_corners_physical
    how many of the 1024 corners were physical.
    """

    corner_min: float
    candidate: float | None
    value: float
    n_corners_physical: int


def entropy_f(x: float) -> float:
    """Entropy of a thermal state with symplectic eigenvalue x, in bits.

    f(x) = (x+1)/2 log2((x+1)/2) - (x-1)/2 log2((x-1)/2), continuously
    extended by f(1) = 0. Values of x within 1e-9 below 1 are clamped to 1;
    anything lower is rejected.
    """
    if x < 1.0 - DEFAULT_TOL:
        raise InvalidArgumentError(f"entropy_f needs x >= 1, got {x}")
    if x <= 1.0:
        return 0.0
    a = (x + 1.0) / 2.0
    b = (x - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def mutual_information(inv: SymplecticInvariants) -> float:
    """Mutual information of the better quadrature pair, in bits.

    Closed form in the invariants,
    -1/2 log2(1 - 1/2 (i4'/(i1 i2) + sqrt(i4'^2/(i1 i2)^2 - 4 i3^2/(i1 i2)))),
    which equals the larger of the two per-quadrature direct values
    (mi_oracle validates this). Zero for uncorrelated states.
    """
    q = inv.i1 * inv.i2
    if q <= 0.0:
        raise InvalidStateError(f"block determinants must be positive, got i1*i2 = {q}")
    u = inv.i4_prime / q
    rad = u * u - 4.0 * inv.i3 * inv.i3 / q
    if abs(rad) < DEGENERACY_SNAP * (u * u + 4.0 * inv.i3 * inv.i3 / q):
        rad = 0.0
    rad = _clamp_radicand(rad, inv, "mutual information")
    arg = 1.0 - 0.5 * (u + math.sqrt(rad))
    if arg <= 0.0:
        raise InvalidStateError(f"mutual information log argument {arg:.3e} is not positive")
    value = -0.5 * math.log2(arg)
    return 0.0 if -1e-12 < value < 0.0 else value


def mi_oracle(g: CovarianceMatrix) -> tuple[float, float]:
    """Per-quadrature mutual information by direct Gaussian conditioning.

    Returns (mi_x, mi_p) with mi_q = 1/2 log2(Var(q_A) / Var(q_A | q_B)).
    max(mi_x, mi_p) is the validation target for mutual_information. The
    value is symmetric in the conditioning direction.
    """
    _require_two_modes(g)
    m = g.entries
    mi_x = 0.5 * math.log2(m[0, 0] / conditional_variance(g, 0, 2))
    mi_p = 0.5 * math.log2(m[1, 1] / conditional_variance(g, 1, 3))
    return mi_x, mi_p


def holevo_intermediates(inv: SymplecticInvariants) -> HolevoIntermediates:
    """The d quantities feeding the Holevo bound, from the invariants.

    d_plus, d_minus are the symplectic eigenvalues. The conditional
    eigenvalues use the larger root of the correlation quadratic,
    d_a = sqrt(sqrt(i2/i1) (sqrt(i1 i2) - 1/2 (i4'/sqrt(i1 i2)
    + sqrt(i4'^2/(i1 i2) - 4 i3^2)))), and d_b with i1 and i2 swapped.
    """
    d_plus, d_minus = symplectic_eigenvalues_from_invariants(inv)
    q = inv.i1 * inv.i2
    if q <= 0.0:
        raise InvalidStateError(f"block determinants must be positive, got i1*i2 = {q}")
    sq = math.sqrt(q)
    inner = inv.i4_prime * inv.i4_prime / q - 4.0 * inv.i3 * inv.i3
    if abs(inner) < DEGENERACY_SNAP * (inv.i4_prime * inv.i4_prime / q + 4.0 * inv.i3 * inv.i3):
        inner = 0.0
    inner = _clamp_radicand(inner, inv, "conditional symplectic eigenvalue")
    remainder = sq - 0.5 * (inv.i4_prime / sq + math.sqrt(inner))
    d_a = _conditional_eigenvalue(math.sqrt(inv.i2 / inv.i1) * remainder, inv)
    d_b = _conditional_eigenvalue(math.sqrt(inv.i1 / inv.i2) * remainder, inv)
    return HolevoIntermediates(d_plus=d_plus, d_minus=d_minus, d_a=d_a, d_b=d_b)


def holevo(inv: SymplecticInvariants, direction: str) -> float:
    """Holevo bound on Eve's information about one party's outcomes, bits.

    chi(direction) = f(d_plus) + f(d_minus) - f(d_direction) with the d
    quantities of holevo_intermediates. Zero for pure joint states. The
    direction names the measured party, "A" or "B".
    """
    inter = holevo_intermediates(inv)
    d_x = inter.d_a if _normalize_direction(direction) == "A" else inter.d_b
    value = entropy_f(inter.d_plus) + entropy_f(inter.d_minus) - entropy_f(d_x)
    return 0.0 if -1e-12 < value < 0.0 else value


def holevo_oracle(g: CovarianceMatrix, direction: str) -> tuple[float, float]:
    """Per-quadrature Holevo values from explicit conditional states.

    chi = S(E) - S(E | outcome). By purification S(E) = f(d_plus) +
    f(d_minus), and after the measured party's homodyne outcome the joint
    remaining state is conditionally pure, so S(E | outcome) equals the
    entropy f(sqrt(det)) of the other party's conditional 2x2 covariance
    block. Returns (chi_x, chi_p) for the measured quadrature X or P of the
    party named by direction.
    """
    _require_two_modes(g)
    measured = 0 if _normalize_direction(direction) == "A" else 1
    other = 1 - measured
    d_plus, d_minus = symplectic_eigenvalues(g)
    s_e = entropy_f(d_plus) + entropy_f(d_minus)
    m = g.entries
    out = []
    for quad in (0, 1):
        idx = 2 * measured + quad
        var = m[idx, idx]
        if var <= 0.0:
            raise InvalidStateError(f"variance of measured quadrature {idx} is not positive: {var}")
        c = m[2 * other : 2 * other + 2, idx]
        cond = m[2 * other : 2 * other + 2, 2 * other : 2 * other + 2] - np.outer(c, c) / var
        det = float(cond[0, 0] * cond[1, 1] - cond[0, 1] * cond[1, 0])
        out.append(s_e - entropy_f(math.sqrt(max(det, 0.0))))
    return out[0], out[1]


def secret_key_rate(g: CovarianceMatrix, n_samples: float | None = None) -> KeyRateReport:
    """Asymptotic collective-attack key rate, minimized over direction.

    k_nominal = min(mi - chi_A, mi - chi_B) from the formula path, with the
    oracle-path branch detail attached. Negative rates are reported as-is
    and flagged. When n_samples is given the finite-statistics worst case
    is computed as well.
    """
    _require_two_modes(g)
    k_nominal, mi, chi_a, chi_b, inter = _formula_rate(invariants(g))
    mi_x, mi_p = mi_oracle(g)
    chi_a_x, chi_a_p = holevo_oracle(g, "A")
    chi_b_x, chi_b_p = holevo_oracle(g, "B")
    k_branch_x = mi_x - max(chi_a_x, chi_b_x)
    k_branch_p = mi_p - max(chi_a_p, chi_b_p)
    k_worst = worst_case_key_rate(g, n_samples) if n_samples is not None else None
    return KeyRateReport(
        mi=mi,
        holevo_a=chi_a,
        holevo_b=chi_b,
        k_nominal=k_nominal,
        no_key=k_nominal <= 0.0,
        mi_x=mi_x,
        mi_p=mi_p,
        d_plus=inter.d_plus,
        d_minus=inter.d_minus,
        d_a=inter.d_a,
        d_b=inter.d_b,
        k_branch_x=k_branch_x,
        k_branch_p=k_branch_p,
        k_two_basis=0.5 * (k_branch_x + k_branch_p),
        k_worst_case=k_worst,
        n_samples=n_samples,
    )


def worst_case_key_rate(g: CovarianceMatrix, n: float) -> float:
    """Lowest key rate over the finite-statistics uncertainty box.

    Each of the 10 independent entries is known to a relative 1/sqrt(n), so
    the box has 2^10 corners; the rate is minimized over the physical ones
    (corner enumeration is authoritative) and over the closed-form candidate
    minimizer applied in the normal-form basis. Never exceeds the nominal
    rate.
    """
    return worst_case_breakdown(g, n).value


def worst_case_breakdown(g: CovarianceMatrix, n: float) -> WorstCaseBreakdown:
    """worst_case_key_rate with its corner/candidate diagnostics exposed.

    All corners are screened by one batched eigvalsh of corner + i*Omega and
    rated, with the candidate, by one vectorized kernel. DegenerateBoxError
    is raised when no corner is physical, before the other terms are built.
    """
    _require_two_modes(g)
    if not n >= 1:
        raise InvalidArgumentError(f"sample count must be at least 1, got {n}")
    t = 1.0 / math.sqrt(n)
    omega = symplectic_form(2)
    corners = g.entries * (1.0 + t * _CORNER_SIGNS)
    physical = np.linalg.eigvalsh(corners + 1j * omega).min(axis=-1) >= -DEFAULT_TOL
    n_physical = int(np.count_nonzero(physical))
    if n_physical == 0:
        raise DegenerateBoxError(
            f"no physical matrix among the {len(corners)} uncertainty-box corners at n = {n:g}",
            n_samples=n,
        )
    nf = normal_form(g)
    shift = np.array(
        [
            [nf.lambda_a, 0.0, -nf.c_x, 0.0],
            [0.0, nf.lambda_a, 0.0, nf.c_p],
            [-nf.c_x, 0.0, nf.lambda_b, 0.0],
            [0.0, nf.c_p, 0.0, nf.lambda_b],
        ]
    )
    cand_matrix = normal_form_matrix(nf).entries + t * shift
    cand_physical = np.linalg.eigvalsh(cand_matrix + 1j * omega).min() >= -DEFAULT_TOL
    stack = np.concatenate((corners, cand_matrix[np.newaxis]))
    rates = _lenient_key_rates(stack[np.append(physical, cand_physical)])
    corner_min = float(rates[:n_physical].min())
    candidate = float(rates[n_physical]) if cand_physical else None
    if candidate is not None and candidate < corner_min - DEFAULT_TOL:
        warnings.warn(
            f"closed-form worst-case candidate {candidate:.9g} undercuts the corner "
            f"minimum {corner_min:.9g}; corner enumeration may be too coarse",
            stacklevel=3,
        )
    return WorstCaseBreakdown(
        corner_min=corner_min,
        candidate=candidate,
        value=min(float(rates.min()), _formula_rate(invariants(g))[0]),
        n_corners_physical=n_physical,
    )


def _formula_rate(inv: SymplecticInvariants) -> tuple:
    """(k_nominal, mi, chi_a, chi_b, intermediates) on the strict formula path."""
    mi = mutual_information(inv)
    inter = holevo_intermediates(inv)
    s_joint = entropy_f(inter.d_plus) + entropy_f(inter.d_minus)
    chi_a = s_joint - entropy_f(inter.d_a)
    chi_b = s_joint - entropy_f(inter.d_b)
    chi_a = 0.0 if -1e-12 < chi_a < 0.0 else chi_a
    chi_b = 0.0 if -1e-12 < chi_b < 0.0 else chi_b
    return min(mi - chi_a, mi - chi_b), mi, chi_a, chi_b, inter


def _lenient_key_rates(m: np.ndarray) -> np.ndarray:
    """Key rates of a (..., 4, 4) stack of raw symmetric matrices.

    Box corners sit on or just outside the physical boundary after the
    -1e-9 eigenvalue screen, so every radicand and eigenvalue here is
    clamped instead of raised on, and a non-positive mutual-information log
    argument rates +inf. Feed it only matrices that passed that screen.
    """
    i1 = np.linalg.det(m[..., 0:2, 0:2])
    i2 = np.linalg.det(m[..., 2:4, 2:4])
    i3 = np.linalg.det(m[..., 0:2, 2:4])
    i4 = np.linalg.det(m)
    i4p = i1 * i2 + i3 * i3 - i4
    q = i1 * i2
    arg = 1.0 - 0.5 * (i4p / q + np.sqrt(np.maximum(i4p * i4p / (q * q) - 4.0 * i3 * i3 / q, 0.0)))
    mi = np.where(arg > 0.0, -0.5 * np.log2(np.where(arg > 0.0, arg, 1.0)), np.inf)
    delta = i1 + i2 + 2.0 * i3
    gap = np.sqrt(np.maximum(delta * delta - 4.0 * i4, 0.0))
    sq = np.sqrt(q)
    root = 0.5 * (i4p / sq + np.sqrt(np.maximum(i4p * i4p / q - 4.0 * i3 * i3, 0.0)))
    d_cond = np.sqrt(np.maximum(np.sqrt(np.stack((i2 / i1, i1 / i2))) * (sq - root), 0.0))
    d_plus = np.sqrt((delta + gap) / 2.0)
    d_minus = np.sqrt(np.maximum((delta - gap) / 2.0, 1.0))
    # entropy_f of d_plus, d_minus, d_a and d_b, each clamped to >= 1
    d = np.maximum(np.stack((d_plus, d_minus, *d_cond)), 1.0)
    a, b = (d + 1.0) / 2.0, (d - 1.0) / 2.0
    f = a * np.log2(a) - b * np.log2(np.where(b > 0.0, b, 1.0))
    chi = f[0] + f[1] - f[2:]
    return np.min(mi - chi, axis=0)


def _conditional_eigenvalue(squared: float, inv: SymplecticInvariants) -> float:
    if squared < -DEFAULT_TOL:
        raise FormulaDomainError(
            f"conditional symplectic eigenvalue squared is {squared:.3e}; "
            "the input is outside the formula domain",
            invariants=inv,
        )
    return math.sqrt(max(squared, 0.0))


def _clamp_radicand(value: float, inv: SymplecticInvariants, what: str) -> float:
    if value < -DEFAULT_TOL:
        raise FormulaDomainError(
            f"{what} radicand is {value:.3e}, negative beyond the rounding tolerance",
            invariants=inv,
        )
    return max(value, 0.0)


def _normalize_direction(direction: str) -> str:
    d = str(direction).upper()
    if d not in ("A", "B"):
        raise InvalidArgumentError(f"direction must be 'A' or 'B', got {direction!r}")
    return d
