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

The formula path is one kernel from invariants, floats or arrays, shared
by the single-state functions and the batched worst case, with one
clamping policy: radicands are snapped by DEGENERACY_SNAP and clamped at 0,
eigenvalues are clamped to >= 1 inside the entropies, and a non-positive
mutual-information log argument rates +inf. The single-state functions
raise typed errors on the kernel's unclamped values instead.

worst_case_key_rate accounts for finite measurement statistics: every
independent covariance entry is only known to a relative 1/sqrt(N), so the
rate is minimized over the 1024 corners of that uncertainty box (screened
for physicality as one batch and rated by the kernel over (..., 4, 4)
stacks), together with a closed-form candidate minimizer in the
normal-form basis as a cross check.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
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
    CovarianceMatrix,
    NormalForm,
    SymplecticInvariants,
    _check_symplectic_squares,
    _clamp,
    _invariant_values,
    _radicands,
    _require_two_modes,
    conditional_variance,
    invariants,
    normal_form,
    normal_form_matrix,
    symplectic_eigenvalues,
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
    _check_entropy_arguments(x)
    return float(_entropy(x))


def mutual_information(inv: SymplecticInvariants) -> float:
    """Mutual information of the better quadrature pair, in bits.

    Closed form in the invariants,
    -1/2 log2(1 - 1/2 (i4'/(i1 i2) + sqrt(i4'^2/(i1 i2)^2 - 4 i3^2/(i1 i2)))),
    which equals the larger of the two per-quadrature direct values
    (mi_oracle validates this). Zero for uncorrelated states.
    """
    f = _formula(inv)
    _check_mutual_information(f, inv)
    return float(f.mi)


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
    eigenvalues use the larger root c_x^2 of the correlation quadratic,
    d_a^2 = i2 (1 - c_x^2/sqrt(i1 i2)) and d_b^2 = i1 (1 - c_x^2/sqrt(i1 i2)),
    which equals sqrt(i2/i1) (sqrt(i1 i2) - c_x^2) and its mirror.
    """
    f = _formula(inv)
    _check_intermediates(f, inv)
    return _intermediates(f)


def holevo(inv: SymplecticInvariants, direction: str) -> float:
    """Holevo bound on Eve's information about one party's outcomes, bits.

    chi(direction) = f(d_plus) + f(d_minus) - f(d_direction) with the d
    quantities of holevo_intermediates. Zero for pure joint states. The
    direction names the measured party, "A" or "B".
    """
    f = _formula(inv)
    _check_intermediates(f, inv)
    measured_a = _normalize_direction(direction) == "A"
    _check_entropy_arguments(f.d_plus, f.d_minus, f.d_a if measured_a else f.d_b)
    return float(f.chi_a if measured_a else f.chi_b)


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
    # the candidate: local noise up and correlations down by t in the normal form
    widened = NormalForm(nf.lambda_a * (1.0 + t), nf.lambda_b * (1.0 + t), nf.c_x * (1.0 - t), nf.c_p * (1.0 - t))
    cand_matrix = normal_form_matrix(widened).entries
    cand_physical = np.linalg.eigvalsh(cand_matrix + 1j * omega).min() >= -DEFAULT_TOL
    stack = np.concatenate((corners, cand_matrix[np.newaxis]))
    rates = _formula(SymplecticInvariants(*_invariant_values(stack[np.append(physical, cand_physical)]))).k
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
    """(k_nominal, mi, chi_a, chi_b, intermediates), checked for the domain."""
    f = _formula(inv)
    _check_mutual_information(f, inv)
    _check_intermediates(f, inv)
    _check_entropy_arguments(f.d_plus, f.d_minus, f.d_a, f.d_b)
    return float(f.k), float(f.mi), float(f.chi_a), float(f.chi_b), _intermediates(f)


#: what _formula returns: q = i1*i2, the radicands, arg and the squared
#: eigenvalues unclamped, then the clamped eigenvalues, mi, chi_a, chi_b and k
_Formula = namedtuple("_Formula", "q sym_rad dm2 disc arg da2 db2 d_plus d_minus d_a d_b mi chi_a chi_b k")


def _formula(inv: SymplecticInvariants) -> _Formula:
    """The formula path from invariants (floats or arrays) to the key rate.

    MI = -1/2 log2(arg) with arg = 1 - c_x^2/sqrt(i1 i2), the conditional
    eigenvalues are d_a^2 = |i2| arg and d_b^2 = |i1| arg, chi_A and chi_B are
    f(d_plus) + f(d_minus) - f(d_a or d_b), and k = MI - max(chi_A, chi_B).
    Values less than 1e-12 below zero are reported as 0. Plain operators
    keep float inputs cheap.
    """
    sym_rad, dp2, dm2, disc, cx2, _, s = _radicands(inv)
    arg = 1.0 - cx2 / s
    with np.errstate(divide="ignore"):  # log2(0) = -inf: arg <= 0 rates +inf
        mi = _zero_rounding_noise(-0.5 * np.log2(_clamp(arg)))
    # |i2| arg = sqrt(i2/i1) (sqrt(i1 i2) - c_x^2) also where i1 and i2 are both negative
    da2, db2 = abs(inv.i2) * arg, abs(inv.i1) * arg
    d_plus, d_minus, d_a, d_b = _clamp(dp2) ** 0.5, _clamp(dm2) ** 0.5, _clamp(da2) ** 0.5, _clamp(db2) ** 0.5
    s_joint = _entropy(d_plus) + _entropy(d_minus)
    chi_a, chi_b = _zero_rounding_noise(s_joint - _entropy(d_a)), _zero_rounding_noise(s_joint - _entropy(d_b))
    k = np.minimum(mi - chi_a, mi - chi_b)
    return _Formula(inv.i1 * inv.i2, sym_rad, dm2, disc, arg, da2, db2, d_plus, d_minus, d_a, d_b, mi, chi_a, chi_b, k)


def _entropy(d):
    """entropy_f of d clamped to >= 1, for floats and arrays alike."""
    b = _clamp(d - 1.0) / 2.0
    a = b + 1.0
    return a * np.log2(a) - b * np.log2(b + (b == 0.0))


def _zero_rounding_noise(x):
    """x with values less than 1e-12 below zero set to 0."""
    return x * ((x >= 0.0) | (x <= -1e-12)) + 0.0


def _intermediates(f: _Formula) -> HolevoIntermediates:
    return HolevoIntermediates(*(float(d) for d in (f.d_plus, f.d_minus, f.d_a, f.d_b)))


def _check_mutual_information(f: _Formula, inv: SymplecticInvariants) -> None:
    _check_block_determinants(f)
    if f.disc / f.q < -DEFAULT_TOL:
        raise FormulaDomainError(
            f"mutual information radicand is {f.disc / f.q:.3e}, negative beyond the rounding tolerance",
            invariants=inv,
        )
    if f.arg <= 0.0:
        raise InvalidStateError(f"mutual information log argument {f.arg:.3e} is not positive")


def _check_intermediates(f: _Formula, inv: SymplecticInvariants) -> None:
    _check_symplectic_squares(f.sym_rad, f.dm2)
    _check_block_determinants(f)
    if f.disc < -DEFAULT_TOL:
        raise FormulaDomainError(
            f"conditional symplectic eigenvalue radicand is {f.disc:.3e}, negative beyond the rounding tolerance",
            invariants=inv,
        )
    for squared in (f.da2, f.db2):
        if squared < -DEFAULT_TOL:
            raise FormulaDomainError(
                f"conditional symplectic eigenvalue squared is {squared:.3e}; "
                "the input is outside the formula domain",
                invariants=inv,
            )


def _check_block_determinants(f: _Formula) -> None:
    if f.q <= 0.0:
        raise InvalidStateError(f"block determinants must be positive, got i1*i2 = {f.q}")


def _check_entropy_arguments(*xs: float) -> None:
    for x in xs:
        if x < 1.0 - DEFAULT_TOL:
            raise InvalidArgumentError(f"entropy_f needs x >= 1, got {x}")


def _normalize_direction(direction: str) -> str:
    d = str(direction).upper()
    if d not in ("A", "B"):
        raise InvalidArgumentError(f"direction must be 'A' or 'B', got {direction!r}")
    return d
