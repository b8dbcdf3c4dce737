"""Collective-attack secret key rates from Gaussian second moments.

The asymptotic extractable key of a two-mode Gaussian protocol is
k = min over the reconciliation direction of (mutual information between
the homodyne outcomes) - (Holevo bound on an eavesdropper holding the
purification). Both quantities are evaluated twice here, on purpose:

* formula path: closed forms in the four symplectic invariants of the
  covariance matrix (mutual_information, holevo)
* oracle path: first-principles Gaussian conditioning on the matrix itself
  (mi_oracle, holevo_oracle), by the one kernel gaussian._conditioned:
  measuring q_B leaves Var(q_A|q_B) and A's block for chi with B measured

The two must agree; the oracle path exists to pin down the formula path
branch conventions. The formula quantities pick the quadrature branch with
the larger mutual information; the per-branch values are exposed on the
report so a two-basis protocol rate can be read off as well.

The formula path is one kernel from invariants, floats or arrays, shared
by the single-state functions and the batched worst case, with one
tolerance rule (gaussian.DEGENERACY_SNAP), scaled by the terms that cancel:
radicands are snapped and clamped at 0, entropy arguments clamped at 1, and
a non-positive mutual-information log argument rates +inf. The single-state
functions and the oracles raise typed errors naming the quantity instead,
where it is below its floor beyond rounding (gaussian._judge).

Many states at once, as scan's rows, are rated in one stacked pass
(_stacked_rates): one np.linalg.det over the stack, the invariants from its
entry planes, one formula call, and each check the single-state path makes
as one mask over the rows, by the same comparisons on the same bits
(gaussian._below_floor for the tolerance rule, and the oracle's conditional
variances and eigenvalues from one gaussian._conditioned stack). A row that
a check flags is rated by secret_key_rate itself, so every error is raised
and worded in one place, and every other row rates as secret_key_rate
rates it, bit for bit.

worst_case_key_rate accounts for finite measurement statistics: every
independent covariance entry is only known to a relative 1/sqrt(N), so the
rate is minimized over the 1024 corners of that uncertainty box, together
with a closed-form candidate minimizer in the normal-form basis as a cross
check. A zero entry has no width, nor has any entry once 1/sqrt(N) is
below rounding, so equal corners are built once, each with its weight: a
general state has 1024 distinct corners, the model's states 64 (the single
squeezed mode and the beam splitter leave four zero entries, the standard
form) and N = inf one. Distinct corners and candidate are built as entry
planes of shape (4, 4, distinct + 1), plane (i, j) holding entry (i, j) of
every matrix, from sign planes made once at import. One call of the pivot
test gaussian._physical screens them plane by plane; the screened planes
give i1, i2 and i3 directly, and i4 comes from gaussian._screened_det, an
elimination without pivoting that is valid only after the screen. One call
of the kernel rates them.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass

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
    SymplecticInvariants,
    _check_block_determinants,
    _below_floor,
    _clamp,
    _conditioned,
    _invariant_values,
    _judge,
    _normal_form,
    _physical,
    _radicands,
    _Radicands,
    _require_two_modes,
    _root,
    _screened_det,
    invariants,
)

#: index pairs of the 10 independent entries of a symmetric 4x4 matrix
INDEPENDENT_ENTRIES = (
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)

#: (10, 1024) bits of the box corners: corner `mask` scales independent
#: entry b and its mirror by 1 + t where bit b of mask is set, else by 1 - t
_CORNER_BITS = (
    (np.arange(2 ** len(INDEPENDENT_ENTRIES)) >> np.arange(len(INDEPENDENT_ENTRIES))[:, np.newaxis]) & 1
).astype(bool)

#: (4, 4, 1024) sign planes of the box corners, entry-major: +1 where the
#: bit is set, else -1
_CORNER_SIGNS = np.zeros((4, 4, _CORNER_BITS.shape[-1]))
_ROWS, _COLS = np.array(INDEPENDENT_ENTRIES).T
_CORNER_SIGNS[_ROWS, _COLS] = _CORNER_SIGNS[_COLS, _ROWS] = np.where(_CORNER_BITS, 1.0, -1.0)


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
        return dict(vars(self))


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
    anything lower is rejected. A bare x has no scale, so the key-rate
    functions judge their own arguments by gaussian._judge instead.
    """
    if x < 1.0 - DEFAULT_TOL:
        raise InvalidArgumentError(f"entropy_f needs x >= 1, got {x}")
    return float(_entropy(x))


def mutual_information(inv: SymplecticInvariants) -> float:
    """Mutual information of the better quadrature pair, in bits.

    Closed form in the invariants,
    -1/2 log2(1 - 1/2 (i4'/(i1 i2) + sqrt(i4'^2/(i1 i2)^2 - 4 i3^2/(i1 i2)))),
    which equals the larger of the two per-quadrature direct values
    (mi_oracle validates this). Zero for uncorrelated states.
    """
    return float(_checked_formula(inv, ()).mi)


def mi_oracle(g: CovarianceMatrix) -> tuple[float, float]:
    """Per-quadrature mutual information by direct Gaussian conditioning.

    Returns (mi_x, mi_p) with mi_q = 1/2 log2(Var(q_A) / Var(q_A | q_B)).
    max(mi_x, mi_p) is the validation target for mutual_information. The
    value is symmetric in the conditioning direction. A conditional variance
    that is not positive raises InvalidStateError.
    """
    _require_two_modes(g)
    return _mi(g.entries, _conditioned(g.entries, slice(2, 4)))


def holevo_intermediates(inv: SymplecticInvariants) -> HolevoIntermediates:
    """The d quantities feeding the Holevo bound, from the invariants.

    d_plus, d_minus are the symplectic eigenvalues. The conditional
    eigenvalues use the larger root c_x^2 of the correlation quadratic,
    d_a^2 = i2 (1 - c_x^2/sqrt(i1 i2)) and d_b^2 = i1 (1 - c_x^2/sqrt(i1 i2)),
    which equals sqrt(i2/i1) (sqrt(i1 i2) - c_x^2) and its mirror.
    """
    return _intermediates(_checked_formula(inv, ()))


def holevo(inv: SymplecticInvariants, direction: str) -> float:
    """Holevo bound on Eve's information about one party's outcomes, bits.

    chi(direction) = f(d_plus) + f(d_minus) - f(d_direction) with the d
    quantities of holevo_intermediates. Zero for pure joint states. The
    direction names the measured party, "A" or "B".
    """
    measured_a = _normalize_direction(direction) == "A"
    f = _checked_formula(inv, ("d_plus", "d_minus", "d_a" if measured_a else "d_b"))
    return float(f.chi_a if measured_a else f.chi_b)


def holevo_oracle(g: CovarianceMatrix, direction: str) -> tuple[float, float]:
    """Per-quadrature Holevo values from explicit conditional states.

    chi = S(E) - S(E | outcome). By purification S(E) = f(d_plus) +
    f(d_minus), and after the measured party's homodyne outcome the joint
    remaining state is conditionally pure, so S(E | outcome) equals the
    entropy f(sqrt(det)) of the other party's conditional 2x2 covariance
    block. Returns (chi_x, chi_p) for the measured quadrature X or P of the
    party named by direction. S(E) is secret_key_rate's, to the bit.
    """
    _require_two_modes(g)
    measured = 0 if _normalize_direction(direction) == "A" else 1
    cond = _conditioned(g.entries, slice(2 * measured, 2 * measured + 2))
    return _chi(cond, measured, _checked_formula(invariants(g)))


def secret_key_rate(g: CovarianceMatrix, n_samples: float | None = None) -> KeyRateReport:
    """Asymptotic collective-attack key rate, minimized over direction.

    k_nominal = min(mi - chi_A, mi - chi_B) from the formula path, with the
    oracle-path branch detail attached. Negative rates are reported as-is
    and flagged. When n_samples is given the finite-statistics worst case
    is computed as well.

    One formula evaluation gives the headline values and the oracle's
    S(E) = f(d_plus) + f(d_minus); one _conditioned stack gives the rest.
    """
    _require_two_modes(g)
    f = _checked_formula(invariants(g))
    cond = _conditioned(g.entries)
    mi_x, mi_p = _mi(g.entries, cond[2:])
    chi_a_x, chi_a_p = _chi(cond[:2], 0, f)
    chi_b_x, chi_b_p = _chi(cond[2:], 1, f)
    k_branch_x = mi_x - max(chi_a_x, chi_b_x)
    k_branch_p = mi_p - max(chi_a_p, chi_b_p)
    k_worst = worst_case_key_rate(g, n_samples) if n_samples is not None else None
    return KeyRateReport(
        mi=float(f.mi),
        holevo_a=float(f.chi_a),
        holevo_b=float(f.chi_b),
        k_nominal=float(f.k),
        no_key=bool(f.k <= 0.0),
        mi_x=mi_x,
        mi_p=mi_p,
        **vars(_intermediates(f)),
        k_branch_x=k_branch_x,
        k_branch_p=k_branch_p,
        k_two_basis=0.5 * (k_branch_x + k_branch_p),
        k_worst_case=k_worst,
        n_samples=n_samples,
    )


def _stacked_rates(states: list, n_samples: float | None = None) -> list:
    """(mi, holevo_a, holevo_b, k_nominal, k_worst_case) of secret_key_rate
    for each two-mode state of a list, bit for bit, from one stacked pass.

    The pass takes i4 from one np.linalg.det call over the stack (the same
    LAPACK factorization per matrix as invariants()), the other invariants
    from one _invariant_values call on the entry planes, and the rates from
    one _formula call. Every check secret_key_rate makes is one mask over the
    rows, with the same comparisons on the same bits: the overflow rule of
    invariants(), the block determinants, the discriminant, the log argument,
    the radicand, d_minus^2 and the four entropy arguments (_below_floor), and
    the oracle's conditional variances and conditional eigenvalues on one
    _conditioned stack. The states' diagonals are positive, as covariance()
    checks, so _conditioned does not raise. A row that a check flags, or
    whose rate is not finite, is rated by secret_key_rate itself, in list
    order, so its error or its values are that function's. With n_samples,
    every other row's worst case is one worst_case_key_rate call, in list
    order too.
    """
    if not states:
        return []
    stack = np.stack([g.entries for g in states])
    with np.errstate(all="ignore"):  # only flagged rows overflow, and those are rated one by one
        inv = SymplecticInvariants(*_invariant_values(stack.transpose(1, 2, 0), np.linalg.det(stack)))
        delta = inv.i1 + inv.i2 + 2.0 * inv.i3
        flagged = ~np.isfinite(delta * delta + 4.0 * abs(inv.i4) + inv.i4_prime)
        flagged |= (inv.i1 <= 0.0) | (inv.i2 <= 0.0)
        f = _formula(inv)
        flagged |= _below_floor(f.disc, 0.0, f.disc_scale) | (f.arg <= 0.0)
        flagged |= _below_floor(f.rad, 0.0, f.rad_scale) | _below_floor(f.dm2, 0.0, f.d_scale)
        flagged |= _below_floor(f.d_plus, 1.0, f.d_scale) | _below_floor(f.d_minus, 1.0, f.d_scale)
        flagged |= _below_floor(f.d_a, 1.0, f.size) | _below_floor(f.d_b, 1.0, f.size)
        cond = np.moveaxis(_conditioned(stack), 0, -1)  # cond[k, i, j]: entry (i, j) given quadrature k, every row
        var_x, var_p = _conditional_variances(cond[2:])
        flagged |= ~((var_x > 0.0) & (var_p > 0.0))
        for measured in (0, 1):
            d_cond = _root(_conditional_dets(cond[2 * measured : 2 * measured + 2], measured))
            flagged |= _below_floor(d_cond, 1.0, f.size).any(axis=0)
        flagged |= ~np.isfinite(f.k)
    rows = np.stack([f.mi, f.chi_a, f.chi_b, f.k], axis=1).tolist()
    for j, (g, bad) in enumerate(zip(states, flagged.tolist())):
        if bad:
            r = secret_key_rate(g, n_samples)
            rows[j] = [r.mi, r.holevo_a, r.holevo_b, r.k_nominal, r.k_worst_case]
        else:
            rows[j].append(worst_case_key_rate(g, n_samples) if n_samples is not None else None)
    return rows


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

    Only the distinct corners are built: an entry whose values g (1 + t) and
    g (1 - t) compare equal (a zero entry, or every entry once t = 1/sqrt(n)
    is below rounding, n = inf included) has no width, and of the corners
    that differ only in such entries the one with their bits set stands for
    all of them. With w entries of width there are 2^w distinct corners,
    each of weight 2^(10 - w), and n_corners_physical is the weight times the
    distinct physical count. Every matrix gets the same arithmetic per
    element as in the full box, so the breakdown, warnings and errors are
    those of all 1024 corners bit for bit. The distinct corners and the
    candidate are built as (4, 4, 2^w + 1) entry planes, screened for
    physicality by one pivot test of Gamma + i*Omega (gaussian._physical)
    and rated by one vectorized kernel.

    The screened matrices' i4 is the product of the pivots of an elimination
    without pivoting (gaussian._screened_det), not one LAPACK call per
    matrix: a matrix that passed the screen has Gamma > -tol*I, which makes
    that elimination stable. It agrees with np.linalg.det to the backward error
    of either, eps * cond(Gamma). The invariants of g are computed once, for
    the normal form and for the closing nominal rate. DegenerateBoxError is
    raised when no corner is physical, before any rate is computed; the
    normal form that the candidate needs is built before that, so its own
    errors come first.
    """
    _require_two_modes(g)
    if not n >= 1:
        raise InvalidArgumentError(f"sample count must be at least 1, got {n}")
    # an int beyond the float range would overflow math.sqrt; inf is the asymptotic limit
    if n > sys.float_info.max and n != math.inf:
        raise InvalidArgumentError(f"sample count must be at most the float maximum or inf, got {n}")
    t = 1.0 / math.sqrt(n)
    inv = invariants(g)
    nf = _normal_form(inv)
    # entries with no width; the kept corners have their bits set
    entries = g.entries[_ROWS, _COLS]
    flat = entries * (1.0 + t) == entries * (1.0 - t)
    weight = 2 ** int(np.count_nonzero(flat))
    signs = _CORNER_SIGNS[:, :, _CORNER_BITS[flat].all(axis=0)]
    n_distinct = signs.shape[-1]
    box = np.empty((4, 4, n_distinct + 1))  # box[i, j]: entry (i, j) of every distinct corner, then of the candidate
    np.multiply(g.entries[:, :, np.newaxis], 1.0 + t * signs, out=box[:, :, :n_distinct])
    # the candidate: local noise up and correlations down by t in the normal
    # form, every entry symmetrized as covariance() does, 0.5 x + 0.5 x
    plane = box[:, :, n_distinct]
    plane.fill(0.0)
    plane[0, 0] = plane[1, 1] = _symmetrized(nf.lambda_a * (1.0 + t))
    plane[2, 2] = plane[3, 3] = _symmetrized(nf.lambda_b * (1.0 + t))
    plane[0, 2] = plane[2, 0] = _symmetrized(nf.c_x * (1.0 - t))
    plane[1, 3] = plane[3, 1] = _symmetrized(-(nf.c_p * (1.0 - t)))
    physical = _physical(box.transpose(2, 0, 1), DEFAULT_TOL)
    n_physical = int(np.count_nonzero(physical[:-1]))
    if n_physical == 0:
        raise DegenerateBoxError(
            f"no physical matrix among the {_CORNER_SIGNS.shape[-1]} uncertainty-box corners at n = {n:g}",
            n_samples=n,
        )
    screened = box if physical.all() else box[:, :, physical]
    rates = _formula(SymplecticInvariants(*_invariant_values(screened, _screened_det(screened)))).k
    corner_min = float(rates[:n_physical].min())
    candidate = float(rates[n_physical]) if physical[-1] else None
    if candidate is not None and candidate < corner_min - DEFAULT_TOL:
        warnings.warn(
            f"closed-form worst-case candidate {candidate:.9g} undercuts the corner "
            f"minimum {corner_min:.9g}; corner enumeration may be too coarse",
            stacklevel=3,
        )
    return WorstCaseBreakdown(
        corner_min=corner_min,
        candidate=candidate,
        value=min(float(rates.min()), float(_checked_formula(inv).k)),
        n_corners_physical=weight * n_physical,
    )


def _symmetrized(x: float) -> float:
    """x as covariance() symmetrizes an entry: 0.5 x + 0.5 x, which is x
    unless x is subnormal."""
    return 0.5 * x + 0.5 * x


def _mi(m: np.ndarray, given_b: np.ndarray) -> tuple[float, float]:
    """mi_oracle of the entries m, from given_b: m conditioned on x_B and on p_B."""
    var_x, var_p = _conditional_variances(given_b)
    if not (var_x > 0.0 and var_p > 0.0):
        raise InvalidStateError(f"Var(x_A|x_B) = {var_x:.3e} and Var(p_A|p_B) = {var_p:.3e} must be positive")
    return 0.5 * math.log2(m[0, 0] / var_x), 0.5 * math.log2(m[1, 1] / var_p)


def _chi(cond: np.ndarray, measured: int, f: _Formula) -> tuple[float, float]:
    """holevo_oracle from cond, the entries conditioned on X and on P of the
    measured party 0 (A) or 1 (B), with S(E) and the scale of the entropy
    arguments from the checked formula evaluation f."""
    d_cond = [_root(d) for d in _conditional_dets(cond, measured).tolist()]
    for quadrature, d in zip("XP", d_cond):
        _judge(f"conditional symplectic eigenvalue given {quadrature}", d, 1.0, f.size, InvalidArgumentError)
    return tuple(float(f.s_joint - _entropy(d)) for d in d_cond)


# The two readers below take one state's entries conditioned on two
# quadratures, cond[k, i, j], or a stack's with the rows on a last axis.


def _conditional_variances(given_b: np.ndarray) -> tuple:
    """Var(x_A|x_B) and Var(p_A|p_B), which _mi needs positive, from the
    entries conditioned on x_B and on p_B."""
    return given_b[0, 0, 0], given_b[1, 1, 1]


def _conditional_dets(cond: np.ndarray, measured: int) -> np.ndarray:
    """Determinants of the other party's block given X and given P of the
    measured party 0 (A) or 1 (B), from the entries conditioned on those two;
    _chi needs their roots, the conditional symplectic eigenvalues, >= 1."""
    o = 2 - 2 * measured  # the other party's block
    b = cond[:, o : o + 2, o : o + 2]
    return b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]


def _checked_formula(inv: SymplecticInvariants, entropy_args=("d_plus", "d_minus", "d_a", "d_b")) -> _Formula:
    """_formula of single-state invariants, with the discriminant, the
    symplectic radicand, d_minus^2 and the named entropy arguments judged by
    gaussian._judge. d_a^2 = |i2| arg and d_b^2 = |i1| arg need no judging:
    the block determinants and arg are checked to be positive."""
    _check_block_determinants(inv)
    f = _formula(inv)
    _judge("correlation discriminant", f.disc, 0.0, f.disc_scale, lambda msg: FormulaDomainError(msg, invariants=inv))
    if f.arg <= 0.0:
        raise InvalidStateError(f"mutual information log argument {f.arg:.3e} is not positive")
    _judge("symplectic eigenvalue radicand", f.rad, 0.0, f.rad_scale)
    _judge("squared smaller symplectic eigenvalue", f.dm2, 0.0, f.d_scale)
    for name in entropy_args:
        scale = f.d_scale if name in ("d_plus", "d_minus") else f.size
        _judge(f"entropy argument {name}", getattr(f, name), 1.0, scale, InvalidArgumentError)
    return f


#: what _formula returns: the fields of _Radicands, then the log argument,
#: d_a, d_b, S(E) = f(d_plus) + f(d_minus), mi, chi_a, chi_b and k
_Formula = namedtuple("_Formula", _Radicands._fields + ("arg", "d_a", "d_b", "s_joint", "mi", "chi_a", "chi_b", "k"))


def _formula(inv: SymplecticInvariants) -> _Formula:
    """The formula path from invariants (floats or arrays) to the key rate.

    MI = -1/2 log2(arg) with arg = 1 - c_x^2/sqrt(i1 i2), the conditional
    eigenvalues are d_a^2 = |i2| arg and d_b^2 = |i1| arg, chi_A and chi_B are
    f(d_plus) + f(d_minus) - f(d_a or d_b), and k = MI - max(chi_A, chi_B).
    Values less than 1e-12 below zero are reported as 0. Plain operators
    keep float inputs cheap.
    """
    r = _radicands(inv)
    arg = 1.0 - r.cx2 / r.s
    with np.errstate(divide="ignore"):  # log2(0) = -inf: arg <= 0 rates +inf
        mi = _zero_rounding_noise(-0.5 * np.log2(_clamp(arg)))
    # |i2| arg = sqrt(i2/i1) (sqrt(i1 i2) - c_x^2) also where i1 and i2 are both negative
    d_a, d_b = _root(abs(inv.i2) * arg), _root(abs(inv.i1) * arg)
    d = (r.d_plus, r.d_minus, d_a, d_b)
    # a stack takes its four entropies in one call; floats keep the scalar path
    f_plus, f_minus, f_a, f_b = map(_entropy, d) if isinstance(d_a, float) else _entropy(np.stack(d))
    s_joint = f_plus + f_minus
    chi_a, chi_b = _zero_rounding_noise(s_joint - f_a), _zero_rounding_noise(s_joint - f_b)
    k = np.minimum(mi - chi_a, mi - chi_b)
    return _Formula(*r, arg, d_a, d_b, s_joint, mi, chi_a, chi_b, k)


def _entropy(d):
    """entropy_f of d clamped to >= 1, for floats and arrays alike."""
    # np.log2 on floats too: math.log2 differs from it on 0.09% of inputs on
    # AVX-512 hardware, and a single state must rate as it does in a stack
    b = _clamp(d - 1.0) / 2.0
    a = b + 1.0
    return a * np.log2(a) - b * np.log2(b + (b == 0.0))


def _zero_rounding_noise(x):
    """x with values less than 1e-12 below zero set to 0."""
    return x * ((x >= 0.0) | (x <= -1e-12)) + 0.0


def _intermediates(f: _Formula) -> HolevoIntermediates:
    return HolevoIntermediates(*(float(d) for d in (f.d_plus, f.d_minus, f.d_a, f.d_b)))


def _normalize_direction(direction: str) -> str:
    d = str(direction).upper()
    if d not in ("A", "B"):
        raise InvalidArgumentError(f"direction must be 'A' or 'B', got {direction!r}")
    return d
