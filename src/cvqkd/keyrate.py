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
(_stacked_rates) over a (k, 4, 4) stack of raw entries: covariance()'s
rules on the whole stack in one gaussian._symmetrized call, one
np.linalg.det over the stack, the invariants from its entry planes, one
call of the kernel _worst_boxes, whose one formula call rates the rows (and
with a sample count their boxes too), and each check the single-state path
makes as one mask over the rows, by the same comparisons on the same bits
(gaussian._below_floor for the tolerance rule, and the oracle's conditional
variances and eigenvalues from one gaussian._conditioned stack). There is
one fallback, secret_key_rate(covariance(row)): a row that a check flags
takes it, and every row does, in order, when the stack breaks a rule of
covariance() or the sample count is invalid. So every error is raised and
worded in one place, and every other row rates as secret_key_rate rates
it, bit for bit.

worst_case_key_rate accounts for finite measurement statistics: every
independent covariance entry is only known to a relative 1/sqrt(N), so the
rate is minimized over the 1024 corners of that uncertainty box, together
with a closed-form candidate minimizer in the normal-form basis as a cross
check. A zero entry has no width, nor has any entry once 1/sqrt(N) is
below rounding, so equal corners are built once, each with its weight: a
general state has 1024 distinct corners, the model's states 64 (the single
squeezed mode and the beam splitter leave four zero entries, the standard
form) and N = inf one. One kernel, _worst_boxes, rates the boxes of any
number of states in one pass: the states themselves, every state's
distinct corners, then one candidate per state, as entry planes of shape
(4, 4, states + distinct + states), plane (i, j) holding entry (i, j) of
every matrix, the candidates' normal forms from the states' invariants
(gaussian._correlations). The planes give i1, i2 and i3; the states keep
their own i4, and one elimination without pivoting, gaussian._screened_det,
gives the corners' and candidates' i4 and whether Gamma > 0. One formula
call rates the states, their corners and their candidates, and one stacked
floor test (_rejected) says where the single-state path would rate each:
for two modes, Gamma + i*Omega >= 0 exactly when Gamma > 0 and
d_minus >= 1. Segmented reductions give each state's corner minimum and
physical count. Its callers, _stacked_rates, secret_key_rate and
worst_case_breakdown, hand it the states' own invariants, so a scan chunk,
with or without its worst cases, takes one formula call; every state's
worst case, error and warnings are those of worst_case_key_rate on that
state alone, bit for bit and in the same order.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBoxError,
    FormulaDomainError,
    InvalidArgumentError,
    InvalidStateError,
    _warn,
)
from .gaussian import (
    DEFAULT_TOL,
    CovarianceMatrix,
    NormalForm,
    SymplecticInvariants,
    _check_block_determinants,
    _below_floor,
    _clamp,
    _conditioned,
    _correlations,
    _invariant_values,
    _judge,
    _normal_form,
    _normal_form_of,
    _overflows,
    _radicands,
    _Radicands,
    _require_two_modes,
    _root,
    _screened_det,
    _symmetrized,
    covariance,
    invariants,
)

#: index pairs of the 10 independent entries of a symmetric 4x4 matrix
INDEPENDENT_ENTRIES = (
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)

#: the corner masks of the box: corner `mask` scales independent entry b and
#: its mirror by 1 + t where bit b of mask is set, else by 1 - t
_CORNER_MASKS = np.arange(2 ** len(INDEPENDENT_ENTRIES))

#: bit b of a row's flat code is set when independent entry b has no width
_ENTRY_BITS = 1 << np.arange(len(INDEPENDENT_ENTRIES))

#: (4, 4, 1024) sign planes of the box corners, entry-major: +1 where the
#: bit is set, else -1
_CORNER_SIGNS = np.zeros((4, 4, len(_CORNER_MASKS)))
_ROWS, _COLS = np.array(INDEPENDENT_ENTRIES).T
_CORNER_SIGNS[_ROWS, _COLS] = _CORNER_SIGNS[_COLS, _ROWS] = np.where(
    (_CORNER_MASKS & _ENTRY_BITS[:, np.newaxis]) != 0, 1.0, -1.0
)


@dataclass(frozen=True)
class KeyRateReport:
    """Full key-rate summary for one covariance matrix.

    mi, holevo_a, holevo_b and k_nominal are the headline formula-path
    values, in the state's normal-form basis (each local oscillator
    re-aligned to it), keyed on the quadrature of larger mutual information
    there, mi. holevo_a bounds Eve's information on A's outcomes, the key of
    direct reconciliation; holevo_b on B's, the key of reverse
    reconciliation. k_nominal = min(mi - holevo_a, mi - holevo_b) is the
    smaller of the two directions' rates; negative rates are reported as-is
    and flagged through no_key.

    The per-quadrature branch detail comes from the conditioning oracle, in
    the matrix's own basis (the quadratures as measured, no re-alignment):
    mi_x and mi_p, and k_branch_x and k_branch_p, keyed on x and on p, each
    the smaller of its direct and reverse reconciliation rates. k_two_basis
    is their average, the rate of keying on x and on p in equal shares.
    d_plus and d_minus are the joint symplectic eigenvalues, d_a and d_b the
    conditional ones after A, respectively B, measures the keyed quadrature.
    k_worst_case, the smaller of k_nominal and the least k_nominal-style rate
    (normal-form basis, smaller direction) over the corners of the
    finite-statistics box, and n_samples are filled only when a finite
    sample count was supplied.
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


def holevo(inv: SymplecticInvariants, direction: str) -> float:
    """Holevo bound on Eve's information about one party's outcomes, bits.

    chi(direction) = f(d_plus) + f(d_minus) - f(d_direction) with the d
    quantities of KeyRateReport. Zero for pure joint states. The direction
    names the measured party, "A" or "B".
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

    One formula evaluation gives the headline values, the oracle's
    S(E) = f(d_plus) + f(d_minus) and the worst case's closing nominal rate;
    one _conditioned stack gives the rest.
    """
    _require_two_modes(g)
    inv = invariants(g)
    f = _checked_formula(inv)
    cond = _conditioned(g.entries)
    mi_x, mi_p = _mi(g.entries, cond[2:])
    chi_a_x, chi_a_p = _chi(cond[:2], 0, f)
    chi_b_x, chi_b_p = _chi(cond[2:], 1, f)
    k_branch_x = mi_x - max(chi_a_x, chi_b_x)
    k_branch_p = mi_p - max(chi_a_p, chi_b_p)
    k_worst = None
    if n_samples is not None:
        boxes = _worst_boxes(g.entries[:, :, np.newaxis], inv, _half_width(n_samples)).boxes
        _judge_box(boxes, 0, n_samples)
        k_worst = min(boxes.low[0], float(f.k))
    return KeyRateReport(
        mi=float(f.mi),
        holevo_a=float(f.chi_a),
        holevo_b=float(f.chi_b),
        k_nominal=float(f.k),
        no_key=bool(f.k <= 0.0),
        mi_x=mi_x,
        mi_p=mi_p,
        d_plus=float(f.d_plus),
        d_minus=float(f.d_minus),
        d_a=float(f.d_a),
        d_b=float(f.d_b),
        k_branch_x=k_branch_x,
        k_branch_p=k_branch_p,
        k_two_basis=0.5 * (k_branch_x + k_branch_p),
        k_worst_case=k_worst,
        n_samples=n_samples,
    )


def _stacked_rates(entries: np.ndarray, n_samples: float | None = None) -> list:
    """(mi, holevo_a, holevo_b, k_nominal, k_worst_case) of
    secret_key_rate(covariance(row), n_samples) for each row of a (k, 4, 4)
    stack of raw float entries, bit for bit, from one stacked pass in which
    no row becomes a CovarianceMatrix unless a check flags it.

    One gaussian._symmetrized call applies covariance()'s rules to the whole
    stack. The pass takes i4 from one np.linalg.det call over the stack (the
    same LAPACK factorization per matrix as invariants()) and the other
    invariants from one _invariant_values call on the entry planes, and makes
    one call of the kernel _worst_boxes: one _formula call rates the rows,
    and with n_samples every row's distinct box corners and candidate with
    them, the candidate's normal form from the row's invariants
    (gaussian._correlations). Every check secret_key_rate makes is one mask over the rows, with
    the same comparisons on the same bits: the overflow rule of invariants()
    (gaussian._overflows) and the formula's floors (_rejected), both from the
    kernel, and the oracle's conditional variances and conditional
    eigenvalues on one _conditioned stack. The rows' diagonals are positive,
    as covariance() checks, so _conditioned does not raise.

    There is one fallback, secret_key_rate(covariance(row), n_samples). A row
    that a check flags, or whose rate is not finite, takes it. When the stack
    breaks a rule of covariance(), or _half_width rejects n_samples, every
    row takes it, in row order, so the first error is raised where one call
    per row raises it. Otherwise the rows are walked in order, so a flagged
    row's error, a box's error and an undercut warning come in the order
    that one call per row gives them.
    """
    if not len(entries):
        return []
    try:
        stack = _symmetrized(entries)
        t = None if n_samples is None else _half_width(n_samples)
    except (InvalidStateError, InvalidArgumentError):  # raised where one call per row raises it
        return [_rates(row, n_samples) for row in entries]
    k, planes = len(stack), stack.transpose(1, 2, 0)
    with np.errstate(all="ignore"):  # only flagged rows overflow, and those are rated one by one
        inv = SymplecticInvariants(*_invariant_values(planes, np.linalg.det(stack)))
        f, flagged, boxes = _worst_boxes(planes, inv, t)  # the rows first, then their boxes
        flagged = flagged[:k]
        cond = np.moveaxis(_conditioned(stack), 0, -1)  # cond[k, i, j]: entry (i, j) given quadrature k, every row
        var_x, var_p = _conditional_variances(cond[2:])
        flagged |= ~((var_x > 0.0) & (var_p > 0.0))
        for measured in (0, 1):
            d_cond = _root(_conditional_dets(cond[2 * measured : 2 * measured + 2], measured))
            flagged |= _below_floor(d_cond, 1.0, f.size[:k]).any(axis=0)
        flagged |= ~np.isfinite(f.k[:k])
    rows = np.stack([f.mi[:k], f.chi_a[:k], f.chi_b[:k], f.k[:k]], axis=1).tolist()
    for j, bad in enumerate(flagged.tolist()):
        if bad:
            rows[j] = _rates(entries[j], n_samples)
        elif boxes is None:
            rows[j].append(None)
        else:
            _judge_box(boxes, j, n_samples)
            rows[j].append(min(boxes.low[j], rows[j][3]))
    return rows


def _rates(row: np.ndarray, n_samples: float | None) -> list:
    """_stacked_rates' five values of one raw row, rated on its own."""
    r = secret_key_rate(covariance(row), n_samples)
    return [r.mi, r.holevo_a, r.holevo_b, r.k_nominal, r.k_worst_case]


def worst_case_key_rate(g: CovarianceMatrix, n: float) -> float:
    """Least key rate found on the finite-statistics uncertainty box.

    Each of the 10 independent entries is known to a relative 1/sqrt(n), so
    the box has 2^10 corners. The value is the least of the rates of the
    physical corners, of the closed-form candidate minimizer applied in the
    normal-form basis, and of the nominal rate, so it never exceeds the
    nominal rate. It is not a proven minimum over the box: k is not concave
    in the entries, and on locally rotated states at n <= 1e5 a point along
    an edge of the box has been found to rate up to 8.3e-3 bits below it.
    States in standard form, as the noise model builds them, showed no
    such gap.
    """
    return worst_case_breakdown(g, n).value


def worst_case_breakdown(g: CovarianceMatrix, n: float) -> WorstCaseBreakdown:
    """worst_case_key_rate with its corner/candidate diagnostics exposed.

    A caller of _worst_boxes, which secret_key_rate and _stacked_rates call
    too. The invariants of g are computed once, for the box and for the
    closing nominal rate.
    InvalidStateError is raised when a matrix of the box overflows the
    invariants, then DegenerateBoxError when no corner is physical; the
    normal form that the candidate needs is built before that, so its own
    errors come first, and the nominal rate's checks come last.
    """
    _require_two_modes(g)
    t = _half_width(n)
    inv = invariants(g)
    _normal_form(inv)  # the candidate's normal form: its errors come before the box's
    boxes = _worst_boxes(g.entries[:, :, np.newaxis], inv, t).boxes
    _judge_box(boxes, 0, n)
    return WorstCaseBreakdown(
        corner_min=boxes.corner_min[0],
        candidate=boxes.candidate[0],
        value=min(boxes.low[0], float(_checked_formula(inv).k)),
        n_corners_physical=boxes.n_physical[0],
    )


def _half_width(n: float) -> float:
    """t = 1/sqrt(n), the relative half-width of the box at n samples."""
    if isinstance(n, bool) or not isinstance(n, numbers.Real):
        raise InvalidArgumentError(f"sample count must be a real number, got {n!r}")
    if not n >= 1:
        raise InvalidArgumentError(f"sample count must be at least 1, got {n}")
    # an int beyond the float range would overflow math.sqrt; inf is the asymptotic limit
    if n > sys.float_info.max and n != math.inf:
        raise InvalidArgumentError(f"sample count must be at most the float maximum or inf, got {n}")
    return 1.0 / math.sqrt(n)


#: the boxes of _worst_boxes, one list entry per state: the least rate of
#: its physical corners (inf when none is), its candidate's rate (None when
#: the candidate is unphysical), the least of the two, how many of its 1024
#: corners are physical, and whether a matrix of its box overflows
_Boxes = namedtuple("_Boxes", "corner_min candidate low n_physical overflow")

#: what _worst_boxes returns: the _formula of every matrix it rated (the rows
#: first), where invariants() or _checked_formula would reject each, and _Boxes
_Rated = namedtuple("_Rated", "f rejected boxes")


def _worst_boxes(planes: np.ndarray, inv: SymplecticInvariants, t: float | None = None) -> _Rated:
    """Rate matrices given as entry planes planes[i, j], shape (4, 4, rows),
    with invariants inv (invariants()'s, floats or arrays), and at relative
    half-width t their uncertainty boxes, in one _formula, one _overflows and
    one _rejected call. Without t the rows alone are rated, and boxes is None.

    Only the distinct corners are built: an entry whose values g (1 + t) and
    g (1 - t) compare equal (a zero entry, or every entry once t is below
    rounding, n = inf included) has no width, and of the corners that differ
    only in such entries the one with their bits set stands for all of them.
    With w entries of width a row has 2^w distinct corners, each of weight
    2^(10 - w), and its n_physical is the weight times its distinct physical
    count. The rows, every row's distinct corners, then one candidate per row
    (local noise up and correlations down by t in the normal form that the
    row's invariants give through gaussian._correlations) are laid out as one
    (4, 4, rows + distinct + rows) array of entry planes, with the
    per-element arithmetic of the full box, g (1 + t s), so each row's result
    is that of its 1024 corners bit for bit. A flagged row's box is rated
    too, and its caller reads none of it.

    A box matrix is physical when the single-state path would rate it (for
    two modes, Gamma + i*Omega >= 0 exactly when Gamma > 0 and d_minus >= 1):
    one elimination (gaussian._screened_det) gives i4 and whether Gamma > 0,
    and those with Gamma > 0 that _rejected and gaussian._overflows leave are
    physical. The rows keep inv.i4; the elimination's i4 agrees with LAPACK's
    only to eps * cond(Gamma), so the one corner of a box of zero width, the
    row itself, takes the row's i4 and rates as the row.
    """
    rows = planes.shape[-1]
    with np.errstate(all="ignore"):  # overflowing and unphysical matrices are masked out below
        if t is not None:
            c = _correlations(inv)
            box, counts = _box_planes(planes, _normal_form_of(inv.i1, inv.i2, inv.i3, c.cx2, c.cp2), t)
            starts = list(itertools.accumulate(counts, initial=0))  # each row's first corner
            n_corners = starts.pop()
            i4 = np.empty(box.shape[-1])
            i4[:rows] = inv.i4
            i4[rows:], positive = _screened_det(box[:, :, rows:])
            alone = [row for row, count in enumerate(counts) if count == 1]  # zero width: the corner is the row
            if alone:
                i4[[rows + starts[row] for row in alone]] = i4[alone]
            inv = SymplecticInvariants(*_invariant_values(box, i4))
            del box  # freed before the formula's temporaries are made, which lowers the peak
        f = _formula(inv)
        overflowed = _overflows(inv)
        rejected = overflowed | _rejected(inv, f)
    if t is None:
        return _Rated(f, rejected, None)
    physical = positive & ~rejected[rows:]
    overflowed = positive & overflowed[rows:]
    rates = np.where(physical, f.k[rows:], np.inf)
    corner_min, candidate = np.minimum.reduceat(rates[:n_corners], starts), rates[n_corners:]
    n_physical = np.add.reduceat(physical[:n_corners], starts, dtype=np.intp).tolist()
    boxes = _Boxes(
        corner_min.tolist(),
        [c if ok else None for c, ok in zip(candidate.tolist(), physical[n_corners:].tolist())],
        np.minimum(corner_min, candidate).tolist(),
        [m * (len(_CORNER_MASKS) // c) for m, c in zip(n_physical, counts)],
        (np.logical_or.reduceat(overflowed[:n_corners], starts) | overflowed[n_corners:]).tolist(),
    )
    return _Rated(f, rejected, boxes)


def _box_planes(planes: np.ndarray, nf: NormalForm, t: float) -> tuple:
    """(box, counts) for _worst_boxes: box[i, j] holds entry (i, j) of every
    row, then of every row's distinct corners, then of every row's
    candidate, and counts[r] is the number of distinct corners of row r."""
    rows = planes.shape[-1]
    entries = planes[_ROWS, _COLS]
    codes = (_ENTRY_BITS @ (entries * (1.0 + t) == entries * (1.0 - t))).tolist()
    factors = {code: _corner_factors(code, t) for code in set(codes)}
    counts = [factors[code].shape[-1] for code in codes]
    n_corners = sum(counts)
    box = np.empty((4, 4, rows + n_corners + rows))
    box[:, :, :rows] = planes
    corners = box[:, :, rows : rows + n_corners]
    np.concatenate([factors[code] for code in codes], axis=2, out=corners)
    np.multiply(np.repeat(planes, counts, axis=2), corners, out=corners)
    # the candidates, every entry symmetrized as covariance() does, 0.5 x + 0.5 x
    plane = box[:, :, rows + n_corners :]
    plane.fill(0.0)
    plane[0, 0] = plane[1, 1] = _symmetrized_entry(nf.lambda_a * (1.0 + t))
    plane[2, 2] = plane[3, 3] = _symmetrized_entry(nf.lambda_b * (1.0 + t))
    plane[0, 2] = plane[2, 0] = _symmetrized_entry(nf.c_x * (1.0 - t))
    plane[1, 3] = plane[3, 1] = _symmetrized_entry(-(nf.c_p * (1.0 - t)))
    return box, counts


@functools.lru_cache(maxsize=64)
def _corner_factors(code: int, t: float) -> np.ndarray:
    """The factor planes 1 + t s of the distinct corners when the entries of
    the set bits of code have no width, s the sign planes of the corners with
    all of those bits set. At most 128 KB each, and a model state's 8 KB."""
    factors = 1.0 + t * _CORNER_SIGNS[:, :, (_CORNER_MASKS & code) == code]
    factors.flags.writeable = False
    return factors


def _judge_box(boxes: _Boxes, row: int, n: float) -> None:
    """Raise InvalidStateError when a matrix of the box overflows the
    invariants, DegenerateBoxError when no corner of the box is physical,
    and warn when its candidate undercuts the corner minimum by more than
    DEFAULT_TOL."""
    if boxes.overflow[row]:
        raise InvalidStateError(f"matrices of the uncertainty box at n = {n:g} overflow the symplectic invariants")
    if boxes.n_physical[row] == 0:
        raise DegenerateBoxError(f"no physical matrix among the {len(_CORNER_MASKS)} uncertainty-box corners at n = {n:g}")
    candidate, corner_min = boxes.candidate[row], boxes.corner_min[row]
    if candidate is not None and candidate < corner_min - DEFAULT_TOL:
        _warn(
            f"closed-form worst-case candidate {candidate:.9g} undercuts the corner "
            f"minimum {corner_min:.9g}; corner enumeration may be too coarse"
        )


def _symmetrized_entry(x: float) -> float:
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
    _judge("correlation discriminant", f.disc, 0.0, f.disc_scale, FormulaDomainError)
    if f.arg <= 0.0:
        raise InvalidStateError(f"mutual information log argument {f.arg:.3e} is not positive")
    _judge("symplectic eigenvalue radicand", f.rad, 0.0, f.rad_scale)
    _judge("squared smaller symplectic eigenvalue", f.dm2, 0.0, f.d_scale)
    for name in entropy_args:
        scale = f.d_scale if name in ("d_plus", "d_minus") else f.size
        _judge(f"entropy argument {name}", getattr(f, name), 1.0, scale, InvalidArgumentError)
    return f


def _rejected(inv: SymplecticInvariants, f: _Formula) -> np.ndarray:
    """Where _checked_formula raises, as one mask over arrays of invariants
    and their _formula f, by the same comparisons on the same bits: a block
    determinant or log argument that is not positive, or the discriminant,
    the symplectic radicand, d_minus^2 or one of the four entropy arguments
    below its floor beyond rounding, all seven in one stacked
    gaussian._below_floor."""
    floored = _below_floor(
        np.array([f.disc, f.rad, f.dm2, f.d_plus, f.d_minus, f.d_a, f.d_b]),
        _FLOORS,
        np.array([f.disc_scale, f.rad_scale, f.d_scale, f.d_scale, f.d_scale, f.size, f.size]),
    )
    return (np.array([inv.i1, inv.i2, f.arg]) <= 0.0).any(axis=0) | floored.any(axis=0)


#: the floors of the seven quantities _rejected tests, one row each
_FLOORS = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])[:, np.newaxis]


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
    """entropy_f of d clamped to >= 1, for floats and arrays alike: with
    b = (d - 1)/2, (b + 1) log2(b + 1) - b log2(b) as the sum of
    non-negative terms (log1p(b) + b log1p(1/b)) / ln 2, in which nothing
    cancels, for d up to the float maximum; b = 0 divides as 1."""
    # np.log1p on floats too: math.log1p differs from it on about 0.1% of
    # inputs on AVX-512 hardware, and a single state must rate as it does in a stack
    b = _clamp(d - 1.0) / 2.0
    return (np.log1p(b) + b * np.log1p(1.0 / (b + (b == 0.0)))) / _LN2


#: ln 2, the base of _entropy's natural logarithms
_LN2 = math.log(2.0)


def _zero_rounding_noise(x):
    """x with values less than 1e-12 below zero set to 0."""
    return x * ((x >= 0.0) | (x <= -1e-12)) + 0.0


def _normalize_direction(direction: str) -> str:
    d = str(direction).upper()
    if d not in ("A", "B"):
        raise InvalidArgumentError(f"direction must be 'A' or 'B', got {direction!r}")
    return d
