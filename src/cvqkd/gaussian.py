"""Gaussian states of one or two optical modes as covariance matrices.

Conventions, used consistently across the package:

* quadrature ordering (X_1, P_1, X_2, P_2, ...), amplitude before phase
* vacuum variance normalized to 1 on every quadrature
* zero first moments everywhere, so the covariance matrix is the state
* a state is physical when the Hermitian matrix Gamma + i*Omega is positive
  semidefinite, equivalently when all symplectic eigenvalues are >= 1

The module provides constructors (vacuum, squeezed vacuum, tensor products),
symplectic transformations and the balanced beam splitter, the physicality
test, local symplectic invariants and the two-mode normal form, symplectic
eigenvalues, Gaussian conditioning (one kernel, _conditioned, read by
conditional_variance, epr_product and the key-rate oracles), the
conditional-variance entanglement witness, and JSON serialization.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormulaDomainError,
    InvalidArgumentError,
    InvalidStateError,
    NumericalDegeneracyError,
    _warn,
)

#: absolute tolerance for physicality and symplectic checks
DEFAULT_TOL = 1e-9

#: asymmetry tolerated on input matrices before symmetrizing
SYMMETRY_TOL = 1e-12

#: The one tolerance rule of the invariant formula, 16 eps. A quantity with
#: a floor (0 for a radicand or a square, 1 for an entropy argument) is judged
#: on its scale, the size of the terms that cancel in computing it
#: (_radicands); rounding leaves a few eps times that. Within DEGENERACY_SNAP
#: times its scale of the floor, a radicand is snapped to 0 (pure states make
#: some exactly 0, and a root would amplify the residual) and anything else is
#: clamped. Below the floor by more than DEFAULT_TOL plus that (_below_floor),
#: it is an error naming the quantity (_judge, for single states).
DEGENERACY_SNAP = 2.0**-48


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """A real symmetric 2n x 2n matrix of quadrature second moments.

    Build instances through :func:`covariance`, which validates shape,
    symmetry and the positive diagonal; the raw constructor performs no
    checks.
    """

    n_modes: int
    entries: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.n_modes


def covariance(entries) -> CovarianceMatrix:
    """Validate a matrix and wrap it as a CovarianceMatrix.

    The entries must form a numeric array, square with even dimension,
    symmetric up to an absolute asymmetry of 1e-12 (it is then symmetrized
    exactly), and have a strictly positive diagonal. Physicality is
    deliberately not enforced here: marginally unphysical matrices occur
    naturally as statistical reconstructions and may still be stored and
    inspected.
    """
    try:
        m = np.asarray(entries, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:  # ragged, non-numeric, or an int beyond the float range
        raise InvalidStateError(f"covariance matrix entries are not a numeric array: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidStateError(f"covariance matrix must be square, got shape {m.shape}")
    dim = m.shape[0]
    if dim % 2 != 0 or dim == 0:
        raise InvalidStateError(f"covariance matrix dimension must be a positive even number, got {dim}")
    m = _symmetrized(m)
    m.flags.writeable = False
    return CovarianceMatrix(n_modes=dim // 2, entries=m)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """covariance()'s rules on one float matrix, or on each of a (k, n, n)
    stack at once: finite entries, an asymmetry within SYMMETRY_TOL, then
    exact symmetrization, and a strictly positive diagonal. Returns m
    symmetrized, or raises the InvalidStateError of the first rule that an
    entry of m breaks."""
    if not np.isfinite(m).all():
        raise InvalidStateError("covariance matrix contains non-finite entries")
    # halves first, so entries near the float maximum cannot overflow; for
    # normal floats this is bit for bit (m - m.T) / 2 and (m + m.T) / 2
    half = 0.5 * m
    half_t = half.swapaxes(-1, -2)
    asym = 2.0 * float(abs(half - half_t).max(initial=0.0))  # a Python float overflows to inf silently
    if asym > SYMMETRY_TOL:
        raise InvalidStateError(f"covariance matrix asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_TOL:.0e}")
    m = half + half_t
    if (m.diagonal(0, -2, -1) <= 0.0).any():
        raise InvalidStateError("covariance matrix diagonal must be strictly positive")
    return m


def vacuum(n_modes: int) -> CovarianceMatrix:
    """The n-mode vacuum state, an identity matrix of size 2n."""
    if n_modes < 1 or int(n_modes) != n_modes:
        raise InvalidArgumentError(f"n_modes must be a positive integer, got {n_modes!r}")
    return covariance(np.eye(2 * int(n_modes)))


def squeezed_vacuum(var_sqz: float, var_asqz: float) -> CovarianceMatrix:
    """A single-mode state diag(var_sqz, var_asqz), squeezing on X.

    For a pure squeezed state var_asqz = 1/var_sqz. The constructor warns
    (but does not fail) when the pair is not ordered var_sqz <= 1 <= var_asqz
    or when var_sqz*var_asqz < 1, which would violate the uncertainty
    relation; such matrices are representable but unphysical.
    """
    return covariance(np.diag(_squeezed_variances(var_sqz, var_asqz)))


def _squeezed_variances(var_sqz: float, var_asqz: float) -> list:
    """squeezed_vacuum's checks and warnings."""
    if var_sqz <= 0.0 or var_asqz <= 0.0:
        raise InvalidArgumentError(f"variances must be positive, got ({var_sqz}, {var_asqz})")
    if not (var_sqz <= 1.0 <= var_asqz):
        _warn(f"squeezed_vacuum({var_sqz}, {var_asqz}): expected var_sqz <= 1 <= var_asqz")
    if var_sqz * var_asqz < 1.0 - DEFAULT_TOL:
        _warn(
            f"squeezed_vacuum({var_sqz}, {var_asqz}): variance product {var_sqz * var_asqz:.6f} < 1, "
            "state violates the uncertainty relation"
        )
    return [float(var_sqz), float(var_asqz)]


def db_to_variance(db: float) -> float:
    """Convert a decibel value to a linear variance, v = 10^(db/10)."""
    if not math.isfinite(db):
        raise InvalidArgumentError(f"decibel value must be finite, got {db!r}")
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError as exc:
        raise InvalidArgumentError(f"decibel value {db!r} is a variance beyond the float range") from exc


def variance_to_db(v: float) -> float:
    """Convert a linear variance to decibels, inverse of db_to_variance."""
    if not (v > 0.0):
        raise InvalidArgumentError(f"variance must be positive, got {v!r}")
    return 10.0 * math.log10(v)


def tensor(a: CovarianceMatrix, b: CovarianceMatrix) -> CovarianceMatrix:
    """Direct sum of two states, preserving quadrature ordering."""
    da, db_ = a.dim, b.dim
    out = np.zeros((da + db_, da + db_))
    out[:da, :da] = a.entries
    out[da:, da:] = b.entries
    return covariance(out)


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n symplectic form, 2x2 blocks [[0, 1], [-1, 0]] on the diagonal."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block
    return out


def squeeze(r: float) -> np.ndarray:
    """Single-mode squeezer diag(e^-r, e^r); positive r squeezes X."""
    return np.diag([math.exp(-r), math.exp(r)])


def rotation(theta: float) -> np.ndarray:
    """Single-mode phase-space rotation by theta radians."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def apply_symplectic(g: CovarianceMatrix, s) -> CovarianceMatrix:
    """Transform a state by a symplectic matrix, Gamma -> S Gamma S^T.

    S must satisfy S Omega S^T = Omega within 1e-9; otherwise the call is
    rejected with the residual norm in the message. The result is
    symmetrized exactly before wrapping.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (g.dim, g.dim):
        raise InvalidArgumentError(f"symplectic matrix shape {s.shape} does not match state dimension {g.dim}")
    omega = symplectic_form(g.n_modes)
    # a product that overflows reads inf or NaN without numpy's warning: a NaN
    # residual fails the check, and covariance() names a non-finite entry
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(s @ omega @ s.T - omega)))
        if not residual <= DEFAULT_TOL:
            raise InvalidArgumentError(f"matrix is not symplectic: max |S Omega S^T - Omega| = {residual:.3e}")
        out = s @ g.entries @ s.T
        out = (out + out.T) / 2.0
    return covariance(out)


def balanced_beamsplitter() -> np.ndarray:
    """Symplectic matrix of a balanced beam splitter on two modes.

    The sign convention is chosen so that an X-squeezed input on mode 1
    combined with vacuum yields positive X correlations and negative P
    correlations between the outputs.
    """
    return np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
    ) / math.sqrt(2.0)


def is_physical(g: CovarianceMatrix, tol: float = DEFAULT_TOL) -> bool:
    """True when Gamma + i*Omega is positive semidefinite within tol.

    tol bounds the least eigenvalue of the Hermitian matrix Gamma + i*Omega:
    the state passes when that eigenvalue is >= -tol. At tol = 0 this is
    equivalent to all symplectic eigenvalues being >= 1, but tol is not a
    margin on the symplectic eigenvalues: a reconstructed state with
    nu_minus = 0.9396 passes at tol = 0.05, because the least eigenvalue of
    its Gamma + i*Omega is -0.0438. One Cholesky factorization of
    Gamma + i*Omega + tol*I decides it, as it exists exactly when that matrix
    is positive definite; its rounding is about eps * ||Gamma||.
    """
    try:
        np.linalg.cholesky(g.entries + (1j * symplectic_form(g.n_modes) + tol * np.eye(g.dim)))
    except np.linalg.LinAlgError:
        return False
    return True


def _screened_det(planes: np.ndarray) -> tuple:
    """(det, positive) of symmetric matrices given as entry planes planes[i, j],
    the worst-case box's screen, by one elimination without pivoting.

    positive holds where every pivot is > 0, that is where the matrix is
    positive definite, and det is the product of the pivots. There the
    elimination is a Cholesky factorization without its roots, stable
    without pivoting, and det agrees with np.linalg.det's to eps * cond
    relative; elsewhere det means nothing. A pivot updates its trailing block
    in three calls; only its upper triangle, rounded as plane by plane, is read.
    """
    a = planes
    det = pivot = a[0, 0]
    positive = pivot > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(len(planes) - 1):
            row = a[0, 1:]
            a = a[1:, 1:] - (row / pivot)[:, np.newaxis] * row
            pivot = a[0, 0]
            det = det * pivot
            positive &= pivot > 0.0
    return det, positive


@dataclass(frozen=True)
class SymplecticInvariants:
    """Local symplectic invariants of a two-mode state.

    i1, i2 are the determinants of the diagonal (single-party) 2x2 blocks,
    i3 of the off-diagonal correlation block, i4 of the full matrix, and
    i4_prime = i1*i2 + i3**2 - i4 is the derived combination that appears in
    the information quantities.
    """

    i1: float
    i2: float
    i3: float
    i4: float
    i4_prime: float


def invariants(g: CovarianceMatrix) -> SymplecticInvariants:
    """Block determinants of a two-mode covariance matrix.

    InvalidStateError is raised when entries are so large that the
    invariants, or the square of Delta = i1 + i2 + 2*i3 that the symplectic
    eigenvalues need, overflow the float range.
    """
    _require_two_modes(g)
    with np.errstate(over="ignore", invalid="ignore"):
        # np.linalg.det, not _screened_det: g need not be positive definite
        inv = SymplecticInvariants(*map(float, _invariant_values(g.entries, np.linalg.det(g.entries))))
    if _overflows(inv):
        raise InvalidStateError(
            f"covariance entries up to {np.abs(g.entries).max():.3g} overflow the symplectic invariants"
        )
    return inv


def _overflows(inv: SymplecticInvariants):
    """invariants()'s overflow rule, for floats and arrays alike (a Python
    float overflows to inf without a warning)."""
    delta = inv.i1 + inv.i2 + 2.0 * inv.i3
    return ~np.isfinite(delta * delta + 4.0 * abs(inv.i4) + inv.i4_prime)


def _invariant_values(e: np.ndarray, i4) -> tuple:
    """(i1, i2, i3, i4, i4') of a 4x4 matrix, or arrays of them for a stack,
    from its entries e[i, j] (the matrix itself, or entry planes) and its
    determinant i4."""
    i1 = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    i2 = e[2, 2] * e[3, 3] - e[2, 3] * e[3, 2]
    i3 = e[0, 2] * e[1, 3] - e[0, 3] * e[1, 2]
    return i1, i2, i3, i4, i1 * i2 + i3 * i3 - i4


@dataclass(frozen=True)
class NormalForm:
    """Parameters (lambda_a, lambda_b, c_x, c_p) of the two-mode normal form.

    lambda_a and lambda_b are the local symplectic-invariant block strengths,
    c_x >= |c_p| the amplitude and phase correlation coefficients. The
    corresponding matrix has diag blocks lambda*Identity and correlation
    block diag(c_x, -c_p).
    """

    lambda_a: float
    lambda_b: float
    c_x: float
    c_p: float


def normal_form(g: CovarianceMatrix) -> NormalForm:
    """Reduce a two-mode state to its normal-form parameters.

    lambda_a = sqrt(i1), lambda_b = sqrt(i2); c_x^2 and c_p^2 are the two
    roots of t^2 - (i4_prime/sqrt(i1*i2)) t + i3^2 = 0 with c_x taking the
    larger root, and c_p carries sign +1 when i3 < 0 (so that i3 = -c_x*c_p).
    FormulaDomainError when the discriminant is negative beyond rounding
    (the tolerance rule of DEGENERACY_SNAP).
    """
    return _normal_form(invariants(g))


def _normal_form(inv: SymplecticInvariants) -> NormalForm:
    """normal_form from the invariants."""
    _check_block_determinants(inv)
    c = _correlations(inv)
    _judge("correlation discriminant", c.disc, 0.0, c.disc_scale, FormulaDomainError)
    return _normal_form_of(inv.i1, inv.i2, inv.i3, c.cx2, c.cp2)


def _normal_form_of(i1, i2, i3, cx2, cp2) -> NormalForm:
    """The normal form of checked invariants and their _correlations' c_x^2
    and c_p^2, for floats and arrays alike."""
    if isinstance(i3, float):
        c_p = math.copysign(_root(cp2), -i3) if i3 != 0.0 else 0.0
    else:
        c_p = np.where(i3 != 0.0, np.copysign(_root(cp2), -i3), 0.0)
    return NormalForm(_root(i1), _root(i2), _root(cx2), c_p)


def normal_form_matrix(nf: NormalForm) -> CovarianceMatrix:
    """Build the covariance matrix with the given normal-form parameters."""
    la, lb, cx, cp = nf.lambda_a, nf.lambda_b, nf.c_x, nf.c_p
    return covariance(
        np.array(
            [
                [la, 0.0, cx, 0.0],
                [0.0, la, 0.0, -cp],
                [cx, 0.0, lb, 0.0],
                [0.0, -cp, 0.0, lb],
            ]
        )
    )


def symplectic_eigenvalues(g: CovarianceMatrix) -> tuple[float, float]:
    """Symplectic eigenvalues (d_plus, d_minus) of a two-mode state.

    d_pm^2 = (Delta pm sqrt(Delta^2 - 4*i4)) / 2 with Delta = i1 + i2 + 2*i3,
    d_minus^2 taken as i4/d_plus^2. NumericalDegeneracyError when the radicand
    or d_minus^2 is negative beyond rounding (the rule of DEGENERACY_SNAP).
    """
    r = _radicands(invariants(g))
    _judge("symplectic eigenvalue radicand", r.rad, 0.0, r.rad_scale)
    _judge("squared smaller symplectic eigenvalue", r.dm2, 0.0, r.d_scale)
    return r.d_plus, r.d_minus


def conditional_variance(g: CovarianceMatrix, target: int, given: int) -> float:
    """Variance of one quadrature after conditioning on another.

    Plain one-dimensional Gaussian conditioning,
    Var(target) - Cov(target, given)^2 / Var(given), one entry of
    _conditioned. Indices follow the (X_1, P_1, X_2, P_2, ...) ordering.
    """
    if target == given:
        raise InvalidArgumentError("target and given quadratures must differ")
    return float(_conditioned(g.entries, [given])[0, target, target])


def epr_product(g: CovarianceMatrix, direction: str = "a_given_b") -> tuple[float, float]:
    """Conditional-variance product witnessing EPR entanglement.

    Returns (direct, optimized). The direct value multiplies the two
    conditional variances with X and P used as measured,
    Var(X_t|X_c) * Var(P_t|P_c) for the stated direction, read from
    _conditioned on the two conditioning quadratures. The optimized
    value minimizes over local quadrature choices and equals i4/i2 when
    conditioning mode A on mode B and i4/i1 for the reverse. The state is
    EPR entangled when the optimized product is below 1.
    """
    _require_two_modes(g)
    direction = direction.lower()
    if direction not in _EPR_DIRECTIONS:
        raise InvalidArgumentError(f"direction must be 'a_given_b' or 'b_given_a', got {direction!r}")
    return _epr_products(g, [direction])[0]


#: each direction's two conditioning quadratures, X and P of the other mode,
#: and the block determinant its optimized product divides i4 by
_EPR_DIRECTIONS = {"a_given_b": ((2, 3), "i2"), "b_given_a": ((0, 1), "i1")}


def _epr_products(g: CovarianceMatrix, directions) -> list:
    """[epr_product(g, d) for d in directions] from one invariants() and one
    _conditioned() of g, bit for bit, with its errors in the same order.

    Conditioning on quadrature k leaves the variance of the other mode's
    matching quadrature k ^ 2 at [k ^ 2, k ^ 2] of k's slice.
    """
    inv = invariants(g)
    cond = _conditioned(g.entries, [k for d in directions for k in _EPR_DIRECTIONS[d][0]])
    out = []
    for j, direction in enumerate(directions):
        (kx, kp), block = _EPR_DIRECTIONS[direction]
        direct = cond[2 * j, kx ^ 2, kx ^ 2] * cond[2 * j + 1, kp ^ 2, kp ^ 2]
        out.append((float(direct), float(inv.i4 / getattr(inv, block))))
    return out


def _conditioned(m: np.ndarray, given=slice(None)) -> np.ndarray:
    """The states left after one quadrature is measured, as one stack.

    m is one matrix or a (..., 2n, 2n) stack of them. Slice [..., j, :, :] is
    the Schur complement m - m[:, k] m[k, :] / m[k, k] for the j-th
    quadrature k of given (index list or slice, all by default), the
    covariance conditioned on the outcome of k; a stack gets each matrix's
    arithmetic bit for bit. m must be symmetric, as every CovarianceMatrix
    is. A non-positive m[k, k] raises InvalidStateError, which a
    CovarianceMatrix's positive diagonal never does.
    """
    var = m.diagonal(0, -2, -1)[..., given]
    if not all(v > 0.0 for v in var.ravel().tolist()):
        raise InvalidStateError(f"variances of the conditioning quadratures must be positive, got {var.tolist()}")
    col = m[..., given].swapaxes(-1, -2)[..., np.newaxis]  # col[..., j, :, 0]: column k of m, equal to row k
    return m[..., np.newaxis, :, :] - col * col.swapaxes(-1, -2) / var[..., np.newaxis, np.newaxis]


def covariance_to_json(g: CovarianceMatrix) -> dict:
    """Serializable document form, {"n_modes": n, "entries": [[...], ...]}."""
    return {"n_modes": g.n_modes, "entries": g.entries.tolist()}


def covariance_from_json(doc: dict) -> CovarianceMatrix:
    """Parse the document form produced by covariance_to_json.

    Asymmetry up to 1e-12 is tolerated and symmetrized away; anything larger
    is rejected. Entries and n_modes must be JSON numbers: numpy would read
    the string "3" as 3.0 and true as 1.0, so strings and booleans are
    rejected here, before covariance() sees them.
    """
    if not isinstance(doc, dict) or "n_modes" not in doc or "entries" not in doc:
        raise InvalidStateError("covariance document must contain 'n_modes' and 'entries'")
    pending = [doc["entries"]]
    while pending:  # every leaf of the nested lists, without recursion
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, (str, bool)):
            raise InvalidStateError(f"covariance matrix entries are not a numeric array: {item!r} is not a JSON number")
    g = covariance(doc["entries"])
    n_modes = doc["n_modes"]
    if isinstance(n_modes, bool) or not isinstance(n_modes, (int, float)) or g.n_modes != n_modes:
        raise InvalidStateError(f"declared n_modes {n_modes!r} does not match matrix of {g.n_modes} modes")
    return g


def _snap(rad, scale):
    """rad, zeroed where |rad| < DEGENERACY_SNAP * scale, the size of the
    terms that cancel in rad; for floats and arrays alike."""
    return rad * (abs(rad) >= DEGENERACY_SNAP * scale)


def _clamp(x):
    """max(x, 0), exact and without overflow, for floats and arrays alike."""
    return x * (x > 0.0) + 0.0


def _root(x):
    """sqrt(max(x, 0)) for floats and arrays alike: the one square root of
    the invariant formula. math.sqrt and np.sqrt both round correctly (C pow
    does not), so a float and a stack give the same bits."""
    return math.sqrt(_clamp(x)) if isinstance(x, float) else np.sqrt(_clamp(x))


def _below_floor(value, floor, scale):
    """The one tolerance rule, for floats and arrays alike: value is below
    floor by more than DEFAULT_TOL + DEGENERACY_SNAP * scale, the rounding of
    the terms that cancel in it."""
    return value < floor - (DEFAULT_TOL + DEGENERACY_SNAP * scale)


def _judge(what: str, value: float, floor: float, scale: float, error=NumericalDegeneracyError) -> None:
    """Raise error(message) naming a single-state quantity that _below_floor rejects."""
    if _below_floor(value, floor, scale):
        tol = DEFAULT_TOL + DEGENERACY_SNAP * scale
        raise error(f"{what} is {value:.10g}, {floor - value:.3g} below {floor:g}, beyond its rounding tolerance {tol:.2g}")


def _check_block_determinants(inv: SymplecticInvariants) -> None:
    if inv.i1 <= 0.0 or inv.i2 <= 0.0:
        raise InvalidStateError(f"block determinants must be positive, got i1={inv.i1}, i2={inv.i2}")


#: what _radicands returns, for floats or arrays
_Radicands = namedtuple("_Radicands", "rad rad_scale dm2 d_plus d_minus d_scale disc disc_scale cx2 cp2 s size")


def _radicands(inv: SymplecticInvariants) -> _Radicands:
    """The radicands of the invariant formulas, their scales, and the squares.

    d_plus^2 = (Delta + sqrt(rad))/2 and c_x^2 = (u + sqrt(disc))/2, with
    u = i4'/s and s = sqrt(i1*i2), are the larger roots of t^2 - Delta t + i4
    and t^2 - u t + i3^2; the smaller are the products over them, so nothing
    cancels. Delta sums terms of size = |i1| + |i2| + 2|i3|, and u terms of
    (|i1 i2| + i3^2 + |i4|)/s. d_scale, that of d_plus^2 and d_minus^2, adds
    what the root of an unsnapped rad amplifies: the rounding of rad over
    2 sqrt(rad). s reads 1 where i1*i2 <= 0 and a larger root 0 divides as 1;
    only non-states reach either. Its correlation half is _correlations, which
    gives keyrate._worst_boxes its candidates' normal forms before the one
    formula call that rates a chunk's rows, corners and candidates.
    """
    size = abs(inv.i1) + abs(inv.i2) + 2.0 * abs(inv.i3)
    delta = inv.i1 + inv.i2 + 2.0 * inv.i3
    rad_scale = size * abs(delta) + 4.0 * abs(inv.i4)
    rad = _snap(delta * delta - 4.0 * inv.i4, rad_scale)
    rad_root = _root(rad)
    dp2 = (delta + rad_root) / 2.0
    dm2 = inv.i4 / (dp2 + (dp2 == 0.0))
    d_scale = size + rad_scale * (rad > 0.0) / (2.0 * rad_root + (rad <= 0.0))
    return _Radicands(rad, rad_scale, dm2, _root(dp2), _root(dm2), d_scale, *_correlations(inv), size)


#: what _correlations returns, for floats or arrays: the tail of _Radicands
_Correlations = namedtuple("_Correlations", _Radicands._fields[6:-1])


def _correlations(inv: SymplecticInvariants) -> _Correlations:
    """The correlation half of _radicands, for floats and arrays alike: disc,
    its scale, c_x^2 and c_p^2, the roots of t^2 - u t + i3^2, and s."""
    q, i3_sq = inv.i1 * inv.i2, inv.i3 * inv.i3
    s = _root(q) + (q <= 0.0)
    u = inv.i4_prime / s
    disc_scale = (abs(q) + i3_sq + abs(inv.i4)) / s * abs(u) + 4.0 * i3_sq
    disc = _snap(u * u - 4.0 * i3_sq, disc_scale)
    cx2 = (u + _root(disc)) / 2.0
    cp2 = i3_sq / (cx2 + (cx2 == 0.0))
    return _Correlations(disc, disc_scale, cx2, cp2, s)


def _require_two_modes(g: CovarianceMatrix) -> None:
    if g.n_modes != 2:
        raise InvalidArgumentError(f"operation requires a two-mode state, got {g.n_modes} modes")
