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
eigenvalues, Gaussian conditioning, the conditional-variance entanglement
witness, the Wigner density, and JSON serialization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidStateError,
    NumericalDegeneracyError,
)

#: absolute tolerance for physicality and symplectic checks
DEFAULT_TOL = 1e-9

#: asymmetry tolerated on input matrices before symmetrizing
SYMMETRY_TOL = 1e-12

#: relative threshold below which a cancelling radicand is treated as zero.
#: Pure states make some invariant radicands exactly zero; float evaluation
#: leaves a residual of order machine-eps times the term magnitudes, and the
#: square root amplifies that to ~1e-8, far above the 1e-9 accuracy the pure
#: state quantities need. A radicand smaller than this fraction of its
#: constituent terms is below evaluation resolution and is snapped to zero.
#: Applied in one place, _snap, which the single-state functions and the
#: batched key-rate kernel share.
DEGENERACY_SNAP = 4e-12


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

    The matrix must be square with even dimension, symmetric up to an
    absolute asymmetry of 1e-12 (it is then symmetrized exactly), and have a
    strictly positive diagonal. Physicality is deliberately not enforced
    here: marginally unphysical matrices occur naturally as statistical
    reconstructions and may still be stored and inspected.
    """
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidStateError(f"covariance matrix must be square, got shape {m.shape}")
    dim = m.shape[0]
    if dim % 2 != 0 or dim == 0:
        raise InvalidStateError(f"covariance matrix dimension must be a positive even number, got {dim}")
    if not np.all(np.isfinite(m)):
        raise InvalidStateError("covariance matrix contains non-finite entries")
    asym = np.max(np.abs(m - m.T))
    if asym > SYMMETRY_TOL:
        raise InvalidStateError(f"covariance matrix asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_TOL:.0e}")
    m = (m + m.T) / 2.0
    if np.any(np.diag(m) <= 0.0):
        raise InvalidStateError("covariance matrix diagonal must be strictly positive")
    m.flags.writeable = False
    return CovarianceMatrix(n_modes=dim // 2, entries=m)


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
    if var_sqz <= 0.0 or var_asqz <= 0.0:
        raise InvalidArgumentError(f"variances must be positive, got ({var_sqz}, {var_asqz})")
    if not (var_sqz <= 1.0 <= var_asqz):
        warnings.warn(
            f"squeezed_vacuum({var_sqz}, {var_asqz}): expected var_sqz <= 1 <= var_asqz",
            stacklevel=2,
        )
    if var_sqz * var_asqz < 1.0 - DEFAULT_TOL:
        warnings.warn(
            f"squeezed_vacuum({var_sqz}, {var_asqz}): variance product {var_sqz * var_asqz:.6f} < 1, "
            "state violates the uncertainty relation",
            stacklevel=2,
        )
    return covariance(np.diag([float(var_sqz), float(var_asqz)]))


def db_to_variance(db: float) -> float:
    """Convert a decibel value to a linear variance, v = 10^(db/10)."""
    if not math.isfinite(db):
        raise InvalidArgumentError(f"decibel value must be finite, got {db!r}")
    return 10.0 ** (db / 10.0)


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
    residual = float(np.max(np.abs(s @ omega @ s.T - omega)))
    if residual > DEFAULT_TOL:
        raise InvalidArgumentError(f"matrix is not symplectic: max |S Omega S^T - Omega| = {residual:.3e}")
    out = s @ g.entries @ s.T
    return covariance((out + out.T) / 2.0)


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

    Equivalent to all symplectic eigenvalues being >= 1 - tol.
    """
    omega = symplectic_form(g.n_modes)
    eigs = np.linalg.eigvalsh(g.entries + 1j * omega)
    return bool(eigs.min() >= -tol)


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
    """Block determinants of a two-mode covariance matrix."""
    _require_two_modes(g)
    return SymplecticInvariants(*map(float, _invariant_values(g.entries)))


def _invariant_values(m: np.ndarray) -> tuple:
    """(i1, i2, i3, i4, i4') of a 4x4 matrix, or arrays of them for a stack."""
    e = m.transpose(-2, -1, *range(m.ndim - 2))  # e[i, j]: entry (i, j) of every matrix
    i1 = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    i2 = e[2, 2] * e[3, 3] - e[2, 3] * e[3, 2]
    i3 = e[0, 2] * e[1, 3] - e[0, 3] * e[1, 2]
    i4 = np.linalg.det(m)
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
    A discriminant below -1e-9 raises NumericalDegeneracyError; small
    negative values are clamped to zero.
    """
    inv = invariants(g)
    if inv.i1 <= 0.0 or inv.i2 <= 0.0:
        raise InvalidStateError(f"block determinants must be positive, got i1={inv.i1}, i2={inv.i2}")
    _, _, _, disc, cx2, cp2, _ = _radicands(inv)
    if disc < -DEFAULT_TOL:
        raise NumericalDegeneracyError(f"normal form discriminant {disc:.3e} below -1e-9")
    la = math.sqrt(inv.i1)
    lb = math.sqrt(inv.i2)
    cx = math.sqrt(max(cx2, 0.0))
    cp_mag = math.sqrt(max(cp2, 0.0))
    if inv.i3 == 0.0:
        cp = 0.0
    else:
        cp = cp_mag if inv.i3 < 0.0 else -cp_mag
    return NormalForm(lambda_a=la, lambda_b=lb, c_x=cx, c_p=cp)


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


def symplectic_eigenvalues_from_invariants(inv: SymplecticInvariants) -> tuple[float, float]:
    """Symplectic eigenvalues (d_plus, d_minus) from the invariants.

    d_pm = sqrt((Delta pm sqrt(Delta^2 - 4*i4)) / 2) with
    Delta = i1 + i2 + 2*i3. Radicands below -1e-9 raise
    NumericalDegeneracyError; smaller negatives are clamped.
    """
    rad, hi, lo, *_ = _radicands(inv)
    _check_symplectic_squares(rad, lo)
    return math.sqrt(max(hi, 0.0)), math.sqrt(max(lo, 0.0))


def symplectic_eigenvalues(g: CovarianceMatrix) -> tuple[float, float]:
    """Symplectic eigenvalues of a two-mode state, largest first."""
    return symplectic_eigenvalues_from_invariants(invariants(g))


def conditional_variance(g: CovarianceMatrix, target: int, given: int) -> float:
    """Variance of one quadrature after conditioning on another.

    Plain one-dimensional Gaussian conditioning,
    Var(target) - Cov(target, given)^2 / Var(given). Indices follow the
    (X_1, P_1, X_2, P_2, ...) ordering.
    """
    if target == given:
        raise InvalidArgumentError("target and given quadratures must differ")
    m = g.entries
    v_given = m[given, given]
    if v_given <= 0.0:
        raise InvalidStateError(f"variance of conditioning quadrature {given} is not positive: {v_given}")
    return float(m[target, target] - m[target, given] ** 2 / v_given)


def epr_product(g: CovarianceMatrix, direction: str = "a_given_b") -> tuple[float, float]:
    """Conditional-variance product witnessing EPR entanglement.

    Returns (direct, optimized). The direct value multiplies the two
    conditional variances with X and P used as measured,
    Var(X_t|X_c) * Var(P_t|P_c) for the stated direction. The optimized
    value minimizes over local quadrature choices and equals i4/i2 when
    conditioning mode A on mode B and i4/i1 for the reverse. The state is
    EPR entangled when the optimized product is below 1.
    """
    _require_two_modes(g)
    direction = direction.lower()
    if direction not in ("a_given_b", "b_given_a"):
        raise InvalidArgumentError(f"direction must be 'a_given_b' or 'b_given_a', got {direction!r}")
    inv = invariants(g)
    if direction == "a_given_b":
        direct = conditional_variance(g, 0, 2) * conditional_variance(g, 1, 3)
        optimized = inv.i4 / inv.i2
    else:
        direct = conditional_variance(g, 2, 0) * conditional_variance(g, 3, 1)
        optimized = inv.i4 / inv.i1
    return float(direct), float(optimized)


def wigner_density(g: CovarianceMatrix, xi) -> float:
    """Phase-space quasi-probability density at the point xi.

    For the zero-mean Gaussian states handled here this is the normalized
    multivariate Gaussian density with covariance Gamma, so it integrates
    to one over phase space.
    """
    x = np.asarray(xi, dtype=float).reshape(-1)
    if x.shape[0] != g.dim:
        raise InvalidArgumentError(f"phase-space point has length {x.shape[0]}, state needs {g.dim}")
    sign, logdet = np.linalg.slogdet(g.entries)
    if sign <= 0:
        raise InvalidStateError("covariance matrix is singular or not positive definite")
    try:
        sol = np.linalg.solve(g.entries, x)
    except np.linalg.LinAlgError as exc:
        raise InvalidStateError("covariance matrix is singular") from exc
    quad = float(x @ sol)
    log_norm = -0.5 * (g.dim * math.log(2.0 * math.pi) + logdet)
    return float(math.exp(log_norm - 0.5 * quad))


def covariance_to_json(g: CovarianceMatrix) -> dict:
    """Serializable document form, {"n_modes": n, "entries": [[...], ...]}."""
    return {"n_modes": g.n_modes, "entries": [[float(v) for v in row] for row in g.entries]}


def covariance_from_json(doc: dict) -> CovarianceMatrix:
    """Parse the document form produced by covariance_to_json.

    Asymmetry up to 1e-12 is tolerated and symmetrized away; anything larger
    is rejected.
    """
    if not isinstance(doc, dict) or "n_modes" not in doc or "entries" not in doc:
        raise InvalidStateError("covariance document must contain 'n_modes' and 'entries'")
    g = covariance(doc["entries"])
    if g.n_modes != doc["n_modes"]:
        raise InvalidStateError(f"declared n_modes {doc['n_modes']} does not match matrix of {g.n_modes} modes")
    return g


def _snap(rad, scale):
    """rad, zeroed where |rad| < DEGENERACY_SNAP * scale, the size of the
    terms that cancel in rad; for floats and arrays alike."""
    return rad * (abs(rad) >= DEGENERACY_SNAP * scale)


def _clamp(x):
    """max(x, 0), exact, for floats and arrays alike."""
    return (x + abs(x)) / 2.0


def _check_symplectic_squares(rad: float, lo: float) -> None:
    if rad < -DEFAULT_TOL:
        raise NumericalDegeneracyError(f"symplectic eigenvalue radicand {rad:.3e} below -1e-9")
    if lo < -DEFAULT_TOL:
        raise NumericalDegeneracyError(f"negative squared symplectic eigenvalue {lo:.3e}")


def _radicands(inv: SymplecticInvariants) -> tuple:
    """The radicands of the invariant formulas and the squares they give.

    Returns (rad, d_plus^2, d_minus^2) of the symplectic eigenvalues, with
    rad = Delta^2 - 4*i4, then (disc, c_x^2, c_p^2) of the correlation
    quadratic t^2 - (i4'/s) t + i3^2 = 0, and s = sqrt(i1*i2). rad and disc
    are snapped, and clamped only inside the roots. The invariants may be
    floats or arrays; s reads 1 where i1*i2 <= 0, which callers reject.
    """
    delta = inv.i1 + inv.i2 + 2.0 * inv.i3
    rad = _snap(delta * delta - 4.0 * inv.i4, delta * delta + 4.0 * abs(inv.i4))
    q = inv.i1 * inv.i2
    s = _clamp(q) ** 0.5 + (q <= 0.0)
    u = inv.i4_prime / s
    disc = _snap(u * u - 4.0 * inv.i3 * inv.i3, u * u + 4.0 * inv.i3 * inv.i3)
    d_root, c_root = _clamp(rad) ** 0.5, _clamp(disc) ** 0.5
    return rad, (delta + d_root) / 2.0, (delta - d_root) / 2.0, disc, (u + c_root) / 2.0, (u - c_root) / 2.0, s


def _require_two_modes(g: CovarianceMatrix) -> None:
    if g.n_modes != 2:
        raise InvalidArgumentError(f"operation requires a two-mode state, got {g.n_modes} modes")
