"""Covariance-matrix core: constructors, symplectics, invariants, witnesses."""

import math
import re
import sys

import numpy as np
import pytest

from cvqkd.errors import InvalidArgumentError, InvalidStateError
from cvqkd.gaussian import (
    DEFAULT_TOL,
    CovarianceMatrix,
    _clamp,
    _conditioned,
    _epr_products,
    _require_two_modes,
    _screened_det,
    apply_symplectic,
    balanced_beamsplitter,
    conditional_variance,
    covariance,
    covariance_from_json,
    covariance_to_json,
    db_to_variance,
    epr_product,
    invariants,
    is_physical,
    normal_form,
    normal_form_matrix,
    rotation,
    squeeze,
    squeezed_vacuum,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    vacuum,
    variance_to_db,
)

from conftest import RECONSTRUCTED_EXAMPLE, random_normal_form_state


def tmsv(lam):
    """Two-mode squeezed vacuum with local variance lam, a pure state."""
    c = math.sqrt(lam * lam - 1.0)
    return covariance(
        [
            [lam, 0.0, c, 0.0],
            [0.0, lam, 0.0, -c],
            [c, 0.0, lam, 0.0],
            [0.0, -c, 0.0, lam],
        ]
    )


def random_rotated_state(rng):
    """Normal-form state pushed out of axis alignment by local rotations."""
    g = random_normal_form_state(rng)
    s = np.zeros((4, 4))
    s[0:2, 0:2] = rotation(float(rng.uniform(0.0, math.pi)))
    s[2:4, 2:4] = rotation(float(rng.uniform(0.0, math.pi)))
    return apply_symplectic(g, s)


# ---------------------------------------------------------------- construction


def test_covariance_rejects_non_square():
    with pytest.raises(InvalidStateError):
        covariance(np.ones((2, 3)))


def test_covariance_rejects_odd_dimension():
    with pytest.raises(InvalidStateError):
        covariance(np.eye(3))


def test_covariance_rejects_asymmetry_above_tolerance():
    m = np.eye(2)
    m[0, 1] = 1e-9
    with pytest.raises(InvalidStateError):
        covariance(m)


def test_covariance_symmetrizes_tiny_asymmetry():
    m = np.eye(2)
    m[0, 1] = 4e-13
    g = covariance(m)
    assert g.entries[0, 1] == g.entries[1, 0] == pytest.approx(2e-13, rel=1e-9)


def test_covariance_symmetrizes_entries_near_float_max_without_overflow():
    """RuntimeWarnings fail the suite, so no step may overflow on finite input."""
    g = covariance(np.eye(4) * 1.5e308)
    np.testing.assert_array_equal(g.entries, np.eye(4) * 1.5e308)
    with pytest.raises(InvalidStateError, match=r"entries up to 1\.5e\+308 overflow"):
        invariants(g)
    m = np.eye(4) * 1.5e308
    m[0, 1], m[1, 0] = 1.5e308, -1.5e308
    with pytest.raises(InvalidStateError, match="asymmetry inf exceeds"):
        covariance(m)


def test_covariance_symmetrizes_like_the_plain_average():
    """Halving first changes no bit for normal floats."""
    rng = np.random.default_rng(17)
    for scale in (1e-300, 1e-12, 1.0, 1e12, 1e300):
        a = rng.standard_normal((4, 4)) * scale
        m = a + a.T + 8.0 * scale * np.eye(4) + np.triu(rng.uniform(-4e-13, 4e-13, (4, 4)), 1)
        np.testing.assert_array_equal(covariance(m).entries, (m + m.T) / 2.0)


def test_covariance_rejects_non_positive_diagonal():
    with pytest.raises(InvalidStateError):
        covariance(np.diag([1.0, 0.0]))


def test_covariance_rejects_non_finite():
    with pytest.raises(InvalidStateError):
        covariance(np.array([[1.0, math.nan], [math.nan, 1.0]]))


@pytest.mark.parametrize(
    "entries",
    [
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        {"a": 1},
        [["a", 0.0], [0.0, 1.0]],
        [[10**400, 0], [0, 1]],
    ],
    ids=["ragged", "object", "string", "int-beyond-float"],
)
def test_covariance_rejects_entries_that_are_not_a_numeric_array(entries):
    with pytest.raises(InvalidStateError, match="entries are not a numeric array"):
        covariance(entries)


def test_covariance_entries_are_read_only():
    g = vacuum(1)
    with pytest.raises(ValueError):
        g.entries[0, 0] = 2.0


def test_vacuum_is_identity():
    np.testing.assert_array_equal(vacuum(2).entries, np.eye(4))
    assert vacuum(3).n_modes == 3 and vacuum(3).dim == 6


def test_vacuum_rejects_bad_mode_count():
    with pytest.raises(InvalidArgumentError):
        vacuum(0)


def test_squeezed_vacuum_diagonal():
    g = squeezed_vacuum(0.25, 4.0)
    np.testing.assert_array_equal(g.entries, np.diag([0.25, 4.0]))


def test_squeezed_vacuum_warns_when_unordered():
    with pytest.warns(UserWarning, match="var_sqz <= 1 <= var_asqz"):
        squeezed_vacuum(1.5, 2.0)


def test_squeezed_vacuum_warns_on_uncertainty_violation():
    with pytest.warns(UserWarning, match="uncertainty"):
        squeezed_vacuum(0.5, 1.5)


def test_squeezed_vacuum_rejects_non_positive():
    with pytest.raises(InvalidArgumentError):
        squeezed_vacuum(-0.1, 4.0)


def test_db_conversion_round_trip():
    for v in (0.01, 0.5, 1.0, 45.71):
        assert db_to_variance(variance_to_db(v)) == pytest.approx(v, rel=1e-14)
    assert db_to_variance(0.0) == 1.0
    assert db_to_variance(-3.0) == pytest.approx(0.501187, rel=1e-5)


def test_db_conversion_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        db_to_variance(math.inf)
    with pytest.raises(InvalidArgumentError, match="decibel value 3200.0 is a variance beyond the float range"):
        db_to_variance(3200.0)
    with pytest.raises(InvalidArgumentError):
        variance_to_db(0.0)


def test_tensor_block_structure():
    g = tensor(squeezed_vacuum(0.25, 4.0), vacuum(1))
    assert g.n_modes == 2
    np.testing.assert_array_equal(g.entries, np.diag([0.25, 4.0, 1.0, 1.0]))


# ---------------------------------------------------------------- symplectics


def test_symplectic_form_properties():
    for n in (1, 2, 3):
        omega = symplectic_form(n)
        np.testing.assert_array_equal(omega, -omega.T)
        np.testing.assert_array_equal(omega @ omega, -np.eye(2 * n))


def test_squeeze_on_vacuum_matches_constructor():
    r = 0.7
    g = apply_symplectic(vacuum(1), squeeze(r))
    expected = squeezed_vacuum(math.exp(-2.0 * r), math.exp(2.0 * r))
    np.testing.assert_allclose(g.entries, expected.entries, rtol=1e-15)


def test_rotation_is_symplectic_and_quarter_turn_swaps_quadratures():
    omega = symplectic_form(1)
    s = rotation(0.42)
    np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-15)
    g = apply_symplectic(squeezed_vacuum(0.25, 4.0), rotation(math.pi / 2.0))
    np.testing.assert_allclose(g.entries, np.diag([4.0, 0.25]), atol=1e-15)


def test_apply_symplectic_rejects_non_symplectic():
    with pytest.raises(InvalidArgumentError, match="not symplectic"):
        apply_symplectic(vacuum(1), np.diag([2.0, 2.0]))


def test_apply_symplectic_rejects_a_nan_entry_as_not_symplectic():
    """A NaN residual fails the check, which a residual > tol test let pass."""
    with pytest.raises(InvalidArgumentError, match=r"^matrix is not symplectic: .* = nan$"):
        apply_symplectic(vacuum(1), [[1.0, math.nan], [0.0, 1.0]])


def test_apply_symplectic_that_overflows_is_a_typed_error_without_a_numpy_warning():
    """Entries near the float maximum squeezed by 2 overflow the product: the
    non-finite entry is covariance()'s error, and no numpy RuntimeWarning,
    which this suite raises as an error, comes before it."""
    g = covariance(np.diag([1.7e308, 1.7e308, 1.0, 1.0]))
    with pytest.raises(InvalidStateError, match="^covariance matrix contains non-finite entries$"):
        apply_symplectic(g, np.diag([2.0, 0.5, 1.0, 1.0]))


def test_apply_symplectic_rejects_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        apply_symplectic(vacuum(2), rotation(0.3))


def test_balanced_beamsplitter_is_orthogonal_symplectic():
    s = balanced_beamsplitter()
    omega = symplectic_form(2)
    np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-15)
    np.testing.assert_allclose(s @ s.T, np.eye(4), atol=1e-15)


def test_balanced_beamsplitter_fixes_vacuum():
    g = apply_symplectic(vacuum(2), balanced_beamsplitter())
    np.testing.assert_allclose(g.entries, np.eye(4), atol=1e-15)


def test_balanced_beamsplitter_correlation_signs():
    vs, va = 0.0776, 45.71
    g = apply_symplectic(tensor(squeezed_vacuum(vs, va), vacuum(1)), balanced_beamsplitter())
    m = g.entries
    assert m[0, 0] == pytest.approx((1.0 + vs) / 2.0, rel=1e-12)
    assert m[1, 1] == pytest.approx((1.0 + va) / 2.0, rel=1e-12)
    assert m[0, 2] == pytest.approx((1.0 - vs) / 2.0, rel=1e-12)
    assert m[1, 3] == pytest.approx((1.0 - va) / 2.0, rel=1e-12)
    assert m[0, 2] > 0.0 > m[1, 3]


# ---------------------------------------------------------------- physicality


def test_vacuum_is_physical_and_squeezing_below_uncertainty_is_not():
    assert is_physical(vacuum(2))
    assert is_physical(squeezed_vacuum(0.5, 2.0))
    with pytest.warns(UserWarning):
        bad = squeezed_vacuum(0.5, 1.9)
    assert not is_physical(bad)


def test_reconstructed_example_is_marginally_unphysical(reconstructed_example):
    assert not is_physical(reconstructed_example)
    omega = symplectic_form(2)
    low = np.linalg.eigvalsh(reconstructed_example.entries + 1j * omega).min()
    assert low == pytest.approx(-0.043781301872870305, rel=1e-12)
    assert is_physical(reconstructed_example, tol=0.05)


def test_is_physical_tol_bounds_the_eigenvalue_not_the_symplectic_eigenvalues(reconstructed_example):
    """tol is a margin on the least eigenvalue of Gamma + i*Omega: the
    example passes at tol = 0.05 although nu_minus is below 1 - 0.05."""
    nu_minus = symplectic_eigenvalues(reconstructed_example)[1]
    assert nu_minus == pytest.approx(0.93958, abs=1e-5)
    assert nu_minus < 1.0 - 0.05
    assert is_physical(reconstructed_example, tol=0.05)
    assert not is_physical(reconstructed_example, tol=0.04)


def _eigensolver_physical(stack, tol):
    """The eigenvalue criterion that is_physical decides, as the oracle."""
    omega = symplectic_form(stack.shape[-1] // 2)
    return np.linalg.eigvalsh(stack + 1j * omega).min(axis=-1) >= -tol


def _random_symplectic(rng, n_modes):
    """Local rotations and squeezers on every mode, then beam splitters
    between neighbouring modes, twice."""
    s = np.eye(2 * n_modes)
    for _ in range(2):
        local = np.zeros_like(s)
        for k in range(n_modes):
            local[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = rotation(rng.uniform(0.0, 2.0 * math.pi)) @ squeeze(
                rng.uniform(-1.0, 1.0)
            )
        s = local @ s
        for k in range(n_modes - 1):
            phi = rng.uniform(0.0, math.pi)
            c, sn = math.cos(phi), math.sin(phi)
            mix = np.eye(2 * n_modes)
            a, b = slice(2 * k, 2 * k + 2), slice(2 * k + 2, 2 * k + 4)
            mix[a, a] = mix[b, b] = c * np.eye(2)
            mix[a, b], mix[b, a] = sn * np.eye(2), -sn * np.eye(2)
            s = mix @ s
    return s


def _random_states(rng, n_modes, count, nu_low=0.9):
    """S diag(nu) S^T with symplectic eigenvalues nu drawn from [nu_low, 1.3]:
    physical and unphysical states of n_modes modes."""
    out = []
    for _ in range(count):
        s = _random_symplectic(rng, n_modes)
        m = s @ np.diag(np.repeat(rng.uniform(nu_low, 1.3, n_modes), 2)) @ s.T
        out.append((m + m.T) / 2.0)
    return np.array(out)


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_is_physical_matches_eigensolver(n_modes):
    rng = np.random.default_rng(40 + n_modes)
    stack = _random_states(rng, n_modes, 300)
    for tol in (0.0, DEFAULT_TOL, 1e-6, 1e-3, 0.05):
        want = _eigensolver_physical(stack, tol)
        assert 0 < np.count_nonzero(want) < len(stack)
        assert [is_physical(covariance(m), tol) for m in stack] == want.tolist()


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_pivot_test_resolves_the_eigenvalue_boundary_to_1e_12(n_modes):
    """Matrices shifted so that the least eigenvalue of Gamma + i*Omega is
    -tol + 1e-12 pass, and at -tol - 1e-12 they fail, by the eigensolver and
    by is_physical's Cholesky factorization."""
    rng = np.random.default_rng(50 + n_modes)
    base = _random_states(rng, n_modes, 100, nu_low=1.0)
    low = np.linalg.eigvalsh(base + 1j * symplectic_form(n_modes)).min(axis=-1)
    eye = np.eye(2 * n_modes)
    for tol in (0.0, DEFAULT_TOL, 1e-6, 0.05):
        for side in (1.0, -1.0):
            shifted = base + (-tol + side * 1e-12 - low)[:, np.newaxis, np.newaxis] * eye
            want = np.full(len(base), side > 0.0)
            np.testing.assert_array_equal(_eigensolver_physical(shifted, tol), want)
            assert [is_physical(covariance(m), tol) for m in shifted] == want.tolist()


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
def test_huge_entries_are_screened_without_warnings_and_rejected_by_invariants(scale):
    """numpy RuntimeWarnings fail the suite: is_physical factors huge
    entries without one, and invariants that overflow raise a typed error."""
    indefinite = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 2.0], [2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0]])
    stack = np.array([np.eye(4), tmsv(3.0).entries, RECONSTRUCTED_EXAMPLE, indefinite]) * scale
    assert [is_physical(covariance(m)) for m in stack] == [True, True, True, False]
    for m in stack:
        with pytest.raises(InvalidStateError, match="overflow the symplectic invariants"):
            invariants(covariance(m))


# ---------------------------------------------------------------- invariants


def test_invariants_of_reconstructed_example(reconstructed_example):
    inv = invariants(reconstructed_example)
    assert inv.i1 == pytest.approx(13.5769, rel=1e-12)
    assert inv.i2 == pytest.approx(13.0349, rel=1e-12)
    assert inv.i3 == pytest.approx(-10.4498, rel=1e-12)
    assert inv.i4 == pytest.approx(4.263435989999985, rel=1e-12)
    assert inv.i4_prime == pytest.approx(inv.i1 * inv.i2 + inv.i3**2 - inv.i4, rel=1e-14)


def test_invariants_unchanged_by_local_rotations():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_normal_form_state(rng)
        s = np.zeros((4, 4))
        s[0:2, 0:2] = rotation(float(rng.uniform(0.0, math.pi)))
        s[2:4, 2:4] = rotation(float(rng.uniform(0.0, math.pi)))
        rotated = apply_symplectic(g, s)
        a, b = invariants(g), invariants(rotated)
        for name in ("i1", "i2", "i3", "i4", "i4_prime"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-9, abs=1e-12)


def test_invariants_require_two_modes():
    with pytest.raises(InvalidArgumentError):
        invariants(vacuum(1))


# ---------------------------------------------------------------- normal form


def test_normal_form_recovers_tmsv_parameters():
    lam = 2.3
    nf = normal_form(tmsv(lam))
    assert nf.lambda_a == pytest.approx(lam, rel=1e-12)
    assert nf.lambda_b == pytest.approx(lam, rel=1e-12)
    c = math.sqrt(lam * lam - 1.0)
    assert nf.c_x == pytest.approx(c, rel=1e-7)
    assert nf.c_p == pytest.approx(c, rel=1e-7)


def test_normal_form_fixed_point_on_normal_form_matrices():
    rng = np.random.default_rng(12)
    for _ in range(25):
        g = random_normal_form_state(rng)
        nf = normal_form(g)
        m = normal_form_matrix(nf).entries
        assert m[0, 0] == pytest.approx(g.entries[0, 0], rel=1e-9)
        assert m[2, 2] == pytest.approx(g.entries[2, 2], rel=1e-9)
        assert abs(m[0, 2]) == pytest.approx(
            max(abs(g.entries[0, 2]), abs(g.entries[1, 3])), rel=1e-9, abs=1e-12
        )


def test_normal_form_round_trip_preserves_invariants():
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = random_rotated_state(rng)
        back = normal_form_matrix(normal_form(g))
        a, b = invariants(g), invariants(back)
        assert b.i1 == pytest.approx(a.i1, rel=1e-9)
        assert b.i2 == pytest.approx(a.i2, rel=1e-9)
        assert b.i3 == pytest.approx(a.i3, rel=1e-9, abs=1e-9)
        assert b.i4 == pytest.approx(a.i4, rel=1e-9, abs=1e-9)


def test_normal_form_correlation_sign_convention():
    g = covariance(
        [
            [2.0, 0.0, 1.1, 0.0],
            [0.0, 2.0, 0.0, -0.9],
            [1.1, 0.0, 2.0, 0.0],
            [0.0, -0.9, 0.0, 2.0],
        ]
    )
    nf = normal_form(g)
    assert nf.c_x >= abs(nf.c_p)
    assert invariants(g).i3 < 0.0 and nf.c_p > 0.0
    flipped = covariance(
        [
            [2.0, 0.0, 1.1, 0.0],
            [0.0, 2.0, 0.0, 0.9],
            [1.1, 0.0, 2.0, 0.0],
            [0.0, 0.9, 0.0, 2.0],
        ]
    )
    nf2 = normal_form(flipped)
    assert invariants(flipped).i3 > 0.0 and nf2.c_p < 0.0


# ------------------------------------------------------- symplectic eigenvalues


def test_symplectic_eigenvalues_match_spectrum_oracle():
    rng = np.random.default_rng(14)
    for _ in range(200):
        g = random_rotated_state(rng)
        d_plus, d_minus = symplectic_eigenvalues(g)
        mags = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(2) @ g.entries)))
        assert d_minus == pytest.approx(mags[0], rel=1e-10)
        assert d_plus == pytest.approx(mags[-1], rel=1e-10)


def test_symplectic_eigenvalues_of_pure_states_are_exactly_one():
    for lam in (1.5, 2.0, 7.3):
        d_plus, d_minus = symplectic_eigenvalues(tmsv(lam))
        assert d_plus == pytest.approx(1.0, abs=1e-9)
        assert d_minus == pytest.approx(1.0, abs=1e-9)


def test_symplectic_eigenvalues_of_vacuum():
    assert symplectic_eigenvalues(vacuum(2)) == (1.0, 1.0)


def test_symplectic_eigenvalues_of_reconstructed_example(reconstructed_example):
    d_plus, d_minus = symplectic_eigenvalues(reconstructed_example)
    assert d_plus == pytest.approx(2.1975871863287653, rel=1e-12)
    assert d_minus == pytest.approx(0.9395799904657519, rel=1e-12)


# ---------------------------------------------------------------- conditioning


def test_conditional_variance_without_correlation_is_marginal_variance():
    g = tensor(squeezed_vacuum(0.25, 4.0), vacuum(1))
    assert conditional_variance(g, 0, 2) == pytest.approx(0.25, rel=1e-15)


def test_conditional_variance_on_reconstructed_example(reconstructed_example):
    x_cond = conditional_variance(reconstructed_example, 0, 2)
    p_cond = conditional_variance(reconstructed_example, 1, 3)
    assert x_cond == pytest.approx(0.55 - 0.45**2 / 0.55, rel=1e-14)
    assert p_cond == pytest.approx(24.7 - 23.2**2 / 23.7, rel=1e-14)
    assert p_cond == pytest.approx(1.9894514767932456, rel=1e-13)


@pytest.mark.parametrize("given", [slice(None), slice(2, 4), [1]], ids=["all", "B", "p_A"])
def test_conditioned_stack_equals_each_matrix_bit_for_bit(given):
    """A (..., 4, 4) stack is conditioned with each matrix's arithmetic."""
    a = np.random.default_rng(17).normal(size=(3, 5, 4, 4))
    stack = a @ a.swapaxes(-1, -2) + np.eye(4)
    got = _conditioned(stack, given)
    for idx in np.ndindex(stack.shape[:-2]):
        assert got[idx].tobytes() == _conditioned(stack[idx], given).tobytes()


def test_conditional_variance_rejects_same_quadrature():
    with pytest.raises(InvalidArgumentError):
        conditional_variance(vacuum(2), 1, 1)


def test_epr_product_on_reconstructed_example(reconstructed_example):
    direct, optimized = epr_product(reconstructed_example, "a_given_b")
    assert direct == pytest.approx(0.36171845032604477, rel=1e-12)
    assert optimized == pytest.approx(0.3270785345495543, rel=1e-12)
    direct_ba, optimized_ba = epr_product(reconstructed_example, "b_given_a")
    assert direct_ba == pytest.approx(0.34707397865292555, rel=1e-12)
    assert optimized_ba == pytest.approx(0.3140213148804208, rel=1e-12)


def test_epr_product_equals_invariant_ratio():
    rng = np.random.default_rng(16)
    for _ in range(20):
        g = random_rotated_state(rng)
        inv = invariants(g)
        assert epr_product(g, "a_given_b")[1] == pytest.approx(inv.i4 / inv.i2, rel=1e-12)
        assert epr_product(g, "b_given_a")[1] == pytest.approx(inv.i4 / inv.i1, rel=1e-12)


def test_epr_direct_equals_product_of_conditional_variances():
    """Bit for bit: both read the same conditioning kernel."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        for g in (random_normal_form_state(rng), random_rotated_state(rng)):
            assert epr_product(g, "a_given_b")[0] == conditional_variance(g, 0, 2) * conditional_variance(g, 1, 3)
            assert epr_product(g, "b_given_a")[0] == conditional_variance(g, 2, 0) * conditional_variance(g, 3, 1)


def test_epr_product_of_vacuum_is_one():
    assert epr_product(vacuum(2)) == (1.0, 1.0)


def test_epr_product_direct_equals_optimized_for_tmsv():
    lam = 3.0
    direct, optimized = epr_product(tmsv(lam))
    assert direct == pytest.approx(1.0 / lam**2, rel=1e-9)
    assert optimized == pytest.approx(direct, rel=1e-9)


def test_epr_product_rejects_unknown_direction():
    with pytest.raises(InvalidArgumentError):
        epr_product(vacuum(2), "sideways")


def _per_slice_epr_product(g, direction="a_given_b"):
    """epr_product as it read each direction on its own: one invariants() and one
    _conditioned() on that direction's slice per call."""
    _require_two_modes(g)
    direction = direction.lower()
    if direction not in ("a_given_b", "b_given_a"):
        raise InvalidArgumentError(f"direction must be 'a_given_b' or 'b_given_a', got {direction!r}")
    inv = invariants(g)
    if direction == "a_given_b":
        cond = _conditioned(g.entries, slice(2, 4))
        return float(cond[0, 0, 0] * cond[1, 1, 1]), float(inv.i4 / inv.i2)
    cond = _conditioned(g.entries, slice(0, 2))
    return float(cond[0, 2, 2] * cond[1, 3, 3]), float(inv.i4 / inv.i1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome under test is the error itself
        return type(exc), str(exc)


def test_shared_epr_read_equals_the_per_slice_reads_bit_for_bit():
    """Both directions from one invariants() and one _conditioned() read what each
    direction's own slice gave, on normal-form states with each arm rotated."""
    rng = np.random.default_rng(24)
    both = ("a_given_b", "b_given_a")
    for _ in range(200):
        g = random_normal_form_state(rng)
        s = np.zeros((4, 4))
        s[0:2, 0:2] = rotation(float(rng.uniform(0.0, 2.0 * math.pi)))
        s[2:4, 2:4] = rotation(float(rng.uniform(0.0, 2.0 * math.pi)))
        g = apply_symplectic(g, s)
        want = [_per_slice_epr_product(g, d) for d in both]
        assert [epr_product(g, d) for d in both] == want
        assert _epr_products(g, both) == want
        assert [_epr_products(g, [d])[0] for d in both] == want


@pytest.mark.parametrize("direction", ["a_given_b", "B_GIVEN_A", "sideways"])
@pytest.mark.parametrize("scale", [1e150, 1e300])
def test_epr_product_errors_come_in_the_per_slice_order(direction, scale):
    """On matrices that overflow the invariants: the direction is judged before the
    invariants, and a one-mode state before either."""
    overflowing = covariance(tmsv(3.0).entries * scale)
    one_mode = covariance(np.eye(2) * scale)
    for g in (overflowing, one_mode):
        want = _outcome(_per_slice_epr_product, g, direction)
        assert isinstance(want, tuple) and want[0] in (InvalidArgumentError, InvalidStateError)
        assert _outcome(epr_product, g, direction) == want
    assert _outcome(_epr_products, overflowing, ("a_given_b", "b_given_a")) == _outcome(
        _per_slice_epr_product, overflowing, "a_given_b"
    )


# ------------------------------------------------------------------------ json


def test_json_round_trip_is_exact(reconstructed_example):
    doc = covariance_to_json(reconstructed_example)
    back = covariance_from_json(doc)
    np.testing.assert_array_equal(back.entries, reconstructed_example.entries)
    assert back.n_modes == 2


def test_json_rejects_mode_count_mismatch():
    doc = covariance_to_json(vacuum(2))
    doc["n_modes"] = 1
    with pytest.raises(InvalidStateError):
        covariance_from_json(doc)
    doc["n_modes"] = "2"
    with pytest.raises(InvalidStateError, match="declared n_modes '2' does not match matrix of 2 modes"):
        covariance_from_json(doc)


@pytest.mark.parametrize("leaf", ["1", "1.0", True, False])
def test_json_rejects_entries_that_are_strings_or_booleans(leaf):
    doc = covariance_to_json(vacuum(2))
    doc["entries"][3][2] = doc["entries"][2][3] = leaf
    with pytest.raises(InvalidStateError, match=re.escape(f"{leaf!r} is not a JSON number")):
        covariance_from_json(doc)


@pytest.mark.parametrize("n_modes", [True, False, "2", None, [2]])
def test_json_rejects_a_mode_count_that_is_not_a_number(n_modes):
    doc = covariance_to_json(vacuum(1))
    doc["n_modes"] = n_modes
    with pytest.raises(InvalidStateError, match=re.escape(f"declared n_modes {n_modes!r} does not match")):
        covariance_from_json(doc)


def test_json_rejects_missing_fields():
    with pytest.raises(InvalidStateError):
        covariance_from_json({"entries": [[1.0, 0.0], [0.0, 1.0]]})


def test_clamp_is_the_old_clamp_where_that_did_not_overflow():
    """x * (x > 0) + 0.0 equals (x + |x|) / 2 bit for bit, NaN and +-inf
    included, for floats and arrays, and stays finite above half the float
    maximum, where (x + |x|) / 2 overflowed to inf."""
    big = sys.float_info.max
    xs = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e300, -1e300, big / 2.0, -big, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(2503)
    xs += (rng.normal(size=200) * 10.0 ** rng.uniform(-300, 300, 200)).tolist()
    with np.errstate(all="ignore"):
        old = (np.array(xs) + np.abs(xs)) / 2.0
        got = _clamp(np.array(xs))
    assert got.tobytes() == old.tobytes()
    assert [_clamp(x).hex() for x in xs] == [x.hex() for x in old.tolist()]
    assert _clamp(big) == big and _clamp(np.array([big, 0.75 * big])).tolist() == [big, 0.75 * big]


def test_screened_determinant_matches_lapack_and_screens_gamma():
    """On matrices with Gamma > 0 the elimination's determinant agrees with
    np.linalg.det to eps * cond. A zero variance is a zero pivot, so the box
    screen rejects diag(0, 2e9, 1, 1), without a numpy warning, although
    is_physical accepts it at 1e-9: the least eigenvalue of its
    Gamma + i*Omega is -5e-10."""
    rng = np.random.default_rng(71)
    stack = np.array([random_normal_form_state(rng).entries for _ in range(50)] + [tmsv(3.0).entries])
    want = np.linalg.det(stack)
    got, positive = _screened_det(stack.transpose(1, 2, 0))
    assert positive.all()
    bound = 16.0 * np.finfo(float).eps * np.linalg.cond(stack) * np.abs(want)
    assert np.all(np.abs(got - want) <= bound)
    zero_variance = np.diag([0.0, 2e9, 1.0, 1.0])
    assert not _screened_det(zero_variance[:, :, np.newaxis])[1][0]
    assert is_physical(CovarianceMatrix(2, zero_variance), DEFAULT_TOL)
