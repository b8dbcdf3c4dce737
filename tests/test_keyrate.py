"""Information quantities: entropy kernel, mutual information, Holevo bound,
nominal and statistically-worst-case key rates."""

import decimal
import functools
import itertools
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cvqkd.keyrate
from cvqkd.errors import (
    CvqkdError,
    DegenerateBoxError,
    FormulaDomainError,
    InvalidArgumentError,
    InvalidStateError,
)
from cvqkd.gaussian import (
    DEFAULT_TOL,
    DEGENERACY_SNAP,
    NormalForm,
    SymplecticInvariants,
    _below_floor,
    _clamp,
    _invariant_values,
    _radicands,
    _root,
    _screened_det,
    apply_symplectic,
    covariance,
    invariants,
    is_physical,
    normal_form,
    normal_form_matrix,
    rotation,
    squeeze,
    symplectic_eigenvalues,
    symplectic_form,
)
from cvqkd.keyrate import (
    INDEPENDENT_ENTRIES,
    WorstCaseBreakdown,
    _box_planes,
    _checked_formula,
    _entropy,
    _formula,
    _rejected,
    _stacked_rates,
    _worst_boxes,
    _zero_rounding_noise,
    entropy_f,
    holevo,
    holevo_oracle,
    mi_oracle,
    mutual_information,
    secret_key_rate,
    worst_case_breakdown,
    worst_case_key_rate,
)
from cvqkd.noise import ChannelParams, SourceParams, SqueezingSpec, detection_noise, loss_channel, make_epr_state

from conftest import RECONSTRUCTED_EXAMPLE, random_normal_form_state


def tmsv(lam):
    c = math.sqrt(lam * lam - 1.0)
    return covariance(
        [
            [lam, 0.0, c, 0.0],
            [0.0, lam, 0.0, -c],
            [c, 0.0, lam, 0.0],
            [0.0, -c, 0.0, lam],
        ]
    )


def default_state(sqz_db=-11.1):
    return make_epr_state(SqueezingSpec(var_sqz_db=sqz_db), ChannelParams())


# --------------------------------------------------------------- entropy kernel


def test_entropy_f_vanishes_at_one():
    assert entropy_f(1.0) == 0.0
    assert entropy_f(1.0 - 1e-10) == 0.0


def test_entropy_f_matches_thermal_series():
    """f(d) equals the Shannon entropy of the thermal photon-number law."""
    for d in (1.5, 2.0, 3.7):
        nbar = (d - 1.0) / 2.0
        probs = [nbar**k / (nbar + 1.0) ** (k + 1) for k in range(400)]
        series = -sum(p * math.log2(p) for p in probs if p > 0.0)
        assert entropy_f(d) == pytest.approx(series, abs=1e-12)


def test_entropy_f_is_increasing():
    values = [entropy_f(d) for d in np.linspace(1.0, 6.0, 30)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_entropy_f_rejects_below_domain():
    with pytest.raises(InvalidArgumentError):
        entropy_f(0.98)


def _decimal_entropy(x):
    """f(x) of the float x, (b + 1) log2(b + 1) - b log2(b) with b = (x - 1)/2,
    in decimal arithmetic with 60 digits beyond those the difference cancels."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60 + max(0, int(math.log10(x)))
        b = (decimal.Decimal(x) - 1) / 2
        if b == 0:
            return 0.0
        return float(((b + 1) * (b + 1).ln() - b * b.ln()) / decimal.Decimal(2).ln())


#: x = 1 + 2^-k for k = 1..52, then 10^(k/4) up to 1e300
_ENTROPY_POINTS = [1.0] + [1.0 + 2.0**-k for k in range(52, 0, -1)] + [10.0 ** (k / 4) for k in range(1, 1201)]


def test_entropy_f_matches_a_decimal_reference_up_to_1e300():
    """Within 2 eps relative from x = 1 to 1e300, where the difference
    (b + 1) log2(b + 1) - b log2(b) cancels to nothing."""
    eps = sys.float_info.epsilon
    for x in _ENTROPY_POINTS:
        want = _decimal_entropy(x)
        assert abs(entropy_f(x) - want) <= 2.0 * eps * want, x
    assert entropy_f(1e17) == pytest.approx(56.91547265397412, rel=2.0 * eps)


def test_entropy_of_a_float_is_the_entropy_of_a_stack_bit_for_bit():
    """One state rates as it does in a stacked pass: _entropy of a float and
    of an array give the same bits, clamped arguments below 1 included."""
    rng = np.random.default_rng(2502)
    xs = np.concatenate([_ENTROPY_POINTS, 10.0 ** rng.uniform(0.0, 300.0, 2000), rng.uniform(0.5, 3.0, 2000)])
    stacked = _entropy(np.stack([xs, xs[::-1]]))
    assert [float(_entropy(x)).hex() for x in xs.tolist()] == [v.hex() for v in stacked[0].tolist()]
    assert stacked[1].tobytes() == stacked[0][::-1].tobytes()


# ---------------------------------------------------------- mutual information


def test_mutual_information_of_tmsv_is_log_local_variance():
    for lam in (1.3, 2.0, 4.7, 1.0001, 10.0):
        assert mutual_information(invariants(tmsv(lam))) == pytest.approx(
            math.log2(lam), rel=1e-12, abs=1e-12
        )


def test_mutual_information_equals_best_branch_on_normal_forms():
    rng = np.random.default_rng(31)
    for _ in range(50):
        g = random_normal_form_state(rng)
        formula = mutual_information(invariants(g))
        assert formula == pytest.approx(max(mi_oracle(g)), rel=1e-10, abs=1e-10)


def test_mutual_information_formula_value_on_reconstructed_example(reconstructed_example):
    assert mutual_information(invariants(reconstructed_example)) == pytest.approx(
        1.8992032975848847, rel=1e-12
    )


def test_mi_oracle_rejects_non_positive_conditional_variance():
    # Var(x_A|x_B) = 1 - 2**2 / 1 = -3: an indefinite matrix, not a state
    g = covariance([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(InvalidStateError, match="must be positive"):
        mi_oracle(g)


def test_mi_oracle_on_reconstructed_example(reconstructed_example):
    mi_x, mi_p = mi_oracle(reconstructed_example)
    assert mi_x == pytest.approx(0.7984675711936159, rel=1e-12)
    assert mi_p == pytest.approx(1.81703421246024, rel=1e-12)
    assert mi_p == pytest.approx(0.5 * math.log2(24.7 / 1.9894514767932456), rel=1e-13)


def test_mutual_information_rejects_bad_invariants():
    with pytest.raises(InvalidStateError):
        mutual_information(SymplecticInvariants(-1.0, 1.0, 0.0, 1.0, 0.0))
    # both block determinants negative: their product is positive, but neither block is a state
    both_negative = SymplecticInvariants(i1=-0.074, i2=-0.094, i3=1.986, i4=2.766, i4_prime=-4.887)
    with pytest.raises(InvalidStateError, match="block determinants"):
        mutual_information(both_negative)
    with pytest.raises(FormulaDomainError):
        mutual_information(SymplecticInvariants(1.0, 1.0, 0.9, 0.81, 1.0))


# ----------------------------------------------------------------- holevo bound


def test_holevo_frozen_intermediates_at_operating_point():
    inv = invariants(default_state(-10.5))
    mid = _checked_formula(inv, ())
    assert mid.d_plus == pytest.approx(1.8134089901304846, rel=1e-12)
    assert mid.d_minus == pytest.approx(1.0147999999999995, rel=1e-12)
    assert mid.d_a == pytest.approx(1.0515180083163203, rel=1e-12)
    assert mid.d_b == pytest.approx(mid.d_a, rel=1e-12)


def test_holevo_direction_handling():
    inv = invariants(default_state())
    assert holevo(inv, "a") == holevo(inv, "A")
    assert holevo(inv, "b") == holevo(inv, "B")
    with pytest.raises(InvalidArgumentError):
        holevo(inv, "E")


def test_holevo_matches_oracle_branch_on_normal_forms():
    rng = np.random.default_rng(32)
    for _ in range(50):
        g = random_normal_form_state(rng)
        mi_x, mi_p = mi_oracle(g)
        branch = 0 if mi_x >= mi_p else 1
        for direction in ("A", "B"):
            assert holevo(invariants(g), direction) == pytest.approx(
                holevo_oracle(g, direction)[branch], rel=1e-10, abs=1e-10
            )


def test_holevo_rejects_unphysical_input(reconstructed_example):
    assert not is_physical(reconstructed_example)
    with pytest.raises(InvalidArgumentError):
        holevo(invariants(reconstructed_example), "A")


def test_holevo_of_pure_state_is_zero():
    for r in (0.1, 0.8, 1.5, 2.0):
        g = make_epr_state(
            SqueezingSpec(r=r),
            ChannelParams(
                epsilon=0.0, loss_a=0.0, loss_b=0.0, det_noise_a=0.0, det_noise_b=0.0
            ),
        )
        inv = invariants(g)
        assert abs(holevo(inv, "A")) <= 1e-9
        assert abs(holevo(inv, "B")) <= 1e-9


# ------------------------------------------------------------------- key rates


def test_secret_key_rate_frozen_operating_points():
    report = secret_key_rate(default_state())
    assert report.k_nominal == pytest.approx(0.3976320686657666, rel=1e-12)
    assert not report.no_key
    report_105 = secret_key_rate(default_state(-10.5))
    assert report_105.mi == pytest.approx(1.4725255594293059, rel=1e-12)
    assert report_105.holevo_b == pytest.approx(1.1099101102156856, rel=1e-12)
    assert report_105.k_nominal == pytest.approx(0.3626154492136202, rel=1e-12)


def test_secret_key_rate_report_structure():
    report = secret_key_rate(default_state())
    assert report.k_nominal == pytest.approx(
        report.mi - max(report.holevo_a, report.holevo_b), rel=1e-14
    )
    assert report.k_two_basis == pytest.approx(
        0.5 * (report.k_branch_x + report.k_branch_p), rel=1e-14
    )
    assert report.k_worst_case is None and report.n_samples is None
    doc = report.as_dict()
    for key in ("mi", "holevo_a", "holevo_b", "k_nominal", "no_key", "d_plus"):
        assert key in doc


def test_secret_key_rate_flags_no_key_below_crossing():
    report = secret_key_rate(default_state(-2.0))
    assert report.k_nominal < 0.0
    assert report.no_key


def test_secret_key_rate_attaches_worst_case_when_asked():
    g = default_state(-10.5)
    report = secret_key_rate(g, n_samples=10**4)
    assert report.n_samples == 10**4
    assert report.k_worst_case == pytest.approx(0.0892850633422162, rel=1e-9)
    assert report.k_worst_case == worst_case_key_rate(g, 10**4)


def test_pure_lossless_states_have_key_equal_to_mi():
    for r in (0.3, 1.0, 1.96):
        g = make_epr_state(
            SqueezingSpec(r=r),
            ChannelParams(
                epsilon=0.0, loss_a=0.0, loss_b=0.0, det_noise_a=0.0, det_noise_b=0.0
            ),
        )
        report = secret_key_rate(g)
        assert report.k_nominal == pytest.approx(report.mi, abs=1e-9)


def test_report_branch_detail_equals_public_oracles_bit_for_bit():
    """secret_key_rate conditions once for all branches; mi_oracle and
    holevo_oracle condition separately. Both must give the same floats, on
    normal forms and on locally rotated copies of them."""
    rng = np.random.default_rng(34)
    for _ in range(40):
        g = random_normal_form_state(rng)
        s = np.zeros((4, 4))
        s[0:2, 0:2] = rotation(float(rng.uniform(0.0, math.pi)))
        s[2:4, 2:4] = rotation(float(rng.uniform(0.0, math.pi)))
        for state in (g, apply_symplectic(g, s)):
            report = secret_key_rate(state)
            chi_a, chi_b = holevo_oracle(state, "A"), holevo_oracle(state, "B")
            assert (report.mi_x, report.mi_p) == mi_oracle(state)
            assert report.k_branch_x == report.mi_x - max(chi_a[0], chi_b[0])
            assert report.k_branch_p == report.mi_p - max(chi_a[1], chi_b[1])


def test_report_eigenvalues_equal_symplectic_eigenvalues_bit_for_bit():
    """One square root for the report's d_plus, d_minus and the public
    symplectic_eigenvalues, on normal forms and locally rotated copies."""
    rng = np.random.default_rng(35)
    for _ in range(400):
        g = random_normal_form_state(rng)
        s = np.zeros((4, 4))
        s[0:2, 0:2] = rotation(float(rng.uniform(0.0, math.pi)))
        s[2:4, 2:4] = rotation(float(rng.uniform(0.0, math.pi)))
        for state in (g, apply_symplectic(g, s)):
            report = secret_key_rate(state)
            assert (report.d_plus, report.d_minus) == symplectic_eigenvalues(state)


# ------------------------------------------------------------------- worst case


def test_worst_case_rejects_bad_sample_count():
    for n in (0, -1, math.nan):
        with pytest.raises(InvalidArgumentError):
            worst_case_key_rate(default_state(), n)


@pytest.mark.parametrize("n", [True, False, np.True_, "1e6", 1e6j], ids=repr)
def test_worst_case_rejects_a_sample_count_that_is_not_a_real_number(n):
    """A bool is not a count (True rated the box at n = 1), and a string is
    not a number (it ended in a bare TypeError): every route raises the
    typed error naming the value."""
    g = default_state()
    message = re.escape(f"sample count must be a real number, got {n!r}")
    for route in (worst_case_key_rate, worst_case_breakdown, secret_key_rate, lambda g, n: _stacked_rates_of([g], n)):
        with pytest.raises(InvalidArgumentError, match=message):
            route(g, n)


def test_worst_case_rejects_sample_count_beyond_float_range():
    """An int above the float maximum is a typed error, not an OverflowError
    from the square root; the float maximum itself is still a count."""
    g = default_state()
    with pytest.raises(InvalidArgumentError, match="float maximum"):
        worst_case_key_rate(g, 10**400)
    with pytest.raises(InvalidArgumentError, match="float maximum"):
        secret_key_rate(g, n_samples=10**400)
    assert worst_case_key_rate(g, int(sys.float_info.max)) <= secret_key_rate(g).k_nominal


def test_worst_case_increases_toward_nominal():
    g = default_state(-10.5)
    nominal = secret_key_rate(g).k_nominal
    values = [worst_case_key_rate(g, n) for n in (10**3, 10**4, 10**5, 10**6)]
    assert values == pytest.approx(
        [
            -0.3102926246458402,
            0.0892850633422162,
            0.26127669101608997,
            0.32721198194655554,
        ],
        rel=1e-9,
    )
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v <= nominal for v in values)


def test_worst_case_breakdown_details():
    g = default_state(-10.5)
    box = worst_case_breakdown(g, 10**6)
    assert box.value == min(box.corner_min, box.candidate)
    assert box.corner_min <= box.candidate + 1e-12
    assert box.n_corners_physical == 976
    box_small = worst_case_breakdown(g, 10**4)
    assert box_small.n_corners_physical == 640
    assert box_small.corner_min <= box_small.candidate + 1e-12


def test_worst_case_converges_to_nominal():
    g = default_state(-10.5)
    nominal = secret_key_rate(g).k_nominal
    wc = worst_case_key_rate(g, 10**12)
    assert wc < nominal
    assert nominal - wc < 1e-4
    lossless = ChannelParams(epsilon=0.0, loss_a=0.0, loss_b=0.0, det_noise_a=0.0, det_noise_b=0.0)
    for state in (g, tmsv(1.2), tmsv(3.0), make_epr_state(SqueezingSpec(r=1.0), lossless)):
        nominal = secret_key_rate(state).k_nominal
        assert worst_case_key_rate(state, math.inf) == pytest.approx(nominal, rel=1e-12)


def test_worst_case_never_exceeds_nominal_on_random_states():
    rng = np.random.default_rng(33)
    for _ in range(5):
        g = random_normal_form_state(rng)
        assert worst_case_key_rate(g, 10**5) <= secret_key_rate(g).k_nominal + 1e-12


# -------------------------------------------- worst case against the corner loop


def _reference_breakdown(g, n):
    """The per-corner worst-case loop the batched evaluation replaced."""
    if n < 1:
        raise InvalidArgumentError(f"sample count must be at least 1, got {n}")
    t = 1.0 / math.sqrt(n)
    omega = symplectic_form(2)
    base = g.entries
    corner_min = math.inf
    n_physical = 0
    for mask in range(2 ** len(INDEPENDENT_ENTRIES)):
        corner = base.copy()
        for bit, (i, j) in enumerate(INDEPENDENT_ENTRIES):
            scale = 1.0 + t if (mask >> bit) & 1 else 1.0 - t
            corner[i, j] *= scale
            if i != j:
                corner[j, i] = corner[i, j]
        if np.linalg.eigvalsh(corner + 1j * omega).min() < -DEFAULT_TOL:
            continue
        n_physical += 1
        corner_min = min(corner_min, _reference_lenient_key_rate(corner))
    if n_physical == 0:
        raise DegenerateBoxError(f"no physical corner at n = {n:g}")
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
    candidate = None
    if np.linalg.eigvalsh(cand_matrix + 1j * omega).min() >= -DEFAULT_TOL:
        candidate = _reference_lenient_key_rate(cand_matrix)
        if candidate < corner_min - DEFAULT_TOL:
            warnings.warn(f"closed-form worst-case candidate {candidate:.9g} undercuts the corner "
                          f"minimum {corner_min:.9g}; corner enumeration may be too coarse")
    inv = invariants(g)
    inter = _checked_formula(inv, ())
    s_joint = entropy_f(inter.d_plus) + entropy_f(inter.d_minus)
    nominal = mutual_information(inv) - s_joint + min(entropy_f(inter.d_a), entropy_f(inter.d_b))
    value = min(corner_min, nominal)
    if candidate is not None:
        value = min(value, candidate)
    return WorstCaseBreakdown(corner_min, candidate, value, n_physical)


def _snapped(rad, scale):
    """The documented DEGENERACY_SNAP rule on one radicand."""
    return rad if abs(rad) >= DEGENERACY_SNAP * scale else 0.0


def _reference_lenient_key_rate(matrix):
    """The key rate of one corner, with the snap of the worst case before the
    one tolerance rule: the symplectic radicand is snapped on the scale
    Delta^2 + 4|i4| and the discriminant on u2 + v, not on the scales of
    gaussian._radicands. The tests compare it with worst_case_breakdown to
    1e-12 only, which the two scales do not tell apart on their states."""
    i1 = float(np.linalg.det(matrix[0:2, 0:2]))
    i2 = float(np.linalg.det(matrix[2:4, 2:4]))
    i3 = float(np.linalg.det(matrix[0:2, 2:4]))
    i4 = float(np.linalg.det(matrix))
    i4p = i1 * i2 + i3 * i3 - i4
    q = i1 * i2
    u2, v = i4p * i4p / (q * q), 4.0 * i3 * i3 / q
    arg = 1.0 - 0.5 * (i4p / q + math.sqrt(max(_snapped(u2 - v, u2 + v), 0.0)))
    if arg <= 0.0:
        return math.inf
    mi = -0.5 * math.log2(arg)
    delta = i1 + i2 + 2.0 * i3
    gap = math.sqrt(max(_snapped(delta * delta - 4.0 * i4, delta * delta + 4.0 * abs(i4)), 0.0))
    d_plus = max(math.sqrt((delta + gap) / 2.0), 1.0)
    d_minus = math.sqrt(max((delta - gap) / 2.0, 1.0))
    sq = math.sqrt(q)
    w2, w = i4p * i4p / q, 4.0 * i3 * i3
    root = 0.5 * (i4p / sq + math.sqrt(max(_snapped(w2 - w, w2 + w), 0.0)))
    s_joint = entropy_f(d_plus) + entropy_f(d_minus)
    chi_a = s_joint - entropy_f(max(math.sqrt(max(math.sqrt(i2 / i1) * (sq - root), 0.0)), 1.0))
    chi_b = s_joint - entropy_f(max(math.sqrt(max(math.sqrt(i1 / i2) * (sq - root), 0.0)), 1.0))
    return min(mi - chi_a, mi - chi_b)


def _outcome(fn, g, n):
    """(breakdown or error type, number of undercut warnings) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(g, n)
        except CvqkdError as exc:
            result = type(exc)
    return result, sum("undercuts the corner minimum" in str(w.message) for w in caught)


def _boundary_states():
    """A pure and a near-pure state, whose boxes straddle the physical
    boundary, and an unphysical one."""
    near_pure = tmsv(1.2).entries.copy()
    near_pure[0:2, 2:4] *= 1.0 - 1e-3
    near_pure[2:4, 0:2] *= 1.0 - 1e-3
    return [tmsv(1.2), covariance(near_pure), covariance(RECONSTRUCTED_EXAMPLE)]


def test_worst_case_batch_matches_corner_loop():
    rng = np.random.default_rng(34)
    states = [random_normal_form_state(rng) for _ in range(3)]
    for _ in range(3):
        local = np.zeros((4, 4))
        local[0:2, 0:2] = rotation(float(rng.uniform(0.0, 2.0 * math.pi)))
        local[2:4, 2:4] = rotation(float(rng.uniform(0.0, 2.0 * math.pi)))
        states.append(apply_symplectic(random_normal_form_state(rng), local))
    states += _boundary_states()
    seen = set()
    for g in states:
        for n in [10.0**k for k in range(3, 10)]:
            got, got_warned = _outcome(worst_case_breakdown, g, n)
            want, want_warned = _outcome(_reference_breakdown, g, n)
            assert got_warned == want_warned == 0
            if isinstance(want, type):
                assert got is want
                seen.add(want)
                continue
            assert got.n_corners_physical == want.n_corners_physical
            assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
            assert got.corner_min == pytest.approx(want.corner_min, rel=1e-12, abs=1e-12)
            assert (got.candidate is None) == (want.candidate is None)
            if want.candidate is not None:
                assert got.candidate == pytest.approx(want.candidate, rel=1e-12, abs=1e-12)
            seen.add("ok")
    assert seen == {"ok", DegenerateBoxError, InvalidArgumentError}


def test_worst_case_undercut_warning_points_at_caller(monkeypatch):
    """A candidate below the corner minimum is a fault; force one by
    inflating lambda_a, which makes the candidate noisier than any corner.
    Each route's warning names the line that called the library, also when
    that line is in a wrapper function."""
    real_normal_form = cvqkd.keyrate._normal_form

    def inflated(inv):
        nf = real_normal_form(inv)
        return NormalForm(1.5 * nf.lambda_a, nf.lambda_b, nf.c_x, nf.c_p)

    def inflated_of(*args):
        nf = real_normal_form_of(*args)
        return NormalForm(1.5 * nf.lambda_a, nf.lambda_b, nf.c_x, nf.c_p)

    real_normal_form_of = cvqkd.keyrate._normal_form_of
    monkeypatch.setattr(cvqkd.keyrate, "_normal_form", inflated)
    monkeypatch.setattr(cvqkd.keyrate, "_normal_form_of", inflated_of)

    def through_a_wrapper(g, n):
        return worst_case_breakdown(g, n)

    for route in (worst_case_key_rate, secret_key_rate, worst_case_breakdown, through_a_wrapper):
        with pytest.warns(UserWarning, match="undercuts the corner minimum") as caught:
            line = sys._getframe().f_lineno + 1
            route(default_state(-10.5), 10**6)
        if route is through_a_wrapper:
            line = through_a_wrapper.__code__.co_firstlineno + 1
        assert (caught[0].filename, caught[0].lineno) == (__file__, line), route.__name__


# ------------------------------------------- edge regimes, single against batch

#: deterministic example generation, and no example database on disk
_PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _local_symplectic(draw):
    """Random local rotations and squeezers on both modes."""
    out = np.zeros((4, 4))
    for block in (slice(0, 2), slice(2, 4)):
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        out[block, block] = rotation(theta) @ squeeze(draw(st.floats(-0.7, 0.7)))
    return out


@st.composite
def _williamson_states(draw, nu_minus):
    """L T diag(nu+, nu+, nu-, nu-) T^T L^T for a two-mode squeezer T and
    local symplectics L: symplectic eigenvalues nu+ and nu-, any basis."""
    nu_plus, nu_minus = draw(st.floats(1.0, 3.0)), draw(nu_minus)
    r = draw(st.floats(0.0, 2.0))
    c, s = math.cosh(r), math.sinh(r)
    tms = np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
    sym = _local_symplectic(draw) @ tms
    m = sym @ np.diag([nu_plus, nu_plus, nu_minus, nu_minus]) @ sym.T
    return covariance((m + m.T) / 2.0)


@st.composite
def _branch_ties(draw):
    """Physical normal forms with |c_x| = |c_p|, in a locally rotated basis."""
    la, lb = draw(st.floats(1.0, 3.0)), draw(st.floats(1.0, 3.0))
    c = draw(st.floats(0.0, 1.0)) * math.sqrt((la * la - 1.0) * (lb * lb - 1.0)) / max(la, lb)
    nf = NormalForm(la, lb, c, draw(st.sampled_from((c, -c))))
    rot = np.zeros((4, 4))
    rot[0:2, 0:2] = rotation(draw(st.floats(0.0, 2.0 * math.pi)))
    rot[2:4, 2:4] = rotation(draw(st.floats(0.0, 2.0 * math.pi)))
    m = rot @ normal_form_matrix(nf).entries @ rot.T
    g = covariance((m + m.T) / 2.0)
    assume(is_physical(g))
    return g


_EDGE_GENERATORS = {
    "near-pure": _williamson_states(st.floats(3.0, 16.0).map(lambda k: 1.0 + 10.0**-k)),
    "branch-tie": _branch_ties(),
    "boundary": _williamson_states(st.just(1.0)),  # on the physical boundary
}
_EDGE_STATES = st.one_of(*_EDGE_GENERATORS.values())


@_PROPERTY_SETTINGS
@given(st.lists(_EDGE_STATES, min_size=1, max_size=6))
def test_batched_kernel_matches_single_state_path_on_edge_regimes(states):
    """One clamping policy: a stack rated at once gives what each matrix
    gives on the single-state path, where DEGENERACY_SNAP matters most."""
    stack = np.stack([g.entries for g in states])
    batch = _formula(SymplecticInvariants(*_invariant_values(stack.transpose(1, 2, 0), np.linalg.det(stack))))
    for j, g in enumerate(states):
        inv = invariants(g)
        try:
            mi = mutual_information(inv)
            mid = _checked_formula(inv, ())
            chi_a, chi_b = holevo(inv, "A"), holevo(inv, "B")
        except CvqkdError:
            continue
        want = {"mi": mi, "chi_a": chi_a, "chi_b": chi_b, "k": mi - max(chi_a, chi_b)}
        want.update(d_plus=mid.d_plus, d_minus=mid.d_minus, d_a=mid.d_a, d_b=mid.d_b)
        for name, value in want.items():
            assert getattr(batch, name)[j] == pytest.approx(value, rel=1e-12, abs=1e-12), name


def _seeded_model_states(rng, count):
    """count model states from the four source routes over random channels
    (arm loss at least epsilon), each also with arm A rotated locally."""
    states = []
    for j in range(count):
        eps = float(rng.uniform(0.0, 0.06))
        ch = ChannelParams(
            epsilon=eps,
            loss_a=float(rng.uniform(eps, 0.3)),
            loss_b=float(rng.uniform(eps, 0.3)),
            det_noise_a=float(rng.uniform(0.0, 0.05)),
            det_noise_b=float(rng.uniform(0.0, 0.05)),
            phase_sigma_a=float(rng.uniform(0.0, 0.2)) * (j % 3 != 0),
            phase_sigma_b=float(rng.uniform(0.0, 0.2)) * (j % 3 != 0),
        )
        sqz = float(rng.uniform(-12.0, -1.0))
        spec = (
            SqueezingSpec(r=float(rng.uniform(0.0, 2.5))),
            SqueezingSpec(var_sqz_db=sqz),
            SqueezingSpec(var_sqz_db=sqz, var_asqz_db=float(rng.uniform(-sqz, -sqz + 8.0))),
            SourceParams(p_mw=float(rng.uniform(0.0, 265.0))),
        )[j % 4]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # detected pairs that break the uncertainty relation
            g = make_epr_state(spec, ch)
        local = np.eye(4)
        local[0:2, 0:2] = rotation(float(rng.uniform(0.0, 2.0 * math.pi)))
        states += [g, apply_symplectic(g, local)]
    return states


def test_single_state_formula_equals_the_stacked_formula_bit_for_bit():
    """Given the same i4, _formula on one state's float invariants and on a
    stack's arrays of them agree in every field, bit for bit. This pins
    np.log2 in _entropy: math.log2 differs from it on about 0.1% of inputs."""
    states = _seeded_model_states(np.random.default_rng(2011), 1000)
    stack = np.stack([g.entries for g in states])
    i4 = np.linalg.det(stack)
    stacked = _formula(SymplecticInvariants(*_invariant_values(stack.transpose(1, 2, 0), i4)))
    for j, g in enumerate(states):
        single = _formula(SymplecticInvariants(*map(float, _invariant_values(g.entries, float(i4[j])))))
        got = np.array([float(v) for v in single])
        want = np.array([v[j] for v in stacked])
        assert got.tobytes() == want.tobytes(), (j, g.entries)
    assert float(stacked.k.min()) < 0.0 < float(stacked.k.max())


def test_stacked_det_equals_per_matrix_det_bit_for_bit():
    """np.linalg.det factors each matrix of a stack as it factors a lone one,
    so a stacked pass has invariants()'s i4, bit for bit."""
    states = _seeded_model_states(np.random.default_rng(2011), 1000)
    stacked = np.linalg.det(np.stack([g.entries for g in states]))
    assert stacked.tobytes() == np.array([np.linalg.det(g.entries) for g in states]).tobytes()


@pytest.mark.parametrize("n_samples", [None, 1e6])
def test_stacked_rates_equal_secret_key_rate_bit_for_bit(n_samples):
    states = _seeded_model_states(np.random.default_rng(7), 300 if n_samples is None else 24)
    got = _stacked_rates_of(states, n_samples)
    reports = [secret_key_rate(g, n_samples) for g in states]
    want = [[r.mi, r.holevo_a, r.holevo_b, r.k_nominal] for r in reports]
    assert np.array([row[:4] for row in got]).tobytes() == np.array(want).tobytes()
    assert [row[4] for row in got] == [r.k_worst_case for r in reports]
    assert _stacked_rates(np.empty((0, 4, 4))) == []


def test_stacked_rates_leave_flagged_rows_to_secret_key_rate():
    """The first row a check flags raises secret_key_rate's own error, and
    the stacked pass over rows that overflow warns about nothing. Too much
    correlation puts d_minus below 1 where only that check sees it: the
    conditional eigenvalues and d_a, d_b stay above 1."""
    good = make_epr_state(SqueezingSpec(var_sqz_db=-11.1), ChannelParams())
    below_vacuum = covariance(np.diag([0.5, 0.5, 1.0, 1.0]))
    huge = covariance(1e200 * np.eye(4))
    too_correlated = covariance([[3.2, 0, 3.3, 0], [0, 3.2, 0, 2.3], [3.3, 0, 4.7, 0], [0, 2.3, 0, 4.7]])
    for bad in itertools.permutations([below_vacuum, huge, too_correlated]):
        states = [good, *bad]
        with pytest.raises(CvqkdError) as want:
            secret_key_rate(states[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                _stacked_rates_of(states)


def test_stacked_rates_flag_every_row_that_secret_key_rate_rejects():
    """Nearly pure states, squeezed 40 to 140 dB with no loss and 1e-9 rad
    of phase noise, fail four checks on scattered rows, the oracle's
    conditional eigenvalue among them. Each failing state, stacked after all
    the passing ones, raises its own error, and the passing ones rate as
    secret_key_rate rates them."""
    ch = ChannelParams(0.0, 0.0, 0.0, 0.0, 0.0, phase_sigma_a=1e-9, phase_sigma_b=1e-9)
    passing, want, failing = [], [], []
    for db in np.linspace(40.0, 140.0, 300):
        g = make_epr_state(SqueezingSpec(var_sqz_db=-db), ch)
        try:
            r = secret_key_rate(g)
        except CvqkdError as exc:
            failing.append((g, exc))
        else:
            passing.append(g)
            want.append([r.mi, r.holevo_a, r.holevo_b, r.k_nominal])
    assert {str(exc).split(" is ")[0] for _, exc in failing} == {
        "conditional symplectic eigenvalue given X",
        "entropy argument d_plus",
        "entropy argument d_minus",
        "entropy argument d_a",
    }
    assert np.array([row[:4] for row in _stacked_rates_of(passing)]).tobytes() == np.array(want).tobytes()
    for g, exc in failing:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _stacked_rates_of(passing + [g])


@pytest.mark.parametrize("kind", list(_EDGE_GENERATORS))
def test_formula_matches_oracles_in_normal_form_basis_on_edge_regimes(kind):
    """The oracles condition in the basis they are given, where a rotated
    state's measured quadratures are not the optimal ones, so both paths
    are compared on the normal form. Either both raise a typed error or
    they agree to 1e-9 (fixed before the first run)."""

    @_PROPERTY_SETTINGS
    @given(_EDGE_GENERATORS[kind])
    def check(g):
        inv = invariants(g)
        nf = normal_form_matrix(normal_form(g))
        try:
            formula = [mutual_information(inv), holevo(inv, "A"), holevo(inv, "B")]
        except CvqkdError:
            formula = None
        try:
            mi_x, mi_p = mi_oracle(nf)
            branch = 0 if mi_x >= mi_p else 1
            oracle = [max(mi_x, mi_p), holevo_oracle(nf, "A")[branch], holevo_oracle(nf, "B")[branch]]
        except CvqkdError:
            oracle = None
        assert (formula is None) == (oracle is None), (formula, oracle)
        if formula is not None:
            assert formula == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    check()


@st.composite
def _strongly_squeezed_states(draw):
    """Two-mode squeezed vacua up to r = 6 (local variance cosh 2r up to
    8e4), with optional small loss and detection noise on each arm, in a
    basis turned by local rotations and squeezers."""
    g = tmsv(math.cosh(2.0 * draw(st.floats(0.0, 6.0))))
    small = st.one_of(st.just(0.0), st.floats(0.0, 0.1))
    g = detection_noise(loss_channel(g, [draw(small), draw(small)]), [draw(small) / 2.0, draw(small) / 2.0])
    return apply_symplectic(g, _local_symplectic(draw))


@_PROPERTY_SETTINGS
@given(_strongly_squeezed_states())
def test_strongly_squeezed_states_rate_and_match_the_eigensolver(g):
    """Rounding of strongly squeezed entries is never read as an unphysical
    state, and d_plus^2, d_minus^2 match the eigenvalues of i Omega Gamma to
    the resolution of a double root of t^2 - Delta t + i4: the square root of
    16 eps times the terms that cancel in its discriminant."""
    inv = invariants(g)
    delta, size = inv.i1 + inv.i2 + 2.0 * inv.i3, abs(inv.i1) + abs(inv.i2) + 2.0 * abs(inv.i3)
    resolution = 1e-9 + math.sqrt(16.0 * np.finfo(float).eps * (size * abs(delta) + 4.0 * abs(inv.i4)))
    want = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(2) @ g.entries)))[::-2]
    assert np.abs(np.square(symplectic_eigenvalues(g)) - np.square(want)).max() <= resolution
    normal_form(g)
    secret_key_rate(g)
    mi_oracle(g)
    holevo_oracle(g, "A")
    holevo_oracle(g, "B")


def test_pure_two_mode_squeezed_vacua_rate_up_to_r_6():
    """k = log2(cosh 2r) (chi = 0 for a pure state) to 1e-9 relative, or to
    16 eps cosh(2r)^2 where the rounded entries themselves differ from the
    state by more."""
    for r in np.arange(25) * 0.25:
        lam = math.cosh(2.0 * r)
        g = tmsv(lam)
        report = secret_key_rate(g, 1e6)
        want = math.log2(lam)
        assert abs(report.k_nominal - want) <= max(1e-9 * want, 16.0 * np.finfo(float).eps * lam * lam), r
        assert report.k_worst_case <= report.k_nominal
        holevo_oracle(g, "A")
        holevo_oracle(g, "B")
        mi_oracle(g)
        symplectic_eigenvalues(g)
        normal_form(g)


@pytest.mark.parametrize("excess", [1e-6, 1e-8])
def test_tolerance_rule_still_rejects_states_rounding_cannot_explain(excess):
    """Correlations of a lambda = 2 two-mode squeezed vacuum scaled by
    1 + excess make d_plus = d_minus = 1 - 3 excess: an error far beyond
    rounding, named as the quantity it is."""
    m = tmsv(2.0).entries.copy()
    m[0:2, 2:4] *= 1.0 + excess
    m[2:4, 0:2] *= 1.0 + excess
    g = covariance(m)
    inv = invariants(g)
    for call in (
        lambda: secret_key_rate(g),
        lambda: worst_case_key_rate(g, 1e6),
        lambda: holevo_oracle(g, "A"),
        lambda: holevo_oracle(g, "B"),
        lambda: holevo(inv, "A"),
        lambda: holevo(inv, "B"),
    ):
        with pytest.raises(InvalidArgumentError, match="entropy argument d_plus is 0.99999"):
            call()
    with pytest.raises(InvalidArgumentError, match="entropy argument d_minus is 0.939"):
        holevo(invariants(covariance(RECONSTRUCTED_EXAMPLE)), "A")


@st.composite
def _indefinite_matrices(draw):
    """Symmetric matrices with a positive diagonal and a negative eigenvalue."""
    m = np.zeros((4, 4))
    m[np.triu_indices(4, 1)] = draw(st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6))
    m = m + m.T
    m[np.diag_indices(4)] = draw(st.lists(st.floats(0.05, 5.0), min_size=4, max_size=4))
    assume(np.linalg.eigvalsh(m).min() < 0.0)
    return m


@_PROPERTY_SETTINGS
@given(_indefinite_matrices())
def test_indefinite_matrices_raise_only_typed_errors(m):
    """Any other exception, or a numpy RuntimeWarning, fails the test."""
    g = covariance(m)
    for call in (
        lambda: secret_key_rate(g),
        lambda: worst_case_breakdown(g, 10**4),
        lambda: normal_form(g),
        lambda: symplectic_eigenvalues(g),
        lambda: mi_oracle(g),
        lambda: holevo_oracle(g, "A"),
        lambda: holevo_oracle(g, "B"),
    ):
        try:
            call()
        except CvqkdError:
            pass


# ------------------------------------- physicality screen against the eigensolver


def _kernel_screen(stack):
    """_worst_boxes's verdict on each matrix of a (k, 4, 4) stack, with the
    elimination's i4 that the box rates its corners with: each matrix is its
    own box of zero width (t = 0, one distinct corner), which has 1024
    physical corners or none."""
    planes = stack.transpose(1, 2, 0)
    with np.errstate(all="ignore"):
        inv = SymplecticInvariants(*_invariant_values(planes, _screened_det(planes)[0]))
    return np.array(_worst_boxes(planes, inv, 0.0).boxes.n_physical) == 1024


def _eigen_margins(stack):
    """The least eigenvalue of Gamma + i*Omega of each matrix of a stack."""
    return np.linalg.eigvalsh(stack + 1j * symplectic_form(2)).min(axis=-1)


def _single_state_rule(stack):
    """The one physicality rule, stated matrix by matrix: Gamma > 0 by an
    eigensolver, and the single-state formula (_checked_formula) accepts the
    matrix's invariants, with the i4 that the box rates it with."""
    positive = np.linalg.eigvalsh(stack).min(axis=-1) > 0.0
    verdicts = []
    for m, i4, ok in zip(stack, _elimination_det(stack).tolist(), positive.tolist()):
        if ok:
            try:
                _checked_formula(SymplecticInvariants(*map(float, _invariant_values(m, i4))))
            except CvqkdError:
                ok = False
        verdicts.append(ok)
    return np.array(verdicts)


def _check_rule(stack, bound=2.0 * DEFAULT_TOL):
    """The kernel's screen is the single-state rule on every matrix of the
    stack, and differs from the eigenvalue criterion at DEFAULT_TOL only
    within bound of the boundary (not checked for bound None). Returns the
    verdicts."""
    rule = _single_state_rule(stack)
    np.testing.assert_array_equal(_kernel_screen(stack), rule)
    if bound is not None:
        low = _eigen_margins(stack)
        assert np.all(np.abs(low[rule != (low >= -DEFAULT_TOL)]) <= bound)
    return rule


def _generator_states(rng):
    """States from the benchmark's operating-point ranges, each also as a
    pure-loss variant without detection and phase noise."""
    states = []
    for near in (True, False) * 8:
        sqz_low, nu_high, delta_high, sigma_high = (9.0, 0.12, 0.02, 0.03) if near else (4.5, 0.3, 0.05, 0.15)
        sqz = rng.uniform(sqz_low, 12.0)
        nu_a, nu_b = rng.uniform(0.059, nu_high, 2)
        delta, sigma = rng.uniform(0.0, delta_high), rng.uniform(0.0, sigma_high)
        for d, s in ((delta, sigma), (0.0, 0.0)):
            channel = ChannelParams(0.059, nu_a, nu_b, d, d, s, s)
            states.append(make_epr_state(SqueezingSpec(var_sqz_db=-sqz), channel))
    return states


def test_corner_screen_matches_eigensolver_on_generator_states():
    """The box screen keeps the eigenvalue criterion exactly on the boxes
    the CLI rates. On two-mode squeezed vacua up to r = 6 it is the
    single-state rule, which there differs from the eigenvalue criterion
    only within 2 DEFAULT_TOL of the boundary."""
    outcomes = set()
    for g in _generator_states(np.random.default_rng(60)):
        for n in [10.0**k for k in range(2, 13)]:
            stack = _box_stack(g, n)
            want = _eigen_margins(stack) >= -DEFAULT_TOL
            np.testing.assert_array_equal(_kernel_screen(stack), want)
            outcomes.update(want.tolist())
            breakdown = worst_case_breakdown(g, n)
            assert breakdown.n_corners_physical == np.count_nonzero(want[:-1])
            assert (breakdown.candidate is not None) == want[-1]
    assert outcomes == {True, False}
    for r in (0.5, 2.0, 4.0, 6.0):
        g = tmsv(math.cosh(2.0 * r))
        for n in [10.0**k for k in range(2, 13)]:
            rule = _check_rule(_box_stack(g, n))
            breakdown = worst_case_breakdown(g, n)
            assert breakdown.n_corners_physical == np.count_nonzero(rule[:-1])
            assert (breakdown.candidate is not None) == rule[-1]


@_PROPERTY_SETTINGS
@given(_EDGE_STATES, st.sampled_from([10.0**k for k in range(2, 13)]))
def test_corner_screen_matches_eigensolver_on_edge_regimes(g, n):
    _check_rule(_box_stack(g, n))


# ------------------------------------ entry planes against the (1025, 4, 4) stack

#: the corner signs as the (1024, 4, 4) stack that the entry planes replaced
_STACK_SIGNS = np.zeros((2 ** len(INDEPENDENT_ENTRIES), 4, 4))
_ROWS, _COLS = np.array(INDEPENDENT_ENTRIES).T
_STACK_SIGNS[:, _ROWS, _COLS] = _STACK_SIGNS[:, _COLS, _ROWS] = np.where(
    (np.arange(len(_STACK_SIGNS))[:, np.newaxis] >> np.arange(len(_ROWS))) & 1, 1.0, -1.0
)


def _box_stack(g, n):
    """The box corners of g at n and the closed-form candidate as one
    (1025, 4, 4) stack."""
    t = 1.0 / math.sqrt(n)
    nf = normal_form(g)
    widened = NormalForm(nf.lambda_a * (1.0 + t), nf.lambda_b * (1.0 + t), nf.c_x * (1.0 - t), nf.c_p * (1.0 - t))
    return np.concatenate((g.entries * (1.0 + t * _STACK_SIGNS), normal_form_matrix(widened).entries[np.newaxis]))


def _stack_physical(stack, tol):
    """The pivot test as it ran before entry planes: one (..., 2n, 2n)
    complex copy, transposed, and a shrinking copy per pivot."""
    dim = stack.shape[-1]
    h = stack + (1j * symplectic_form(dim // 2) + tol * np.eye(dim))
    h = np.ascontiguousarray(h.transpose(-2, -1, *range(stack.ndim - 2)))
    ok = np.ones(stack.shape[:-2], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(dim):
            pivot = h[0, 0].real
            ok &= pivot > 0.0
            col = h[1:, 0] / np.where(ok, pivot, 1.0)
            h = h[1:, 1:] - col[:, np.newaxis] * h[0, 1:]
    return ok


def _elimination_det(stack):
    return _screened_det(stack.transpose(1, 2, 0))[0]


def _box_det(g):
    """The determinants _worst_boxes rates the (1025, 4, 4) stack of g's box
    with: the elimination's, except that the corners of a box of zero width,
    which all equal g, take g's own, invariants()'s."""

    def det(stack):
        i4 = _elimination_det(stack)
        if (stack[:-1] == g.entries).all():
            i4[:-1] = np.linalg.det(g.entries)
        return i4

    return det


def _rates_one_entropy_at_a_time(inv):
    """The batched _formula's k with its four entropies taken by four calls."""
    r = _radicands(inv)
    arg = 1.0 - r.cx2 / r.s
    with np.errstate(divide="ignore"):
        mi = _zero_rounding_noise(-0.5 * np.log2(_clamp(arg)))
    d_a, d_b = _root(abs(inv.i2) * arg), _root(abs(inv.i1) * arg)
    s_joint = _entropy(r.d_plus) + _entropy(r.d_minus)
    chi_a, chi_b = _zero_rounding_noise(s_joint - _entropy(d_a)), _zero_rounding_noise(s_joint - _entropy(d_b))
    return np.minimum(mi - chi_a, mi - chi_b)


def _stack_breakdown(g, n, det=np.linalg.det, screen=lambda stack: _stack_physical(stack, DEFAULT_TOL)):
    """worst_case_breakdown as assembled before entry planes: all 1024 corners
    and the candidate as one (1025, 4, 4) stack, screened by screen(stack),
    by default the pivot test _stack_physical, with i4 = det(stack), by
    default one LAPACK call per matrix, and the four entropies of each rate
    taken one call each."""
    if not n >= 1:
        raise InvalidArgumentError(f"sample count must be at least 1, got {n}")
    if n > sys.float_info.max and n != math.inf:
        raise InvalidArgumentError(f"sample count must be at most the float maximum or inf, got {n}")
    stack = _box_stack(g, n)
    physical = screen(stack)
    n_physical = int(np.count_nonzero(physical[:-1]))
    if n_physical == 0:
        raise DegenerateBoxError(f"no physical matrix among the 1024 uncertainty-box corners at n = {n:g}")
    screened = stack[physical]
    e = screened.transpose(1, 2, 0)
    i1 = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    i2 = e[2, 2] * e[3, 3] - e[2, 3] * e[3, 2]
    i3 = e[0, 2] * e[1, 3] - e[0, 3] * e[1, 2]
    i4 = det(stack)[physical]
    rates = _rates_one_entropy_at_a_time(SymplecticInvariants(i1, i2, i3, i4, i1 * i2 + i3 * i3 - i4))
    corner_min = float(rates[:n_physical].min())
    candidate = float(rates[n_physical]) if physical[-1] else None
    if candidate is not None and candidate < corner_min - DEFAULT_TOL:
        warnings.warn(
            f"closed-form worst-case candidate {candidate:.9g} undercuts the corner "
            f"minimum {corner_min:.9g}; corner enumeration may be too coarse"
        )
    nominal = float(_checked_formula(invariants(g)).k)
    return WorstCaseBreakdown(corner_min, candidate, min(float(rates.min()), nominal), n_physical)


def _captured(fn, g, n):
    """(breakdown or error type and message, [(category, message) of each warning])."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(g, n)
        except CvqkdError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _stacked_rates_of(states, n_samples=None):
    """_stacked_rates of the states' entries, stacked as scan stacks its rows."""
    return _stacked_rates(np.array([g.entries for g in states]).reshape(-1, 4, 4), n_samples)


def _near_pure_state(rng):
    """L T diag(nu+, nu+, nu-, nu-) T^T L^T with nu- = 1 + 10^-k, k in [3, 16],
    for a two-mode squeezer T and random local rotations and squeezers L."""
    nu_plus, nu_minus = rng.uniform(1.0, 3.0), 1.0 + 10.0 ** -rng.uniform(3.0, 16.0)
    r = rng.uniform(0.0, 2.0)
    c, s = math.cosh(r), math.sinh(r)
    local = np.zeros((4, 4))
    for block in (slice(0, 2), slice(2, 4)):
        local[block, block] = rotation(rng.uniform(0.0, 2.0 * math.pi)) @ squeeze(rng.uniform(-0.7, 0.7))
    sym = local @ np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
    m = sym @ np.diag([nu_plus, nu_plus, nu_minus, nu_minus]) @ sym.T
    return covariance((m + m.T) / 2.0)


def _differential_corpus():
    """(family, state, n): seeded random channels at 3-13 dB, near-pure
    states, pure two-mode squeezed vacua with r <= 6, huge but finite entries
    and an unphysical reconstruction, for n from 1e2 to 1e12. Near-pure and
    pure boxes, and channels at small n, have unphysical corners."""
    rng = np.random.default_rng(1402)
    cases = []
    for _ in range(40):
        eps = rng.uniform(0.0, 0.04)  # below the 13 dB variance 0.05
        loss_a, loss_b = rng.uniform(eps, 0.5, 2)
        delta_a, delta_b = rng.uniform(0.0, 0.1, 2)
        sigma_a, sigma_b = rng.uniform(0.0, 0.2, 2)
        channel = ChannelParams(eps, loss_a, loss_b, delta_a, delta_b, sigma_a, sigma_b)
        g = make_epr_state(SqueezingSpec(var_sqz_db=-rng.uniform(3.0, 13.0)), channel)
        cases.append(("channel", g, 10.0 ** rng.uniform(2.0, 12.0)))
    for _ in range(40):
        cases.append(("near-pure", _near_pure_state(rng), 10.0 ** rng.uniform(2.0, 12.0)))
    for r in np.arange(0.0, 6.25, 0.5):
        for k in range(2, 13, 2):
            cases.append(("pure", tmsv(math.cosh(2.0 * r)), 10.0**k))
    for scale in (1e20, 1e40, 1e60, 1e75):
        for n in (1.0, 1e2, 1e6, 1e12):
            cases.append(("huge", covariance(default_state().entries * scale), n))
    for excess in (1e-7, 1e-5, 1e-3):  # over-correlated: unphysical, with physical corners that raise the noise
        over = tmsv(2.0).entries.copy()
        over[0:2, 2:4] *= 1.0 + excess
        over[2:4, 0:2] *= 1.0 + excess
        for n in (1e2, 1e6, 1e12):
            cases.append(("unphysical", covariance(over), n))
    cases.append(("unphysical", covariance(RECONSTRUCTED_EXAMPLE), 1e6))
    return cases


def test_entry_planes_match_the_stack_they_replaced():
    """Bit-identical errors and warnings, and the same rates: within 1e-12
    absolute, or, where the rate turns a rounding of i4 into more than that,
    from determinants that agree to their backward error eps * cond(Gamma).
    The physical corners are those of the single-state rule (_check_rule),
    not of the replaced stack's pivot test of Gamma + i*Omega. On pure boxes
    the two differ near the boundary: within 2 DEFAULT_TOL, except that the
    r = 3 box at n = 1e12 has corners whose least eigenvalue is +2.48e-9
    and whose d_a the formula rounds to 0.99999966, which the single-state
    path rejects. On huge entries an eigensolver resolves only
    eps * ||Gamma|| >> DEFAULT_TOL, so there the margin is not checked."""
    eps = np.finfo(float).eps
    conditioned = []
    for family, g, n in _differential_corpus():
        got, got_warnings = _captured(worst_case_breakdown, g, n)
        want, want_warnings = _captured(_stack_breakdown, g, n)
        assert got_warnings == want_warnings, (family, n)
        if isinstance(want, tuple):
            assert got == want
            continue
        stack = _box_stack(g, n)
        rule = _check_rule(stack, {"pure": 3.0 * DEFAULT_TOL, "huge": None}.get(family, 2.0 * DEFAULT_TOL))
        assert got.n_corners_physical == np.count_nonzero(rule[:-1])
        assert (got.candidate is None) == (want.candidate is None)
        # the rates differ only through i4 and the screen: the stack screened by
        # the rule, with the planes' determinant, is bit for bit the same
        assert got == _captured(lambda g, n: _stack_breakdown(g, n, _elimination_det, lambda _: rule), g, n)[0]
        pairs = [(got.corner_min, want.corner_min), (got.value, want.value)]
        if want.candidate is not None:
            pairs.append((got.candidate, want.candidate))
        if max(abs(a - b) for a, b in pairs) <= 1e-12:
            continue
        conditioned.append(family)
        screened = stack[rule]
        i4_lapack, i4_planes = np.linalg.det(screened), _elimination_det(screened)
        bound = 16.0 * eps * np.linalg.cond(screened) * np.abs(i4_lapack)
        assert np.all(np.abs(i4_planes - i4_lapack) <= bound), (family, n)
    # a channel state, however noisy, and scaled entries rate within 1e-12
    assert set(conditioned) <= {"near-pure", "pure"}


# ------------------------------------------- distinct corners against all 1024


def _with_zeros(rng, m, count):
    """m with count of its off-diagonal entries and their mirrors set to 0.0
    or -0.0, at random positions."""
    m = m.copy()
    off = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for k in rng.choice(len(off), size=count, replace=False):
        i, j = off[k]
        m[i, j] = m[j, i] = rng.choice([0.0, -0.0])
    return covariance(m)


def _distinct_corner_corpus():
    """Model states from the four source routes with and without phase noise
    and with equal and unequal arms (standard form, four exact zeros); general
    states with 0 to 4 zero entries anywhere, some unphysical; over-correlated
    unphysical states, whose boxes are degenerate at small n."""
    rng = np.random.default_rng(1501)
    sources = [SqueezingSpec(r=1.3), SqueezingSpec(var_sqz_db=-9.0),
               SqueezingSpec(var_sqz_db=-8.0, var_asqz_db=14.0), SourceParams(p_mw=200.0)]
    states = []
    for spec in sources:
        for loss_b, sigma in ((0.068, 0.0), (0.068, 0.1), (0.25, 0.0), (0.25, 0.05)):
            channel = ChannelParams(loss_b=loss_b, phase_sigma_a=sigma, phase_sigma_b=2 * sigma)
            states.append(make_epr_state(spec, channel))
    model = list(states)
    for count in range(5):
        for base in model[::2]:
            local = np.zeros((4, 4))
            for block in (slice(0, 2), slice(2, 4)):
                local[block, block] = rotation(rng.uniform(0.0, 2.0 * math.pi)) @ squeeze(rng.uniform(-0.5, 0.5))
            states.append(_with_zeros(rng, apply_symplectic(base, local).entries, count))
    for excess in (1e-5, 1e-2):
        over = tmsv(2.0).entries.copy()
        over[0:2, 2:4] *= 1.0 + excess
        over[2:4, 0:2] *= 1.0 + excess
        states.append(covariance(over))
    states.append(covariance(RECONSTRUCTED_EXAMPLE))
    return [(g, n) for g in states for n in (1, 1e2, 1e6, 1e12, 1e33, math.inf)]


def _hex(result):
    """A breakdown with its floats in hex, so that -0.0 and 0.0 differ."""
    if not isinstance(result, WorstCaseBreakdown):
        return result
    return tuple(x.hex() if isinstance(x, float) else x for x in vars(result).values())


def test_distinct_corners_match_the_full_box():
    """Rating each distinct corner once gives the breakdown of all 1024
    corners bit for bit, with the same errors and warnings. From n = 1e33 on
    the corners of a box all equal the state and take its own i4."""
    seen, counts = set(), set()
    for g, n in _distinct_corner_corpus():
        got, got_warnings = _captured(worst_case_breakdown, g, n)
        want, want_warnings = _captured(lambda g, n: _stack_breakdown(g, n, _box_det(g)), g, n)
        assert _hex(got) == _hex(want), (g.entries.tolist(), n)
        assert got_warnings == want_warnings
        seen.add(want[0] if isinstance(want, tuple) else "ok")
        if isinstance(want, WorstCaseBreakdown):
            counts.add("all" if want.n_corners_physical == 1024 else "some")
    assert seen == {"ok", DegenerateBoxError, InvalidArgumentError, InvalidStateError}
    assert counts == {"all", "some"}


def test_worst_case_screens_each_distinct_corner_once(monkeypatch):
    """A model state has four zero entries, so 64 distinct corners; a locally
    rotated state has none, so all 1024; at n = inf every entry has zero
    width, so one. Each stack adds the candidate."""
    sizes = []
    real_screen = cvqkd.keyrate._screened_det

    def screen(planes):
        sizes.append(planes.shape[-1])
        return real_screen(planes)

    monkeypatch.setattr(cvqkd.keyrate, "_screened_det", screen)
    local = np.zeros((4, 4))
    local[0:2, 0:2], local[2:4, 2:4] = rotation(0.3), rotation(-1.1)
    rotated = apply_symplectic(default_state(), local)
    worst_case_breakdown(default_state(), 10**6)
    worst_case_breakdown(rotated, 10**6)
    worst_case_breakdown(default_state(), math.inf)
    assert sizes == [65, 1025, 2]


# ------------------------------------- stacked worst case against one call a row


def _locally_rotated(g, theta_a, theta_b):
    local = np.zeros((4, 4))
    local[0:2, 0:2], local[2:4, 2:4] = rotation(theta_a), rotation(theta_b)
    return apply_symplectic(g, local)


def _distinct_corner_mix():
    """Model states from the four source routes, with and without phase
    noise (standard form: 64 distinct corners), each followed by a copy with
    arm A rotated by 0.3 rad (arm B's block stays diagonal, one zero entry:
    512) and one with arm B rotated by -1.1 rad too (no zero entry: 1024)."""
    sources = [SqueezingSpec(r=1.3), SqueezingSpec(var_sqz_db=-9.0),
               SqueezingSpec(var_sqz_db=-8.0, var_asqz_db=14.0), SourceParams(p_mw=200.0)]
    states = []
    for spec in sources:
        for sigma in (0.0, 0.05):
            g = make_epr_state(spec, ChannelParams(loss_b=0.25, phase_sigma_a=sigma, phase_sigma_b=2 * sigma))
            states += [g, _locally_rotated(g, 0.3, 0.0), _locally_rotated(g, 0.3, -1.1)]
    return states


@pytest.mark.parametrize("n", [1, 1e2, 1e6, 1e12, 1e33, math.inf])
def test_stacked_worst_case_equals_worst_case_breakdown_bit_for_bit(monkeypatch, n):
    """One screen over every row's distinct corners and candidate, and each
    row's k_worst_case is worst_case_breakdown's value bit for bit, with the
    same warnings. From n = 1e33 on no entry has width: one corner a row."""
    states = _distinct_corner_mix()
    want, want_warnings = _captured(lambda states, n: [worst_case_breakdown(g, n).value for g in states], states, n)
    sizes = []
    real_screen = cvqkd.keyrate._screened_det

    def screen(planes):
        sizes.append(planes.shape[-1])
        return real_screen(planes)

    monkeypatch.setattr(cvqkd.keyrate, "_screened_det", screen)
    got, got_warnings = _captured(_stacked_rates_of, states, n)
    assert [row[4].hex() for row in got] == [value.hex() for value in want]
    assert got_warnings == want_warnings
    distinct = (64, 512, 1024) if n < 1e33 else (1, 1, 1)
    assert sizes == [len(states) // 3 * (sum(distinct) + 3)]


def _stretched_near_pure_state():
    """Two-mode squeezed (r = 4.2), then both modes squeezed by e^-2.2, from
    thermal noise 1 - 4e-8: d_minus is within the formula's tolerance of 1,
    so secret_key_rate rates it, although the local squeezers stretch the
    unphysical direction of Gamma + i*Omega to a least eigenvalue of
    -1.45e-9, beyond DEFAULT_TOL."""
    c, s = math.cosh(4.2), math.sinh(4.2)
    two_mode = np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
    local = np.zeros((4, 4))
    local[0:2, 0:2] = local[2:4, 2:4] = squeeze(-2.2)
    sym = local @ two_mode
    m = (1.0 - 4e-8) * sym @ sym.T
    return covariance((m + m.T) / 2.0)


@pytest.mark.parametrize("n", [1e33, math.inf])
def test_stretched_near_pure_state_rates_its_worst_case_at_its_nominal_rate(n):
    """From n = 1e33 on the box has no width, so its one corner is the state,
    and a corner is rated exactly when the single-state formula rates it:
    the worst case is the nominal rate, alone and in a stacked pass."""
    g = _stretched_near_pure_state()
    assert -2.0 * DEFAULT_TOL < _eigen_margins(g.entries[np.newaxis])[0] < -DEFAULT_TOL
    nominal = secret_key_rate(g).k_nominal
    assert nominal == 11.11863841659642
    breakdown = worst_case_breakdown(g, n)
    assert breakdown.value == breakdown.corner_min == nominal
    assert breakdown.n_corners_physical == 1024
    rows = [default_state(), g]
    assert _stacked_rates_of(rows, n) == [
        [r.mi, r.holevo_a, r.holevo_b, r.k_nominal, r.k_worst_case] for r in (secret_key_rate(g, n) for g in rows)
    ]
    assert _stacked_rates_of(rows, n)[1][4] == nominal


def _locally_squeezed_pure_states():
    """Two-mode squeezed vacua (r = 1, 1.5, 2) with arm A rotated and
    squeezed by e^-+2 and arm B squeezed by up to e^-+1: pure, and so
    ill-conditioned that LAPACK's i4 and the elimination's, each good to
    eps * cond(Gamma), can put d_minus on opposite sides of its floor."""
    states = []
    for r, sq_a, sq_b, theta in itertools.product([1.0, 1.5, 2.0], [-2.0, 2.0], [-1.0, 0.0, 1.0], [0.3, 1.1]):
        c, s = math.cosh(r), math.sinh(r)
        local = np.zeros((4, 4))
        local[0:2, 0:2], local[2:4, 2:4] = rotation(theta) @ squeeze(sq_a), squeeze(sq_b)
        sym = local @ np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
        m = sym @ sym.T
        states.append(covariance((m + m.T) / 2.0))
    return states


@pytest.mark.parametrize("n", [1e33, math.inf])
def test_a_box_of_zero_width_rates_its_state_as_secret_key_rate_does(n):
    """The one corner of a zero-width box is the state, rated with its own
    i4: every state that secret_key_rate rates has a physical box at its
    nominal rate, alone and in a stacked pass. With the elimination's i4
    instead, 12 of these 36 states raised DegenerateBoxError on numpy 2.4.6."""
    states, rated = _locally_squeezed_pure_states(), []
    for g in states:
        try:
            nominal = secret_key_rate(g).k_nominal
        except CvqkdError:
            continue
        breakdown = worst_case_breakdown(g, n)
        assert breakdown.corner_min == nominal
        assert breakdown.n_corners_physical == 1024
        rated.append(g)
    assert len(rated) >= len(states) // 2
    assert [row[4] for row in _stacked_rates_of(rated, n)] == [worst_case_key_rate(g, n) for g in rated]


def _overflowing_box_state():
    """tmsv(3.0) scaled to a largest entry of 5.01e76: its invariants fit the
    float range, but at n = 1 and 2 those of its box corners do not."""
    return covariance(tmsv(3.0).entries * 1.67e76)


def test_worst_case_of_an_overflowing_box_is_a_typed_error():
    """No NaN and no numpy warning: the box raises what invariants() raises
    for a matrix that overflows. Narrower boxes still rate. The state is a
    pure one scaled by s = 1.67e76, so its symplectic eigenvalues are all s
    and k = log2(3) - f(s), and its worst-case margin below k is that of
    the same state scaled by 1e20, since f(s x) - f(s y) tends to
    log2(x / y) as s grows."""
    g = _overflowing_box_state()
    invariants(g)
    for n in (1, 2):
        with pytest.raises(InvalidStateError, match=f"box at n = {n} overflow the symplectic invariants"):
            worst_case_key_rate(g, n)
    s, nominal = 1.67e76, secret_key_rate(g).k_nominal
    assert nominal == pytest.approx(math.log2(3.0) - math.log2((s - 1.0) / 2.0) - 1.0 / math.log(2.0), rel=1e-15)
    smaller = covariance(tmsv(3.0).entries * 1e20)
    for n, want in ((100, -254.06739098633955), (10**6, -252.1109114610413)):
        assert worst_case_key_rate(g, n) == want
        margin = worst_case_key_rate(smaller, n) - secret_key_rate(smaller).k_nominal
        assert want - nominal == pytest.approx(margin, abs=1e-12)


def test_stacked_worst_case_raises_an_overflowing_box_in_row_order():
    """At n = 1 the corners of the overflowing state's box overflow the
    invariants. After good rows the stacked pass raises the single call's
    InvalidStateError; a flagged row before it raises its own error first,
    and one after it does not get the chance."""
    overflowing = _overflowing_box_state()
    secret_key_rate(overflowing)
    with pytest.raises(InvalidStateError) as want:
        worst_case_key_rate(overflowing, 1)
    flagged = covariance(np.diag([0.5, 0.5, 1.0, 1.0]))
    with pytest.raises(CvqkdError) as flagged_error:
        secret_key_rate(flagged, 1)
    good = [default_state(), default_state(-9.0)]
    assert _captured(_stacked_rates_of, good, 1)[0] == [
        [r.mi, r.holevo_a, r.holevo_b, r.k_nominal, r.k_worst_case] for r in (secret_key_rate(g, 1) for g in good)
    ]
    for rows, error in (
        ([*good, overflowing], want.value),
        ([*good, overflowing, flagged], want.value),
        ([*good, flagged, overflowing], flagged_error.value),
    ):
        assert _captured(_stacked_rates_of, rows, 1) == ((type(error), str(error)), [])


@pytest.mark.parametrize("n", [0, -1.0, math.nan, True, "1e6"])
def test_stacked_rates_raise_an_invalid_sample_count_at_the_first_unflagged_row(n):
    """A sample count that worst_case_key_rate rejects is raised where one
    secret_key_rate call per row raises it: a flagged row before the first
    unflagged one raises its own error first, and rows after it get no
    chance."""
    flagged = covariance(np.diag([0.5, 0.5, 1.0, 1.0]))
    good = default_state()

    def one_by_one(states, n):
        return [secret_key_rate(g, n).k_worst_case for g in states]

    for rows in ([flagged, good], [good, flagged], [flagged, flagged, good], [good]):
        want = _captured(one_by_one, rows, n)
        assert want[0][1].startswith("sample count") == (rows[0] is good)
        assert _captured(_stacked_rates_of, rows, n) == want


#: ways a raw row breaks a rule of covariance(): the entry changed, and its new value
_BROKEN_ROWS = {
    "nan entry": ((0, 2), lambda x: math.nan),
    "inf entry": ((0, 2), lambda x: math.inf),
    "asymmetry of 1e-9": ((0, 2), lambda x: x + 1e-9),
    "zero diagonal entry": ((1, 1), lambda x: 0.0),
    "negative diagonal entry": ((1, 1), lambda x: -x),
}


@pytest.mark.parametrize("n", [None, 1e6])
@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("broken", list(_BROKEN_ROWS))
def test_stacked_rates_of_raw_rows_that_break_covariance_rules_are_one_call_a_row(broken, position, n):
    """Raw rows at 6, 9 and 11.1 dB, one of which breaks a rule of
    covariance(): the stacked pass gives what secret_key_rate(covariance(row))
    called row by row gives, the rows before the broken one bit for bit and
    then the broken row's error, with no warning."""
    rows = np.array([default_state(-db).entries for db in (6.0, 9.0, 11.1)])
    index, value = _BROKEN_ROWS[broken]
    rows[position][index] = value(rows[position][index])

    def one_by_one(rows, n):
        reports = [secret_key_rate(covariance(row), n) for row in rows]
        return [[r.mi, r.holevo_a, r.holevo_b, r.k_nominal, r.k_worst_case] for r in reports]

    want = _captured(one_by_one, rows, n)
    assert want[0][0] is InvalidStateError and want[1] == []
    assert _captured(_stacked_rates, rows, n) == want
    assert repr(_captured(_stacked_rates, rows[:position], n)) == repr(_captured(one_by_one, rows[:position], n))


def test_stacked_worst_case_warns_and_raises_as_rows_rated_one_by_one(monkeypatch):
    """scan's epsilon = 0 sqz_db sweep from 0 to 300 dB in 600 steps: a
    strongly squeezed row's mutual information log argument is not
    positive. No row's candidate undercuts its corner minimum, so every
    candidate's lambda_a is inflated by 1.5, which makes it noisier than
    any corner. Rated in one stacked pass, the rows
    before the error give the values and undercut warnings of one
    secret_key_rate call a row, in the same order, and with it the same
    error after the same warnings."""
    channel = ChannelParams(epsilon=0.0)
    states = [make_epr_state(SqueezingSpec(var_sqz_db=-db), channel) for db in np.linspace(0.0, 300.0, 600).tolist()]

    def one_by_one(states, n):
        return [secret_key_rate(g, n).k_worst_case for g in states]

    want, want_warnings = _captured(one_by_one, states, 1e6)
    assert want == (InvalidStateError, "mutual information log argument -8.882e-16 is not positive")
    assert want_warnings == []

    def inflated(*args):
        nf = real_normal_form_of(*args)
        return NormalForm(1.5 * nf.lambda_a, nf.lambda_b, nf.c_x, nf.c_p)

    real_normal_form_of = cvqkd.keyrate._normal_form_of
    monkeypatch.setattr(cvqkd.keyrate, "_normal_form_of", inflated)
    want, want_warnings = _captured(one_by_one, states, 1e6)
    assert len(want_warnings) > 10 and all("undercuts the corner minimum" in m for _, m in want_warnings)
    count = next(j for j, g in enumerate(states) if _captured(one_by_one, [g], 1e6)[0] == want)
    rated, rated_warnings = _captured(one_by_one, states[:count], 1e6)
    assert rated_warnings == want_warnings
    got, got_warnings = _captured(_stacked_rates_of, states[:count], 1e6)
    assert [row[4].hex() for row in got] == [value.hex() for value in rated]
    assert got_warnings == want_warnings
    assert _captured(_stacked_rates_of, states[: count + 1], 1e6) == (want, want_warnings)
    assert _captured(_stacked_rates_of, states, 1e6) == (want, want_warnings)


# ------------------------- block elimination and one floor test against the per-plane kernels


def _plane_at_a_time_det(planes):
    """gaussian._screened_det as it eliminated before: one entry plane of the
    upper triangle at a time, about 37 numpy calls for a 4x4 stack."""
    dim = planes.shape[0]
    a = {(i, j): planes[i, j] for i in range(dim) for j in range(i, dim)}
    det, positive = a[0, 0], a[0, 0] > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(dim - 1):
            for i in range(k + 1, dim):
                ratio = a[k, i] / a[k, k]
                for j in range(i, dim):
                    a[i, j] = a[i, j] - ratio * a[k, j]
            det = det * a[k + 1, k + 1]
            positive &= a[k + 1, k + 1] > 0.0
    return det, positive


def _per_floor_rejected(inv, f):
    """keyrate._rejected as it tested before: one _below_floor call per
    floored quantity."""
    return (
        (inv.i1 <= 0.0) | (inv.i2 <= 0.0) | (f.arg <= 0.0)
        | _below_floor(f.disc, 0.0, f.disc_scale)
        | _below_floor(f.rad, 0.0, f.rad_scale) | _below_floor(f.dm2, 0.0, f.d_scale)
        | _below_floor(f.d_plus, 1.0, f.d_scale) | _below_floor(f.d_minus, 1.0, f.d_scale)
        | _below_floor(f.d_a, 1.0, f.size) | _below_floor(f.d_b, 1.0, f.size)
    )


@functools.lru_cache(maxsize=1)
def _kernel_stacks():
    """{name: (4, 4, k) entry planes}: random stacks with Gamma > 0 and
    indefinite ones, zero variances at each pivot, entries near 1e154 whose
    pivot products overflow, and the default state's 66-matrix box and the
    rotated state's 1026-matrix box at n = 1, 1e6 and inf, the state first."""
    rng = np.random.default_rng(2501)
    x = rng.normal(size=(500, 4, 6))
    positive = x @ x.transpose(0, 2, 1) + 1e-3 * np.eye(4)
    y = rng.normal(size=(500, 4, 4))
    stacks = [("positive", positive), ("indefinite", y + y.transpose(0, 2, 1))]
    zero = np.array([np.eye(4) * 2.0 + 0.5] * 4)
    for k in range(4):
        zero[k, k] = 0.0
        zero[k, k, k] = 0.0
    stacks.append(("zero variance", np.concatenate([zero, np.diag([0.0, 2e9, 1.0, 1.0])[np.newaxis]])))
    huge = np.array([tmsv(3.0).entries, RECONSTRUCTED_EXAMPLE, default_state().entries, np.eye(4)])
    stacks.append(("near 1e154", np.concatenate([huge * 1e154, huge * 1.5e154, huge * 0.3e154])))
    planes = {name: stack.transpose(1, 2, 0) for name, stack in stacks}
    for name, g in (("default box", default_state()), ("rotated box", _locally_rotated(default_state(), 0.3, -1.1))):
        for n in (1, 1e6, math.inf):
            planes[f"{name} at n = {n:g}"] = _box_planes(g.entries[:, :, np.newaxis], normal_form(g), 1.0 / math.sqrt(n))[0]
    return planes


_KERNEL_STACK_NAMES = ["positive", "indefinite", "zero variance", "near 1e154"] + [
    f"{box} at n = {n}" for box in ("default box", "rotated box") for n in ("1", "1e+06", "inf")
]


@pytest.mark.parametrize("name", _KERNEL_STACK_NAMES)
def test_block_elimination_and_stacked_floors_equal_the_per_plane_kernels(name):
    """The trailing-block elimination gives the plane-at-a-time determinant
    bits and screen, and the stacked floor test the per-floor mask, on every
    matrix, without a numpy warning. The default state's box has 66
    matrices and the rotated state's 1026 (3 each at n = inf)."""
    planes = _kernel_stacks()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det, positive = _screened_det(planes)
    want_det, want_positive = _plane_at_a_time_det(planes)
    assert det.tobytes() == want_det.tobytes()
    np.testing.assert_array_equal(positive, want_positive)
    with np.errstate(all="ignore"):
        inv = SymplecticInvariants(*_invariant_values(planes, det))
        f = _formula(inv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rejected = _rejected(inv, f)
    np.testing.assert_array_equal(rejected, _per_floor_rejected(inv, f))
    if name.startswith(("positive", "default box at n = 1e+06")):
        assert positive.all() and not rejected.all()
    if name in ("indefinite", "zero variance"):
        assert not positive.all()
    if name == "near 1e154":
        assert positive.all() and np.isinf(det).all()


def _box_corpus():
    """_distinct_corner_mix() and the states whose boxes overflow or hold no
    physical corner."""
    over = tmsv(2.0).entries.copy()
    over[0:2, 2:4] *= 1.0 + 1e-2
    over[2:4, 0:2] *= 1.0 + 1e-2
    return [*_distinct_corner_mix(), _overflowing_box_state(), covariance(over), covariance(RECONSTRUCTED_EXAMPLE)]


@pytest.mark.parametrize("n", [1, 1e2, 1e6, 1e12, 1e33, math.inf])
def test_secret_key_rate_rates_the_box_as_worst_case_key_rate_does(n):
    """secret_key_rate rates the box from its own invariants and checked
    formula: its k_worst_case is worst_case_key_rate's bit for bit, with the
    same warnings, and where the box raises, both raise the same error. A
    state whose nominal rate raises keeps raising that error first, as
    before; a degenerate box is one of those, because the corner with every
    entry widened by 1 + t of a state that rates is rated too."""
    outcomes = set()
    for g in _box_corpus():
        got = _captured(lambda g, n: secret_key_rate(g, n).k_worst_case, g, n)
        nominal = _captured(lambda g, n: secret_key_rate(g), g, n)[0]
        want = _captured(worst_case_key_rate, g, n)
        if isinstance(nominal, tuple):
            assert got == (nominal, [])
            outcomes.add(f"nominal {nominal[0].__name__}, box {_hex(want[0])[0].__name__}")
            continue
        assert (_hex(got[0]), got[1]) == (_hex(want[0]), want[1])
        outcomes.add(got[0][0].__name__ if isinstance(got[0], tuple) else "rated")
    if n <= 2:
        assert "InvalidStateError" in outcomes  # the overflowing box
    assert "rated" in outcomes
