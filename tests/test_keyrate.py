"""Information quantities: entropy kernel, mutual information, Holevo bound,
nominal and statistically-worst-case key rates."""

import math
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
    _invariant_values,
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
    _formula,
    entropy_f,
    holevo,
    holevo_intermediates,
    holevo_oracle,
    mi_oracle,
    mutual_information,
    secret_key_rate,
    worst_case_breakdown,
    worst_case_key_rate,
)
from cvqkd.noise import ChannelParams, SqueezingSpec, make_epr_state

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


def test_mi_oracle_on_reconstructed_example(reconstructed_example):
    mi_x, mi_p = mi_oracle(reconstructed_example)
    assert mi_x == pytest.approx(0.7984675711936159, rel=1e-12)
    assert mi_p == pytest.approx(1.81703421246024, rel=1e-12)
    assert mi_p == pytest.approx(0.5 * math.log2(24.7 / 1.9894514767932456), rel=1e-13)


def test_mutual_information_rejects_bad_invariants():
    with pytest.raises(InvalidStateError):
        mutual_information(SymplecticInvariants(-1.0, 1.0, 0.0, 1.0, 0.0))
    with pytest.raises(FormulaDomainError):
        mutual_information(SymplecticInvariants(1.0, 1.0, 0.9, 0.81, 1.0))


# ----------------------------------------------------------------- holevo bound


def test_holevo_frozen_intermediates_at_operating_point():
    inv = invariants(default_state(-10.5))
    mid = holevo_intermediates(inv)
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


# ------------------------------------------------------------------- worst case


def test_worst_case_rejects_bad_sample_count():
    for n in (0, -1, math.nan):
        with pytest.raises(InvalidArgumentError):
            worst_case_key_rate(default_state(), n)


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
        raise DegenerateBoxError(f"no physical corner at n = {n:g}", n_samples=n)
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
    inter = holevo_intermediates(inv)
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
    inflating lambda_a, which makes the candidate noisier than any corner."""
    real_normal_form = cvqkd.keyrate.normal_form

    def inflated(g):
        nf = real_normal_form(g)
        return NormalForm(1.5 * nf.lambda_a, nf.lambda_b, nf.c_x, nf.c_p)

    monkeypatch.setattr(cvqkd.keyrate, "normal_form", inflated)
    with pytest.warns(UserWarning, match="undercuts the corner minimum") as caught:
        worst_case_key_rate(default_state(-10.5), 10**6)
    assert caught[0].filename == __file__


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


_EDGE_STATES = st.one_of(
    _williamson_states(st.floats(3.0, 16.0).map(lambda k: 1.0 + 10.0**-k)),  # near-pure
    _branch_ties(),
    _williamson_states(st.just(1.0)),  # on the physical boundary
)


@_PROPERTY_SETTINGS
@given(st.lists(_EDGE_STATES, min_size=1, max_size=6))
def test_batched_kernel_matches_single_state_path_on_edge_regimes(states):
    """One clamping policy: a stack rated at once gives what each matrix
    gives on the single-state path, where DEGENERACY_SNAP matters most."""
    batch = _formula(SymplecticInvariants(*_invariant_values(np.stack([g.entries for g in states]))))
    for j, g in enumerate(states):
        inv = invariants(g)
        try:
            mi = mutual_information(inv)
            mid = holevo_intermediates(inv)
            chi_a, chi_b = holevo(inv, "A"), holevo(inv, "B")
        except CvqkdError:
            continue
        want = {"mi": mi, "chi_a": chi_a, "chi_b": chi_b, "k": mi - max(chi_a, chi_b)}
        want.update(d_plus=mid.d_plus, d_minus=mid.d_minus, d_a=mid.d_a, d_b=mid.d_b)
        for name, value in want.items():
            assert getattr(batch, name)[j] == pytest.approx(value, rel=1e-12, abs=1e-12), name


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
    ):
        try:
            call()
        except CvqkdError:
            pass
