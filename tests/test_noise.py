"""Source model, loss and detection channels, phase noise, state assembly."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import cvqkd.noise
from cvqkd.errors import InvalidArgumentError, InvalidStateError
from cvqkd.gaussian import (
    DEFAULT_TOL,
    apply_symplectic,
    balanced_beamsplitter,
    covariance,
    db_to_variance,
    epr_product,
    invariants,
    is_physical,
    rotation,
    squeezed_vacuum,
    tensor,
    vacuum,
    variance_to_db,
)
from cvqkd.noise import (
    ChannelParams,
    SourceParams,
    SqueezingSpec,
    detection_noise,
    epr_theory,
    loss_channel,
    make_epr_state,
    phase_noise_channel,
    phase_noise_monte_carlo,
    pump_to_variances,
    r_from_measured,
)

from conftest import random_normal_form_state


def zero_channel():
    return ChannelParams(
        epsilon=0.0,
        loss_a=0.0,
        loss_b=0.0,
        det_noise_a=0.0,
        det_noise_b=0.0,
        phase_sigma_a=0.0,
        phase_sigma_b=0.0,
    )


# ------------------------------------------------------------- parameter sets


def test_source_params_validation():
    with pytest.raises(InvalidArgumentError):
        SourceParams(eta=0.0)
    with pytest.raises(InvalidArgumentError):
        SourceParams(eta=1.2)
    with pytest.raises(InvalidArgumentError):
        SourceParams(p_th_mw=0.0)
    with pytest.raises(InvalidArgumentError):
        SourceParams(p_mw=-1.0)
    with pytest.raises(InvalidArgumentError):
        SourceParams(k=-0.1)
    # NaN fails every range check, with the message of its field
    for name in ("p_mw", "k"):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be non-negative, got nan$"):
            SourceParams(**{name: math.nan})


def test_channel_params_validation():
    with pytest.raises(InvalidArgumentError):
        ChannelParams(epsilon=1.0)
    with pytest.raises(InvalidArgumentError):
        ChannelParams(loss_a=1.1)
    with pytest.raises(InvalidArgumentError):
        ChannelParams(det_noise_b=-0.01)
    with pytest.raises(InvalidArgumentError):
        ChannelParams(phase_sigma_a=-0.2)
    for name in ("det_noise_a", "det_noise_b", "phase_sigma_a", "phase_sigma_b"):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be non-negative, got nan$"):
            ChannelParams(**{name: math.nan})


def test_squeezing_spec_validation():
    with pytest.raises(InvalidArgumentError):
        SqueezingSpec()
    with pytest.raises(InvalidArgumentError):
        SqueezingSpec(var_asqz_db=10.0)
    with pytest.warns(UserWarning):
        SqueezingSpec(r=-0.3)


# ----------------------------------------------------------------- pump model


def test_pump_to_variances_at_zero_power_is_vacuum():
    vs, va = pump_to_variances(SourceParams(p_mw=0.0))
    assert vs == 1.0 and va == 1.0


def test_pump_to_variances_frozen_point():
    vs, va = pump_to_variances(SourceParams(p_mw=170.0))
    assert vs == pytest.approx(0.09189949485819804, rel=1e-12)
    assert va == pytest.approx(26.973729354251873, rel=1e-12)


def test_pump_variance_product_exceeds_one_off_threshold():
    for p in (20.0, 90.0, 170.0, 250.0):
        vs, va = pump_to_variances(SourceParams(p_mw=p))
        assert vs * va > 1.0
        assert 0.0 < vs < 1.0 < va


def test_pump_at_threshold_warns_but_stays_finite():
    with pytest.warns(UserWarning, match="threshold"):
        vs, va = pump_to_variances(SourceParams(p_mw=268.0))
    assert vs == pytest.approx(0.0761, abs=2e-4)
    assert variance_to_db(vs) == pytest.approx(-11.186, abs=2e-3)


def test_pump_guard_rejects_far_above_threshold():
    with pytest.raises(InvalidArgumentError):
        pump_to_variances(SourceParams(p_mw=268.0 * 1.06))


def test_pump_model_diverges_at_threshold_without_escape():
    with pytest.raises(InvalidArgumentError, match="diverges"), pytest.warns(UserWarning):
        pump_to_variances(SourceParams(p_mw=268.0, k=0.0))


def test_pump_requires_power():
    with pytest.raises(InvalidArgumentError):
        pump_to_variances(SourceParams())


# -------------------------------------------------------------------- channels


def test_loss_channel_identity_and_full_replacement():
    g = squeezed_vacuum(0.25, 4.0)
    np.testing.assert_array_equal(loss_channel(g, 0.0).entries, g.entries)
    np.testing.assert_allclose(loss_channel(g, 1.0).entries, np.eye(2), atol=1e-15)


def test_loss_channel_uniform_equals_per_mode():
    """The one loss formula scales by sqrt((1 - v)(1 - v)), which must be
    1 - v exactly, so equal arms are the convex combination bit for bit."""
    rng = np.random.default_rng(21)
    eps = np.finfo(float).eps
    ends = [0.0, 1.0, 0.3, 5e-324, 1e-300, eps / 2.0, eps, 1e-9, 0.5, 1.0 - eps, 1.0 - eps / 2.0, 1.0 - 1e-9]
    values = ends + rng.uniform(0.0, 1.0, 10_000).tolist()
    states = [random_normal_form_state(rng) for _ in range(4)]
    states.append(apply_symplectic(states[0], np.kron(np.eye(2), rotation(0.7))))
    for i, v in enumerate(values):
        g = states[i % len(states)]
        uniform = loss_channel(g, v)
        np.testing.assert_array_equal(uniform.entries, loss_channel(g, [v, v]).entries)
        np.testing.assert_array_equal(uniform.entries, (1.0 - v) * g.entries + v * np.eye(4))


def test_loss_channel_single_arm():
    g = tensor(squeezed_vacuum(0.25, 4.0), vacuum(1))
    out = loss_channel(g, [0.5, 0.0])
    np.testing.assert_allclose(out.entries, np.diag([0.625, 2.5, 1.0, 1.0]), rtol=1e-15)


def test_loss_channel_rejects_out_of_range():
    with pytest.raises(InvalidArgumentError):
        loss_channel(vacuum(1), 1.5)
    with pytest.raises(InvalidArgumentError):
        loss_channel(vacuum(1), [-0.1])


def test_detection_noise_adds_to_diagonal():
    g = vacuum(2)
    out = detection_noise(g, [0.015, 0.02])
    np.testing.assert_allclose(
        out.entries, np.diag([1.015, 1.015, 1.02, 1.02]), rtol=1e-15
    )
    np.testing.assert_array_equal(detection_noise(g, 0.0).entries, g.entries)


def test_detection_noise_that_overflows_is_a_typed_error_without_a_numpy_warning():
    """Entries near 1.4e307 plus 1.7e308 of detection noise overflow to inf:
    covariance()'s typed error on every route, and no numpy RuntimeWarning,
    which this suite raises as an error."""
    spec, ch = SqueezingSpec(r=354.0), ChannelParams(epsilon=0.0, det_noise_b=1.7e308)
    huge = make_epr_state(spec, ChannelParams(epsilon=0.0))
    assert huge.entries.max() > 1e307
    routes = [
        lambda: make_epr_state(spec, ch),
        lambda: cvqkd.noise._optical_and_detected(spec, ch),
        lambda: detection_noise(huge, [0.0, 1.7e308]),
    ]
    for route in routes:
        with pytest.raises(InvalidStateError, match="^covariance matrix contains non-finite entries$"):
            route()


def test_detection_noise_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        detection_noise(vacuum(1), -0.01)


def test_loss_and_detection_do_not_commute():
    """Order matters: the mismatch is exactly nu * delta on the diagonal."""
    nu, delta = 0.068, 0.0148
    rng = np.random.default_rng(22)
    g = random_normal_form_state(rng)
    loss_first = detection_noise(loss_channel(g, nu), delta)
    noise_first = loss_channel(detection_noise(g, delta), nu)
    diff = loss_first.entries - noise_first.entries
    np.testing.assert_allclose(diff, nu * delta * np.eye(4), atol=1e-15)


def test_phase_noise_zero_sigma_is_identity():
    g = squeezed_vacuum(0.25, 4.0)
    assert phase_noise_channel(g, 0.0) is g


def test_phase_noise_large_sigma_isotropizes():
    g = squeezed_vacuum(0.25, 4.0)
    out = phase_noise_channel(g, 50.0)
    mean = (0.25 + 4.0) / 2.0
    np.testing.assert_allclose(out.entries, mean * np.eye(2), atol=1e-12)


def test_phase_noise_contracts_anisotropy():
    g = squeezed_vacuum(0.25, 4.0)
    out = phase_noise_channel(g, 0.1)
    damp = math.exp(-2.0 * 0.1**2)
    mean = (0.25 + 4.0) / 2.0
    dev = (0.25 - 4.0) / 2.0
    np.testing.assert_allclose(
        out.entries, np.diag([mean + damp * dev, mean - damp * dev]), rtol=1e-14
    )


def test_phase_noise_rejects_negative_sigma():
    with pytest.raises(InvalidArgumentError):
        phase_noise_channel(vacuum(1), -0.1)


def test_phase_noise_commutes_with_uniform_loss():
    rng = np.random.default_rng(23)
    g = random_normal_form_state(rng)
    a = loss_channel(phase_noise_channel(g, 0.2), 0.3)
    b = phase_noise_channel(loss_channel(g, 0.3), 0.2)
    np.testing.assert_allclose(a.entries, b.entries, atol=1e-9)


def test_phase_noise_preserves_physicality():
    rng = np.random.default_rng(24)
    for _ in range(20):
        g = random_normal_form_state(rng)
        assert is_physical(phase_noise_channel(g, float(rng.uniform(0.0, 0.5))))


def _reference_phase_noise(m, sigmas):
    """The per-block loop that _phase_noise replaced: 2x2 block arrays."""
    n = len(sigmas)
    out = np.empty_like(m)
    for i in range(n):
        for j in range(n):
            blk = m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            if i == j:
                e2 = math.exp(-2.0 * sigmas[i] * sigmas[i])
                mean = (blk[0, 0] + blk[1, 1]) / 2.0
                dev = (blk[0, 0] - blk[1, 1]) / 2.0
                out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = np.array(
                    [
                        [mean + e2 * dev, e2 * blk[0, 1]],
                        [e2 * blk[0, 1], mean - e2 * dev],
                    ]
                )
            else:
                f = math.exp(-(sigmas[i] ** 2 + sigmas[j] ** 2) / 2.0)
                out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = f * blk
    return (out + out.T) / 2.0


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_phase_noise_equals_the_block_loop_bit_for_bit(n_modes):
    """The float arithmetic of _phase_noise is the block loop's, entry by
    entry, for sigma = 0 on one mode, unequal and large sigmas alike."""
    rng = np.random.default_rng(40 + n_modes)
    # thousands of sigmas: numpy's scalar power differs from s * s on about 0.1% of them
    sigma_sets = [rng.uniform(0.0, 0.5, n_modes) for _ in range(3000)]
    sigma_sets += [np.full(n_modes, s) for s in (0.05, 3.0, 30.0)]
    sigma_sets += [np.where(np.arange(n_modes) == k, 0.0, rng.uniform(0.0, 0.5, n_modes)) for k in range(n_modes)]
    sigma_sets += [rng.uniform(0.0, 40.0, n_modes) for _ in range(30)]
    for j, sigmas in enumerate(sigma_sets):
        for scale in (1e-3, 1.0, 1e3) if j % 100 == 0 or j >= 3000 else (1.0,):
            a = rng.normal(size=(2 * n_modes, 2 * n_modes)) * scale
            m = covariance(a @ a.T + np.eye(2 * n_modes)).entries
            want = _reference_phase_noise(m, sigmas)
            assert cvqkd.noise._phase_noise(m, sigmas).tobytes() == want.tobytes(), (sigmas, scale)
            if sigmas.any():  # the public map returns its input unchanged at zero noise
                got = phase_noise_channel(covariance(m), sigmas).entries
                assert got.tobytes() == covariance(want).entries.tobytes(), (sigmas, scale)


@pytest.mark.parametrize("sigma", [1e160, 1e200])
def test_phase_noise_whose_square_overflows_dephases_fully_without_warnings(sigma):
    """Every factor is exactly 0 from sigma ~ 39 on, so a sigma whose square
    overflows gives the sigma -> inf entries, bit for bit those of sigma = 50,
    with no numpy overflow warning (RuntimeWarnings fail the suite)."""
    spec = SqueezingSpec(var_sqz_db=-11.1)
    g = make_epr_state(spec, ChannelParams())
    m = g.entries
    mean_a, mean_b = (m[0, 0] + m[1, 1]) / 2.0, (m[2, 2] + m[3, 3]) / 2.0
    want = covariance(np.diag([mean_a, mean_a, mean_b, mean_b])).entries
    np.testing.assert_array_equal(phase_noise_channel(g, sigma).entries, want)  # -0.0 where a factor scales a negative
    assert phase_noise_channel(g, [0.0, sigma]).entries.tobytes() == phase_noise_channel(g, [0.0, 50.0]).entries.tobytes()
    got = make_epr_state(spec, ChannelParams(phase_sigma_a=sigma, phase_sigma_b=sigma)).entries
    assert got.tobytes() == make_epr_state(spec, ChannelParams(phase_sigma_a=50.0, phase_sigma_b=50.0)).entries.tobytes()


# ------------------------------------------------------------ monte carlo phase


def test_phase_monte_carlo_is_deterministic_per_seed():
    g = squeezed_vacuum(0.25, 4.0)
    a = phase_noise_monte_carlo(g, 0.05, 2000, seed=7)
    b = phase_noise_monte_carlo(g, 0.05, 2000, seed=7)
    np.testing.assert_array_equal(a.entries, b.entries)
    c = phase_noise_monte_carlo(g, 0.05, 2000, seed=8)
    assert not np.array_equal(a.entries, c.entries)


def test_phase_monte_carlo_matches_closed_form():
    rng = np.random.default_rng(25)
    n = 200000
    for trial in range(6):
        g = random_normal_form_state(rng)
        theta = float(rng.uniform(0.0, math.pi))
        s = np.zeros((4, 4))
        s[0:2, 0:2] = rotation(theta)
        s[2:4, 2:4] = rotation(theta / 2.0)
        g = apply_symplectic(g, s)
        sigma = (0.01, 0.05, 0.2)[trial % 3]
        est, se = phase_noise_monte_carlo(g, sigma, n, seed=trial, return_std_errors=True)
        exact = phase_noise_channel(g, sigma)
        dev = np.abs(est.entries - exact.entries) / se
        assert dev.max() < 4.0


def test_phase_monte_carlo_rejects_bad_sample_count():
    with pytest.raises(InvalidArgumentError):
        phase_noise_monte_carlo(vacuum(1), 0.1, 0, seed=0)


def test_phase_monte_carlo_rejects_an_indefinite_matrix():
    """A positive diagonal does not make a matrix positive definite."""
    g = covariance([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(InvalidStateError, match="not positive definite"):
        phase_noise_monte_carlo(g, 0.1, 100, seed=0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: loss_channel(vacuum(2), [0.0, -0.5]), "loss values must lie in [0, 1], got [0.0, -0.5]"),
        (
            lambda: detection_noise(vacuum(2), [-0.1, 0.0148]),
            "detection noise must be non-negative, got [-0.1, 0.0148]",
        ),
        (
            lambda: phase_noise_channel(vacuum(2), [0.0, -0.2]),
            "phase noise sigma must be non-negative, got [0.0, -0.2]",
        ),
        (
            lambda: phase_noise_monte_carlo(vacuum(2), [-0.3, 0.1], 10, seed=0),
            "phase noise sigma must be non-negative, got [-0.3, 0.1]",
        ),
    ],
    ids=["loss_channel", "detection_noise", "phase_noise_channel", "phase_noise_monte_carlo"],
)
def test_channel_range_errors_print_plain_floats(call, message):
    """Under numpy 2 a list of numpy floats would print as [np.float64(0.0), ...]."""
    with pytest.raises(InvalidArgumentError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SqueezingSpec(r=math.nan), "squeezing parameter r must be a number, got nan"),
        (lambda: loss_channel(vacuum(2), [0.1, math.nan]), "loss values must lie in [0, 1], got [0.1, nan]"),
        (lambda: detection_noise(vacuum(2), math.nan), "detection noise must be non-negative, got [nan, nan]"),
        (
            lambda: phase_noise_channel(vacuum(2), [math.nan, 0.1]),
            "phase noise sigma must be non-negative, got [nan, 0.1]",
        ),
        (
            lambda: phase_noise_monte_carlo(vacuum(2), math.nan, 10, seed=0),
            "phase noise sigma must be non-negative, got [nan, nan]",
        ),
    ],
    ids=["SqueezingSpec", "loss_channel", "detection_noise", "phase_noise_channel", "phase_noise_monte_carlo"],
)
def test_nan_parameters_fail_their_range_checks(call, message):
    """NaN compares false with every bound, so each check must be written to fail on it,
    not end in the generic non-finite covariance error."""
    with pytest.raises(InvalidArgumentError) as excinfo:
        call()
    assert str(excinfo.value) == message


# -------------------------------------------------------- calibration helpers


def test_r_from_measured_without_loss_is_direct_inverse():
    assert r_from_measured(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert r_from_measured(-11.1, 0.0) == pytest.approx(
        -0.5 * math.log(db_to_variance(-11.1)), rel=1e-14
    )


def test_r_from_measured_compensates_source_loss():
    r = r_from_measured(-11.1, 0.059)
    assert r == pytest.approx(1.96, abs=0.02)
    assert r > r_from_measured(-11.1, 0.0)
    assert r_from_measured(-9.0, 0.059) < r


def test_r_from_measured_rejects_variance_below_loss_floor():
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        r_from_measured(-15.0, 0.059)


@pytest.mark.parametrize(
    "spec, epsilon, message",
    [
        ({"r": 400.0}, 0.059, "r = 400.0 puts"),
        ({"r": -400.0}, 0.059, "r = -400.0 puts"),
        ({"var_sqz_db": -3200.0}, 0.0, "var_sqz_db = -3200.0 dB under epsilon = 0.0 implies r = 368.414, which puts"),
        ({"var_sqz_db": 3200.0}, 0.059, "decibel value 3200.0 is a variance beyond the float range"),
        ({"var_sqz_db": -11.1, "var_asqz_db": 3200.0}, 0.059, "decibel value 3200.0 is a variance beyond"),
    ],
    ids=["large r", "large negative r", "lone value near epsilon", "lone value", "anti-squeezed value"],
)
def test_make_epr_state_source_beyond_the_float_range_is_typed(spec, epsilon, message):
    """Not a bare OverflowError from math.exp or a float power."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # negative r
        with pytest.raises(InvalidArgumentError, match=message):
            make_epr_state(SqueezingSpec(**spec), ChannelParams(epsilon=epsilon, loss_a=0.068, loss_b=0.068))


def test_epr_theory_limits():
    assert epr_theory(0.3, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert epr_theory(0.0, 30.0) == pytest.approx(0.0, abs=1e-8)
    nu = 0.068
    assert epr_theory(nu, 20.0) == pytest.approx(4.0 * nu / (1.0 + nu), abs=1e-3)


def test_epr_theory_is_monotone_in_squeezing():
    values = [epr_theory(0.068, r) for r in np.linspace(0.0, 3.0, 40)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_epr_theory_rejects_out_of_range():
    with pytest.raises(InvalidArgumentError):
        epr_theory(-0.1, 1.0)
    with pytest.raises(InvalidArgumentError):
        epr_theory(1.5, 1.0)
    assert epr_theory(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_epr_theory_matches_pipeline():
    for nu, r in ((0.068, 1.96), (0.15, 0.8)):
        ch = ChannelParams(
            epsilon=0.0,
            loss_a=nu,
            loss_b=nu,
            det_noise_a=0.0,
            det_noise_b=0.0,
        )
        g = make_epr_state(SqueezingSpec(r=r), ch)
        direct, _ = epr_product(g, "a_given_b")
        assert direct == pytest.approx(epr_theory(nu, r), abs=1e-9)


# ------------------------------------------------------------- state assembly


def test_make_epr_state_trivial_input_is_vacuum():
    g = make_epr_state(SqueezingSpec(r=0.0), zero_channel())
    np.testing.assert_allclose(g.entries, np.eye(4), atol=1e-15)


def test_make_epr_state_lossless_measured_pair_magnitudes():
    ch = zero_channel()
    g = make_epr_state(SqueezingSpec(var_sqz_db=-11.1, var_asqz_db=16.6), ch)
    vs, va = db_to_variance(-11.1), db_to_variance(16.6)
    m = g.entries
    assert m[0, 0] == pytest.approx((vs + 1.0) / 2.0, rel=1e-12)
    assert m[1, 1] == pytest.approx((va + 1.0) / 2.0, rel=1e-12)
    assert m[0, 2] == pytest.approx((1.0 - vs) / 2.0, rel=1e-12)
    assert m[1, 3] == pytest.approx((1.0 - va) / 2.0, rel=1e-12)
    assert m[0, 2] > 0.0 > m[1, 3]


def test_make_epr_state_measured_pair_with_defaults_matches_magnitudes():
    with pytest.warns(UserWarning, match="uncertainty"):
        g = make_epr_state(SqueezingSpec(var_sqz_db=-11.1, var_asqz_db=16.6), ChannelParams())
    m = g.entries
    assert m[0, 0] == pytest.approx(0.55802329, abs=1e-6)
    assert m[1, 1] == pytest.approx(23.15540535, abs=1e-6)
    assert m[0, 2] == pytest.approx(0.4567767102710977, rel=1e-10)
    assert m[1, 3] == pytest.approx(-22.140605351809967, rel=1e-10)


def test_make_epr_state_is_entangled_across_squeezing_grid():
    for db in (-3.0, -7.0, -11.1):
        g = make_epr_state(SqueezingSpec(var_sqz_db=db), ChannelParams())
        _, optimized = epr_product(g, "a_given_b")
        assert optimized < 1.0


def test_make_epr_state_pump_route_matches_squeezing_route():
    src = SourceParams(p_mw=241.18244132995608)
    vs, _ = pump_to_variances(src)
    ch = ChannelParams()
    via_pump = make_epr_state(src, ch)
    via_db = make_epr_state(SqueezingSpec(var_sqz_db=variance_to_db(vs)), ch)
    np.testing.assert_allclose(via_pump.entries, via_db.entries, atol=1e-12)


def test_make_epr_state_warns_on_inconsistent_measured_pair():
    with pytest.warns(UserWarning, match="uncertainty"):
        make_epr_state(SqueezingSpec(var_sqz_db=-11.1, var_asqz_db=13.0), ChannelParams())


def test_make_epr_state_warns_once_on_an_inconsistent_measured_pair():
    """One warning whether or not the detected pair itself breaks the
    uncertainty relation (16.6 dB does not, 5.0 dB does)."""
    for asqz_db in (16.6, 5.0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            make_epr_state(SqueezingSpec(var_sqz_db=-11.1, var_asqz_db=asqz_db), ChannelParams())
        assert [str(w.message).split(" (")[0] for w in caught] == ["measured pair"], asqz_db


def test_make_epr_state_rejects_variance_at_or_below_epsilon():
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        make_epr_state(SqueezingSpec(var_sqz_db=-15.0, var_asqz_db=16.6), ChannelParams())


def test_make_epr_state_rejects_arm_loss_below_source_loss():
    ch = ChannelParams(loss_a=0.01)
    with pytest.raises(InvalidArgumentError, match="loss_a"), pytest.warns(UserWarning):
        make_epr_state(SqueezingSpec(var_sqz_db=-11.1, var_asqz_db=16.6), ch)


@pytest.mark.parametrize(
    "spec",
    [SqueezingSpec(var_sqz_db=-11.1), SqueezingSpec(var_sqz_db=-11.1, var_asqz_db=16.6), SourceParams(p_mw=240.0)],
    ids=["measured value", "measured pair", "pump"],
)
@pytest.mark.parametrize("arm", ["loss_a", "loss_b"])
def test_every_route_through_epsilon_rejects_arm_loss_below_it(spec, arm):
    """A detected figure already contains epsilon of loss, so every route
    that infers a source through epsilon needs at least that much per arm,
    with one message; a pure r does not go through epsilon."""
    ch = dataclasses.replace(ChannelParams(), **{arm: 0.01})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the detected pair's own product warning
        with pytest.raises(InvalidArgumentError) as raised:
            make_epr_state(spec, ch)
        assert is_physical(make_epr_state(spec, dataclasses.replace(ch, **{arm: ch.epsilon})))
    assert str(raised.value) == (
        f"{arm} = 0.01 is smaller than the source-side epsilon = 0.059; "
        "the measured-input route needs at least that much total loss per arm"
    )
    assert is_physical(make_epr_state(SqueezingSpec(r=1.2), ch))


def test_make_epr_state_rejects_unknown_spec_type():
    with pytest.raises(InvalidArgumentError):
        make_epr_state({"r": 1.0})


def test_make_epr_state_default_channel_is_fitted_operating_point():
    via_default = make_epr_state(SqueezingSpec(r=1.0))
    via_explicit = make_epr_state(SqueezingSpec(r=1.0), ChannelParams())
    np.testing.assert_array_equal(via_default.entries, via_explicit.entries)


def test_make_epr_state_output_is_physical():
    rng = np.random.default_rng(26)
    for _ in range(25):
        ch = ChannelParams(
            epsilon=float(rng.uniform(0.0, 0.1)),
            loss_a=float(rng.uniform(0.0, 0.3)),
            loss_b=float(rng.uniform(0.0, 0.3)),
            det_noise_a=float(rng.uniform(0.0, 0.05)),
            det_noise_b=float(rng.uniform(0.0, 0.05)),
            phase_sigma_a=float(rng.uniform(0.0, 0.3)),
            phase_sigma_b=float(rng.uniform(0.0, 0.3)),
        )
        g = make_epr_state(SqueezingSpec(r=float(rng.uniform(0.0, 2.2))), ch)
        assert is_physical(g)


# ------------------------------------------- one-pass pipeline, differential


def _reference_pipeline(single_mode, ch):
    """make_epr_state's stages as the composition of the public maps, each
    result validated by covariance()."""
    nu_a, nu_b = ch.loss_a, ch.loss_b
    g = tensor(single_mode, vacuum(1))
    g = apply_symplectic(g, balanced_beamsplitter())
    if nu_a != 0.0 or nu_b != 0.0:
        g = loss_channel(g, [nu_a, nu_b])
    if ch.phase_sigma_a != 0.0 or ch.phase_sigma_b != 0.0:
        g = phase_noise_channel(g, [ch.phase_sigma_a, ch.phase_sigma_b])
    if ch.det_noise_a != 0.0 or ch.det_noise_b != 0.0:
        g = detection_noise(g, [ch.det_noise_a, ch.det_noise_b])
    return g


def _random_spec(rng, kind):
    if kind == "measured value":
        return SqueezingSpec(var_sqz_db=float(rng.uniform(-12.0, -1.0)))
    if kind == "measured pair":
        sqz = float(rng.uniform(-12.0, -1.0))
        return SqueezingSpec(var_sqz_db=sqz, var_asqz_db=float(rng.uniform(-sqz - 3.0, -sqz + 8.0)))
    if kind == "pure r":
        return SqueezingSpec(r=float(rng.uniform(0.0, 2.5)))
    return SourceParams(p_mw=float(rng.uniform(0.0, 280.0)))


def _random_channel(rng, arms):
    eps = float(rng.uniform(0.0, 0.1))
    loss_a = float(rng.uniform(eps, 0.3))
    loss_b = loss_a if arms == "equal" else float(rng.uniform(eps, 0.3))
    terms = dict(
        epsilon=eps,
        loss_a=loss_a,
        loss_b=loss_b,
        det_noise_a=float(rng.uniform(0.0, 0.05)),
        det_noise_b=float(rng.uniform(0.0, 0.05)),
        phase_sigma_a=float(rng.uniform(0.0, 0.3)),
        phase_sigma_b=float(rng.uniform(0.0, 0.3)),
    )
    if arms == "zero terms":
        for name in terms:
            if rng.uniform() < 0.5:
                terms[name] = 0.0
    return ChannelParams(**terms)


def _differential_cases():
    rng = np.random.default_rng(808)
    kinds = ("measured value", "measured pair", "pure r", "pump")
    cases = [
        (_random_spec(rng, kind), _random_channel(rng, arms))
        for _ in range(20)
        for kind in kinds
        for arms in ("equal", "unequal", "zero terms")
    ]
    cases += [
        (SqueezingSpec(r=0.0), zero_channel()),
        (SqueezingSpec(r=1.0), ChannelParams(epsilon=0.0, loss_a=1.0, loss_b=1.0)),
        (SqueezingSpec(var_sqz_db=-11.1, var_asqz_db=13.0), ChannelParams()),
        (SqueezingSpec(var_sqz_db=-15.0, var_asqz_db=16.6), ChannelParams()),
        (SqueezingSpec(var_sqz_db=-11.1, var_asqz_db=16.6), ChannelParams(loss_a=0.01)),
        (SourceParams(p_mw=275.0), ChannelParams()),
        (SqueezingSpec(var_sqz_db=-11.1), ChannelParams(det_noise_a=math.inf)),
        (SqueezingSpec(var_sqz_db=-11.1), ChannelParams(phase_sigma_b=math.inf)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases.append((SqueezingSpec(r=-0.2), ChannelParams()))
    return cases


def _epr_state_outcome(spec, ch, build=make_epr_state):
    """(entries or (error type, message), warnings as (text, category, file, line))."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build(spec, ch).entries
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def test_make_epr_state_equals_composition_of_public_maps(monkeypatch):
    cases = _differential_cases()
    one_pass = [_epr_state_outcome(spec, ch) for spec, ch in cases]
    # _epr_entries takes the two source variances; the reference starts from their validated 2x2
    monkeypatch.setattr(
        cvqkd.noise, "_epr_entries", lambda vs, va, ch: _reference_pipeline(covariance(np.diag([vs, va])), ch).entries
    )
    composed = [_epr_state_outcome(spec, ch) for spec, ch in cases]
    for (spec, ch), (got, got_warnings), (want, want_warnings) in zip(cases, one_pass, composed):
        if isinstance(want, tuple):
            assert got == want, (spec, ch)
        else:
            assert np.array_equal(got, want), (spec, ch)
        assert got_warnings == want_warnings, (spec, ch)
    # the cases reach states, errors and warnings alike
    errors = [want for want, _ in composed if isinstance(want, tuple)]
    assert len(errors) < len(cases) // 4
    assert {kind for kind, _ in errors} >= {InvalidArgumentError, InvalidStateError}
    assert sum(bool(w) for _, w in composed) >= 10


def _two_states_outcome(spec, ch, replaced: bool):
    """((optical, detected) entries as bytes, or (error type, message), warnings
    as (text, category, file, line)) of _optical_and_detected(spec, ch) or, with
    replaced, of the route it replaced in `cvqkd simulate`: make_epr_state
    without detection noise, then detection_noise on it if there is any."""
    deltas = [ch.det_noise_a, ch.det_noise_b]
    without = dataclasses.replace(ch, det_noise_a=0.0, det_noise_b=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            # both routes on one line, so that their warnings name the same caller
            states = make_epr_state(spec, without) if replaced else cvqkd.noise._optical_and_detected(spec, ch)
            if replaced:
                states = (states, detection_noise(states, deltas) if any(deltas) else states)
            result = tuple(g.entries.tobytes() for g in states)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def test_optical_and_detected_equals_the_route_it_replaced():
    """One pipeline run gives simulate's two states bit for bit (-0.0 entries
    included), with the same errors and warnings at the same caller's line."""
    cases = _differential_cases()
    for spec, ch in cases:
        assert _two_states_outcome(spec, ch, False) == _two_states_outcome(spec, ch, True), (spec, ch)
    # the cases reach states with and without detection noise, a -0.0 entry
    # before detection, errors and warnings
    outcomes = [_two_states_outcome(spec, ch, True) for spec, ch in cases]
    built = [(spec, ch) for (spec, ch), (got, _) in zip(cases, outcomes) if not isinstance(got[0], type)]
    assert {ch.det_noise_a == ch.det_noise_b == 0.0 for _, ch in built} == {True, False}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        raw = [cvqkd.noise._optical(*cvqkd.noise._source(spec, ch), ch) for spec, ch in built]
    assert any((np.signbit(m) & (m == 0.0)).any() for m in raw)
    assert len(built) < len(cases)
    assert sum(bool(w) for _, w in outcomes) >= 10


@pytest.mark.parametrize(
    "spec",
    [SqueezingSpec(r=1.2), SqueezingSpec(var_sqz_db=-11.1), SqueezingSpec(var_sqz_db=-11.1, var_asqz_db=16.6),
     SourceParams(p_mw=240.0)],
    ids=["pure r", "measured value", "measured pair", "pump"],
)
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_make_epr_state_validates_one_matrix(monkeypatch, spec, sigma):
    """Every route hands its source variances to the pipeline as floats, so
    one covariance() call validates the finished 4x4 and nothing else."""
    calls = []

    def counting(entries):
        calls.append(np.shape(entries))
        return covariance(entries)

    monkeypatch.setattr(cvqkd.gaussian, "covariance", counting)
    monkeypatch.setattr(cvqkd.noise, "covariance", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the detected pair's own product warning
        make_epr_state(spec, ChannelParams(phase_sigma_a=sigma, phase_sigma_b=sigma / 2.0))
    assert calls == [(4, 4)]


# --------------------------------------- one source route, against two routes


def _two_route_make_epr_state(spec, ch):
    """The assembly make_epr_state replaced: a measured pair, or the pump
    model's pair through dB and back, entered the pipeline as detected
    variances and took the incremental loss (loss - epsilon)/(1 - epsilon)
    per arm; a pure or inferred r took the full loss. An inferred r, which
    goes through epsilon too, now needs at least epsilon of loss per arm,
    the pair routes' rule with their message."""
    if isinstance(spec, SourceParams):
        vs, va = pump_to_variances(spec)
        vs_db, va_db = variance_to_db(vs), variance_to_db(va)
    elif spec.var_asqz_db is not None:
        vs_db, va_db = spec.var_sqz_db, spec.var_asqz_db
    else:
        r = spec.r if spec.r is not None else r_from_measured(spec.var_sqz_db, ch.epsilon)
        single_mode = squeezed_vacuum(math.exp(-2.0 * r), math.exp(2.0 * r))
        for name, total in (("loss_a", ch.loss_a), ("loss_b", ch.loss_b)):
            if spec.r is None and total < ch.epsilon:
                raise InvalidArgumentError(
                    f"{name} = {total} is smaller than the source-side epsilon = {ch.epsilon}; "
                    "the measured-input route needs at least that much total loss per arm"
                )
        return _reference_pipeline(single_mode, ch)
    eps = ch.epsilon
    vs, va = db_to_variance(vs_db), db_to_variance(va_db)
    if vs <= eps or va <= eps:
        raise InvalidArgumentError(
            f"measured variances ({vs_db} dB, {va_db} dB) do not exceed epsilon = {eps}; "
            "no source state is consistent with them"
        )
    vs_src, va_src = (vs - eps) / (1.0 - eps), (va - eps) / (1.0 - eps)
    if vs_src * va_src < 1.0 - DEFAULT_TOL:
        warnings.warn(
            f"measured pair ({vs_db} dB, {va_db} dB) implies a source variance product "
            f"{vs_src * va_src:.6f} < 1 under epsilon = {eps}; the inferred source state "
            "violates the uncertainty relation"
        )
    incremental = {}
    for name, total in (("loss_a", ch.loss_a), ("loss_b", ch.loss_b)):
        incremental[name] = (total - eps) / (1.0 - eps)
        if incremental[name] < 0.0:
            raise InvalidArgumentError(
                f"{name} = {total} is smaller than the source-side epsilon = {eps}; "
                "the measured-input route needs at least that much total loss per arm"
            )
    return _reference_pipeline(squeezed_vacuum(vs, va), dataclasses.replace(ch, **incremental))


def test_make_epr_state_matches_the_two_route_assembly_it_replaced():
    """Full loss on the source variances equals incremental loss on the
    detected ones: r inputs bit for bit, detected pairs to rounding, with
    the same errors and warnings. A detected pair no longer passes through
    squeezed_vacuum, whose product warning repeated the route's own."""
    compared = set()
    for spec, ch in _differential_cases():
        got, got_warnings = _epr_state_outcome(spec, ch)
        want, want_warnings = _epr_state_outcome(spec, ch, build=_two_route_make_epr_state)
        detected_pair = isinstance(spec, SourceParams) or spec.var_asqz_db is not None
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want, (spec, ch)
        elif detected_pair:
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (spec, ch)
            compared.add(type(spec).__name__ + " pair")
        else:
            assert np.array_equal(got, want), (spec, ch)
            compared.add("r")
        if not detected_pair:
            assert [w[:2] for w in got_warnings] == [w[:2] for w in want_warnings], (spec, ch)
            continue
        own = [text for text, *_ in want_warnings if not text.startswith("squeezed_vacuum(")]
        assert [text for text, *_ in got_warnings] == own, (spec, ch)
        assert {w[1] for w in got_warnings} == {w[1] for w in want_warnings}, (spec, ch)
    assert compared == {"r", "SqueezingSpec pair", "SourceParams pair"}
