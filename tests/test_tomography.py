"""Homodyne sampling, reconstruction, and the dataset CSV format."""

import io
import math
import os
import threading
import tracemalloc
import warnings
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvqkd.tomography
from cvqkd.errors import (
    CalibrationError,
    CvqkdError,
    DatasetParseError,
    EmptyDatasetError,
    InvalidArgumentError,
    InvalidStateError,
    ProtocolIncompleteError,
)
from cvqkd.gaussian import apply_symplectic, covariance, rotation, squeeze
from cvqkd.noise import ChannelParams, SqueezingSpec, make_epr_state
from cvqkd.tomography import (
    _BLOCK,
    CANONICAL_SETTINGS,
    HomodyneDataset,
    MeasurementSetting,
    load_dataset,
    marginal_covariance,
    reconstruct,
    sample_homodyne,
    save_dataset,
)


def default_state():
    return make_epr_state(SqueezingSpec(var_sqz_db=-11.1), ChannelParams())


def rotated_state(theta=0.3):
    s = np.eye(4)
    s[0:2, 0:2] = rotation(theta)
    return apply_symplectic(default_state(), s)


# ------------------------------------------------------------------- settings


def test_measurement_setting_validates_angle_range():
    MeasurementSetting(0.0, 179.9)
    with pytest.raises(InvalidArgumentError):
        MeasurementSetting(180.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        MeasurementSetting(0.0, -1.0)


def test_marginal_covariance_picks_quadrature_blocks(reconstructed_example):
    xx = marginal_covariance(reconstructed_example, MeasurementSetting(0.0, 0.0))
    np.testing.assert_allclose(xx, [[0.55, 0.45], [0.45, 0.55]], rtol=1e-15)
    pp = marginal_covariance(reconstructed_example, MeasurementSetting(90.0, 90.0))
    np.testing.assert_allclose(pp, [[24.7, -23.2], [-23.2, 23.7]], atol=1e-12)


def test_marginal_covariance_diagonal_blend(reconstructed_example):
    mid = marginal_covariance(reconstructed_example, MeasurementSetting(45.0, 45.0))
    assert mid[0, 0] == pytest.approx((0.55 + 24.7) / 2.0 - 0.09, rel=1e-12)
    assert mid[1, 1] == pytest.approx((0.55 + 23.7) / 2.0 + 0.01, rel=1e-12)


# ------------------------------------------------------------------- sampling


def test_sample_homodyne_is_deterministic():
    g = default_state()
    a = sample_homodyne(g, n_per_setting=4, seed=0)
    expected = [
        1.0784509516068141,
        0.5497659248054356,
        0.6374843592523438,
        0.6120359099585047,
    ]
    np.testing.assert_allclose(a.samples_a[:4], expected, rtol=1e-15)
    b = sample_homodyne(g, n_per_setting=4, seed=0)
    np.testing.assert_array_equal(a.samples_a, b.samples_a)
    c = sample_homodyne(g, n_per_setting=4, seed=1)
    assert not np.array_equal(a.samples_a, c.samples_a)


def test_sample_homodyne_streams_are_per_setting():
    """Dropping later settings must not change the samples of earlier ones."""
    g = default_state()
    full = sample_homodyne(g, n_per_setting=16, seed=3)
    prefix = sample_homodyne(g, settings=CANONICAL_SETTINGS[:2], n_per_setting=16, seed=3)
    np.testing.assert_array_equal(prefix.samples_a, full.samples_a[:32])
    np.testing.assert_array_equal(prefix.samples_b, full.samples_b[:32])


def test_sample_homodyne_rejects_degenerate_requests():
    with pytest.raises(InvalidArgumentError):
        sample_homodyne(default_state(), n_per_setting=1)
    with pytest.raises(InvalidArgumentError):
        sample_homodyne(default_state(), settings=())


@pytest.mark.parametrize(
    "settings, n",
    [
        (CANONICAL_SETTINGS[:1], 10**30),
        (CANONICAL_SETTINGS[:1], 2**63),
        (CANONICAL_SETTINGS, 10**30),
        (CANONICAL_SETTINGS, 2**63),
        # one setting's draws fit in an array, five settings' columns do not
        (CANONICAL_SETTINGS, 2**59 - 1),
    ],
)
def test_sample_homodyne_rejects_counts_numpy_cannot_hold(settings, n):
    with pytest.raises(InvalidArgumentError, match="more records than a numpy array can hold"):
        sample_homodyne(default_state(), settings=settings, n_per_setting=n)


class _GeneratorWithoutMemory:
    def standard_normal(self, size):
        raise MemoryError


def test_sample_homodyne_out_of_memory_is_a_typed_error(monkeypatch):
    g = default_state()
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _GeneratorWithoutMemory())
    with pytest.raises(InvalidArgumentError, match="does not fit in memory"):
        sample_homodyne(g, n_per_setting=4)


def test_sample_homodyne_names_a_setting_it_cannot_sample():
    """Setting (0, 0) reads [[1, 2], [2, 1]], which is indefinite."""
    g = covariance([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(
        InvalidStateError,
        match=r"marginal covariance of setting \(theta_a=0, theta_b=0\) is not positive definite",
    ):
        sample_homodyne(g, n_per_setting=4)


def test_sample_homodyne_dataset_shape():
    ds = sample_homodyne(default_state(), n_per_setting=8, seed=0)
    assert ds.n_records == 40
    np.testing.assert_array_equal(ds.n_per_setting, [8] * 5)
    assert ds.calib_a == ds.calib_b == 1.0


def _one_draw_per_setting(g, settings, n, seed):
    """sample_homodyne's records from one (n, 2) draw per setting, the reference for its blocks."""
    ids, draws = [], []
    for idx, s in enumerate(settings):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        draws.append(rng.standard_normal((n, 2)) @ np.linalg.cholesky(marginal_covariance(g, s)).T)
        ids.append(np.full(n, idx))
    draws = np.concatenate(draws)
    return HomodyneDataset(settings, np.concatenate(ids), draws[:, 0], draws[:, 1])


@pytest.mark.parametrize("offset", [-1, 0, 1, 2, _BLOCK + 1])
def test_sample_homodyne_blocks_equal_one_draw_per_setting(offset):
    """Drawn a block at a time, the records are those of one draw per setting, bit for bit."""
    g = rotated_state(0.3)
    n = _BLOCK + offset
    ds = sample_homodyne(g, n_per_setting=n, seed=21)
    want = _one_draw_per_setting(g, CANONICAL_SETTINGS, n, seed=21)
    for column in ("setting_ids", "samples_a", "samples_b"):
        assert getattr(ds, column).tobytes() == getattr(want, column).tobytes(), column


# -------------------------------------------------------------- reconstruction


def test_reconstruct_recovers_truth_within_errors():
    g = default_state()
    res = reconstruct(sample_homodyne(g, n_per_setting=10**5, seed=5))
    dev = np.abs(res.gamma_hat.entries - g.entries) / res.std_errors
    assert dev.max() < 5.0
    assert res.n_min == 10**5
    assert res.cross_check_ok
    assert np.all(np.isfinite(res.std_errors)) and np.all(res.std_errors > 0.0)


def test_reconstruct_recovers_intra_mode_covariance():
    g = rotated_state(0.3)
    assert abs(g.entries[0, 1]) > 1.0
    res = reconstruct(sample_homodyne(g, n_per_setting=10**5, seed=6))
    assert abs(res.gamma_hat.entries[0, 1] - g.entries[0, 1]) < 5.0 * res.std_errors[0, 1]


def test_reconstruct_least_squares_path():
    settings = (
        MeasurementSetting(0.0, 0.0),
        MeasurementSetting(90.0, 90.0),
        MeasurementSetting(0.0, 90.0),
        MeasurementSetting(90.0, 0.0),
        MeasurementSetting(45.0, 0.0),
        MeasurementSetting(0.0, 45.0),
    )
    g = rotated_state(0.2)
    res = reconstruct(sample_homodyne(g, settings=settings, n_per_setting=10**5, seed=7))
    assert res.cross_check_measured is None and res.cross_check_ok is None
    dev = np.abs(res.gamma_hat.entries - g.entries) / res.std_errors
    assert dev.max() < 6.0


def test_reconstruct_rejects_underdetermined_settings():
    settings = CANONICAL_SETTINGS[:4]
    ds = sample_homodyne(default_state(), settings=settings, n_per_setting=100, seed=8)
    with pytest.raises(ProtocolIncompleteError, match="45"):
        reconstruct(ds)


def test_reconstruct_rejects_single_record_setting():
    ds = HomodyneDataset(
        settings=CANONICAL_SETTINGS,
        setting_ids=np.array([0, 0, 1, 1, 2, 2, 3, 3, 4]),
        samples_a=np.zeros(9),
        samples_b=np.zeros(9),
    )
    with pytest.raises(ProtocolIncompleteError):
        reconstruct(ds)


def _regroup(ds, order, keep=None):
    """ds with its settings listed as ds.settings[order[k]], records unchanged.

    keep, if given, is a boolean mask of the records to retain.
    """
    keep = np.ones(ds.n_records, dtype=bool) if keep is None else keep
    new_id = np.argsort(order)
    return HomodyneDataset(
        settings=tuple(ds.settings[i] for i in order),
        setting_ids=new_id[ds.setting_ids[keep]],
        samples_a=ds.samples_a[keep],
        samples_b=ds.samples_b[keep],
    )


def _same_result(a, b):
    np.testing.assert_array_equal(a.gamma_hat.entries, b.gamma_hat.entries)
    np.testing.assert_array_equal(a.std_errors, b.std_errors)
    assert a.n_min == b.n_min
    assert (a.cross_check_measured, a.cross_check_predicted, a.cross_check_std_error) == (
        b.cross_check_measured,
        b.cross_check_predicted,
        b.cross_check_std_error,
    )


def test_reconstruct_shuffled_canonical_order_gives_same_result():
    ds = sample_homodyne(rotated_state(0.4), n_per_setting=500, seed=15)
    for order in ((4, 3, 2, 1, 0), (2, 0, 4, 1, 3)):
        _same_result(reconstruct(_regroup(ds, order)), reconstruct(ds))


def test_reconstruct_ignores_extra_settings_beside_canonical():
    """A (30, 60) setting with fewer records changes neither the estimate nor n_min."""
    extra = CANONICAL_SETTINGS + (MeasurementSetting(30.0, 60.0),)
    full = sample_homodyne(rotated_state(0.4), settings=extra, n_per_setting=500, seed=16)
    keep = (full.setting_ids < 5) | (np.arange(full.n_records) % 10 == 0)
    with_extra = _regroup(full, (0, 1, 5, 2, 3, 4), keep)
    assert with_extra.n_per_setting.min() == 50
    canonical = sample_homodyne(rotated_state(0.4), n_per_setting=500, seed=16)
    res = reconstruct(with_extra)
    _same_result(res, reconstruct(canonical))
    assert res.n_min == 500


def test_reconstruct_rejects_empty_canonical_setting():
    ds = sample_homodyne(default_state(), n_per_setting=20, seed=17)
    empty = _regroup(ds, range(5), ds.setting_ids != 2)
    with pytest.raises(
        ProtocolIncompleteError,
        match=r"^dataset declares setting \(theta_a=0, theta_b=90\) but has no records for it$",
    ):
        reconstruct(empty)


def test_reconstruct_cross_check_warning_names_moments_and_caller():
    """A (45, 45) cross moment of the wrong sign warns, at the line that called reconstruct."""
    ds = sample_homodyne(default_state(), n_per_setting=2000, seed=18)
    flipped = np.where(ds.setting_ids == 4, -ds.samples_b, ds.samples_b)
    bad = HomodyneDataset(ds.settings, ds.setting_ids, ds.samples_a, flipped)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = reconstruct(bad)
    assert res.cross_check_ok is False
    assert [str(w.message) for w in caught] == [
        f"redundant (45, 45) cross moment {res.cross_check_measured:.9g} deviates from the value "
        f"{res.cross_check_predicted:.9g} predicted by the other settings by more than 5 standard errors"
    ]
    assert caught[0].filename == __file__


# ------------------------------------- one solve against the two-path reference


def _reference_reconstruct(ds):
    """reconstruct with a hand-built five-setting assembly and a separate least-squares path.

    The canonical branch fills the 10 entries from 10 of the 15 canonical
    moments and writes each entry's standard error by hand; the reference
    the single least-squares solve must reproduce.
    """
    stats = cvqkd.tomography._per_setting_moments(ds)
    idx = cvqkd.tomography._match_canonical(ds.settings)
    if None in idx:
        return _reference_least_squares(ds.settings, stats, idx)
    used = []
    for want, i in zip(CANONICAL_SETTINGS, idx):
        if stats[i] is None:
            raise ProtocolIncompleteError(
                f"dataset declares setting (theta_a={want.theta_a:g}, theta_b={want.theta_b:g}) "
                "but has no records for it"
            )
        used.append(stats[i])

    def cov_se(m):
        return math.sqrt((m.var_a * m.var_b + m.cov * m.cov) / m.n)

    def intra_se(v45, vx, vp, n45, nx, np_):
        return math.sqrt(2.0 * v45 * v45 / n45 + 0.25 * 2.0 * vx * vx / nx + 0.25 * 2.0 * vp * vp / np_)

    xx, pp, xp, px, s45 = used
    gamma = np.zeros((4, 4))
    se = np.zeros((4, 4))
    gamma[0, 0], gamma[2, 2], gamma[0, 2] = xx.var_a, xx.var_b, xx.cov
    gamma[1, 1], gamma[3, 3], gamma[1, 3] = pp.var_a, pp.var_b, pp.cov
    gamma[0, 3], gamma[1, 2] = xp.cov, px.cov
    gamma[0, 1] = s45.var_a - 0.5 * (gamma[0, 0] + gamma[1, 1])
    gamma[2, 3] = s45.var_b - 0.5 * (gamma[2, 2] + gamma[3, 3])
    for i, m in enumerate((xx, pp, xx, pp)):
        se[i, i] = gamma[i, i] * math.sqrt(2.0 / m.n)
    se[0, 2], se[1, 3], se[0, 3], se[1, 2] = cov_se(xx), cov_se(pp), cov_se(xp), cov_se(px)
    se[0, 1] = intra_se(s45.var_a, gamma[0, 0], gamma[1, 1], s45.n, xx.n, pp.n)
    se[2, 3] = intra_se(s45.var_b, gamma[2, 2], gamma[3, 3], s45.n, xx.n, pp.n)
    gamma = gamma + np.triu(gamma, 1).T
    se = se + np.triu(se, 1).T
    predicted = 0.5 * (gamma[0, 2] + gamma[0, 3] + gamma[1, 2] + gamma[1, 3])
    if abs(s45.cov - predicted) > 5.0 * cov_se(s45):
        warnings.warn(
            f"redundant (45, 45) cross moment {s45.cov:.9g} deviates from the value "
            f"{predicted:.9g} predicted by the other settings by more than 5 standard errors"
        )
    return cvqkd.tomography.ReconstructionResult(
        gamma_hat=cvqkd.tomography.covariance(gamma),
        std_errors=se,
        n_min=min(m.n for m in used),
        cross_check_measured=s45.cov,
        cross_check_predicted=predicted,
        cross_check_std_error=cov_se(s45),
    )


def _reference_least_squares(settings, stats, idx):
    rows, values, errors = [], [], []
    for s, m in zip(settings, stats):
        if m is None:
            continue
        ca, sa = math.cos(math.radians(s.theta_a)), math.sin(math.radians(s.theta_a))
        cb, sb = math.cos(math.radians(s.theta_b)), math.sin(math.radians(s.theta_b))
        rows += [
            [ca * ca, 2 * ca * sa, sa * sa, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, cb * cb, 2 * cb * sb, sb * sb, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, ca * cb, ca * sb, sa * cb, sa * sb],
        ]
        values += [m.var_a, m.var_b, m.cov]
        errors += [m.var_a * math.sqrt(2.0 / m.n), m.var_b * math.sqrt(2.0 / m.n)]
        errors.append(math.sqrt((m.var_a * m.var_b + m.cov * m.cov) / m.n))
    if not rows:
        raise ProtocolIncompleteError("dataset has no records")
    design = np.array(rows)
    if np.linalg.matrix_rank(design) < 10:
        missing = [
            f"(theta_a={c.theta_a:g}, theta_b={c.theta_b:g})" for c, i in zip(CANONICAL_SETTINGS, idx) if i is None
        ]
        raise ProtocolIncompleteError(
            "measurement settings do not determine all 10 covariance entries; "
            f"missing canonical settings: {', '.join(missing) if missing else 'none'}"
        )
    solution, *_ = np.linalg.lstsq(design, np.array(values), rcond=None)
    pseudo = np.linalg.pinv(design)
    param_se = np.sqrt(np.clip(np.diag(pseudo @ np.diag(np.array(errors) ** 2) @ pseudo.T), 0.0, None))
    gamma = np.zeros((4, 4))
    se = np.zeros((4, 4))
    positions = ((0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3))
    for value, err, (i, j) in zip(solution, param_se, positions):
        gamma[i, j] = gamma[j, i] = value
        se[i, j] = se[j, i] = err
    return cvqkd.tomography.ReconstructionResult(
        gamma_hat=cvqkd.tomography.covariance(gamma), std_errors=se, n_min=min(m.n for m in stats if m)
    )


def _reconstruct_outcome(rec, ds):
    """(result or (error class, message), warning messages) of rec on ds."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = rec(ds)
        except CvqkdError as exc:
            out = (type(exc), str(exc))
    return out, [str(w.message) for w in caught]


def _canonical_plus_extra(rng):
    at = int(rng.integers(6))
    return CANONICAL_SETTINGS[:at] + (MeasurementSetting(30.0, 60.0),) + CANONICAL_SETTINGS[at:]


def _four_canonical_plus_two(rng):
    drop = int(rng.integers(5))
    kept = CANONICAL_SETTINGS[:drop] + CANONICAL_SETTINGS[drop + 1 :]
    return kept + (MeasurementSetting(45.0, 0.0), MeasurementSetting(0.0, 45.0))


def _random_settings(rng):
    angles = rng.integers(0, 180, size=(int(rng.integers(4, 8)), 2))
    return tuple(MeasurementSetting(float(a), float(b)) for a, b in angles)


#: setting lists of the differential test, by name; each maps a random generator to settings
_LAYOUTS = {
    "canonical": lambda rng: CANONICAL_SETTINGS,
    "shuffled": lambda rng: tuple(CANONICAL_SETTINGS[i] for i in rng.permutation(5)),
    "extra": _canonical_plus_extra,
    "four_canonical_plus_two": _four_canonical_plus_two,
    "non_canonical": _random_settings,
    "underdetermined": lambda rng: CANONICAL_SETTINGS[:4],
}


def test_reconstruct_matches_two_path_reference():
    """One least-squares solve gives the hand-built canonical assembly's numbers, and the old solve's."""
    seen = set()
    for case in range(300):
        rng = np.random.default_rng(case)
        layout = sorted(_LAYOUTS)[case % len(_LAYOUTS)]
        local = np.zeros((4, 4))
        local[0:2, 0:2] = rotation(rng.uniform(0, math.pi)) @ squeeze(rng.uniform(-1.0, 1.0))
        local[2:4, 2:4] = rotation(rng.uniform(0, math.pi)) @ squeeze(rng.uniform(-1.0, 1.0))
        g = apply_symplectic(default_state(), local)
        n = int(rng.integers(50, 5001))
        ds = sample_homodyne(g, settings=_LAYOUTS[layout](rng), n_per_setting=n, seed=case)
        tweak = case // len(_LAYOUTS) % 3
        if tweak == 1:
            # the (45, 45) cross moment, where measured, of the wrong sign, so the cross check warns
            at45 = np.array([s == CANONICAL_SETTINGS[4] for s in ds.settings])[ds.setting_ids]
            flipped = np.where(at45, -ds.samples_b, ds.samples_b)
            ds = HomodyneDataset(ds.settings, ds.setting_ids, ds.samples_a, flipped)
        elif tweak == 2:
            # one declared setting loses its records, another keeps a quarter of them
            empty, short = rng.choice(len(ds.settings), size=2, replace=False)
            keep = (ds.setting_ids != empty) & ((ds.setting_ids != short) | (np.arange(ds.n_records) % 4 == 0))
            ds = _regroup(ds, range(len(ds.settings)), keep)
        got, got_warnings = _reconstruct_outcome(reconstruct, ds)
        want, want_warnings = _reconstruct_outcome(_reference_reconstruct, ds)
        assert got_warnings == want_warnings, case
        if isinstance(want, tuple):
            assert got == want, case
            seen.add((layout, want[0].__name__))
            continue
        scale = 1e-12 * np.abs(want.gamma_hat.entries).max()
        np.testing.assert_allclose(got.gamma_hat.entries, want.gamma_hat.entries, rtol=0, atol=scale)
        np.testing.assert_allclose(got.std_errors, want.std_errors, rtol=0, atol=scale)
        assert got.n_min == want.n_min, case
        assert got.cross_check_measured == want.cross_check_measured, case
        assert got.cross_check_std_error == want.cross_check_std_error, case
        if want.cross_check_predicted is None:
            assert got.cross_check_predicted is None, case
        else:
            assert abs(got.cross_check_predicted - want.cross_check_predicted) <= scale, case
        seen.add((layout, "warned" if want_warnings else "ok"))
    for layout in ("canonical", "shuffled", "extra"):
        assert {(layout, "ok"), (layout, "warned"), (layout, "ProtocolIncompleteError")} <= seen
    assert {("non_canonical", "ok"), ("four_canonical_plus_two", "ok")} <= seen
    assert ("underdetermined", "ProtocolIncompleteError") in seen


def test_reconstruct_rejects_bad_calibration():
    ds = sample_homodyne(default_state(), n_per_setting=4, seed=0)
    for calib in (0.0, math.nan, math.inf):
        bad = HomodyneDataset(
            settings=ds.settings,
            setting_ids=ds.setting_ids,
            samples_a=ds.samples_a,
            samples_b=ds.samples_b,
            calib_a=calib,
        )
        with pytest.raises(CalibrationError, match="must be positive and finite"):
            reconstruct(bad)


def test_calibration_rescales_raw_samples():
    ds = sample_homodyne(default_state(), n_per_setting=10**4, seed=9)
    ca, cb = 2.31, 0.77
    raw = HomodyneDataset(
        settings=ds.settings,
        setting_ids=ds.setting_ids,
        samples_a=ds.samples_a * math.sqrt(ca),
        samples_b=ds.samples_b * math.sqrt(cb),
        calib_a=ca,
        calib_b=cb,
    )
    np.testing.assert_allclose(
        reconstruct(raw).gamma_hat.entries,
        reconstruct(ds).gamma_hat.entries,
        rtol=1e-12,
        atol=1e-12,
    )


def test_dataset_rejects_inconsistent_arrays():
    with pytest.raises(InvalidArgumentError):
        HomodyneDataset(
            settings=CANONICAL_SETTINGS,
            setting_ids=np.array([0, 1]),
            samples_a=np.zeros(3),
            samples_b=np.zeros(3),
        )
    with pytest.raises(InvalidArgumentError):
        HomodyneDataset(
            settings=CANONICAL_SETTINGS[:2],
            setting_ids=np.array([0, 5]),
            samples_a=np.zeros(2),
            samples_b=np.zeros(2),
        )
    cases = [
        ([0.7, 1.9, 0.2], [0.0, 0.0, 0.0], r"^setting_ids\[0\] = 0\.7 is not a finite integer$"),
        ([0.0, 1.0, 0.5], [0.0, 0.0, 0.0], r"^setting_ids\[2\] = 0\.5 is not a finite integer$"),
        ([0.0, np.nan, 1.0], [0.0, 0.0, 0.0], r"^setting_ids\[1\] = nan is not a finite integer$"),
        ([0.0, -np.inf, 1.0], [0.0, 0.0, 0.0], r"^setting_ids\[1\] = -inf is not a finite integer$"),
        ([0, 1, 0], [0.0, np.nan, 0.0], r"^samples_a\[1\] = nan is not finite$"),
    ]
    for ids, samples, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=message):
                HomodyneDataset(CANONICAL_SETTINGS[:2], ids, samples, np.zeros(3))
    with pytest.raises(InvalidArgumentError, match=r"^samples_b\[2\] = inf is not finite$"):
        HomodyneDataset(CANONICAL_SETTINGS[:2], [0, 1, 0], np.zeros(3), [0.0, 1.0, np.inf])
    for ids in (np.array([0, 1, 0], dtype=np.uint8), [0, 1, 0], np.array([0.0, 1.0, -0.0])):
        ds = HomodyneDataset(CANONICAL_SETTINGS[:2], ids, np.zeros(3), np.ones(3))
        assert ds.setting_ids.dtype == np.dtype(int) and ds.setting_ids.tolist() == [0, 1, 0]


# ------------------------------------------------------------------ csv format


def test_save_load_round_trip_is_lossless(tmp_path):
    ds = sample_homodyne(default_state(), n_per_setting=16, seed=10)
    scaled = HomodyneDataset(
        settings=ds.settings,
        setting_ids=ds.setting_ids,
        samples_a=ds.samples_a,
        samples_b=ds.samples_b,
        calib_a=1.25,
        calib_b=0.5,
    )
    path = tmp_path / "records.csv"
    save_dataset(scaled, path)
    back = load_dataset(path)
    assert back.settings == scaled.settings
    np.testing.assert_array_equal(back.setting_ids, scaled.setting_ids)
    np.testing.assert_array_equal(back.samples_a, scaled.samples_a)
    np.testing.assert_array_equal(back.samples_b, scaled.samples_b)
    assert back.calib_a == 1.25 and back.calib_b == 0.5


def test_save_dataset_accepts_stream():
    ds = sample_homodyne(default_state(), n_per_setting=2, seed=0)
    out = io.StringIO()
    save_dataset(ds, out)
    text = out.getvalue()
    assert text.startswith("# calib_a=1.0\n# calib_b=1.0\n")
    assert "setting_id,theta_a_deg,theta_b_deg,sample_a,sample_b" in text


def write(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body, encoding="utf-8")
    return path


HEADER = "setting_id,theta_a_deg,theta_b_deg,sample_a,sample_b\n"


def test_load_rejects_wrong_header(tmp_path):
    path = write(tmp_path, "id,a,b\n0,0.0,0.0,1.0,1.0\n")
    with pytest.raises(DatasetParseError, match="header"):
        load_dataset(path)


def test_load_rejects_wrong_field_count(tmp_path):
    path = write(tmp_path, HEADER + "0,0.0,0.0,1.0\n")
    with pytest.raises(DatasetParseError, match="line 2"):
        load_dataset(path)


def test_load_rejects_unparsable_and_non_finite_values(tmp_path):
    with pytest.raises(DatasetParseError, match="line 2"):
        load_dataset(write(tmp_path, HEADER + "0,0.0,0.0,banana,1.0\n"))
    with pytest.raises(DatasetParseError, match="non-finite"):
        load_dataset(write(tmp_path, HEADER + "0,0.0,0.0,inf,1.0\n"))


def test_load_rejects_non_contiguous_ids(tmp_path):
    path = write(tmp_path, HEADER + "1,0.0,0.0,1.0,1.0\n")
    with pytest.raises(DatasetParseError, match="contiguous"):
        load_dataset(path)


def test_load_rejects_out_of_range_angle_on_declaring_line(tmp_path):
    path = write(tmp_path, HEADER + "0,200.0,0.0,1.0,1.0\n")
    with pytest.raises(DatasetParseError, match="line 2"):
        load_dataset(path)


def test_load_rejects_redeclared_setting_angles(tmp_path):
    body = HEADER + "0,0.0,0.0,1.0,1.0\n0,45.0,0.0,1.0,1.0\n"
    with pytest.raises(DatasetParseError, match="line 2"):
        load_dataset(write(tmp_path, body))


def test_load_rejects_calibration_comment_after_header(tmp_path):
    body = HEADER + "# calib_a=2.0\n0,0.0,0.0,1.0,1.0\n"
    with pytest.raises(DatasetParseError):
        load_dataset(write(tmp_path, body))


def test_load_empty_inputs(tmp_path):
    with pytest.raises(EmptyDatasetError):
        load_dataset(write(tmp_path, ""))
    for body in (HEADER, HEADER + "\n\n"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyDatasetError, match="header but no records"):
                load_dataset(write(tmp_path, body))


def test_load_rejects_non_utf8_bytes(tmp_path):
    """The error names the path and the file offset of the first bad byte, past any decode buffer."""
    records = "".join(f"0,0.0,0.0,{i}.5,1.0\n" for i in range(2000))
    cases = [
        (b"\xff" + HEADER.encode(), 0, 1),
        (HEADER.encode() + b"0,0.0,0.0,1.0,\xff\n", len(HEADER) + 14, 2),
        ((HEADER + records).encode() + b"0,0.0,0.0,\xe2\x82,1.0\n", len(HEADER) + len(records) + 10, 2002),
    ]
    path = tmp_path / "bytes.csv"
    for body, offset, line in cases:
        path.write_bytes(body)
        with pytest.raises(DatasetParseError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: byte {offset} (line {line}) is not valid UTF-8"
        assert info.value.line == line


def test_save_dataset_writes_one_repr_line_per_record():
    """The column-wise writer's bytes, against the per-record format."""
    ds = sample_homodyne(default_state(), settings=CANONICAL_SETTINGS[::-1], n_per_setting=5000, seed=12)
    ids = np.concatenate([ds.setting_ids[1::2], ds.setting_ids[::2]])
    ds = HomodyneDataset(
        settings=ds.settings, setting_ids=ids, samples_a=ds.samples_a, samples_b=-ds.samples_b, calib_a=0.75
    )
    out = io.StringIO()
    save_dataset(ds, out)
    expected = ["# calib_a=0.75", "# calib_b=1.0", HEADER.rstrip("\n")]
    for sid, a, b in zip(ds.setting_ids, ds.samples_a, ds.samples_b):
        s = ds.settings[sid]
        expected.append(f"{int(sid)},{float(s.theta_a)!r},{float(s.theta_b)!r},{float(a)!r},{float(b)!r}")
    assert out.getvalue() == "\n".join(expected) + "\n"


def test_load_dataset_reads_saved_file_without_line_loop(tmp_path, monkeypatch):
    ds = sample_homodyne(default_state(), n_per_setting=3000, seed=11)
    path = tmp_path / "records.csv"
    save_dataset(ds, path)

    def unexpected(*args):
        raise AssertionError("a well-formed file reached the line rules")

    monkeypatch.setattr(cvqkd.tomography, "_line_block", unexpected)
    assert _outcome(load_dataset, path) == _outcome(lambda p: ds, path)
    load_dataset(write(tmp_path, "\n".join(_base_lines()) + "\n"))
    # numpy skips empty lines, within a block and as a whole block
    lines = path.read_text(encoding="utf-8").split("\n")
    lines.insert(3 + 5, "")
    lines[3 + _BLOCK : 3 + _BLOCK] = [""] * _BLOCK
    path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(load_dataset, path) == _outcome(lambda p: ds, path)


def test_load_reports_bad_field_line_in_large_file(tmp_path):
    ds = sample_homodyne(default_state(), n_per_setting=30000, seed=13)
    path = tmp_path / "records.csv"
    save_dataset(ds, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[40002] = lines[40002].replace(",", ",x", 1)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(DatasetParseError, match="^line 40003: ") as info:
        load_dataset(path)
    assert info.value.line == 40003


def test_load_leaves_non_ascii_digits_to_line_loop(tmp_path):
    """numpy reads DEVANAGARI DIGIT TWO as id 2360; int() reads 2, whose angles differ."""
    lines = [HEADER.rstrip("\n")]
    lines += [f"{i},{i * 0.05!r},0.0,1.0,1.0" for i in range(2361)]
    lines.append(f"\u0968,{2360 * 0.05!r},0.0,1.0,1.0")
    path = write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(DatasetParseError, match="^line 2363: setting id 2 redeclared"):
        load_dataset(path)


# ----------------------------------------------- moments folded as the file is read


def _interleaved(ds, seed):
    """ds with the records of its settings interleaved at random, each setting's records
    in their own order, and its settings relisted in the order of their first record,
    as a saved file needs."""
    labels = np.random.default_rng(seed).permutation(ds.setting_ids)
    order = np.empty(ds.n_records, dtype=int)
    for i in range(len(ds.settings)):
        order[labels == i] = np.flatnonzero(ds.setting_ids == i)
    mixed = HomodyneDataset(ds.settings, labels, ds.samples_a[order], ds.samples_b[order])
    return _regroup(mixed, np.argsort([np.flatnonzero(labels == i)[0] for i in range(len(ds.settings))]))


def test_setting_moments_do_not_depend_on_other_settings_records():
    """A setting's records are summed in blocks counted over that setting alone, so
    interleaving, relabelling or another setting's records change no bit."""
    n = _BLOCK + 500
    extra = CANONICAL_SETTINGS + (MeasurementSetting(30.0, 60.0),)
    full = sample_homodyne(rotated_state(0.4), settings=extra, n_per_setting=n, seed=22)
    canonical = sample_homodyne(rotated_state(0.4), n_per_setting=n, seed=22)
    res = reconstruct(canonical)
    keep = (full.setting_ids < 5) | (np.arange(full.n_records) % 10 == 0)
    _same_result(reconstruct(_regroup(full, (0, 1, 5, 2, 3, 4), keep)), res)
    _same_result(reconstruct(_interleaved(full, 22)), res)
    _same_result(reconstruct(_interleaved(canonical, 23)), res)
    assert res.n_min == n


@pytest.mark.parametrize("layout", ["grouped", "interleaved", "line_loop"])
def test_reconstruct_file_equals_reconstruct_of_loaded_dataset(tmp_path, layout):
    """The moments folded block by block while parsing are reconstruct's on the loaded
    dataset, bit for bit, whether the records come grouped by setting, interleaved, or
    with a block read by the line rules (a comment among the records)."""
    ds = sample_homodyne(rotated_state(0.2), n_per_setting=2 * _BLOCK + 7, seed=23)
    if layout == "interleaved":
        ds = _interleaved(ds, 23)
    path = tmp_path / "records.csv"
    save_dataset(ds, path)
    if layout == "line_loop":
        lines = path.read_text(encoding="utf-8").split("\n")
        lines.insert(3 + _BLOCK + 100, "# note")
        path.write_text("\n".join(lines), encoding="utf-8")
    _same_result(cvqkd.tomography._reconstruct_file(path), reconstruct(load_dataset(path)))


def _two_pass_moments(ds):
    """Per-setting moments by np.var and np.cov over all of a setting's records at once."""
    out = []
    for idx in range(len(ds.settings)):
        mask = ds.setting_ids == idx
        if not mask.any():
            out.append(None)
            continue
        a = ds.samples_a[mask] / math.sqrt(ds.calib_a)
        b = ds.samples_b[mask] / math.sqrt(ds.calib_b)
        out.append(
            cvqkd.tomography._SettingMoments(
                n=int(mask.sum()),
                var_a=float(np.var(a, ddof=1)),
                var_b=float(np.var(b, ddof=1)),
                cov=float(np.cov(a, b)[0, 1]),
            )
        )
    return out


def test_block_moments_agree_with_two_pass_moments(monkeypatch):
    """Merging per-block sums moves a moment by rounding alone, well inside 1e-12 relative."""
    ds = _interleaved(sample_homodyne(rotated_state(0.5), n_per_setting=5 * _BLOCK + 11, seed=24), 24)
    got = cvqkd.tomography._per_setting_moments(ds)
    want = _two_pass_moments(ds)
    for g, w in zip(got, want):
        assert g.n == w.n
        np.testing.assert_allclose([g.var_a, g.var_b, g.cov], [w.var_a, w.var_b, w.cov], rtol=1e-12, atol=0)
    res = reconstruct(ds)
    monkeypatch.setattr(cvqkd.tomography, "_per_setting_moments", _two_pass_moments)
    ref = reconstruct(ds)
    scale = 1e-12 * np.abs(ref.gamma_hat.entries).max()
    np.testing.assert_allclose(res.gamma_hat.entries, ref.gamma_hat.entries, rtol=0, atol=scale)


# ----------------------------------------------- loader against the line rules


def _outcome(load, path):
    """What load makes of path: the dataset bit for bit, or the error class, message and line."""
    try:
        ds = load(path)
    except CvqkdError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    arrays = (ds.setting_ids, ds.samples_a, ds.samples_b)
    return (
        tuple((s.theta_a.hex(), s.theta_b.hex()) for s in ds.settings),
        (ds.calib_a.hex(), ds.calib_b.hex()),
        tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays),
    )


def _base_lines():
    """A saved dataset of the five canonical settings with interleaved records, as lines.

    Setting 3 has a single record (line 11); setting 4 has two (lines 12 and 14).
    """
    src = sample_homodyne(default_state(), n_per_setting=3, seed=14)
    ds = HomodyneDataset(
        settings=src.settings,
        setting_ids=np.array([0, 0, 1, 0, 2, 1, 2, 3, 4, 2, 4]),
        samples_a=src.samples_a[:11],
        samples_b=src.samples_b[:11],
        calib_a=1.25,
        calib_b=0.5,
    )
    out = io.StringIO()
    save_dataset(ds, out)
    return out.getvalue().splitlines()


def _next_id(v):
    try:
        return str(int(v) + 1)
    except ValueError:
        return v


def _set_field(index, value):
    def edit(fields):
        fields[index] = value(fields[index])

    return edit


#: edits of one record's fields, by name
_FIELD_EDITS = {
    "id_plus": _set_field(0, lambda v: "+" + v),
    "id_padded": _set_field(0, lambda v: f" {v} "),
    "id_float": _set_field(0, lambda v: v + ".0"),
    "id_next": _set_field(0, _next_id),
    "id_out_of_range": _set_field(0, lambda v: "7"),
    "id_negative": _set_field(0, lambda v: "-1"),
    "id_huge": _set_field(0, lambda v: "99999999999999999999"),
    "id_unicode_digits": _set_field(0, lambda v: v.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))),
    "id_aegean_numeral": _set_field(0, lambda v: "\U00010112" + v),
    "sample_underscore": _set_field(3, lambda v: "1_0.5"),
    "sample_fullwidth": _set_field(3, lambda v: "１.５"),
    "sample_separator": _set_field(3, lambda v: v + "\x1c"),
    "sample_nan": _set_field(3, lambda v: "nan"),
    "sample_inf": _set_field(4, lambda v: "-inf"),
    "sample_overflow": _set_field(4, lambda v: "1e999"),
    "angle_negative_zero": _set_field(1, lambda v: "-0.0"),
    "angle_redeclared": _set_field(2, lambda v: "45.5"),
    "angle_out_of_range": _set_field(1, lambda v: "180.0"),
    "extra_field": lambda fields: fields.append("1.0"),
}

#: lines inserted among the records, by name
_INSERTED_LINES = {
    "blank": "",
    "whitespace": " \t",
    "comment": "# note",
    "calibration_comment": "# calib_a=2.0",
}

_MUTATION = st.tuples(st.sampled_from(sorted(_FIELD_EDITS) + sorted(_INSERTED_LINES)), st.integers(0, 99))


def _mutate(lines, name, at, lo=3, hi=None):
    """Insert a line among lines[lo:hi], or edit the fields of one of its records, at position at."""
    hi = len(lines) if hi is None else hi
    if name in _INSERTED_LINES:
        lines.insert(lo + at % (hi - lo + 1), _INSERTED_LINES[name])
    else:
        records = [i for i in range(lo, hi) if lines[i].count(",") >= 4]
        row = records[at % len(records)]
        fields = lines[row].split(",")
        _FIELD_EDITS[name](fields)
        lines[row] = ",".join(fields)


def _write_lines(path, lines, newline="\n"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)
    return path


def _load_by_line_rules(path):
    """load_dataset with every block decided by the line rules: the reference for the numpy pass."""
    with mock.patch.object(cvqkd.tomography, "_numpy_block", lambda batch, first_line, declared: None):
        return load_dataset(path)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@example(mutations=[("angle_out_of_range", 7)], newline="\n", truncate=None)
@example(mutations=[("id_negative", 10)], newline="\n", truncate=None)
@given(
    mutations=st.lists(_MUTATION, max_size=3),
    newline=st.sampled_from(["\n", "\r\n"]),
    truncate=st.one_of(st.none(), st.integers(0, 40)),
)
def test_load_dataset_agrees_with_line_loop(tmp_path_factory, mutations, newline, truncate):
    """The numpy pass returns what the line rules return, dataset or error, on mutated files."""
    lines = _base_lines()
    for name, at in mutations:
        _mutate(lines, name, at)
    text = newline.join(lines) + newline
    if truncate is not None:
        text = text[: len(text) - len(lines[-1]) - len(newline) + truncate]
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _outcome(load_dataset, path) == _outcome(_load_by_line_rules, path)


#: records of the three-block file; setting 4 is first used in block 2, on this record
_FIRST_OF_4 = _BLOCK + 100


@lru_cache(maxsize=None)
def _three_block_lines():
    """A saved dataset of 2 * _BLOCK + 40 interleaved records, as lines: settings 0-3 are
    declared on lines 4-7 in block 1, setting 4 on line _FIRST_OF_4 + 4 in block 2."""
    rng = np.random.default_rng(25)
    n = 2 * _BLOCK + 40
    ids = rng.integers(0, 4, n)
    ids[:4] = range(4)
    ids[_FIRST_OF_4:] = rng.integers(0, 5, n - _FIRST_OF_4)
    ids[_FIRST_OF_4] = 4
    draws = rng.standard_normal((n, 2))
    ds = HomodyneDataset(CANONICAL_SETTINGS, ids, draws[:, 0], draws[:, 1], calib_a=1.25, calib_b=0.5)
    out = io.StringIO()
    save_dataset(ds, out)
    return tuple(out.getvalue().splitlines())


def _in_block(lines, block, sid):
    """Index in lines of the first record of setting sid in block (1-based)."""
    lo = 3 + (block - 1) * _BLOCK
    return next(i for i in range(lo, lo + _BLOCK) if lines[i].startswith(f"{sid},"))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@example(mutations=[("angle_redeclared", 3, 0)], newline="\n")
@example(mutations=[("comment", 2, 3), ("angle_redeclared", 3, 5)], newline="\n")
@example(mutations=[("comment", 1, 0), ("id_next", 2, 9)], newline="\n")
@example(mutations=[("calibration_comment", 2, 50)], newline="\n")
@example(mutations=[("blank", 2, 50), ("angle_redeclared", 3, 1)], newline="\r\n")
@example(mutations=[("whitespace", 2, 99), ("sample_nan", 3, 2)], newline="\n")
@given(
    mutations=st.lists(st.tuples(_MUTATION.map(lambda m: m[0]), st.integers(1, 3), st.integers(0, 99)), max_size=3),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_load_dataset_agrees_with_line_rules_across_blocks(tmp_path_factory, mutations, newline):
    """Across blocks, the numpy pass and the line rules thread one list of declared
    settings: a mutation in block 1, 2 or 3 gives what the line rules alone give."""
    lines = list(_three_block_lines())
    for name, block, at in mutations:
        lo = 3 + (block - 1) * _BLOCK
        _mutate(lines, name, at, lo, min(lo + _BLOCK, len(lines)))
    path = _write_lines(tmp_path_factory.getbasetemp() / "three_blocks.csv", lines, newline)
    assert _outcome(load_dataset, path) == _outcome(_load_by_line_rules, path)


def test_rejected_numpy_block_leaves_declared_untouched():
    """A block numpy rejects after its first new setting is seen declares nothing."""
    for batch in (
        ["0,0.0,0.0,1.0,1.0\n", "1,90.0,90.0,1.0,1.0\n", "1,45.0,90.0,1.0,1.0\n"],
        ["0,0.0,0.0,1.0,1.0\n", "1,90.0,90.0,1.0,1.0\n", "2,200.0,0.0,1.0,1.0\n"],
    ):
        declared = [(0.0, 0.0, 4)]
        assert cvqkd.tomography._numpy_block(batch, 5, declared) is None
        assert declared == [(0.0, 0.0, 4)]
        with pytest.raises(DatasetParseError, match="^line 7: "):
            cvqkd.tomography._line_block(batch, 5, declared, {"calib_a": 1.0, "calib_b": 1.0})


@pytest.mark.parametrize("inserted", [None, "", "# note"], ids=["clean", "blank", "comment"])
def test_redeclaration_names_the_first_declaration_blocks_earlier(tmp_path, inserted):
    """A redeclaration in block 3 names the line of the setting's first record, whether
    numpy (skipping a blank line) or the line rules read the block that declared it."""
    lines = list(_three_block_lines())
    if inserted is not None:
        lines.insert(3 + _BLOCK + 10, inserted)
    cases = [(0, 4), (4, _FIRST_OF_4 + 4 + (inserted is not None))]
    for sid, first_line in cases:
        edited = list(lines)
        row = _in_block(edited, 3, sid)
        fields = edited[row].split(",")
        ta, tb = fields[1:3]
        fields[2] = "1" + tb
        edited[row] = ",".join(fields)
        path = _write_lines(tmp_path / "redeclared.csv", edited)
        message = (
            f"^line {row + 1}: setting id {sid} redeclared with angles \\({ta}, 1{tb}\\), "
            f"first declared as \\({ta}, {tb}\\) on line {first_line}$"
        )
        for read in (load_dataset, cvqkd.tomography._reconstruct_file):
            with pytest.raises(DatasetParseError, match=message):
                read(path)


def _noted_file(tmp_path, n_records, note=True):
    """A saved grouped dataset of n_records records, with a '# note' line in block 2, and its lines."""
    ds = sample_homodyne(rotated_state(0.3), n_per_setting=n_records // 5 + 1, seed=26)
    ds = _regroup(ds, range(5), np.arange(ds.n_records) < n_records)
    out = io.StringIO()
    save_dataset(ds, out)
    lines = out.getvalue().splitlines()
    if note:
        lines.insert(3 + _BLOCK + 17, "# note")
    return _write_lines(tmp_path / f"records_{n_records}_{int(note)}.csv", lines), lines


def test_line_rules_decide_only_the_block_numpy_rejects(tmp_path, monkeypatch):
    """A comment in block 2 sends block 2, and only block 2, to the line rules."""
    path, lines = _noted_file(tmp_path, 8 * _BLOCK)
    calls = []
    line_block = cvqkd.tomography._line_block

    def spy(batch, first_line, declared, calib):
        calls.append((list(batch), first_line))
        return line_block(batch, first_line, declared, calib)

    monkeypatch.setattr(cvqkd.tomography, "_line_block", spy)
    ds = load_dataset(path)
    assert [first_line for _, first_line in calls] == [4 + _BLOCK]
    assert calls[0][0] == [line + "\n" for line in lines[3 + _BLOCK : 3 + 2 * _BLOCK]]
    assert ds.n_records == 8 * _BLOCK
    _same_result(cvqkd.tomography._reconstruct_file(path), reconstruct(ds))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reconstruct_file_memory_does_not_grow_with_a_comment(tmp_path):
    """A comment among the records costs its block, not the file: the traced peak of
    _reconstruct_file stays within 1.5x of the clean file's."""
    noted, _ = _noted_file(tmp_path, 8 * _BLOCK)
    clean, _ = _noted_file(tmp_path, 8 * _BLOCK, note=False)
    for path in (clean, noted):  # first calls fill numpy's and Python's caches
        cvqkd.tomography._reconstruct_file(path)
    clean_peak = _traced_peak(cvqkd.tomography._reconstruct_file, clean)
    noted_peak = _traced_peak(cvqkd.tomography._reconstruct_file, noted)
    assert noted_peak <= 1.5 * clean_peak, (noted_peak, clean_peak)


def _load_through_fifo(fifo, data, timeout=60.0):
    """_outcome of load_dataset(fifo) while another thread writes data into it; fails
    rather than hangs if load_dataset opens the fifo a second time."""
    result = {}

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    def load():
        result["outcome"] = _outcome(load_dataset, fifo)

    threads = [threading.Thread(target=f, daemon=True) for f in (feed, load)]
    for t in threads:
        t.start()
    threads[0].join(timeout)
    threads[1].join(timeout)
    if any(t.is_alive() for t in threads):
        # release a reader or writer still waiting, so that no thread outlives the test
        for flags in (os.O_WRONLY | os.O_NONBLOCK, os.O_RDONLY | os.O_NONBLOCK):
            try:
                os.close(os.open(fifo, flags))
            except OSError:
                pass
        pytest.fail("reading through a pipe did not finish; the dataset was opened twice")
    return result["outcome"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_dataset_reads_a_pipe(tmp_path):
    """One open and one pass: a file whose block 2 the line rules decide reads the same
    through a named pipe."""
    path, _ = _noted_file(tmp_path, 3 * _BLOCK)
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    assert _load_through_fifo(fifo, path.read_bytes()) == _outcome(load_dataset, path)
    # a pipe cannot be read again to find the bad byte, so its error names none
    outcome = _load_through_fifo(fifo, b"\xff" + HEADER.encode())
    assert outcome == (DatasetParseError, f"{fifo}: not valid UTF-8", None)
