"""Homodyne sampling, reconstruction, and the dataset CSV format."""

import io
import math
import warnings

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
    ProtocolIncompleteError,
)
from cvqkd.gaussian import apply_symplectic, rotation
from cvqkd.noise import ChannelParams, SqueezingSpec, make_epr_state
from cvqkd.tomography import (
    CANONICAL_SETTINGS,
    HomodyneDataset,
    MeasurementSetting,
    _load_dataset_lines,
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


def test_sample_homodyne_dataset_shape():
    ds = sample_homodyne(default_state(), n_per_setting=8, seed=0)
    assert ds.n_records == 40
    np.testing.assert_array_equal(ds.n_per_setting, [8] * 5)
    assert ds.calib_a == ds.calib_b == 1.0


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


def test_reconstruct_rejects_bad_calibration():
    ds = sample_homodyne(default_state(), n_per_setting=4, seed=0)
    bad = HomodyneDataset(
        settings=ds.settings,
        setting_ids=ds.setting_ids,
        samples_a=ds.samples_a,
        samples_b=ds.samples_b,
        calib_a=0.0,
    )
    with pytest.raises(CalibrationError):
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

    def unexpected(path):
        raise AssertionError("a well-formed file reached the line loop")

    monkeypatch.setattr(cvqkd.tomography, "_load_dataset_lines", unexpected)
    assert _outcome(load_dataset, path) == _outcome(lambda p: ds, path)
    load_dataset(write(tmp_path, "\n".join(_base_lines()) + "\n"))


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


# ------------------------------------------------ loader against the line loop


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


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@example(mutations=[("angle_out_of_range", 7)], newline="\n", truncate=None)
@example(mutations=[("id_negative", 10)], newline="\n", truncate=None)
@given(
    mutations=st.lists(_MUTATION, max_size=3),
    newline=st.sampled_from(["\n", "\r\n"]),
    truncate=st.one_of(st.none(), st.integers(0, 40)),
)
def test_load_dataset_agrees_with_line_loop(tmp_path_factory, mutations, newline, truncate):
    """The numpy pass returns what the line loop returns, dataset or error, on mutated files."""
    lines = _base_lines()
    for name, at in mutations:
        if name in _INSERTED_LINES:
            lines.insert(3 + at % (len(lines) - 2), _INSERTED_LINES[name])
        else:
            records = [i for i, line in enumerate(lines) if i >= 3 and line.count(",") >= 4]
            row = records[at % len(records)]
            fields = lines[row].split(",")
            _FIELD_EDITS[name](fields)
            lines[row] = ",".join(fields)
    text = newline.join(lines) + newline
    if truncate is not None:
        text = text[: len(text) - len(lines[-1]) - len(newline) + truncate]
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _outcome(load_dataset, path) == _outcome(_load_dataset_lines, path)
