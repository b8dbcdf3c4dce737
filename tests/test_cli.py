"""Command-line interface: subcommands, config handling, exit codes."""

import copy
import csv
import io
import json
import linecache
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqkd import cli, gaussian, keyrate
from cvqkd.cli import DEFAULT_CONFIG, SCAN_COLUMNS, build_parser, cmd_scan, load_config, main
from cvqkd.errors import ConfigError, DatasetParseError
from cvqkd.gaussian import covariance, covariance_from_json, covariance_to_json, variance_to_db
from cvqkd.keyrate import secret_key_rate
from cvqkd.noise import ChannelParams, SourceParams, SqueezingSpec, _pump_sqz_variance, make_epr_state
from cvqkd.tomography import _BLOCK, load_dataset, reconstruct, sample_homodyne, save_dataset

from conftest import NOISY, RECONSTRUCTED_EXAMPLE, run_module, write_config

K_DEFAULT = 0.3976320686657666


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------------- simulate


def test_simulate_default_report(capsys):
    rc, out, err = run(capsys, "simulate")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["report"]["k_nominal"] == pytest.approx(K_DEFAULT, rel=1e-12)
    assert doc["report"]["no_key"] is False
    assert doc["report"]["epr_optimized"] < 1.0
    assert doc["report"]["epr_direct"] >= doc["report"]["epr_optimized"]
    g = covariance_from_json(doc["covariance"])
    expected = make_epr_state(SqueezingSpec(var_sqz_db=-11.1), ChannelParams())
    np.testing.assert_allclose(g.entries, expected.entries, rtol=1e-12)


def test_config_defaults_are_the_library_defaults_in_both_source_modes(tmp_path):
    """The config's source and channel defaults resolve to SourceParams() and
    ChannelParams(), in measured and in pump mode, and each section keeps its
    key order."""
    assert cli._resolve(load_config()) == (SqueezingSpec(var_sqz_db=-11.1), ChannelParams())
    pump = write_config(tmp_path, {"source": {"mode": "pump", "p_mw": 100.0}})
    assert cli._resolve(load_config(pump)) == (SourceParams(p_mw=100.0), ChannelParams())
    assert {section: list(values) for section, values in DEFAULT_CONFIG.items()} == {
        "source": ["mode", "var_sqz_db", "var_asqz_db", "eta", "p_mw", "p_th_mw", "k"],
        "channel": ["epsilon", "nu_a", "nu_b", "delta_a", "delta_b", "sigma_a", "sigma_b"],
        "analysis": ["n_samples", "seed", "worst_case"],
    }


def test_simulate_weak_squeezing_exits_two(capsys, tmp_path):
    cfg = write_config(tmp_path, {"source": {"var_sqz_db": -2.0}})
    rc, out, _ = run(capsys, "simulate", "--config", cfg)
    assert rc == 2
    doc = json.loads(out)
    assert doc["report"]["no_key"] is True
    assert doc["report"]["k_nominal"] < 0.0


def test_simulate_worst_case_flag(capsys):
    rc, out, _ = run(capsys, "simulate", "--worst-case", "--n", "1000")
    assert rc == 0
    report = json.loads(out)["report"]
    assert report["n_samples"] == 1000
    assert report["k_worst_case"] is not None
    assert report["k_worst_case"] < report["k_nominal"]


def test_simulate_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "simulate", "--out", str(out_path))
    assert rc == 0 and out == ""
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["report"]["k_nominal"] == pytest.approx(K_DEFAULT, rel=1e-12)


# ----------------------------------------------------------------------- scan


def scan_rows(out):
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(SCAN_COLUMNS)
    return [line.split(",") for line in lines[1:]]


def test_scan_squeezing_sweep(capsys):
    rc, out, _ = run(capsys, "scan", "--sweep", "sqz_db", "--from", "4.5", "--to", "12", "--steps", "6")
    assert rc == 0
    rows = scan_rows(out)
    assert len(rows) == 6
    k = [float(r[7]) for r in rows]
    assert all(b > a for a, b in zip(k, k[1:]))
    assert all(v > 0.0 for v in k)


def test_scan_matches_library_at_operating_point(capsys):
    rc, out, _ = run(capsys, "scan", "--sweep", "sqz_db", "--from", "11.1", "--to", "12", "--steps", "2")
    assert rc == 0
    row = scan_rows(out)[0]
    assert float(row[0]) == pytest.approx(-11.1)
    assert float(row[7]) == pytest.approx(K_DEFAULT, rel=1e-10)
    assert row[8] == ""


def test_scan_is_deterministic(capsys):
    args = ("scan", "--sweep", "sigma", "--from", "0", "--to", "0.2", "--steps", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("sweep", ["sqz_db", "nu_b", "sigma"])
def test_scan_leaves_config_unchanged(capsys, tmp_path, sweep):
    path = write_config(tmp_path, {"source": {"mode": "pump", "p_mw": 120.0, "var_asqz_db": 15.0}})
    cfg = load_config(path)
    before = copy.deepcopy(cfg)
    args = build_parser().parse_args(["scan", "--sweep", sweep, "--from", "0.1", "--to", "0.5", "--steps", "3"])
    assert cmd_scan(args, cfg) == 0
    assert len(scan_rows(capsys.readouterr().out)) == 3
    assert cfg == before


def test_scan_extra_loss_sweep_composes_total_loss(capsys):
    rc, out, _ = run(capsys, "scan", "--sweep", "nu_b", "--from", "0", "--to", "0.2", "--steps", "3")
    assert rc == 0
    rows = scan_rows(out)
    total = [float(r[1]) for r in rows]
    assert total == pytest.approx(
        [0.068, 1.0 - (1.0 - 0.068) * 0.9, 1.0 - (1.0 - 0.068) * 0.8], rel=1e-12
    )
    k = [float(r[7]) for r in rows]
    assert all(b < a for a, b in zip(k, k[1:]))


@pytest.mark.parametrize(
    "source",
    [{}, {"var_asqz_db": 17.5}, {"mode": "pump", "p_mw": 170.0}],
    ids=["measured-value", "measured-pair", "pump"],
)
def test_scan_extra_loss_rows_match_simulate_at_their_total_loss(capsys, tmp_path, monkeypatch, source):
    """A nu_b row is the state whose arm-B loss is the row's nu column."""
    monkeypatch.setattr(cli, "_fmt", repr)  # full-precision cells
    cfg = write_config(tmp_path, {"source": source, "channel": {"sigma_a": 0.05, "sigma_b": 0.1}})
    rc, out, _ = run(capsys, "scan", "--config", cfg, "--sweep", "nu_b", "--from", "0", "--to", "0.3", "--steps", "7")
    assert rc == 0
    rows = scan_rows(out)
    assert len(rows) == 7
    for row in rows:
        point = write_config(
            tmp_path, {"source": source, "channel": {"sigma_a": 0.05, "sigma_b": 0.1, "nu_b": float(row[1])}}
        )
        rc, out, _ = run(capsys, "simulate", "--config", point)
        report = json.loads(out)["report"]
        for column, key in ((4, "mi"), (5, "holevo_a"), (6, "holevo_b"), (7, "k_nominal")):
            assert float(row[column]) == pytest.approx(report[key], rel=1e-12, abs=1e-12), key


def test_scan_phase_noise_sweep_lowers_rate(capsys):
    rc, out, _ = run(capsys, "scan", "--sweep", "sigma", "--from", "0", "--to", "0.2", "--steps", "3")
    assert rc == 0
    rows = scan_rows(out)
    assert [float(r[3]) for r in rows] == pytest.approx([0.0, 0.1, 0.2], abs=1e-12)
    k = [float(r[7]) for r in rows]
    assert k[0] == pytest.approx(K_DEFAULT, rel=1e-10)
    assert all(b < a for a, b in zip(k, k[1:]))


def test_scan_rejects_too_few_steps(capsys):
    rc, _, err = run(capsys, "scan", "--sweep", "sigma", "--from", "0", "--to", "1", "--steps", "1")
    assert rc == 1
    assert "steps" in err


@pytest.mark.parametrize(
    "start, message",
    [
        pytest.param("-0.01", "adds loss to arm B, which must lie in [0, 1], got -0.01", id="-0.01"),
        pytest.param("nan", "--from must be a finite number, got nan", id="nan"),
    ],
)
def test_scan_rejects_extra_loss_outside_unit_interval(capsys, start, message):
    """-0.01 would still leave a total loss of 0.059 >= 0, but it is gain, not
    loss; nan is no bound at all, rejected before the grid is built."""
    rc, out, err = run(capsys, "scan", "--sweep", "nu_b", "--from", start, "--to", "0.1", "--steps", "3")
    assert rc == 1 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("sweep", ["sqz_db", "nu_b", "sigma"])
@pytest.mark.parametrize(
    "start, stop, message",
    [
        ("0", "inf", "--to must be a finite number, got inf"),
        ("inf", "0.1", "--from must be a finite number, got inf"),
        ("-inf", "0.1", "--from must be a finite number, got -inf"),
        ("0", "nan", "--to must be a finite number, got nan"),
        ("-1e308", "1e308", "--from -1e+308 to --to 1e+308 spans more than the float range"),
    ],
    ids=["to-inf", "from-inf", "from-minus-inf", "to-nan", "span"],
)
def test_scan_rejects_non_finite_bounds(capsys, sweep, start, stop, message):
    """A non-finite bound, or span, is named before np.linspace would warn on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "scan", "--sweep", sweep, f"--from={start}", f"--to={stop}", "--steps", "3")
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


def test_scan_rejects_more_steps_than_an_array_holds(capsys):
    rc, out, err = run(capsys, "scan", "--sweep", "sigma", "--from", "0", "--to", "0.1", "--steps", str(10**20))
    assert rc == 1 and out == ""
    assert err == f"error: --steps = {10**20} is more grid points than a numpy array can hold\n"


def test_scan_grid_out_of_memory_is_config_error(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "linspace", no_memory)
    rc, out, err = run(capsys, "scan", "--sweep", "sigma", "--from", "0", "--to", "0.1", "--steps", "1000")
    assert rc == 1 and out == ""
    assert err == "error: --steps = 1000 grid points do not fit in memory\n"


def _reference_scan_row(cfg: dict, sweep: str, value: float) -> str:
    """One CSV row rated by its own secret_key_rate call: the per-row scan
    that the stacked pass must reproduce byte for byte."""
    point = dict(cfg)
    if sweep == "sqz_db":
        point["source"] = {**cfg["source"], "mode": "measured", "var_sqz_db": -abs(value), "var_asqz_db": None}
    elif sweep == "nu_b":
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"--sweep nu_b adds loss to arm B, which must lie in [0, 1], got {value}")
        point["channel"] = {**cfg["channel"], "nu_b": 1.0 - (1.0 - cfg["channel"]["nu_b"]) * (1.0 - value)}
    elif sweep == "sigma":
        point["channel"] = {**cfg["channel"], "sigma_a": value, "sigma_b": value}
    spec, channel = cli._resolve(point)
    ana = point["analysis"]
    report = secret_key_rate(make_epr_state(spec, channel), n_samples=ana["n_samples"] if ana["worst_case"] else None)
    input_db = spec.var_sqz_db if isinstance(spec, SqueezingSpec) else variance_to_db(
        _pump_sqz_variance(spec, math.sqrt(spec.p_mw / spec.p_th_mw))
    )
    cells = [
        cli._fmt(input_db),
        cli._fmt(channel.loss_b),
        cli._fmt(channel.det_noise_b),
        cli._fmt(channel.phase_sigma_b),
        cli._fmt(report.mi),
        cli._fmt(report.holevo_a),
        cli._fmt(report.holevo_b),
        cli._fmt(report.k_nominal),
        cli._fmt(report.k_worst_case) if report.k_worst_case is not None else "",
        str(ana["n_samples"]),
    ]
    return ",".join(cells)


def _reference_cmd_scan(args, cfg: dict) -> int:
    """cmd_scan rating one row at a time, in grid order, for valid --steps."""
    grid = np.linspace(args.sweep_start, args.sweep_stop, args.steps)
    lines = [",".join(SCAN_COLUMNS)] + [_reference_scan_row(cfg, args.sweep, float(value)) for value in grid]
    cli._emit(["\n".join(lines) + "\n"], args.out)
    return 0


def run_scan_and_reference(capsys, monkeypatch, *argv):
    """(exit code, stdout, stderr) of scan argv, and of the per-row reference."""
    stacked = run(capsys, "scan", *argv)
    with monkeypatch.context() as patch:
        patch.setitem(cli._DISPATCH, "scan", _reference_cmd_scan)
        return stacked, run(capsys, "scan", *argv)


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning as the command line has it: the warning on stderr."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


_README_SWEEPS = {"sqz_db": ("4.5", "12"), "nu_b": ("0", "0.3"), "sigma": ("0", "0.2")}

_SCAN_CONFIGS = {
    "default": {},
    "pump": {"source": {"mode": "pump", "p_mw": 200.0}},
    "phase noise": {"channel": {"sigma_a": 0.05, "sigma_b": 0.1}},
    "unequal detection": {"channel": {"delta_a": 0.01, "delta_b": 0.03, "sigma_a": 0.05, "sigma_b": 0.05}},
    "worst case": {"analysis": {"worst_case": True}},
}


@pytest.mark.parametrize("steps", [255, 256, 257, 2000])
@pytest.mark.parametrize("config", list(_SCAN_CONFIGS))
@pytest.mark.parametrize("sweep", list(_README_SWEEPS))
def test_scan_equals_the_per_row_reference_byte_for_byte(capsys, monkeypatch, tmp_path, sweep, config, steps):
    """Chunks of 256 rows, rated in one stacked pass each, print what rating
    every row on its own prints, around and across chunk boundaries."""
    cfg = write_config(tmp_path, _SCAN_CONFIGS[config])
    start, stop = _README_SWEEPS[sweep]
    stacked, reference = run_scan_and_reference(
        capsys, monkeypatch, "--config", cfg, "--sweep", sweep, "--from", start, "--to", stop, "--steps", str(steps)
    )
    assert stacked[0] == 0 and len(stacked[1].splitlines()) == steps + 1
    assert stacked == reference
    if config == "worst case":  # a worst case never exceeds its row's nominal rate
        rows = list(csv.DictReader(stacked[1].splitlines()))
        assert all(float(row["k_worst_case"]) <= float(row["k_nominal"]) for row in rows)


@pytest.mark.filterwarnings("ignore:closed-form worst-case candidate")  # near-pure rows, on both paths
@pytest.mark.parametrize("worst_case", [False, True], ids=["nominal", "worst case"])
@pytest.mark.parametrize(
    "argv, channel, error",
    [
        (("sqz_db", "3000", "3200", "5"), {"epsilon": 0.0}, "error: covariance entries up to 4.66e+299 overflow"),
        (("sqz_db", "0", "300", "600"), {"epsilon": 0.0}, "error: mutual information log argument"),
        (("nu_b", "0", "1.5", "600"), {}, "error: --sweep nu_b adds loss to arm B"),
        (
            ("sqz_db", "3070", "3090", "21"),
            {"epsilon": 0.0, "delta_b": 1.7e308},
            "error: covariance entries up to 1.75e+308 overflow the symplectic invariants",
        ),
        (("sqz_db", "20", "30", "3"), {}, "error: measured variance 0.01 does not exceed epsilon"),
        (("nu_b", "0", "2", "512"), {}, "error: --sweep nu_b adds loss to arm B"),
    ],
    ids=[
        "rating error then state error in one chunk",
        "rating error in a later chunk",
        "state error in a later chunk",
        "rating error then an overflowing channel map",
        "state error on a chunk's first row",
        "state error on a later chunk's first row",
    ],
)
def test_scan_errors_come_in_the_per_row_reference_order(capsys, monkeypatch, tmp_path, argv, channel, error, worst_case):
    """A state that cannot be built raises only after the rows before it in
    its chunk are rated, so an earlier row's rating error wins, as row by row.
    At 3000 dB row 0 overflows the invariants, and from 3100 dB the source
    variances overflow while the state is built; the first row that fails at
    0-300 dB is row 314, and at nu_b 0-1.5 row 400. With 1.7e308 of detection
    noise, row 0 at 3070 dB overflows the invariants, and from row 4 the
    detection map overflows to inf, which is covariance()'s error and prints
    no numpy warning. At 20 dB with the default epsilon row 0's source
    fails, and at nu_b 0-2 over 512 steps row 256, each the first row of its
    chunk, so the chunk adds detection noise to no rows before the error.
    Warnings print to stderr, as on the command line."""
    cfg = write_config(tmp_path, {"channel": channel, "analysis": {"worst_case": worst_case}})
    sweep, start, stop, steps = argv
    with warnings.catch_warnings():
        warnings.filterwarnings("always", category=RuntimeWarning)
        warnings.showwarning = _print_warning
        stacked, reference = run_scan_and_reference(
            capsys, monkeypatch, "--config", cfg, "--sweep", sweep, "--from", start, "--to", stop, "--steps", steps
        )
    assert stacked == reference
    rc, out, err = stacked
    assert rc == 1 and out == "" and err.startswith(error) and err.count("\n") == 1, err


def test_scan_source_warnings_name_the_line_that_builds_the_row(capsys, tmp_path):
    """A measured pair below the uncertainty relation warns once a row, and
    each warning names the cli line that builds the row's state, as when that
    line called make_epr_state: not a line of noise.py or of cmd_scan."""
    cfg = write_config(tmp_path, {"source": {"var_asqz_db": 10.0}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, "scan", "--config", cfg, "--sweep", "sigma", "--from", "0", "--to", "0.1", "--steps", "3")
    source = [w for w in caught if "violates the uncertainty relation" in str(w.message)]
    assert rc == 0 and len(out.splitlines()) == 4 and len(source) == 3
    for w in source:
        assert w.filename == cli.__file__
        assert "optical.append(_optical(spec, channel))" in linecache.getline(w.filename, w.lineno)


def test_scan_transient_memory_stays_near_the_per_row_reference(monkeypatch, tmp_path):
    """The stacked pass holds one chunk of states and rates at a time: a
    2000-row scan peaks at most 0.3 MB above rating each row on its own."""
    argv = ["scan", "--sweep", "sigma", "--from", "0", "--to", "0.2", "--steps", "2000", "--out", str(tmp_path / "s.csv")]

    def peak_bytes():
        main(argv)  # caches and lazy imports first
        tracemalloc.start()
        try:
            main(argv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    stacked = peak_bytes()
    monkeypatch.setitem(cli._DISPATCH, "scan", _reference_cmd_scan)
    assert stacked <= peak_bytes() + 0.3e6


def test_scan_worst_case_transient_memory_stays_bounded_by_its_chunk(tmp_path):
    """The worst-case pass holds one chunk's rows and boxes at a time: a
    2000-row scan --worst-case peaks at most 0.3 MB above a one-chunk,
    256-row one, about the CSV text of the rows rated before its last chunk."""

    def peak_bytes(steps):
        argv = ["scan", "--sweep", "sigma", "--from", "0", "--to", "0.2", "--steps", str(steps), "--worst-case"]
        argv += ["--out", str(tmp_path / "s.csv")]
        main(argv)  # caches and lazy imports first
        tracemalloc.start()
        try:
            main(argv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = peak_bytes(256)
    assert peak_bytes(2000) <= one_chunk + 0.3e6


def test_scan_holds_its_csv_text_about_once(tmp_path):
    """A scan keeps each chunk's rows as one string and writes the strings in
    turn once every row is rated, so a 20000-row scan to a file peaks below
    twice the size of the CSV it writes."""
    path = tmp_path / "s.csv"

    def scan(steps):
        main(["scan", "--sweep", "sigma", "--from", "0", "--to", "0.2", "--steps", str(steps), "--out", str(path)])

    scan(2)  # caches and lazy imports first
    tracemalloc.start()
    try:
        scan(20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


@pytest.mark.parametrize("worst_case", [False, True], ids=["nominal", "worst-case"])
def test_scan_validates_each_chunk_once_and_wraps_no_unflagged_row(capsys, monkeypatch, worst_case):
    """A 600-row scan, three chunks, runs covariance()'s rules once per
    chunk over its stack, and builds no CovarianceMatrix: no row is flagged,
    so none is rated on its own. Each chunk takes one formula call, which
    with --worst-case also rates the rows' boxes, after one screen of their
    corners and candidates."""
    checks, built, formulas, screens = [], [], [], []
    real_symmetrized, real_formula, real_screen = gaussian._symmetrized, keyrate._formula, keyrate._screened_det

    def counted_symmetrized(m):
        checks.append(m.shape)
        return real_symmetrized(m)

    def counted_formula(inv):
        formulas.append(np.shape(inv.i4))
        return real_formula(inv)

    def counted_screen(planes):
        screens.append(planes.shape[-1])
        return real_screen(planes)

    class CountedCovarianceMatrix(gaussian.CovarianceMatrix):
        def __init__(self, *args, **kwargs):
            built.append(args or kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(gaussian, "_symmetrized", counted_symmetrized)
    monkeypatch.setattr(keyrate, "_symmetrized", counted_symmetrized)
    monkeypatch.setattr(keyrate, "_formula", counted_formula)
    monkeypatch.setattr(keyrate, "_screened_det", counted_screen)
    monkeypatch.setattr(gaussian, "CovarianceMatrix", CountedCovarianceMatrix)
    flag = ["--worst-case"] if worst_case else []
    rc, out, err = run(capsys, "scan", "--sweep", "sqz_db", "--from", "4.5", "--to", "12", "--steps", "600", *flag)
    assert rc == 0 and err == "" and len(out.splitlines()) == 601
    assert checks == [(256, 4, 4), (256, 4, 4), (88, 4, 4)]
    assert built == []
    # a model row's box has 64 distinct corners and one candidate, rated with the row
    assert formulas == [((66 if worst_case else 1) * rows,) for rows in (256, 256, 88)]
    assert screens == ([65 * rows for rows in (256, 256, 88)] if worst_case else [])


@pytest.mark.parametrize(
    "argv",
    [("simulate",), ("scan", "--sweep", "sigma", "--from", "0", "--to", "0.1", "--steps", "2"), ("analyze", "STATE")],
    ids=["simulate", "scan", "analyze"],
)
def test_worst_case_count_beyond_float_range_exits_one(capsys, tmp_path, argv):
    """analysis.n_samples in a config gets the same ConfigError."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(covariance_to_json(make_epr_state(SqueezingSpec(var_sqz_db=-11.1), ChannelParams()))))
    argv = [str(path) if a == "STATE" else a for a in argv]
    rc, out, err = run(capsys, *argv, "--worst-case", "--n", str(10**400))
    assert rc == 1 and out == ""
    assert err.startswith("error: --n must be a positive integer no larger than the float maximum, got 1000")


# ------------------------------------------------------- sample / reconstruct


def test_sample_then_reconstruct_round_trip(capsys, tmp_path):
    data = tmp_path / "records.csv"
    rc, out, _ = run(capsys, "sample", "--n", "2000", "--out", str(data))
    assert rc == 0 and out == ""
    ds = load_dataset(data)
    assert len(ds.settings) == 5
    np.testing.assert_array_equal(ds.n_per_setting, [2000] * 5)

    rc, out, _ = run(capsys, "reconstruct", str(data))
    assert rc == 0
    doc = json.loads(out)
    assert doc["n_min"] == 2000
    assert doc["cross_check"]["within_5_std_errors"] is True
    g = covariance_from_json(doc["covariance"])
    expected = make_epr_state(SqueezingSpec(var_sqz_db=-11.1), ChannelParams())
    se = np.asarray(doc["std_errors"])
    assert (np.abs(g.entries - expected.entries) / se).max() < 5.0


@pytest.mark.parametrize("n", [10**30, 2**63])
def test_sample_extreme_count_exits_one(capsys, tmp_path, n):
    data = tmp_path / "records.csv"
    rc, out, err = run(capsys, "sample", "--n", str(n), "--out", str(data))
    assert rc == 1 and out == ""
    assert err.startswith("error:") and str(n) in err
    assert not data.exists()


def test_sample_writes_to_stdout(capsys):
    rc, out, _ = run(capsys, "sample", "--n", "3")
    assert rc == 0
    assert out.startswith("# calib_a=1.0")
    assert "setting_id,theta_a_deg,theta_b_deg,sample_a,sample_b" in out


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
def test_sample_streams_the_library_dataset_byte_for_byte(capsys, tmp_path, offset, to_stdout):
    """Written a block at a time, sample's CSV is save_dataset(sample_homodyne(...)) at
    block sizes around the block boundary."""
    n = _BLOCK + offset
    out = tmp_path / "records.csv"
    rc, text, _ = run(capsys, "sample", "--n", str(n), "--seed", "4", *([] if to_stdout else ["--out", str(out)]))
    assert rc == 0
    buf = io.StringIO()
    g = make_epr_state(*cli._resolve(load_config()))
    save_dataset(sample_homodyne(g, n_per_setting=n, seed=4), buf)
    assert (text if to_stdout else out.read_text(encoding="utf-8")) == buf.getvalue()
    assert to_stdout or text == ""


def test_analyze_and_reconstruct_equal_the_library_route_bit_for_bit(capsys, tmp_path):
    """The moments folded while parsing give reconstruct(load_dataset(p))'s numbers exactly."""
    cfg = write_config(tmp_path, NOISY)
    data = tmp_path / "records.csv"
    n = 2 * _BLOCK + 3
    assert run(capsys, "sample", "--config", cfg, "--n", str(n), "--out", str(data))[0] == 0
    result = reconstruct(load_dataset(data))
    rc, out, _ = run(capsys, "analyze", "--config", cfg, "--worst-case", str(data))
    want = secret_key_rate(result.gamma_hat, n_samples=result.n_min).as_dict()
    assert rc == (2 if want["k_nominal"] <= 0.0 else 0)
    assert json.loads(out) == json.loads(json.dumps(want))
    rc, out, _ = run(capsys, "reconstruct", str(data))
    doc = json.loads(out)
    assert rc == 0 and doc["n_min"] == n
    assert doc["covariance"] == json.loads(json.dumps(covariance_to_json(result.gamma_hat)))
    assert doc["std_errors"] == result.std_errors.tolist()
    assert doc["cross_check"]["measured"] == result.cross_check_measured


@pytest.mark.parametrize(
    "line, value",
    [(None, None), (0, "# calib_a=nan"), (3, "0,0.0,0.0,1e200,0.5")],
    ids=["no_other_fault", "bad_calibration", "overflowing_setting_0"],
)
@pytest.mark.parametrize("command", ["analyze", "reconstruct"])
def test_parse_error_after_the_first_block_comes_before_reconstruction_errors(capsys, tmp_path, line, value, command):
    """A record broken past the first block is load_dataset's line-numbered error, even
    when the calibration or an earlier setting's moments would fail reconstruction."""
    data = tmp_path / "records.csv"
    run(capsys, "sample", "--n", str(_BLOCK + 50), "--out", str(data))
    lines = data.read_text(encoding="utf-8").split("\n")
    if line is not None:
        lines[line] = value
    broken = 3 + _BLOCK + 120  # a record of setting 1, in the second block
    lines[broken] = lines[broken].replace(",", ",x", 1)
    data.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(DatasetParseError) as info:
        load_dataset(data)
    assert info.value.line == broken + 1
    rc, out, err = run(capsys, command, str(data))
    assert rc == 1 and out == ""
    assert err == f"error: {info.value}\n"


def test_sample_and_analyze_memory_stays_bounded_in_n(capsys, tmp_path):
    """sample and analyze hold a block of records at a time: with 2e5 records per
    setting they peak within 1 MB of their peaks with 2e4."""
    cfg = write_config(tmp_path, NOISY)

    def peaks(n):
        data = str(tmp_path / f"records-{n}.csv")
        out = []
        for argv in (["sample", "--config", cfg, "--n", str(n), "--out", data], ["analyze", "--config", cfg, data]):
            tracemalloc.start()
            try:
                main(argv)
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        return out

    peaks(2000)  # caches and lazy imports first
    small, large = peaks(20000), peaks(200000)
    assert large[0] <= small[0] + 1e6, (small, large)
    assert large[1] <= small[1] + 1e6, (small, large)


def test_analyze_dataset_path(capsys, tmp_path):
    data = tmp_path / "records.csv"
    run(capsys, "sample", "--n", "100000", "--out", str(data))
    rc, out, _ = run(capsys, "analyze", str(data))
    assert rc == 0
    report = json.loads(out)
    assert report["k_nominal"] == pytest.approx(K_DEFAULT, abs=0.05)


def test_analyze_dataset_worst_case_uses_n_override(capsys, tmp_path):
    data = tmp_path / "records.csv"
    run(capsys, "sample", "--n", "100000", "--out", str(data))
    cfg = write_config(tmp_path, {"analysis": {"worst_case": True}})
    rc, out, _ = run(capsys, "analyze", str(data), "--config", cfg, "--n", "2000")
    report = json.loads(out)
    assert report["n_samples"] == 2000
    assert report["k_worst_case"] is not None


@pytest.mark.parametrize(
    "line, value, message",
    [
        (0, "# calib_a=nan", "vacuum calibration variances must be positive and finite, got calib_a=nan, calib_b=1.0"),
        (1, "# calib_b=inf", "vacuum calibration variances must be positive and finite, got calib_a=1.0, calib_b=inf"),
        (0, "# calib_a=1e-320", "second moments of setting 0 (theta_a=0, theta_b=0) overflow the float range"),
        (3, "0,0.0,0.0,1e200,0.5", "second moments of setting 0 (theta_a=0, theta_b=0) overflow the float range"),
        (3, "0,0.0,0.0,1e150,0.5", "the fitted entries or their standard errors overflow the float range"),
    ],
    ids=["calib-nan", "calib-inf", "calib-tiny", "sample-1e200", "sample-1e150"],
)
def test_analyze_non_finite_calibration_or_overflowing_moments_exit_one(capsys, tmp_path, line, value, message):
    """A calibration must be positive and finite, and moments that overflow
    name their setting: exit 1 with one error line, no numpy warning."""
    data = tmp_path / "records.csv"
    run(capsys, "sample", "--n", "100", "--out", str(data))
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[line] = value
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "analyze", "--worst-case", str(data))
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_analyze_reports_unphysical_reconstruction(capsys, tmp_path):
    """Sampling noise at tiny n yields an estimate the formulas must refuse."""
    data = tmp_path / "records.csv"
    run(capsys, "sample", "--n", "4000", "--out", str(data))
    rc, _, err = run(capsys, "analyze", str(data))
    assert rc == 1
    assert err.startswith("error:")


def test_analyze_covariance_json(capsys, tmp_path):
    g = make_epr_state(SqueezingSpec(var_sqz_db=-11.1), ChannelParams())
    path = tmp_path / "state.json"
    path.write_text(json.dumps(covariance_to_json(g)), encoding="utf-8")
    rc, out, _ = run(capsys, "analyze", str(path))
    assert rc == 0
    assert json.loads(out)["k_nominal"] == pytest.approx(K_DEFAULT, rel=1e-12)


def test_analyze_weak_state_exits_two(capsys, tmp_path):
    g = make_epr_state(SqueezingSpec(var_sqz_db=-2.0), ChannelParams())
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(covariance_to_json(g)), encoding="utf-8")
    rc, out, _ = run(capsys, "analyze", str(path))
    assert rc == 2


def test_analyze_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 1
    assert "invalid covariance JSON" in err


def test_analyze_unphysical_covariance_names_symplectic_eigenvalue(capsys, tmp_path):
    path = tmp_path / "unphysical.json"
    doc = covariance_to_json(covariance(RECONSTRUCTED_EXAMPLE))
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = run(capsys, "analyze", str(path))
    assert rc == 1 and out == ""
    assert "smallest symplectic eigenvalue is 0.93958" in err
    assert "entropy_f" not in err


def test_analyze_indefinite_covariance_names_file(capsys, tmp_path):
    """Its squared smaller symplectic eigenvalue is -1: there is none to name."""
    path = tmp_path / "indefinite.json"
    entries = [[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    path.write_text(json.dumps({"n_modes": 2, "entries": entries}), encoding="utf-8")
    rc, out, err = run(capsys, "analyze", str(path))
    assert rc == 1 and out == ""
    assert err == f"error: {path}: covariance matrix is unphysical\n"


@pytest.mark.parametrize("r", [3.0, 4.0, 5.0, 6.0])
@pytest.mark.parametrize("worst_case", [False, True])
def test_analyze_strongly_squeezed_pure_state(capsys, tmp_path, r, worst_case):
    """A pure two-mode squeezed vacuum rates k = log2(cosh 2r), to the
    resolution of its rounded entries, eps * cosh(2r)^2."""
    lam = math.cosh(2.0 * r)
    c = math.sqrt(lam * lam - 1.0)
    path = tmp_path / "tmsv.json"
    entries = [[lam, 0.0, c, 0.0], [0.0, lam, 0.0, -c], [c, 0.0, lam, 0.0], [0.0, -c, 0.0, lam]]
    path.write_text(json.dumps({"n_modes": 2, "entries": entries}), encoding="utf-8")
    rc, out, err = run(capsys, "analyze", *(["--worst-case"] if worst_case else []), str(path))
    assert rc == 0 and err == ""
    k, want = json.loads(out)["k_nominal"], math.log2(lam)
    assert abs(k - want) <= max(1e-9 * want, 16.0 * sys.float_info.epsilon * lam * lam)


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
@pytest.mark.parametrize("worst_case", [False, True])
def test_analyze_huge_entries_exit_one_without_numpy_warnings(capsys, tmp_path, scale, worst_case):
    base = make_epr_state(SqueezingSpec(var_sqz_db=-11.1), ChannelParams()).entries
    flags = ["--worst-case"] if worst_case else []
    for name, m in (("vacuum", np.eye(4)), ("default", base), ("reconstructed", RECONSTRUCTED_EXAMPLE)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(covariance_to_json(covariance(m * scale))), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "analyze", *flags, str(path))
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "overflow the symplectic invariants" in err
        assert "Warning" not in err


@pytest.mark.parametrize("variance", [1e76, 1e77])
@pytest.mark.parametrize("flags", [[], ["--worst-case"], ["--worst-case", "--n", "1"]], ids=["nominal", "worst-case", "n-1"])
def test_analyze_large_symplectic_eigenvalues_without_numpy_warnings(capsys, tmp_path, variance, flags):
    """The product state diag(x, x, 1, 1) leaks f(x) = log2((x - 1)/2) +
    log2(e) bits to Eve when A is measured, so k = -f(x), with d_plus = x
    and no RuntimeWarning. At n = 1 the box of x = 1e77 overflows the
    invariants: a typed error."""
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"n_modes": 2, "entries": np.diag([variance, variance, 1.0, 1.0]).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "analyze", *flags, str(path))
    if "--n" in flags and variance == 1e77:
        assert (rc, out) == (1, "")
        assert err == "error: matrices of the uncertainty box at n = 1 overflow the symplectic invariants\n"
        return
    assert rc == 2 and err == ""
    report = json.loads(out)
    want = -(math.log2((variance - 1.0) / 2.0) + 1.0 / math.log(2.0))
    assert report["k_nominal"] == pytest.approx(want, rel=1e-14)
    assert report["d_plus"] == variance and report["d_minus"] == pytest.approx(1.0, abs=1e-13)
    if "--n" in flags:
        assert report["k_worst_case"] < report["k_nominal"]
    elif flags:
        assert want - 1e-2 < report["k_worst_case"] < report["k_nominal"]


@pytest.mark.parametrize("worst_case", [False, True])
def test_analyze_entries_near_float_max_name_their_size(capsys, tmp_path, worst_case):
    """Symmetrizing 1.5e308 must not overflow to inf on the way to the error."""
    path = tmp_path / "near_max.json"
    path.write_text(json.dumps(covariance_to_json(covariance(np.eye(4) * 1.5e308))), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "analyze", *(["--worst-case"] if worst_case else []), str(path))
    assert rc == 1 and out == ""
    assert err == "error: covariance entries up to 1.5e+308 overflow the symplectic invariants\n"


def test_analyze_overflowing_uncertainty_box_exits_one_without_numpy_warnings(capsys, tmp_path):
    """A pure state scaled to a largest entry of 5.01e76 passes the overflow
    check of its invariants, but the corners of its box at n = 1 and 2 do
    not: a typed error, not a NaN worst case. Narrower boxes still rate, at
    about -log2(1.67e76) bits (test_keyrate checks these values)."""
    lam, c = 3.0, math.sqrt(8.0)
    entries = np.array([[lam, 0.0, c, 0.0], [0.0, lam, 0.0, -c], [c, 0.0, lam, 0.0], [0.0, -c, 0.0, lam]]) * 1.67e76
    path = tmp_path / "overflowing_box.json"
    path.write_text(json.dumps(covariance_to_json(covariance(entries))), encoding="utf-8")
    for n in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "analyze", "--worst-case", "--n", str(n), str(path))
        assert rc == 1 and out == ""
        assert err == f"error: matrices of the uncertainty box at n = {n} overflow the symplectic invariants\n"
    for n, want in ((100, -254.06739098633955), (10**6, -252.1109114610413)):
        rc, out, err = run(capsys, "analyze", "--worst-case", "--n", str(n), str(path))
        assert rc == 2 and err == ""
        assert json.loads(out)["k_worst_case"] == want


@pytest.mark.parametrize("command", ["analyze", "reconstruct"])
@pytest.mark.parametrize(
    "body",
    [b"\xff", b"setting_id,theta_a_deg,theta_b_deg,sample_a,sample_b\n0,0.0,0.0,1.0,\xff\n", b'{"\xff": 1}'],
    ids=["leading_byte", "record", "json"],
)
def test_non_utf8_input_exits_one(capsys, tmp_path, command, body):
    path = tmp_path / "input.csv"
    path.write_bytes(body)
    rc, out, err = run(capsys, command, str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error:")


# --------------------------------------------------------------------- config


def test_load_config_merges_overrides():
    cfg = load_config(None)
    assert cfg["source"]["var_sqz_db"] == -11.1
    assert cfg["channel"]["epsilon"] == 0.059
    assert cfg["analysis"]["n_samples"] == 10**6


@pytest.mark.parametrize(
    "doc",
    [
        {"extra": {}},
        {"source": {"bogus": 1.0}},
        {"source": {"mode": "telepathy"}},
        {"source": {"var_sqz_db": None}},
        {"source": {"mode": "pump"}},
        {"channel": {"epsilon": "a lot"}},
        {"analysis": {"n_samples": 1.5}},
        {"analysis": {"seed": -3}},
        {"analysis": {"worst_case": "yes"}},
        {"channel": {"nu_b": float("inf")}},
    ],
    ids=[
        "unknown-section",
        "unknown-field",
        "bad-mode",
        "measured-needs-sqz",
        "pump-needs-power",
        "non-numeric",
        "fractional-n",
        "negative-seed",
        "non-bool-flag",
        "non-finite",
    ],
)
def test_config_validation_failures(capsys, tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e999"), encoding="utf-8")
    rc, _, err = run(capsys, "simulate", "--config", str(path))
    assert rc == 1
    assert err.startswith("error:")


#: hostile config values: NaN, infinities, huge ints, strings, bools, null and nested JSON
_HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400), float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.none() | st.floats(), max_size=2),
)


def _field_values(default):
    """Mostly values of the default's type, sometimes hostile ones."""
    if isinstance(default, bool):
        plausible = st.booleans()
    elif isinstance(default, str):
        plausible = st.sampled_from(["measured", "pump"])
    elif isinstance(default, int):
        plausible = st.integers(0, 10**7)
    else:
        plausible = st.floats(-20.0, 300.0)
    return st.one_of(plausible, plausible, plausible, _HOSTILE)


#: documents with known sections and fields only
_KNOWN_DOCS = st.fixed_dictionaries(
    {},
    optional={
        name: st.fixed_dictionaries({}, optional={key: _field_values(v) for key, v in fields.items()})
        for name, fields in DEFAULT_CONFIG.items()
    },
)


def _with_stray_field(doc, section, key, value):
    doc.setdefault(section, {})[key] = value
    return doc


_NAMES = st.sampled_from(sorted(DEFAULT_CONFIG)) | st.text(max_size=4)
_CONFIG_DOCS = st.one_of(
    _KNOWN_DOCS,
    _KNOWN_DOCS,
    st.builds(
        _with_stray_field,
        _KNOWN_DOCS,
        _NAMES,
        st.sampled_from(sorted({k for fields in DEFAULT_CONFIG.values() for k in fields})) | st.text(max_size=4),
        _HOSTILE,
    ),
    st.dictionaries(_NAMES, _HOSTILE, min_size=1, max_size=2),
    _HOSTILE,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@example(doc={"analysis": {"n_samples": 10**400}})
@example(doc={"source": {"var_sqz_db": float("nan")}})
@example(doc={"channel": {"nu_a": None}})
@example(doc={"analysis": {"seed": True}})
@example(doc={"source": {"k": {"nested": 1.0}}})
@given(doc=_CONFIG_DOCS)
def test_load_config_rejects_only_with_config_error(tmp_path_factory, doc):
    """Random sections, fields and values: a valid configuration, or a ConfigError."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    assert set(cfg) == set(DEFAULT_CONFIG)
    assert cfg["source"]["mode"] in ("measured", "pump")
    for section in ("source", "channel"):
        for key, value in cfg[section].items():
            if key != "mode" and value is not None:
                assert type(value) in (int, float) and math.isfinite(value)
    ana = cfg["analysis"]
    assert type(ana["n_samples"]) is int and ana["n_samples"] >= 1
    assert type(ana["seed"]) is int and ana["seed"] >= 0
    assert type(ana["worst_case"]) is bool


def test_config_invalid_json_and_missing_file(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{,}", encoding="utf-8")
    rc, _, err = run(capsys, "simulate", "--config", str(path))
    assert rc == 1 and "invalid JSON" in err
    rc, _, err = run(capsys, "simulate", "--config", str(tmp_path / "absent.json"))
    assert rc == 1
    # the config is read as UTF-8 text: bad bytes are a decoding error, a BOM
    # is kept and the JSON parser rejects it, and line breaks read as "\n"
    for body, message in (
        (b'{"source": {}}\xff', "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
        (b'{"source": {"eta": "\xc3', "'utf-8' codec can't decode byte 0xc3 in position 20: unexpected end of data"),
        (b'\xef\xbb\xbf{"source": {}}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (b'{"source": {}}\r\n,\r,', "Extra data: line 2 column 1 (char 15)"),
    ):
        path.write_bytes(body)
        rc, out, err = run(capsys, "simulate", "--config", str(path))
        assert (rc, out, err) == (1, "", f"error: config {path}: invalid JSON: {message}\n")


def test_config_pump_mode_runs(capsys, tmp_path):
    cfg = write_config(tmp_path, {"source": {"mode": "pump", "p_mw": 170.0}})
    rc, out, _ = run(capsys, "simulate", "--config", cfg)
    assert rc == 0
    assert json.loads(out)["report"]["k_nominal"] > 0.0


def test_negative_seed_flag_rejected(capsys):
    rc, _, err = run(capsys, "simulate", "--seed", "-1")
    assert rc == 1 and "--seed" in err


def test_missing_dataset_file_is_reported(capsys, tmp_path):
    rc, _, err = run(capsys, "reconstruct", str(tmp_path / "absent.csv"))
    assert rc == 1 and err.startswith("error:")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["scan", "--sweep", "entropy", "--from", "0", "--to", "1", "--steps", "3"])
    assert info.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1
    capsys.readouterr()


#: argv lists whose outputs would differ if one call's arguments leaked
#: into the next through the shared parser
_REUSE_SEQUENCE = (
    ("simulate", "--worst-case", "--n", "1000"),
    ("simulate",),
    ("scan", "--sweep", "nu_b", "--from", "0", "--to", "0.1", "--steps", "3", "--n", "500"),
    ("scan", "--sweep", "nu_b", "--from", "0", "--to", "0.1", "--steps", "3"),
    ("scan", "--sweep", "entropy", "--from", "0", "--to", "1", "--steps", "3"),
    ("simulate", "--seed", "7"),
)


def _run_sequence(capsys):
    results = []
    for argv in _REUSE_SEQUENCE:
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err))
    return results


def test_shared_parser_leaks_no_state_between_calls(capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    shared = _run_sequence(capsys)
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = _run_sequence(capsys)
    assert shared == fresh
    codes = [rc for rc, _, _ in shared]
    assert codes == [0, 0, 0, 0, 1, 0]
    assert json.loads(shared[0][1])["report"]["k_worst_case"] is not None
    assert json.loads(shared[1][1])["report"]["k_worst_case"] is None
    assert [row[9] for row in scan_rows(shared[2][1])] == ["500"] * 3
    assert [row[9] for row in scan_rows(shared[3][1])] == ["1000000"] * 3
    assert "invalid choice" in shared[4][2]
    assert shared[5][1] == shared[1][1]


_SWEEP = ("--sweep", "nu_b", "--from", "0", "--to", "0.1", "--steps", "3")

#: argv lists for main, with CFG, DATA, STATE and OUT standing for a config,
#: a dataset CSV, a covariance JSON and an output path
_PARSE_CORPUS = (
    # valid flags, --opt=value, abbreviations and repeated options
    ("simulate",),
    ("simulate", "--worst-case", "--n", "1000"),
    ("simulate", "--config", "CFG"),
    ("simulate", "--config=CFG"),
    ("simulate", "--conf", "CFG"),
    ("simulate", "--conf=CFG", "--worst"),
    ("simulate", "--seed", "3", "--seed=4", "--n", "10", "--n", "2000", "--worst-case", "--worst-case"),
    ("simulate", "--config", "absent.json", "--config", "CFG"),
    ("simulate", "--out", "OUT"),
    ("simulate", "--o=OUT", "--config", "CFG"),
    ("scan", *_SWEEP),
    ("scan", "--sweep=sigma", "--from=0", "--to=0.2", "--steps=2", "--worst"),
    ("scan", "--sweep", "sqz_db", "--from", "-4.5", "--to", "-12", "--steps", "2"),
    ("scan", "--steps", "2", "--to", "1", "--from", "0", "--sweep", "sqz_db", "--sweep", "nu_b"),
    ("scan", "--swe", "sqz_db", "--fr", "4", "--t", "5", "--ste", "2", "--out", "OUT"),
    ("sample", "--n", "3", "--seed", "1"),
    ("sample", "--n=2", "--out", "OUT"),
    ("reconstruct", "DATA"),
    ("analyze", "STATE"),
    ("analyze", "--worst-case", "DATA", "--n", "500"),
    ("analyze", "--conf", "CFG", "STATE"),
    # usage and value errors
    ("simulate", "--config"),
    ("simulate", "--n"),
    ("simulate", "--n", "1.5"),
    ("simulate", "--seed", "-1"),
    ("simulate", "--n", "-h"),
    ("scan", "--sweep", "nu_b", "--from"),
    ("scan", "--sweep", "entropy", "--from", "0", "--to", "1", "--steps", "3"),
    ("scan", "--sweep", "sqz_db", "--from", "0", "--to", "1", "--steps", "x"),
    ("scan", "--sweep", "sqz_db"),
    ("scan", "--s", "nu_b", "--from", "0", "--to", "1", "--steps", "2"),
    ("scan", *_SWEEP, "--steps", "1"),
    ("simulate", "--bogus"),
    ("simulate", "--bogus=1", "--worst-case"),
    ("simulate", "-x"),
    ("simulate", "-1"),
    ("simulate", "extra"),
    ("simulate", "extra", "--bogus"),
    ("scan", *_SWEEP, "extra"),
    ("reconstruct",),
    ("reconstruct", "DATA", "DATA"),
    ("analyze", "STATE", "extra"),
    ("analyze",),
    ("sample", "--worst-case", "x", "y"),
    # help
    ("simulate", "-h"),
    ("scan", "--help"),
    ("sample", "-h"),
    ("reconstruct", "--he"),
    ("analyze", "--n", "5", "-h"),
    ("simulate", "extra", "-h"),
    ("-h",),
    ("--help", "simulate"),
    # "--"
    ("--", "simulate"),
    ("simulate", "--"),
    ("simulate", "--", "extra"),
    ("analyze", "--", "STATE"),
    ("analyze", "--worst-case", "--", "DATA"),
    ("scan", *_SWEEP, "--"),
    # no command, or an unknown or abbreviated one
    (),
    ("--worst-case",),
    ("--config", "CFG", "simulate"),
    ("sim",),
    ("simulat", "--worst-case"),
    ("Simulate",),
    ("bogus", "-h"),
    ("",),
)


def _run_corpus(capsys, paths):
    results = []
    for argv in _PARSE_CORPUS:
        argv = [paths.get(a, a).replace("=CFG", "=" + paths["CFG"]).replace("=OUT", "=" + paths["OUT"]) for a in argv]
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        out_path = Path(paths["OUT"])
        written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        results.append((argv, rc, captured.out, captured.err, written))
    return results


def test_each_command_parses_as_the_top_level_parser_would(capsys, monkeypatch, tmp_path):
    """main parses with the named command's own sub-parser: exit codes,
    stdout, stderr and --out files are those of build_parser().parse_args."""
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help and usage text to the terminal
    monkeypatch.chdir(tmp_path)
    g = make_epr_state(SqueezingSpec(var_sqz_db=-11.1), ChannelParams())
    paths = {
        "CFG": write_config(tmp_path, {"source": {"var_sqz_db": -10.0}}),
        "DATA": str(tmp_path / "records.csv"),
        "STATE": str(tmp_path / "state.json"),
        "OUT": str(tmp_path / "out.txt"),
    }
    save_dataset(sample_homodyne(g, n_per_setting=2000, seed=5), paths["DATA"])
    Path(paths["STATE"]).write_text(json.dumps(covariance_to_json(g)), encoding="utf-8")

    own = _run_corpus(capsys, paths)
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    top_level = _run_corpus(capsys, paths)
    for mine, theirs in zip(own, top_level, strict=True):
        assert mine == theirs
    results = {tuple(argv): (rc, out, err) for argv, rc, out, err, _ in own}
    codes = {argv: rc for argv, (rc, _, _) in results.items()}
    assert codes[("simulate",)] == 0 and codes[("simulate", "-h")] == 0 and codes[()] == 1
    config, conf = (results[("simulate", flag, paths["CFG"])][:2] for flag in ("--config", "--conf"))
    assert config == conf and config[0] == 0 and config[1] != ""  # an abbreviated option reads as the full one
    assert sum(rc == 1 for rc in codes.values()) > 30
    assert sum(written is not None for *_, written in own) == 4
    for argv, message in [  # argparse's own messages for a left-over argument and a bad value
        (("simulate", "extra"), "cvqkd: error: unrecognized arguments: extra"),
        (("scan", "--sweep", "sqz_db", "--from", "0", "--to", "1", "--steps", "x"),
         "cvqkd scan: error: argument --steps: invalid int value: 'x'"),
    ]:
        rc, out, err = results[argv]
        assert (rc, out, err.splitlines()[-1]) == (1, "", message), err

def test_load_config_direct_error_type(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"analysis": {"n_samples": 0}}), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("module", ["cvqkd", "cvqkd.cli"])
def test_python_dash_m_entry_points(module):
    proc = run_module(module, "simulate")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["k_nominal"] == pytest.approx(K_DEFAULT, rel=1e-12)


def test_pump_model_divergence_exits_one_without_traceback(tmp_path):
    cfg = write_config(tmp_path, {"source": {"mode": "pump", "p_mw": 268.0, "k": 0.0}})
    proc = run_module("cvqkd", "simulate", "--config", cfg)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith("error: pump model diverges at threshold when k = 0\n")


def test_source_variance_beyond_the_float_range_exits_one_without_traceback(tmp_path):
    """A lone measured value just above epsilon infers r = 368, whose e^(2r)
    overflows: a typed error naming the figure, not an OverflowError."""
    doc = {"source": {"var_sqz_db": -3200}, "channel": {"epsilon": 0.0, "nu_a": 0.0, "nu_b": 0.0}}
    proc = run_module("cvqkd", "simulate", "--config", write_config(tmp_path, doc))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "error: var_sqz_db = -3200 dB under epsilon = 0.0 implies r = 368.414, which puts "
        "a source variance e^(-2r) or e^(2r) beyond the float range\n"
    ), proc.stderr


@pytest.mark.parametrize(
    "source",
    [{"var_sqz_db": -11.1}, {"var_sqz_db": -11.1, "var_asqz_db": 16.6}, {"mode": "pump", "p_mw": 240.0}],
    ids=["measured value", "measured pair", "pump"],
)
def test_arm_loss_below_epsilon_exits_one_without_traceback(tmp_path, source):
    """Every source goes through epsilon, so each rejects an arm loss below it."""
    cfg = write_config(tmp_path, {"source": source, "channel": {"nu_a": 0.01}})
    proc = run_module("cvqkd", "simulate", "--config", cfg)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith(
        "error: loss_a = 0.01 is smaller than the source-side epsilon = 0.059; "
        "the measured-input route needs at least that much total loss per arm\n"
    ), proc.stderr


@pytest.mark.parametrize("command", ["simulate", "sample"])
def test_pump_at_threshold_warns_once(tmp_path, command):
    """The pump model is evaluated once per state, so its warning prints once."""
    cfg = write_config(tmp_path, {"source": {"mode": "pump", "p_mw": 268.0}})
    proc = run_module("cvqkd", command, "--config", cfg, "--n", "10", "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("pump power 268.0 mW is at or above threshold") == 1, proc.stderr
    # the warning names the cli line that builds the state, never a line of noise.py
    warned = next(line for line in proc.stderr.splitlines() if "UserWarning" in line)
    assert Path(warned.split(":")[0]).resolve() == Path(cli.__file__).resolve(), proc.stderr
    assert "noise.py:" not in proc.stderr, proc.stderr


def test_pump_at_threshold_scan_warns_only_from_the_model(tmp_path):
    """scan reads its input column from the pump model without evaluating it
    a second time, so the threshold warning comes once, and it names the cli
    line that builds the row's state, as every source warning does."""
    cfg = write_config(tmp_path, {"source": {"mode": "pump", "p_mw": 268.0}})
    proc = run_module("cvqkd", "scan", "--config", cfg, "--sweep", "sigma", "--from", "0", "--to", "0.1", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    warned = [line for line in proc.stderr.splitlines() if "UserWarning" in line]
    assert len(warned) == 1, proc.stderr
    assert "pump power 268.0 mW is at or above threshold" in warned[0]
    filename, lineno = warned[0].split(":")[:2]
    assert Path(filename).resolve() == Path(cli.__file__).resolve(), proc.stderr
    assert "optical.append(_optical(spec, channel))" in linecache.getline(filename, int(lineno))
    assert len(proc.stdout.splitlines()) == 4


@pytest.mark.parametrize(
    "entries",
    [[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], {"a": 1}],
    ids=["ragged", "object"],
)
def test_analyze_entries_that_are_not_a_numeric_array_exit_one_without_traceback(tmp_path, entries):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"n_modes": 2, "entries": entries}), encoding="utf-8")
    proc = run_module("cvqkd", "analyze", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: covariance matrix entries are not a numeric array: "), proc.stderr


_IDENTITY = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"n_modes": 2, "entries": [["3", "0", "2.8", "0"], ["0", "3", "0", "-2.8"],
                                       ["2.8", "0", "3", "0"], ["0", "-2.8", "0", "3"]]},
            "covariance matrix entries are not a numeric array: '3' is not a JSON number",
        ),
        (
            {"n_modes": 2, "entries": [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
            "covariance matrix entries are not a numeric array: True is not a JSON number",
        ),
        (
            {"n_modes": True, "entries": [[True, False], [False, True]]},
            "covariance matrix entries are not a numeric array: True is not a JSON number",
        ),
        ({"n_modes": True, "entries": _IDENTITY}, "declared n_modes True does not match matrix of 2 modes"),
        ({"n_modes": "2", "entries": _IDENTITY}, "declared n_modes '2' does not match matrix of 2 modes"),
    ],
    ids=["string-entries", "boolean-entry", "boolean-document", "boolean-n-modes", "string-n-modes"],
)
def test_analyze_rejects_json_strings_and_booleans_without_traceback(tmp_path, doc, message):
    """numpy reads "3" as 3.0 and true as 1.0; a covariance document holds
    numbers only, so these exit 1 with a typed error."""
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_module("cvqkd", "analyze", "--worst-case", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n", proc.stderr


# ----------------------------------------------------------------- JSON output

_JSON_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308]
) | st.floats()
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**63, max_value=2**70) | _JSON_FLOATS | st.text()
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@example(
    doc={
        "floats": [math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308, np.float64(0.1)],
        "empty": {"list": [], "dict": {}, "tuple": ()},
        "ints": [2**64, -(2**70), True, False, None],
        "strings": ["\u00e9\u4e2d\U0001f600", "\x00\x1f\n\t\"\\/\u2028", ""],
        "\u00e9\x07key": [[[]], [{}]],
    }
)
@given(doc=_JSON_DOCS)
def test_json_writer_equals_the_stdlib_indented_encoder(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["simulate", "--worst-case"],
        ["simulate", "--config", {"source": {"mode": "pump", "p_mw": 240.0}}],
        ["analyze", "--worst-case", "records.csv"],
        ["analyze", "state.json"],
        ["reconstruct", "records.csv"],
    ],
    ids=["simulate", "simulate-worst-case", "simulate-pump", "analyze-csv", "analyze-json", "reconstruct"],
)
def test_json_outputs_are_the_stdlib_indented_encoding(capsys, tmp_path, argv):
    argv = [write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) and not os.path.isabs(a) else a for a in argv]
    run(capsys, "sample", "--config", write_config(tmp_path, NOISY, "noisy.json"), "--n", "3000", "--out", str(tmp_path / "records.csv"))
    simulated = json.loads(run(capsys, "simulate")[1])
    (tmp_path / "state.json").write_text(json.dumps(simulated["covariance"]), encoding="utf-8")
    rc, out, err = run(capsys, *argv)
    assert rc in (0, 2) and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _analyze_through_fifo(tmp_path, data: bytes, flags: list, timeout=60.0, apart=()):
    """(exit code, report or None) of analyze reading data from a named pipe
    that another thread writes; fails rather than hangs if analyze opens the
    pipe a second time. The chunks apart go first, each written on its own
    and followed by a pause, so that a read sees it alone."""
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    report = tmp_path / "fifo-report.json"
    result = {}

    def feed():
        try:
            with open(fifo, "wb", buffering=0) as fh:
                for chunk in apart:
                    fh.write(chunk)
                    time.sleep(0.2)
                fh.write(data)
        except BrokenPipeError:  # a reader that closed early; analyze then waits for a second writer
            pass

    def analyze():
        result["rc"] = main(["analyze", *flags, "--out", str(report), str(fifo)])

    threads = [threading.Thread(target=f, daemon=True) for f in (feed, analyze)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    if any(t.is_alive() for t in threads):
        # release a reader or writer still waiting, so that no thread outlives the test
        for mode in (os.O_WRONLY | os.O_NONBLOCK, os.O_RDONLY | os.O_NONBLOCK):
            try:
                os.close(os.open(fifo, mode))
            except OSError:
                pass
        pytest.fail("analyze through a pipe did not finish; the input was opened twice")
    return result["rc"], report.read_text(encoding="utf-8") if report.exists() else None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("kind", ["csv", "json"])
@pytest.mark.parametrize("flags", [[], ["--worst-case"]], ids=["nominal", "worst-case"])
def test_analyze_reads_a_pipe_as_it_reads_the_file(capsys, tmp_path, kind, flags):
    """One open stream: a dataset CSV, larger than a pipe holds, and a covariance
    JSON give the regular file's report and exit code through a named pipe."""
    path = tmp_path / f"input.{kind}"
    if kind == "csv":
        run(capsys, "sample", "--config", write_config(tmp_path, NOISY), "--n", "3000", "--out", str(path))
    else:
        run(capsys, "simulate", "--out", str(tmp_path / "simulate.json"))
        doc = json.loads((tmp_path / "simulate.json").read_text(encoding="utf-8"))
        path.write_text(json.dumps(doc["covariance"], indent=1), encoding="utf-8")
    report = tmp_path / "file-report.json"
    want_rc = main(["analyze", *flags, "--out", str(report), str(path)])
    assert want_rc in (0, 2)
    assert _analyze_through_fifo(tmp_path, path.read_bytes(), flags) == (want_rc, report.read_text(encoding="utf-8"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "kind, apart, error",
    [
        ("csv", [b"\n"], None),
        ("json", [b"\n"], None),
        ("json", [b" \r", b"\n\t", b"\r"], None),
        ("csv", [b"\r\n", b" \n"], "line 4: expected header"),
        ("json", [b"\r\n", b"\r"], "line 3 column 13 (char 14)"),
    ],
    ids=["csv", "json", "json-crlf", "csv-line-number", "json-position"],
)
def test_analyze_reads_past_leading_whitespace_sent_apart(capsys, tmp_path, kind, apart, error):
    """Whitespace a pipe sends before the rest, a write at a time, does not decide
    JSON or CSV: the pipe gives the report, exit code and error message of the
    regular file with the same bytes, line numbers and positions included."""
    if kind == "csv":
        run(capsys, "sample", "--config", write_config(tmp_path, NOISY), "--n", "3000", "--out", str(tmp_path / "r.csv"))
        body = (tmp_path / "r.csv").read_bytes()
        body = b"# note\nnot,a,header\n" + body if error else body
    else:
        doc = json.loads(run(capsys, "simulate")[1])["covariance"]
        body = b'{"entries": }' if error else json.dumps(doc, indent=1).encode()
    path = tmp_path / "input"
    path.write_bytes(b"".join(apart) + body)
    report = tmp_path / "file-report.json"
    want_rc = main(["analyze", "--out", str(report), str(path)])
    want_err = capsys.readouterr().err
    got_rc, got_report = _analyze_through_fifo(tmp_path, body, [], apart=apart)
    got_err = capsys.readouterr().err
    assert got_rc == want_rc
    assert got_err == want_err.replace(str(path), str(tmp_path / "input.fifo"))
    if error is None:
        assert want_rc in (0, 2) and want_err == ""
        assert got_report == report.read_text(encoding="utf-8")
    else:
        assert want_rc == 1 and error in want_err and got_report is None
