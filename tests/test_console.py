"""The console script end to end: each test runs `python -m cvqkd` in a fresh
process, as a shell would, and checks its exit code and what it prints."""

import csv
import io
import json
import math

import numpy as np
import pytest

from cvqkd import cli, make_epr_state, worst_case_key_rate
from cvqkd.keyrate import secret_key_rate
from cvqkd.tomography import (
    CANONICAL_SETTINGS,
    HomodyneDataset,
    load_dataset,
    marginal_covariance,
    reconstruct,
    save_dataset,
)

from conftest import NOISY, run_module, write_config


def test_scan_worst_cases_are_worst_case_key_rate_of_each_row():
    """scan rates every row's uncertainty box in one pass per chunk; each
    k_worst_case cell is worst_case_key_rate of the state that make_epr_state
    builds from the row's own config."""
    proc = run_module("cvqkd", "scan", "--sweep", "sqz_db", "--from", "4.5", "--to", "12", "--steps", "16", "--worst-case")
    assert proc.returncode == 0, proc.stderr
    cfg = cli.load_config()
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    grid = np.linspace(4.5, 12.0, 16).tolist()
    assert len(rows) == len(grid)
    for row, value in zip(rows, grid):
        point = dict(cfg, source={**cfg["source"], "mode": "measured", "var_sqz_db": -value, "var_asqz_db": None})
        want = f"{worst_case_key_rate(make_epr_state(*cli._resolve(point)), cfg['analysis']['n_samples']):.12g}"
        assert row["k_worst_case"] == want, (value, row["k_worst_case"], want)


@pytest.mark.parametrize("n", [None, 1, 100], ids=["default", "1", "100"])
def test_simulate_worst_case_is_worst_case_key_rate_to_the_bit(n):
    """simulate rates the box from its own nominal pass; its k_worst_case is
    worst_case_key_rate of the detected state, to the bit."""
    proc = run_module("cvqkd", "simulate", "--worst-case", *([] if n is None else ["--n", str(n)]))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    cfg = cli.load_config()
    n = cfg["analysis"]["n_samples"] if n is None else n
    g = make_epr_state(*cli._resolve(cfg))
    assert doc["covariance"]["entries"] == g.entries.tolist()
    assert doc["report"]["n_samples"] == n
    assert doc["report"]["k_worst_case"].hex() == worst_case_key_rate(g, n).hex()


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """(config, records) of `sample --n 16385 --seed 5` at the NOISY point:
    16385 records per setting cross two of the 8192-record blocks that sample
    draws and writes, and that analyze parses and sums, at a time."""
    tmp = tmp_path_factory.mktemp("streamed")
    cfg, data = write_config(tmp, NOISY), tmp / "records.csv"
    proc = run_module("cvqkd", "sample", "--config", cfg, "--n", "16385", "--seed", "5", "--out", str(data))
    assert proc.returncode == 0, proc.stderr
    return cfg, data


def test_streamed_sample_and_analyze_follow_the_library_route(streamed):
    """The CSV holds one (n, 2) draw per setting through save_dataset, and
    analyze reports what the library makes of the loaded dataset."""
    cfg, data = streamed
    proc = run_module("cvqkd", "analyze", "--config", cfg, "--worst-case", str(data))
    assert proc.returncode in (0, 2), proc.stderr
    g = make_epr_state(*cli._resolve(cli.load_config(cfg)))
    n, seed = 16385, 5
    draws = np.concatenate([
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,))).standard_normal((n, 2))
        @ np.linalg.cholesky(marginal_covariance(g, s)).T
        for i, s in enumerate(CANONICAL_SETTINGS)
    ])
    ids = np.repeat(np.arange(len(CANONICAL_SETTINGS)), n)
    want = io.StringIO()
    save_dataset(HomodyneDataset(CANONICAL_SETTINGS, ids, draws[:, 0], draws[:, 1]), want)
    assert data.read_text(encoding="utf-8") == want.getvalue(), "sample differs from one (n, 2) draw per setting"
    result = reconstruct(load_dataset(data))
    expected = secret_key_rate(result.gamma_hat, n_samples=result.n_min).as_dict()
    assert json.loads(proc.stdout) == json.loads(json.dumps(expected)), "analyze differs from the library route"


@pytest.mark.parametrize("command", [["analyze", "--worst-case"], ["reconstruct"]], ids=["analyze", "reconstruct"])
def test_comment_and_whitespace_only_lines_leave_the_report_unchanged(streamed, tmp_path, command):
    """numpy rejects the block holding a comment (block 2) and the one holding
    a whitespace-only last line; the line rules decide those blocks alone, and
    the report and exit code are the clean file's, byte for byte."""
    cfg, clean = streamed
    lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
    noted = tmp_path / "noted.csv"
    noted.write_text("".join(lines[:8299] + ["# note\n"] + lines[8299:]) + " \t\n", encoding="utf-8")
    want, got = (run_module("cvqkd", *command, "--config", cfg, str(path)) for path in (clean, noted))
    assert (want.stderr, got.stderr) == ("", "")
    assert (got.stdout, got.returncode) == (want.stdout, want.returncode)


@pytest.mark.parametrize(
    "source",
    [{"mode": "measured", "var_sqz_db": -11.1, "var_asqz_db": 16.6}, {"mode": "pump", "p_mw": 240.0}],
    ids=["measured pair", "pump"],
)
def test_detected_pair_and_pump_sources_rate_a_finite_key(tmp_path, source):
    proc = run_module("cvqkd", "simulate", "--config", write_config(tmp_path, {"source": source}))
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(json.loads(proc.stdout)["report"]["k_nominal"])


def test_analyze_reads_records_piped_to_stdin_as_it_reads_the_file(tmp_path):
    """analyze reads its input through one open stream, so records sent
    through a pipe give the file's report and exit code. The records are
    strongly mixed, so a 2000-record estimate stays physical and rates a
    worst case; no key survives at this point, so exit code 2 is as valid
    as 0."""
    cfg, data = write_config(tmp_path, NOISY), tmp_path / "records.csv"
    proc = run_module("cvqkd", "sample", "--config", cfg, "--n", "2000", "--seed", "1", "--out", str(data))
    assert proc.returncode == 0, proc.stderr
    from_file = run_module("cvqkd", "analyze", "--config", cfg, "--worst-case", str(data))
    assert from_file.returncode in (0, 2), from_file.stderr
    assert json.loads(from_file.stdout)["k_worst_case"] is not None
    from_pipe = run_module("cvqkd", "analyze", "--config", cfg, "--worst-case", "/dev/stdin", input=data.read_text(encoding="utf-8"))
    assert (from_pipe.stdout, from_pipe.returncode) == (from_file.stdout, from_file.returncode), from_pipe.stderr
