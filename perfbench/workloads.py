"""Seeded inputs, operation streams and output checks for each workload.

A workload turns ``--seed`` into config JSON files in a scratch directory
and an endless stream of ``cvqkd`` command lines over them; the program
sees nothing else. Every operation carries the check its output must
pass. The checks compare outputs with each other, not with today's
numbers, so a physics fix that moves ``k_nominal`` keeps them valid.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from cvqkd import cli

#: the three parameter sweeps of the README, as (sweep, from, to, steps)
README_SWEEPS = (("sqz_db", 4.5, 12.0, 16), ("nu_b", 0.0, 0.3, 13), ("sigma", 0.0, 0.2, 11))

#: source-side loss of the default config; arm losses may not go below it
EPSILON = 0.059

#: k_nominal of analyze may differ from simulate's by this many times the
#: finite-statistics margin k_nominal - k_worst_case that analyze reports.
#: Each of the ten estimated entries has a standard error of about
#: sqrt(2) times the relative 1/sqrt(N) half-width of the worst-case box,
#: and the box minimum adds the ten first-order effects in the worst
#: direction while random errors add in quadrature, so one standard error
#: of k_nominal is at most sqrt(2) times the margin; 8 margins is more than
#: five standard errors.
K_AGREEMENT_MARGINS = 8.0


@dataclass
class Op:
    """One cvqkd command line and what its output must satisfy."""

    kind: str
    argv: list
    items: int
    check: object  # check(code, stdout_text) -> error message or None; None: no check
    out_path: Path | None = None
    expect_ok: bool = True


@dataclass
class Workload:
    warmup: list  # argv lists run once before timing
    ops: object  # iterator of Op
    provenance: dict = field(default_factory=dict)


# -- operating points ------------------------------------------------------


def _near_default(rng: random.Random) -> dict:
    """A point around the paper's operating point; its key is positive."""
    d = rng.uniform(0.0, 0.02)
    s = rng.uniform(0.0, 0.03)
    return _config(rng.uniform(9.0, 12.0), rng.uniform(EPSILON, 0.12), rng.uniform(EPSILON, 0.12), d, s)


def _full_range(rng: random.Random) -> dict:
    """A point anywhere in the modeled ranges; most have no key."""
    d = rng.uniform(0.0, 0.05)
    s = rng.uniform(0.0, 0.15)
    return _config(rng.uniform(4.5, 12.0), rng.uniform(EPSILON, 0.3), rng.uniform(EPSILON, 0.3), d, s)


def _noisy(rng: random.Random) -> dict:
    """A strongly mixed point whose sampled estimate stays physical.

    Near the paper's operating point the smallest symplectic eigenvalue is
    1 + delta, about 1.015, and a covariance estimated from 2e4 to 2e5
    records per setting is then often unphysical, which analyze rejects.
    Detection noise of 0.2-0.3 keeps that eigenvalue above 1.2, so even
    the 2000 records per setting of the warm-up and smoke runs give a
    physical estimate; no key survives (exit code 2).
    """
    d = rng.uniform(0.2, 0.3)
    s = rng.uniform(0.1, 0.15)
    return _config(rng.uniform(4.5, 7.0), rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3), d, s)


def _config(sqz_db, nu_a, nu_b, delta, sigma) -> dict:
    return {
        "source": {"mode": "measured", "var_sqz_db": -sqz_db},
        "channel": {
            "nu_a": nu_a,
            "nu_b": nu_b,
            "delta_a": delta,
            "delta_b": delta,
            "sigma_a": sigma,
            "sigma_b": sigma,
        },
    }


def _write_configs(configs, workdir: Path) -> list:
    paths = []
    for i, cfg in enumerate(configs):
        path = workdir / f"config-{i:03d}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


# -- output checks -----------------------------------------------------------


def _check_rates(report: dict, code: int) -> str | None:
    wc = report["k_worst_case"]
    if wc is not None and wc > report["k_nominal"] + 1e-12:
        return f"k_worst_case {wc} > k_nominal {report['k_nominal']}"
    want = 2 if report["k_nominal"] <= 0.0 else 0
    if code != want:
        return f"exit code {code} for k_nominal {report['k_nominal']}, expected {want}"
    return None


def check_simulate(worst_case: bool):
    def check(code, text):
        report = json.loads(text)["report"]
        if worst_case and report["k_worst_case"] is None:
            return "k_worst_case missing"
        # the modeled states are in standard form, where the invariant
        # formula for mi is the better of the two quadrature oracles
        if abs(report["mi"] - max(report["mi_x"], report["mi_p"])) > 1e-9:
            return f"mi {report['mi']} != max(mi_x, mi_p) {max(report['mi_x'], report['mi_p'])}"
        return _check_rates(report, code)

    return check


def check_scan(steps: int, worst_case: bool):
    columns = cli.SCAN_COLUMNS
    k_nom = columns.index("k_nominal")
    k_wc = columns.index("k_worst_case")

    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        if tuple(lines[0].split(",")) != columns:
            return f"header {lines[0]!r}"
        if len(lines) - 1 != steps:
            return f"{len(lines) - 1} rows for {steps} steps"
        for row in lines[1:]:
            cells = row.split(",")
            if len(cells) != len(columns):
                return f"row {row!r} has {len(cells)} cells"
            if (cells[k_wc] != "") != worst_case:
                return f"k_worst_case cell {cells[k_wc]!r} in row {row!r}"
            values = [float(c) for c in cells if c != ""]
            if not all(math.isfinite(v) for v in values):
                return f"non-finite cell in row {row!r}"
            if worst_case and float(cells[k_wc]) > float(cells[k_nom]):
                return f"k_worst_case > k_nominal in row {row!r}"
        return None

    return check


def check_sample(path: Path, records: int):
    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        with open(path, "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        # two calibration comments and the header precede the records
        if lines - 3 != records:
            return f"{lines - 3} records in {path.name}, expected {records}"
        return None

    return check


def check_analyze(n: int, k_reference: float):
    def check(code, text):
        report = json.loads(text)
        if report["n_samples"] != n:
            return f"n_samples {report['n_samples']} != N {n}"
        error = _check_rates(report, code)
        if error is not None:
            return error
        tolerance = K_AGREEMENT_MARGINS * (report["k_nominal"] - report["k_worst_case"])
        if abs(report["k_nominal"] - k_reference) > tolerance:
            return (
                f"k_nominal {report['k_nominal']} differs from simulate's {k_reference} "
                f"by more than {tolerance:.3g}"
            )
        return None

    return check


# -- workloads ---------------------------------------------------------------


def model_worst_case(seed: int, workdir: Path, smoke: bool) -> Workload:
    """simulate --worst-case at seeded points plus the README sweeps."""
    return _model(seed, workdir, smoke, worst_case=True)


def model_nominal(seed: int, workdir: Path, smoke: bool) -> Workload:
    """simulate at seeded points plus dense nominal sweeps, no corners."""
    return _model(seed, workdir, smoke, worst_case=False)


def _model(seed, workdir, smoke, worst_case) -> Workload:
    rng = random.Random(seed)
    n_points = 4 if smoke else 64
    configs = [_near_default(rng) if i % 2 == 0 else _full_range(rng) for i in range(n_points)]
    paths = _write_configs(configs, workdir)
    if worst_case:
        sweeps = [(s, a, b, 4 if smoke else k) for s, a, b, k in README_SWEEPS]
        sims_between_scans = 2 if smoke else 10
    else:
        sweeps = [(s, a, b, 8 if smoke else 2000) for s, a, b, _ in README_SWEEPS]
        sims_between_scans = 2 if smoke else 40
    flag = ["--worst-case"] if worst_case else []

    def ops():
        configs_cycle = itertools.cycle(paths)
        for sweep, start, stop, steps in sweeps if smoke else itertools.cycle(sweeps):
            for _ in range(sims_between_scans):
                path = next(configs_cycle)
                yield Op("simulate", ["simulate", "--config", str(path), *flag], 1, check_simulate(worst_case))
            argv = ["scan", "--sweep", sweep, "--from", repr(start), "--to", repr(stop), "--steps", str(steps)]
            yield Op("scan", argv + flag, steps, check_scan(steps, worst_case))

    return Workload(
        warmup=[["simulate", "--config", str(paths[0]), *flag]],
        ops=ops(),
        provenance={
            "operating_points": n_points,
            "simulate_per_scan": sims_between_scans,
            "scan_steps": {s: k for s, _, _, k in sweeps},
            "n_samples": cli.DEFAULT_CONFIG["analysis"]["n_samples"],
            "input_bytes": sum(p.stat().st_size for p in paths),
        },
    )


def records_roundtrip(seed: int, workdir: Path, smoke: bool) -> Workload:
    """sample N records per setting to CSV, then analyze --worst-case it."""
    rng = random.Random(seed)
    n = 2000 if smoke else 30000
    paths = _write_configs([_noisy(rng) for _ in range(4)], workdir)
    references = []
    for path in paths:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["simulate", "--config", str(path)])
        references.append(json.loads(buf.getvalue())["report"]["k_nominal"])
    records = 5 * n
    csv_path = workdir / "records.csv"

    def ops():
        for trip in itertools.count():
            k = trip % len(paths)
            cfg = ["--config", str(paths[k])]
            sample_seed = str(seed * 100003 + trip)
            yield Op(
                "sample",
                ["sample", *cfg, "--n", str(n), "--seed", sample_seed, "--out", str(csv_path)],
                records,
                check_sample(csv_path, records),
                out_path=csv_path,
            )
            yield Op("analyze", ["analyze", *cfg, "--worst-case", str(csv_path)], records, check_analyze(n, references[k]))
            if smoke and trip == len(paths) - 1:
                # cut right after a comma, so the last record is short a field
                truncated = workdir / "truncated.csv"
                data = csv_path.read_bytes()
                truncated.write_bytes(data[: data.rindex(b",", 0, len(data) // 2) + 1])
                yield Op("analyze", ["analyze", *cfg, str(truncated)], records, None, expect_ok=False)
                return

    return Workload(
        warmup=[
            ["sample", "--config", str(paths[0]), "--n", "2000", "--out", str(workdir / "warmup.csv")],
            ["analyze", "--config", str(paths[0]), "--worst-case", str(workdir / "warmup.csv")],
        ],
        ops=ops(),
        provenance={
            "n_per_setting": n,
            "settings": 5,
            "records_per_file": records,
            "k_agreement_margins": K_AGREEMENT_MARGINS,
            "input_bytes": sum(p.stat().st_size for p in paths),
        },
    )


WORKLOADS = {
    "model-worst-case": model_worst_case,
    "model-nominal": model_nominal,
    "records-roundtrip": records_roundtrip,
}
