"""Synthetic homodyne records and covariance reconstruction.

A two-mode covariance matrix has 10 independent entries, but each joint
homodyne setting (theta_a, theta_b) only exposes three second moments: the
two rotated-quadrature variances and their cross covariance. The partial
tomographic protocol here measures five settings,

    (0, 0), (90, 90), (0, 90), (90, 0), (45, 45),

which determine all 10 entries with one redundant moment left over: the
(45, 45) cross covariance is predictable from the other settings and is
reported as a self-test. The intra-mode covariances Cov(X, P) come from the
45-degree variances via Cov(X, P) = Var(X(45)) - (Var X + Var P)/2.

Datasets carry a vacuum calibration variance per detector; raw samples are
divided by its square root before moment estimation, so synthetic data uses
calibration 1. First moments are always subtracted, which costs nothing for
the zero-mean model and guards ingested real data against offsets.

Datasets with a different, non-canonical setting list are reconstructed by
solving the linear system of rotated second moments, provided the settings
determine all 10 entries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CalibrationError,
    DatasetParseError,
    EmptyDatasetError,
    InvalidArgumentError,
    ProtocolIncompleteError,
)
from .gaussian import CovarianceMatrix, _require_two_modes, covariance

#: angle tolerance (degrees) when matching a setting against the canonical list
ANGLE_TOL = 1e-9

DATASET_HEADER = "setting_id,theta_a_deg,theta_b_deg,sample_a,sample_b"


@dataclass(frozen=True)
class MeasurementSetting:
    """Joint homodyne setting: quadrature angles in degrees, 0 = X, 90 = P."""

    theta_a: float
    theta_b: float

    def __post_init__(self):
        for name, v in (("theta_a", self.theta_a), ("theta_b", self.theta_b)):
            if not (0.0 <= v < 180.0):
                raise InvalidArgumentError(f"{name} must lie in [0, 180) degrees, got {v}")


CANONICAL_SETTINGS = (
    MeasurementSetting(0.0, 0.0),
    MeasurementSetting(90.0, 90.0),
    MeasurementSetting(0.0, 90.0),
    MeasurementSetting(90.0, 0.0),
    MeasurementSetting(45.0, 45.0),
)


@dataclass(frozen=True, eq=False)
class HomodyneDataset:
    """Joint homodyne records grouped by measurement setting.

    setting_ids[i] names the setting of record i as an index into settings.
    calib_a and calib_b are the vacuum variances of the two detectors in
    raw units (1.0 for synthetic, already-normalized data); they must be
    positive by the time the dataset is reconstructed.
    """

    settings: tuple
    setting_ids: np.ndarray
    samples_a: np.ndarray
    samples_b: np.ndarray
    calib_a: float = 1.0
    calib_b: float = 1.0

    def __post_init__(self):
        ids = np.asarray(self.setting_ids, dtype=int)
        sa = np.asarray(self.samples_a, dtype=float)
        sb = np.asarray(self.samples_b, dtype=float)
        if not (ids.shape == sa.shape == sb.shape) or ids.ndim != 1:
            raise InvalidArgumentError("setting_ids, samples_a, samples_b must be 1-D of equal length")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.settings)):
            raise InvalidArgumentError(
                f"record references setting id {int(ids[(ids < 0) | (ids >= len(self.settings))][0])}, "
                f"but only {len(self.settings)} settings are declared"
            )
        object.__setattr__(self, "setting_ids", ids)
        object.__setattr__(self, "samples_a", sa)
        object.__setattr__(self, "samples_b", sb)

    @property
    def n_records(self) -> int:
        return int(self.setting_ids.size)

    @property
    def n_per_setting(self) -> np.ndarray:
        """Record count per declared setting, in setting order."""
        return np.bincount(self.setting_ids, minlength=len(self.settings))


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Reconstructed covariance matrix with per-entry standard errors.

    n_min is the smallest per-setting sample count among the settings used,
    the N that feeds the finite-statistics worst-case key rate. The
    cross_check_* fields hold the redundant (45, 45) cross moment (measured,
    predicted from the other settings, and its standard error); they are
    None when reconstruction went through the generic least-squares path.
    """

    gamma_hat: CovarianceMatrix
    std_errors: np.ndarray
    n_min: int
    cross_check_measured: float | None = None
    cross_check_predicted: float | None = None
    cross_check_std_error: float | None = None

    @property
    def cross_check_ok(self) -> bool | None:
        """Whether the redundant moment agrees within 5 standard errors."""
        if self.cross_check_measured is None:
            return None
        return bool(
            abs(self.cross_check_measured - self.cross_check_predicted)
            <= 5.0 * self.cross_check_std_error
        )


def marginal_covariance(g: CovarianceMatrix, s: MeasurementSetting) -> np.ndarray:
    """2x2 covariance of the rotated pair (X_A(theta_a), X_B(theta_b)).

    X(theta) = X cos(theta) + P sin(theta) per mode, angles in degrees.
    """
    _require_two_modes(g)
    ta, tb = math.radians(s.theta_a), math.radians(s.theta_b)
    proj = np.array(
        [
            [math.cos(ta), math.sin(ta), 0.0, 0.0],
            [0.0, 0.0, math.cos(tb), math.sin(tb)],
        ]
    )
    return proj @ g.entries @ proj.T


def sample_homodyne(
    g: CovarianceMatrix,
    settings=CANONICAL_SETTINGS,
    n_per_setting: int = 10**6,
    seed: int = 0,
) -> HomodyneDataset:
    """Synthetic joint homodyne records for each setting.

    Draws n_per_setting independent samples from the zero-mean bivariate
    Gaussian with the setting's marginal covariance. Deterministic for a
    given seed; each setting uses an independent child stream spawned from
    the master seed (spawn key = setting index), so settings could be
    sampled in parallel without changing the data. Calibration is 1.0, the
    samples are already in vacuum units.
    """
    _require_two_modes(g)
    settings = tuple(settings)
    if not settings:
        raise InvalidArgumentError("at least one measurement setting is required")
    if n_per_setting < 2:
        raise InvalidArgumentError(f"n_per_setting must be at least 2, got {n_per_setting}")
    ids = []
    cols_a = []
    cols_b = []
    for idx, s in enumerate(settings):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        chol = np.linalg.cholesky(marginal_covariance(g, s))
        draws = rng.standard_normal((n_per_setting, 2)) @ chol.T
        ids.append(np.full(n_per_setting, idx, dtype=int))
        cols_a.append(draws[:, 0])
        cols_b.append(draws[:, 1])
    return HomodyneDataset(
        settings=settings,
        setting_ids=np.concatenate(ids),
        samples_a=np.concatenate(cols_a),
        samples_b=np.concatenate(cols_b),
    )


def reconstruct(ds: HomodyneDataset) -> ReconstructionResult:
    """Covariance matrix estimate from a homodyne dataset.

    Uses the five-setting canonical assembly when the dataset declares all
    canonical settings, including the redundant-moment self-test; any other
    setting list falls back to an unweighted least-squares solve of the
    rotated-moment equations and must still determine all 10 entries.
    """
    if ds.calib_a <= 0.0 or ds.calib_b <= 0.0:
        raise CalibrationError(
            f"vacuum calibration variances must be positive, got calib_a={ds.calib_a}, calib_b={ds.calib_b}"
        )
    stats = _per_setting_moments(ds)
    canonical_idx = _match_canonical(ds.settings)
    if None not in canonical_idx:
        return _reconstruct_canonical(stats, canonical_idx)
    return _reconstruct_least_squares(ds.settings, stats)


def save_dataset(ds: HomodyneDataset, path) -> None:
    """Write a dataset as CSV with a calibration comment block.

    path may be a filesystem path or an open text stream. Floats are
    written in repr form, so a save/load round trip is lossless.
    """
    if hasattr(path, "write"):
        _write_dataset(ds, path)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _write_dataset(ds, fh)


def _write_dataset(ds: HomodyneDataset, fh) -> None:
    fh.write(f"# calib_a={float(ds.calib_a)!r}\n")
    fh.write(f"# calib_b={float(ds.calib_b)!r}\n")
    fh.write(DATASET_HEADER + "\n")
    for sid, a, b in zip(ds.setting_ids, ds.samples_a, ds.samples_b):
        s = ds.settings[sid]
        fh.write(f"{int(sid)},{float(s.theta_a)!r},{float(s.theta_b)!r},{float(a)!r},{float(b)!r}\n")


def load_dataset(path) -> HomodyneDataset:
    """Parse the CSV form written by save_dataset.

    Setting ids must be contiguous from 0 and consistent with their angle
    columns; malformed content raises DatasetParseError naming the line,
    and a file with no records raises EmptyDatasetError.
    """
    calib = {"calib_a": 1.0, "calib_b": 1.0}
    header_seen = False
    angles = {}
    ids = []
    arr_a = []
    arr_b = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                _parse_calibration_comment(line, lineno, calib, header_seen)
                continue
            if not header_seen:
                if line != DATASET_HEADER:
                    raise DatasetParseError(
                        f"line {lineno}: expected header {DATASET_HEADER!r}, got {line!r}",
                        line=lineno,
                    )
                header_seen = True
                continue
            fields = line.split(",")
            if len(fields) != 5:
                raise DatasetParseError(
                    f"line {lineno}: expected 5 comma-separated fields, got {len(fields)}",
                    line=lineno,
                )
            try:
                sid = int(fields[0])
                ta, tb, a, b = (float(v) for v in fields[1:])
            except ValueError as exc:
                raise DatasetParseError(f"line {lineno}: {exc}", line=lineno) from exc
            if not all(math.isfinite(v) for v in (ta, tb, a, b)):
                raise DatasetParseError(f"line {lineno}: non-finite value", line=lineno)
            if sid < 0 or sid > len(angles):
                raise DatasetParseError(
                    f"line {lineno}: unknown setting id {sid} (ids must be contiguous from 0)",
                    line=lineno,
                )
            if sid == len(angles):
                try:
                    MeasurementSetting(ta, tb)
                except InvalidArgumentError as exc:
                    raise DatasetParseError(f"line {lineno}: {exc}", line=lineno) from exc
                angles[sid] = (ta, tb, lineno)
            elif (ta, tb) != angles[sid][:2]:
                raise DatasetParseError(
                    f"line {lineno}: setting id {sid} redeclared with angles ({ta}, {tb}), "
                    f"first declared as {angles[sid][:2]} on line {angles[sid][2]}",
                    line=lineno,
                )
            ids.append(sid)
            arr_a.append(a)
            arr_b.append(b)
    if not header_seen:
        raise EmptyDatasetError(f"{path}: no header found")
    if not ids:
        raise EmptyDatasetError(f"{path}: header but no records")
    settings = tuple(MeasurementSetting(*angles[i][:2]) for i in range(len(angles)))
    return HomodyneDataset(
        settings=settings,
        setting_ids=np.array(ids, dtype=int),
        samples_a=np.array(arr_a, dtype=float),
        samples_b=np.array(arr_b, dtype=float),
        calib_a=calib["calib_a"],
        calib_b=calib["calib_b"],
    )


@dataclass(frozen=True)
class _SettingMoments:
    n: int
    var_a: float
    var_b: float
    cov: float


def _per_setting_moments(ds: HomodyneDataset) -> list:
    """Mean-subtracted second moments per setting, in vacuum units."""
    norm_a = ds.samples_a / math.sqrt(ds.calib_a)
    norm_b = ds.samples_b / math.sqrt(ds.calib_b)
    out = []
    for idx in range(len(ds.settings)):
        mask = ds.setting_ids == idx
        n = int(mask.sum())
        if n == 0:
            out.append(None)
            continue
        if n < 2:
            raise ProtocolIncompleteError(
                f"setting {idx} {_fmt_setting(ds.settings[idx])} has {n} record(s); "
                "at least 2 are needed to estimate moments"
            )
        a = norm_a[mask]
        b = norm_b[mask]
        da = a - a.mean()
        db = b - b.mean()
        out.append(
            _SettingMoments(
                n=n,
                var_a=float(da @ da) / (n - 1),
                var_b=float(db @ db) / (n - 1),
                cov=float(da @ db) / (n - 1),
            )
        )
    return out


def _match_canonical(settings) -> list:
    """Index of each of the five canonical settings within settings, None where absent."""
    idx = []
    for want in CANONICAL_SETTINGS:
        found = None
        for i, s in enumerate(settings):
            if abs(s.theta_a - want.theta_a) <= ANGLE_TOL and abs(s.theta_b - want.theta_b) <= ANGLE_TOL:
                found = i
                break
        idx.append(found)
    return idx


def _reconstruct_canonical(stats, canonical_idx) -> ReconstructionResult:
    used = []
    for pos, i in enumerate(canonical_idx):
        if stats[i] is None:
            raise ProtocolIncompleteError(
                f"dataset declares setting {_fmt_setting(CANONICAL_SETTINGS[pos])} but has no records for it"
            )
        used.append(stats[i])
    s_xx, s_pp, s_xp, s_px, s_45 = used
    gamma = np.zeros((4, 4))
    se = np.zeros((4, 4))
    gamma[0, 0], gamma[2, 2], gamma[0, 2] = s_xx.var_a, s_xx.var_b, s_xx.cov
    gamma[1, 1], gamma[3, 3], gamma[1, 3] = s_pp.var_a, s_pp.var_b, s_pp.cov
    gamma[0, 3] = s_xp.cov
    gamma[1, 2] = s_px.cov
    gamma[0, 1] = s_45.var_a - 0.5 * (gamma[0, 0] + gamma[1, 1])
    gamma[2, 3] = s_45.var_b - 0.5 * (gamma[2, 2] + gamma[3, 3])
    for i in range(4):
        se[i, i] = gamma[i, i] * math.sqrt(2.0 / used[_VAR_SOURCE[i]].n)
    se[0, 2] = _cov_se(s_xx.var_a, s_xx.var_b, s_xx.cov, s_xx.n)
    se[1, 3] = _cov_se(s_pp.var_a, s_pp.var_b, s_pp.cov, s_pp.n)
    se[0, 3] = _cov_se(s_xp.var_a, s_xp.var_b, s_xp.cov, s_xp.n)
    se[1, 2] = _cov_se(s_px.var_a, s_px.var_b, s_px.cov, s_px.n)
    se[0, 1] = _derived_intra_se(s_45.var_a, gamma[0, 0], gamma[1, 1], s_45.n, s_xx.n, s_pp.n)
    se[2, 3] = _derived_intra_se(s_45.var_b, gamma[2, 2], gamma[3, 3], s_45.n, s_xx.n, s_pp.n)
    gamma = gamma + np.triu(gamma, 1).T
    se = se + np.triu(se, 1).T
    predicted = 0.5 * (gamma[0, 2] + gamma[0, 3] + gamma[1, 2] + gamma[1, 3])
    measured = s_45.cov
    check_se = _cov_se(s_45.var_a, s_45.var_b, s_45.cov, s_45.n)
    if abs(measured - predicted) > 5.0 * check_se:
        warnings.warn(
            f"redundant (45, 45) cross moment {measured:.9g} deviates from the value "
            f"{predicted:.9g} predicted by the other settings by more than 5 standard errors",
            stacklevel=3,
        )
    return ReconstructionResult(
        gamma_hat=covariance(gamma),
        std_errors=se,
        n_min=min(m.n for m in used),
        cross_check_measured=measured,
        cross_check_predicted=predicted,
        cross_check_std_error=check_se,
    )


#: which canonical setting (index into the used list) measures each diagonal entry
_VAR_SOURCE = {0: 0, 1: 1, 2: 0, 3: 1}

#: unknown ordering for the least-squares path, as (row, col) matrix positions
_LSQ_POSITIONS = ((0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3))


def _reconstruct_least_squares(settings, stats) -> ReconstructionResult:
    rows = []
    values = []
    errors = []
    counts = []
    for s, m in zip(settings, stats):
        if m is None:
            continue
        counts.append(m.n)
        ca, sa = math.cos(math.radians(s.theta_a)), math.sin(math.radians(s.theta_a))
        cb, sb = math.cos(math.radians(s.theta_b)), math.sin(math.radians(s.theta_b))
        rows.append([ca * ca, 2 * ca * sa, sa * sa, 0, 0, 0, 0, 0, 0, 0])
        values.append(m.var_a)
        errors.append(m.var_a * math.sqrt(2.0 / m.n))
        rows.append([0, 0, 0, cb * cb, 2 * cb * sb, sb * sb, 0, 0, 0, 0])
        values.append(m.var_b)
        errors.append(m.var_b * math.sqrt(2.0 / m.n))
        rows.append([0, 0, 0, 0, 0, 0, ca * cb, ca * sb, sa * cb, sa * sb])
        values.append(m.cov)
        errors.append(_cov_se(m.var_a, m.var_b, m.cov, m.n))
    if not rows:
        raise ProtocolIncompleteError("dataset has no records")
    design = np.array(rows)
    if np.linalg.matrix_rank(design) < 10:
        missing = [_fmt_setting(c) for c, i in zip(CANONICAL_SETTINGS, _match_canonical(settings)) if i is None]
        raise ProtocolIncompleteError(
            "measurement settings do not determine all 10 covariance entries; "
            f"missing canonical settings: {', '.join(missing) if missing else 'none'}"
        )
    solution, *_ = np.linalg.lstsq(design, np.array(values), rcond=None)
    pseudo = np.linalg.pinv(design)
    param_cov = pseudo @ np.diag(np.array(errors) ** 2) @ pseudo.T
    param_se = np.sqrt(np.clip(np.diag(param_cov), 0.0, None))
    gamma = np.zeros((4, 4))
    se = np.zeros((4, 4))
    for value, err, (i, j) in zip(solution, param_se, _LSQ_POSITIONS):
        gamma[i, j] = gamma[j, i] = value
        se[i, j] = se[j, i] = err
    return ReconstructionResult(
        gamma_hat=covariance(gamma),
        std_errors=se,
        n_min=min(counts),
    )


def _parse_calibration_comment(line: str, lineno: int, calib: dict, header_seen: bool) -> None:
    body = line.lstrip("#").strip()
    for key in calib:
        if body.startswith(key + "="):
            if header_seen:
                raise DatasetParseError(
                    f"line {lineno}: calibration comment must precede the header", line=lineno
                )
            try:
                value = float(body[len(key) + 1 :])
            except ValueError as exc:
                raise DatasetParseError(f"line {lineno}: bad {key} value", line=lineno) from exc
            calib[key] = value
            return


def _cov_se(var_a: float, var_b: float, cov: float, n: int) -> float:
    return math.sqrt((var_a * var_b + cov * cov) / n)


def _derived_intra_se(var_45: float, var_x: float, var_p: float, n_45: int, n_x: int, n_p: int) -> float:
    return math.sqrt(
        2.0 * var_45 * var_45 / n_45
        + 0.25 * 2.0 * var_x * var_x / n_x
        + 0.25 * 2.0 * var_p * var_p / n_p
    )


def _fmt_setting(s: MeasurementSetting) -> str:
    return f"(theta_a={s.theta_a:g}, theta_b={s.theta_b:g})"
