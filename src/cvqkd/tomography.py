"""Synthetic homodyne records and covariance reconstruction.

A two-mode covariance matrix has 10 independent entries, but each joint
homodyne setting (theta_a, theta_b) only exposes three second moments: the
two rotated-quadrature variances and their cross covariance. The partial
tomographic protocol here measures five settings,

    (0, 0), (90, 90), (0, 90), (90, 0), (45, 45),

which determine all 10 entries with 5 of their 15 moments to spare.

Every dataset is reconstructed by one least-squares solve of the
rotated-moment equations: each setting gives var_a, var_b and cov as linear
functions of the 10 entries. When the dataset declares all five canonical
settings, only their equations enter, and five of the 15 are held out: the
repeat variances of (0, 90) and (90, 0), and the (45, 45) cross covariance,
which the fitted matrix predicts and which is reported as a self-test. The
remaining 10 equations fix the entries exactly; the intra-mode covariance
Cov(X, P), for instance, is Var(X(45)) - (Var X + Var P)/2. Standard errors
are the solve's first-order propagation of each moment's standard error.
Any other setting list enters in full and must determine all 10 entries.

Datasets carry a vacuum calibration variance per detector; raw samples are
divided by its square root before moment estimation, so synthetic data uses
calibration 1. First moments are always subtracted, which costs nothing for
the zero-mean model and guards ingested real data against offsets.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CalibrationError,
    DatasetParseError,
    EmptyDatasetError,
    InvalidArgumentError,
    InvalidStateError,
    ProtocolIncompleteError,
)
from .gaussian import CovarianceMatrix, _require_two_modes, covariance

#: angle tolerance (degrees) when matching a setting against the canonical list
ANGLE_TOL = 1e-9

#: the largest array numpy can allocate, in bytes
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max

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
    positive and finite by the time the dataset is reconstructed.
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
    predicted by the fit, and its standard error); they are None unless the
    dataset declares all five canonical settings.
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
    samples are already in vacuum units. A count too large for a numpy
    array, or for memory, raises InvalidArgumentError; a setting whose
    marginal covariance is not positive definite, InvalidStateError.
    """
    _require_two_modes(g)
    settings = tuple(settings)
    if not settings:
        raise InvalidArgumentError("at least one measurement setting is required")
    if n_per_setting < 2:
        raise InvalidArgumentError(f"n_per_setting must be at least 2, got {n_per_setting}")
    # numpy sizes an array in bytes by a signed pointer-sized integer; the
    # largest arrays here are one setting's (n, 2) draws and the columns
    # of all settings, 8 bytes an entry
    if n_per_setting > min(_MAX_ARRAY_BYTES // 16, _MAX_ARRAY_BYTES // (8 * len(settings))):
        raise InvalidArgumentError(
            f"n_per_setting = {n_per_setting} over {len(settings)} settings is more records "
            "than a numpy array can hold"
        )
    ids = []
    cols_a = []
    cols_b = []
    try:
        for idx, s in enumerate(settings):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
            try:
                chol = np.linalg.cholesky(marginal_covariance(g, s))
            except np.linalg.LinAlgError as exc:
                raise InvalidStateError(
                    f"marginal covariance of setting {_fmt_setting(s)} is not positive definite"
                ) from exc
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
    except MemoryError as exc:
        raise InvalidArgumentError(
            f"n_per_setting = {n_per_setting} over {len(settings)} settings does not fit in memory"
        ) from exc


def reconstruct(ds: HomodyneDataset) -> ReconstructionResult:
    """Covariance matrix estimate from a homodyne dataset.

    One unweighted least-squares solve of the rotated-moment equations. A
    dataset that declares all five canonical settings is fitted from 10 of
    their 15 moments; other declared settings are ignored, and the
    redundant (45, 45) cross moment is checked against the fit, with a
    warning beyond 5 standard errors. Any other setting list is fitted from
    all its moments and must determine all 10 entries. Moments or fitted
    values that overflow the float range raise InvalidArgumentError.
    """
    if not (0.0 < ds.calib_a < math.inf and 0.0 < ds.calib_b < math.inf):
        raise CalibrationError(
            f"vacuum calibration variances must be positive and finite, got calib_a={ds.calib_a}, calib_b={ds.calib_b}"
        )
    stats = _per_setting_moments(ds)
    canonical_idx = _match_canonical(ds.settings)
    canonical = None not in canonical_idx
    if canonical:
        for want, i in zip(CANONICAL_SETTINGS, canonical_idx):
            if stats[i] is None:
                raise ProtocolIncompleteError(
                    f"dataset declares setting {_fmt_setting(want)} but has no records for it"
                )
        used = canonical_idx
    else:
        used = [i for i, m in enumerate(stats) if m is not None]
        if not used:
            raise ProtocolIncompleteError("dataset has no records")
    # shapes (settings, 3 moments, 10 unknowns), (settings, 3) and (settings, 3)
    design, values, errors = map(np.array, zip(*(_moment_equations(ds.settings[i], stats[i]) for i in used)))
    fit = np.ones(values.shape, dtype=bool)
    if canonical:
        fit[tuple(zip(*_HELD_OUT))] = False
    if np.linalg.matrix_rank(design[fit]) < 10:
        missing = [_fmt_setting(c) for c, i in zip(CANONICAL_SETTINGS, canonical_idx) if i is None]
        raise ProtocolIncompleteError(
            "measurement settings do not determine all 10 covariance entries; "
            f"missing canonical settings: {', '.join(missing) if missing else 'none'}"
        )
    solution, *_ = np.linalg.lstsq(design[fit], values[fit], rcond=None)
    # first-order error propagation, one independent error per fitted equation
    with np.errstate(over="ignore", invalid="ignore"):  # squares of moments near the float maximum
        param_se = np.sqrt(np.linalg.pinv(design[fit]) ** 2 @ errors[fit] ** 2)
    if not (np.isfinite(solution).all() and np.isfinite(param_se).all()):
        raise InvalidArgumentError(
            "the fitted entries or their standard errors overflow the float range; "
            f"second moments reach {np.abs(values).max():.3g} in vacuum units"
        )
    gamma = np.zeros((4, 4))
    se = np.zeros((4, 4))
    rows, cols = zip(*_LSQ_POSITIONS)
    gamma[rows, cols] = gamma[cols, rows] = solution
    se[rows, cols] = se[cols, rows] = param_se
    cross_check = {}
    if canonical:
        check = _HELD_OUT[-1]
        measured, check_se = float(values[check]), float(errors[check])
        predicted = float(design[check] @ solution)
        if abs(measured - predicted) > 5.0 * check_se:
            warnings.warn(
                f"redundant (45, 45) cross moment {measured:.9g} deviates from the value "
                f"{predicted:.9g} predicted by the other settings by more than 5 standard errors",
                stacklevel=2,
            )
        cross_check = {
            "cross_check_measured": measured,
            "cross_check_predicted": predicted,
            "cross_check_std_error": check_se,
        }
    return ReconstructionResult(
        gamma_hat=covariance(gamma),
        std_errors=se,
        n_min=min(stats[i].n for i in used),
        **cross_check,
    )


def save_dataset(ds: HomodyneDataset, path) -> None:
    """Write a dataset as CSV with a calibration comment block.

    path may be a filesystem path or an open text stream. Floats are
    written in repr form, so a save/load round trip is lossless. Records
    are formatted a column chunk at a time: each setting's id and angle
    prefix once, the samples through repr of their Python floats.
    """
    if hasattr(path, "write"):
        _write_dataset(ds, path)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _write_dataset(ds, fh)


#: records formatted per write; bounds the text held in memory while saving
_WRITE_CHUNK = 8192


def _write_dataset(ds: HomodyneDataset, fh) -> None:
    fh.write(f"# calib_a={float(ds.calib_a)!r}\n")
    fh.write(f"# calib_b={float(ds.calib_b)!r}\n")
    fh.write(DATASET_HEADER + "\n")
    prefixes = [f"{i},{float(s.theta_a)!r},{float(s.theta_b)!r}" for i, s in enumerate(ds.settings)]
    for lo in range(0, ds.n_records, _WRITE_CHUNK):
        chunk = slice(lo, lo + _WRITE_CHUNK)
        rows = zip(
            map(prefixes.__getitem__, ds.setting_ids[chunk].tolist()),
            map(repr, ds.samples_a[chunk].tolist()),
            map(repr, ds.samples_b[chunk].tolist()),
        )
        fh.write("\n".join(map(",".join, rows)))
        fh.write("\n")


def load_dataset(path) -> HomodyneDataset:
    """Parse the CSV form written by save_dataset.

    Setting ids must be contiguous from 0 and consistent with their angle
    columns; malformed content raises DatasetParseError naming the line,
    and a file with no records raises EmptyDatasetError.

    The records are parsed in one numpy pass and checked by whole columns.
    That pass accepts a subset of the format: where numpy rejects a line or
    a column check fails, the file is read again one line at a time, and
    that reading decides, with the line-numbered error or with the dataset
    (numpy is stricter than the line rules about whitespace-only lines,
    comments among the records and digit separators; records with
    non-ASCII text go to the line loop unparsed).
    Both readings give bit-identical arrays. path must therefore name a
    file that can be read twice, not a pipe. A file that is not valid UTF-8
    raises DatasetParseError naming the first offending byte.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            ds = _load_dataset_columns(fh, path)
        return ds if ds is not None else _load_dataset_lines(path)
    except UnicodeDecodeError as exc:
        raise _utf8_error(path) from exc


def _utf8_error(path) -> DatasetParseError:
    """DatasetParseError at the first byte of path that does not decode as UTF-8."""
    offset = 0
    with open(path, "rb") as fh:
        # a newline byte never occurs inside a multi-byte UTF-8 sequence
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DatasetParseError(
                    f"{path}: byte {offset + exc.start} (line {lineno}) is not valid UTF-8", line=lineno
                )
            offset += len(raw)
    return DatasetParseError(f"{path}: not valid UTF-8")


#: one dataset record, as np.loadtxt parses it
_RECORD_DTYPE = np.dtype(
    [
        ("setting_id", np.int64),
        ("theta_a", np.float64),
        ("theta_b", np.float64),
        ("sample_a", np.float64),
        ("sample_b", np.float64),
    ]
)

#: characters of record text screened by _numpy_readable at a time
_READ_BATCH = 1 << 16

#: ASCII separators numpy's number parser strips as whitespace and float() rejects
_INFO_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _load_dataset_columns(fh, path) -> HomodyneDataset | None:
    """The dataset from one np.loadtxt pass, or None where the line loop must decide."""
    lines = enumerate(fh, start=1)
    calib = _read_preamble(lines, path)
    # np.loadtxt skips empty lines, and warns when it finds nothing else
    first = next((raw for _, raw in lines if raw != "\n"), None)
    if first is None:
        return None
    batches = itertools.chain([[first]], iter(functools.partial(fh.readlines, _READ_BATCH), []))
    try:
        rec = np.loadtxt(
            itertools.chain.from_iterable(map(_numpy_readable, batches)),
            dtype=_RECORD_DTYPE,
            delimiter=",",
            comments=None,
            ndmin=1,
        )
    except ValueError:
        return None
    ids, ta, tb = rec["setting_id"], rec["theta_a"], rec["theta_b"]
    if not all(np.isfinite(rec[name]).all() for name in _RECORD_DTYPE.names[1:]):
        return None
    # a record may name any id seen before it, or the next new one
    seen = np.concatenate(([-1], np.maximum.accumulate(ids)[:-1]))
    if ids.min() < 0 or (ids > seen + 1).any():
        return None
    first_use = np.flatnonzero(ids > seen)
    if not ((ta == ta[first_use][ids]).all() and (tb == tb[first_use][ids]).all()):
        return None
    try:
        settings = tuple(map(MeasurementSetting, ta[first_use].tolist(), tb[first_use].tolist()))
    except InvalidArgumentError:
        return None
    return HomodyneDataset(
        settings=settings,
        setting_ids=ids,
        samples_a=rec["sample_a"],
        samples_b=rec["sample_b"],
        calib_a=calib["calib_a"],
        calib_b=calib["calib_b"],
    )


def _numpy_readable(batch: list) -> list:
    """batch, if numpy reads its numbers as float() and int() do, else ValueError.

    numpy's parser strips the ASCII information separators around a number,
    which float() rejects, and reads non-ASCII numerals other than float()
    and int() do (DEVANAGARI DIGIT TWO as 2360, where int() reads 2).
    """
    text = "".join(batch)
    if not text.isascii() or any(c in text for c in _INFO_SEPARATORS):
        raise ValueError("non-ASCII or separator characters among the records")
    return batch


def _read_preamble(lines, path) -> dict:
    """Calibration from the blank and comment lines up to the header, which it consumes.

    lines yields (line number, raw line) pairs.
    """
    calib = {"calib_a": 1.0, "calib_b": 1.0}
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _parse_calibration_comment(line, lineno, calib, header_seen=False)
            continue
        if line != DATASET_HEADER:
            raise DatasetParseError(
                f"line {lineno}: expected header {DATASET_HEADER!r}, got {line!r}",
                line=lineno,
            )
        return calib
    raise EmptyDatasetError(f"{path}: no header found")


def _load_dataset_lines(path) -> HomodyneDataset:
    """load_dataset one line at a time: the statement of the format's rules and messages."""
    angles = {}
    ids = []
    arr_a = []
    arr_b = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        calib = _read_preamble(lines, path)
        for lineno, raw in lines:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                _parse_calibration_comment(line, lineno, calib, header_seen=True)
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
    """Mean-subtracted second moments per setting, in vacuum units. A setting whose
    moments overflow (a sample of 1e200, a calibration of 1e-320) is an InvalidArgumentError."""
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is judged per setting below
        norm_a = ds.samples_a / math.sqrt(ds.calib_a)
        norm_b = ds.samples_b / math.sqrt(ds.calib_b)
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
            m = _SettingMoments(
                n=n,
                var_a=float(da @ da) / (n - 1),
                var_b=float(db @ db) / (n - 1),
                cov=float(da @ db) / (n - 1),
            )
            if not all(map(math.isfinite, (m.var_a, m.var_b, m.cov))):
                raise InvalidArgumentError(
                    f"second moments of setting {idx} {_fmt_setting(ds.settings[idx])} overflow the float "
                    f"range; samples reach {max(abs(a).max(), abs(b).max()):.3g} in vacuum units"
                )
            out.append(m)
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


#: unknowns of the fit, as (row, col) positions in the covariance matrix
_LSQ_POSITIONS = ((0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3))

#: equations left out of the fit when all five canonical settings are declared, as
#: (canonical position, moment: 0 var_a, 1 var_b, 2 cov). The other 10 determine
#: the entries exactly. The repeat variances of (0, 90) and (90, 0) are dropped;
#: the (45, 45) cross moment, last, is the redundant-moment self-test.
_HELD_OUT = ((2, 0), (2, 1), (3, 0), (3, 1), (4, 2))


def _moment_equations(s: MeasurementSetting, m: _SettingMoments) -> tuple:
    """Design rows, measured values and standard errors of a setting's var_a, var_b and cov."""
    ca, sa = math.cos(math.radians(s.theta_a)), math.sin(math.radians(s.theta_a))
    cb, sb = math.cos(math.radians(s.theta_b)), math.sin(math.radians(s.theta_b))
    design = (
        (ca * ca, 2 * ca * sa, sa * sa, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, cb * cb, 2 * cb * sb, sb * sb, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, ca * cb, ca * sb, sa * cb, sa * sb),
    )
    values = (m.var_a, m.var_b, m.cov)
    errors = (
        m.var_a * math.sqrt(2.0 / m.n),
        m.var_b * math.sqrt(2.0 / m.n),
        math.sqrt((m.var_a * m.var_b + m.cov * m.cov) / m.n),
    )
    return design, values, errors


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


def _fmt_setting(s: MeasurementSetting) -> str:
    return f"(theta_a={s.theta_a:g}, theta_b={s.theta_b:g})"
