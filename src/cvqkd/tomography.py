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

Records travel in blocks of _BLOCK: sampling draws them a block at a time,
the CSV writer formats and the CSV reader parses a block at a time, and the
moments are merged from per-block sums; the line rules read only a block
that numpy cannot. The command line streams a dataset through these blocks
without holding it, so `sample`, `analyze` and `reconstruct` run in memory
bounded in the record count; the library functions concatenate the same
blocks into a HomodyneDataset.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    CalibrationError,
    DatasetParseError,
    EmptyDatasetError,
    InvalidArgumentError,
    InvalidStateError,
    ProtocolIncompleteError,
    _warn,
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

    setting_ids[i] names the setting of record i as an index into settings;
    ids and samples must be finite, and ids whole (InvalidArgumentError).
    calib_a and calib_b are the vacuum variances of the two detectors in raw
    units (1.0 for synthetic, already-normalized data); they must be positive
    and finite by the time the dataset is reconstructed.
    """

    settings: tuple
    setting_ids: np.ndarray
    samples_a: np.ndarray
    samples_b: np.ndarray
    calib_a: float = 1.0
    calib_b: float = 1.0

    def __post_init__(self):
        ids = np.asarray(self.setting_ids)
        sa = np.asarray(self.samples_a, dtype=float)
        sb = np.asarray(self.samples_b, dtype=float)
        if not (ids.shape == sa.shape == sb.shape) or ids.ndim != 1:
            raise InvalidArgumentError("setting_ids, samples_a, samples_b must be 1-D of equal length")
        if ids.dtype.kind not in "biu":
            ids = np.asarray(ids, dtype=float)
        for name, column in (("setting_ids", ids), ("samples_a", sa), ("samples_b", sb)):
            if column.dtype.kind == "f":
                bad = ~np.isfinite(column)
                if name == "setting_ids":
                    bad |= column != np.trunc(column)
                if bad.any():
                    i = int(bad.argmax())
                    kind = "a finite integer" if name == "setting_ids" else "finite"
                    raise InvalidArgumentError(f"{name}[{i}] = {float(column[i])!r} is not {kind}")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.settings)):
            raise InvalidArgumentError(
                f"record references setting id {int(ids[(ids < 0) | (ids >= len(self.settings))][0])}, "
                f"but only {len(self.settings)} settings are declared"
            )
        object.__setattr__(self, "setting_ids", np.asarray(ids, dtype=int))
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

    The records are the blocks of _sample_blocks, concatenated: the block
    path that `cvqkd sample` streams to its CSV, so the command writes what
    save_dataset writes of this dataset.
    """
    settings = tuple(settings)
    blocks = _sample_blocks(g, settings, n_per_setting, seed)
    try:
        ids, samples_a, samples_b = (np.concatenate(column) for column in zip(*blocks))
    except MemoryError as exc:
        raise InvalidArgumentError(
            f"n_per_setting = {n_per_setting} over {len(settings)} settings does not fit in memory"
        ) from exc
    return HomodyneDataset(settings=settings, setting_ids=ids, samples_a=samples_a, samples_b=samples_b)


#: records per block: sampling draws, the CSV writer formats, the CSV reader
#: parses and the moment sums fold this many records at a time, which bounds
#: the memory of `cvqkd sample`, `analyze` and `reconstruct` in the record count
_BLOCK = 8192


def _sample_blocks(g: CovarianceMatrix, settings: tuple, n_per_setting: int, seed: int):
    """The records of sample_homodyne as (setting_ids, samples_a, samples_b)
    blocks of _BLOCK records, setting by setting; a setting's last block
    holds the rest, at least 2 and at most _BLOCK + 1.

    The arguments are checked before the iterator is returned, so nothing is
    drawn, or written, for a request that fails. A setting's blocks are
    consecutive rows of its stream's standard_normal((k, 2)) @ chol.T, which
    are the rows of one (n_per_setting, 2) draw.
    """
    _require_two_modes(g)
    if not settings:
        raise InvalidArgumentError("at least one measurement setting is required")
    if n_per_setting < 2:
        raise InvalidArgumentError(f"n_per_setting must be at least 2, got {n_per_setting}")
    # numpy sizes an array in bytes by a signed pointer-sized integer; the
    # largest arrays of a dataset are the columns of all settings, 8 bytes an entry
    if n_per_setting > _MAX_ARRAY_BYTES // (8 * len(settings)):
        raise InvalidArgumentError(
            f"n_per_setting = {n_per_setting} over {len(settings)} settings is more records "
            "than a numpy array can hold"
        )
    factors = []
    for s in settings:
        try:
            factors.append(np.linalg.cholesky(marginal_covariance(g, s)))
        except np.linalg.LinAlgError as exc:
            raise InvalidStateError(
                f"marginal covariance of setting {_fmt_setting(s)} is not positive definite"
            ) from exc
    return _draw_blocks(factors, n_per_setting, seed)


def _draw_blocks(factors: list, n_per_setting: int, seed: int):
    for idx, chol in enumerate(factors):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        for lo in range(0, n_per_setting - 1, _BLOCK):
            # a lone last row joins the block before it: numpy multiplies one
            # row as a vector, which rounds differently from a matrix product
            k = _BLOCK if lo + _BLOCK < n_per_setting - 1 else n_per_setting - lo
            draws = rng.standard_normal((k, 2)) @ chol.T
            yield np.full(k, idx), draws[:, 0], draws[:, 1]


def reconstruct(ds: HomodyneDataset) -> ReconstructionResult:
    """Covariance matrix estimate from a homodyne dataset.

    One unweighted least-squares solve of the rotated-moment equations. A
    dataset that declares all five canonical settings is fitted from 10 of
    their 15 moments; other declared settings are ignored, and the
    redundant (45, 45) cross moment is checked against the fit, with a
    warning beyond 5 standard errors. Any other setting list is fitted from
    all its moments and must determine all 10 entries. Moments or fitted
    values that overflow the float range raise InvalidArgumentError.

    The moments are summed block by block by _MomentSums, the accumulator
    that `cvqkd analyze` and `reconstruct` fold a dataset CSV into as they
    parse it, so both give this function's result on the loaded dataset
    bit for bit.
    """
    return _fit(ds.settings, _per_setting_moments(ds))


def _reconstruct_file(path, first_line: int = 1) -> ReconstructionResult:
    """reconstruct(load_dataset(path)), bit for bit, in memory bounded by a block of records.
    path may also be an open text stream, whose next line is line first_line
    (see _read_dataset).

    Each block is folded into the moments as it is parsed, whether numpy or
    the line rules read it (see load_dataset), and no HomodyneDataset is
    built. The whole file is parsed before anything is judged, so every
    parse error comes before any reconstruction error.
    """
    settings, sums = _read_dataset(path, _MomentSums, first_line)
    return _fit(settings, sums.moments(settings))


def _fit(settings: tuple, stats: list) -> ReconstructionResult:
    """The least-squares solve of reconstruct, from the settings and their moments."""
    canonical_idx = _match_canonical(settings)
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
    design, values, errors = map(np.array, zip(*(_moment_equations(settings[i], stats[i]) for i in used)))
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
            _warn(
                f"redundant (45, 45) cross moment {measured:.9g} deviates from the value "
                f"{predicted:.9g} predicted by the other settings by more than 5 standard errors"
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
    written in repr form, so a save/load round trip is lossless. The
    records go through _write_records, the writer that `cvqkd sample`
    streams its draws to, a block of _BLOCK records at a time: each
    setting's id and angle prefix once, the samples through repr of their
    Python floats.
    """
    _write_records(path, ds.settings, _dataset_blocks(ds), ds.calib_a, ds.calib_b)


def _dataset_blocks(ds: HomodyneDataset):
    """ds's records as (setting_ids, samples_a, samples_b) blocks of _BLOCK records, in order."""
    for lo in range(0, ds.n_records, _BLOCK):
        yield ds.setting_ids[lo : lo + _BLOCK], ds.samples_a[lo : lo + _BLOCK], ds.samples_b[lo : lo + _BLOCK]


def _write_records(path, settings: tuple, blocks, calib_a: float = 1.0, calib_b: float = 1.0) -> None:
    """The dataset CSV of settings and their (setting_ids, samples_a, samples_b) record blocks.

    path may be a filesystem path or an open text stream; each block is
    formatted and written before the next is drawn from blocks.
    """
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# calib_a={float(calib_a)!r}\n")
        fh.write(f"# calib_b={float(calib_b)!r}\n")
        fh.write(DATASET_HEADER + "\n")
        prefixes = [f"{i},{float(s.theta_a)!r},{float(s.theta_b)!r}" for i, s in enumerate(settings)]
        for ids, samples_a, samples_b in blocks:
            rows = zip(
                map(prefixes.__getitem__, ids.tolist()),
                map(repr, samples_a.tolist()),
                map(repr, samples_b.tolist()),
            )
            fh.write("\n".join(map(",".join, rows)))
            fh.write("\n")


def load_dataset(path) -> HomodyneDataset:
    """Parse the CSV form written by save_dataset.

    Setting ids must be contiguous from 0 and consistent with their angle
    columns; malformed content raises DatasetParseError naming the line,
    and a file with no records raises EmptyDatasetError.

    The records are read by _read_dataset, the block reader whose blocks
    `cvqkd analyze` and `reconstruct` fold straight into moments: one pass
    over one open file, so path may be a pipe. Each block of _BLOCK lines
    goes through one numpy pass, checked by whole columns; where numpy
    rejects a line or a column check fails, the line rules decide that
    block, with the line-numbered error or its records. Both readings give
    bit-identical arrays. A file that is not valid UTF-8 raises
    DatasetParseError naming the first offending byte.
    """
    settings, columns = _read_dataset(path, _Columns)
    return columns.dataset(settings)


class _Columns:
    """The sink of _read_dataset that keeps every record, for load_dataset."""

    def __init__(self, calib_a: float, calib_b: float):
        self.calib = (calib_a, calib_b)
        self.blocks = []

    def add(self, ids: np.ndarray, samples_a: np.ndarray, samples_b: np.ndarray) -> None:
        self.blocks.append((ids, samples_a, samples_b))

    def dataset(self, settings: tuple) -> HomodyneDataset:
        ids, samples_a, samples_b = map(np.concatenate, zip(*self.blocks))
        return HomodyneDataset(settings, ids, samples_a, samples_b, *self.calib)


def _read_dataset(source, sink, first_line: int = 1) -> tuple:
    """(settings, sink(calib_a, calib_b) fed every record) of the dataset CSV at source.

    source is a path or an open UTF-8 text stream, named in messages by its
    name; messages number its next line first_line. One pass over one open
    file, _BLOCK lines at a time; the line rules decide a block the numpy
    pass rejects. The sink's add(setting_ids, samples_a, samples_b) takes
    the records in file order, a block at a time.
    """
    stream = hasattr(source, "read")
    path = source.name if stream else source
    try:
        with contextlib.nullcontext(source) if stream else open(source, "r", encoding="utf-8") as fh:
            calib, lineno = _read_preamble(enumerate(fh, start=first_line), path)
            out = sink(calib["calib_a"], calib["calib_b"])
            declared = []  # (theta_a, theta_b, line of its first record) per setting id
            for batch in iter(lambda: list(itertools.islice(fh, _BLOCK)), []):
                block = _numpy_block(batch, lineno + 1, declared)
                if block is None:
                    block = _line_block(batch, lineno + 1, declared, calib)
                if block[0].size:
                    out.add(*block)
                lineno += len(batch)
    except UnicodeDecodeError as exc:
        raise _utf8_error(path) from exc
    if not declared:
        raise EmptyDatasetError(f"{path}: header but no records")
    return tuple(MeasurementSetting(ta, tb) for ta, tb, _ in declared), out


def _utf8_error(path) -> DatasetParseError:
    """DatasetParseError at the first byte of path that does not decode as
    UTF-8; a pipe, which cannot be read again, gets no byte."""
    offset = 0
    with open(path, "rb") if os.path.isfile(path) else contextlib.nullcontext(()) as fh:
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

#: ASCII separators numpy's number parser strips as whitespace and float() rejects
_INFO_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _numpy_block(batch: list, first_line: int, declared: list) -> tuple | None:
    """_line_block's result by one np.loadtxt pass checked by whole columns,
    or None, with declared untouched, where the line rules must decide.

    numpy rejects whitespace-only and comment lines and digit separators.
    Text with non-ASCII characters or ASCII information separators is left
    to the line rules unparsed: numpy strips those separators around a
    number, which float() rejects, and reads non-ASCII numerals other than
    int() does (DEVANAGARI DIGIT TWO as 2360, where int() reads 2).
    """
    text = "".join(batch)
    if not text.isascii() or any(c in text for c in _INFO_SEPARATORS):
        return None
    if not text.strip("\n"):  # np.loadtxt skips empty lines, and warns when it finds nothing else
        return np.empty(0, dtype=int), np.empty(0), np.empty(0)
    try:
        rec = np.loadtxt(batch, dtype=_RECORD_DTYPE, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    ids, ta, tb = rec["setting_id"], rec["theta_a"], rec["theta_b"]
    if not all(np.isfinite(rec[name]).all() for name in _RECORD_DTYPE.names[1:]):
        return None
    # a record may name any id declared before it, or the next new one
    seen = np.maximum.accumulate(np.concatenate(([len(declared) - 1], ids[:-1])))
    if ids.min() < 0 or (ids > seen + 1).any():
        return None
    first_use = np.flatnonzero(ids > seen)
    try:
        new = list(map(MeasurementSetting, ta[first_use].tolist(), tb[first_use].tolist()))
    except InvalidArgumentError:
        return None
    angles_a = np.array([d[0] for d in declared] + [s.theta_a for s in new])
    angles_b = np.array([d[1] for d in declared] + [s.theta_b for s in new])
    if not ((ta == angles_a[ids]).all() and (tb == angles_b[ids]).all()):
        return None
    if new:  # numpy skips empty lines
        lines = [lineno for lineno, raw in enumerate(batch, start=first_line) if raw != "\n"]
        declared += [(s.theta_a, s.theta_b, lines[i]) for s, i in zip(new, first_use.tolist())]
    return ids, rec["sample_a"], rec["sample_b"]


def _read_preamble(lines, path) -> tuple:
    """(calibration, header's line number) from the lines up to the header, which it consumes.

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
        return calib, lineno
    raise EmptyDatasetError(f"{path}: no header found")


def _line_block(batch: list, first_line: int, declared: list, calib: dict) -> tuple:
    """The records of batch, lines first_line on, as (setting_ids, samples_a,
    samples_b), one line at a time: the statement of the format's rules and
    messages. Each new setting id appends (theta_a, theta_b, line) to declared.
    """
    ids, arr_a, arr_b = [], [], []
    for lineno, raw in enumerate(batch, start=first_line):
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
        if sid < 0 or sid > len(declared):
            raise DatasetParseError(
                f"line {lineno}: unknown setting id {sid} (ids must be contiguous from 0)",
                line=lineno,
            )
        if sid == len(declared):
            try:
                MeasurementSetting(ta, tb)
            except InvalidArgumentError as exc:
                raise DatasetParseError(f"line {lineno}: {exc}", line=lineno) from exc
            declared.append((ta, tb, lineno))
        elif (ta, tb) != declared[sid][:2]:
            raise DatasetParseError(
                f"line {lineno}: setting id {sid} redeclared with angles ({ta}, {tb}), "
                f"first declared as {declared[sid][:2]} on line {declared[sid][2]}",
                line=lineno,
            )
        ids.append(sid)
        arr_a.append(a)
        arr_b.append(b)
    return np.array(ids, dtype=int), np.array(arr_a, dtype=float), np.array(arr_b, dtype=float)


@dataclass(frozen=True)
class _SettingMoments:
    n: int
    var_a: float
    var_b: float
    cov: float


def _per_setting_moments(ds: HomodyneDataset) -> list:
    """Mean-subtracted second moments per setting, in vacuum units (see _MomentSums.moments)."""
    sums = _MomentSums(ds.calib_a, ds.calib_b)
    for block in _dataset_blocks(ds):
        sums.add(*block)
    return sums.moments(ds.settings)


class _MomentSums:
    """Per-setting record counts, means and co-moments in vacuum units, summed a block at a time.

    A setting's records are folded _BLOCK at a time in their own order, and
    each fold's two-pass sums are merged into the setting's running sums by
    the pairwise update of Chan, Golub & LeVeque (1979). A setting's
    moments therefore depend on its own records alone, not on how they
    interleave with other settings' records or on how the caller splits
    them into blocks; a setting of at most _BLOCK records gets the two-pass
    moments of all its records at once. Memory stays bounded by a block
    per setting.
    """

    def __init__(self, calib_a: float, calib_b: float):
        self.calib = (calib_a, calib_b)
        # a bad calibration is reported by moments(), after every parse error
        valid = 0.0 < calib_a < math.inf and 0.0 < calib_b < math.inf
        self._scale = (math.sqrt(calib_a), math.sqrt(calib_b)) if valid else None
        self._sums = {}  # setting id: (n, mean_a, mean_b, sum_aa, sum_ab, sum_bb, largest |sample|)
        self._held = {}  # setting id: its records not yet folded, as (a, b) pieces

    def add(self, ids: np.ndarray, samples_a: np.ndarray, samples_b: np.ndarray) -> None:
        """Take the next records; within a setting, records must come in order."""
        if self._scale is None:
            return
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is judged per setting by moments()
            a = samples_a / self._scale[0]
            b = samples_b / self._scale[1]
            if (ids[1:] < ids[:-1]).any():
                order = np.argsort(ids, kind="stable")
                ids, a, b = ids[order], a[order], b[order]
            # one piece per run of a setting's records
            cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
            firsts = ids[np.concatenate(([0], cuts))].tolist()
            for sid, piece_a, piece_b in zip(firsts, np.split(a, cuts), np.split(b, cuts)):
                self._take(sid, piece_a, piece_b)

    def _take(self, sid: int, a: np.ndarray, b: np.ndarray) -> None:
        """Fold a setting's next records after those it holds, whole blocks only; hold the rest."""
        held = self._held.setdefault(sid, [])
        held.append((a, b))
        count = sum(len(p) for p, _ in held)
        if count < _BLOCK:
            return
        if len(held) > 1:
            a, b = (np.concatenate(column) for column in zip(*held))
        full = count - count % _BLOCK
        for lo in range(0, full, _BLOCK):
            self._fold(sid, a[lo : lo + _BLOCK], b[lo : lo + _BLOCK])
        held[:] = [(a[full:], b[full:])] if full < count else []

    def _fold(self, sid: int, a: np.ndarray, b: np.ndarray) -> None:
        n2 = len(a)
        mean_a, mean_b = float(a.mean()), float(b.mean())
        da, db = a - mean_a, b - mean_b
        peak = np.maximum(np.abs(a).max(), np.abs(b).max())
        block = (n2, mean_a, mean_b, float(da @ da), float(da @ db), float(db @ db), peak)
        if sid not in self._sums:
            self._sums[sid] = block
            return
        n1, mean_a1, mean_b1, s_aa, s_ab, s_bb, peak1 = self._sums[sid]
        n = n1 + n2
        dev_a, dev_b = mean_a - mean_a1, mean_b - mean_b1
        w = n1 * n2 / n
        self._sums[sid] = (
            n,
            mean_a1 + dev_a * n2 / n,
            mean_b1 + dev_b * n2 / n,
            s_aa + block[3] + dev_a * dev_a * w,
            s_ab + block[4] + dev_a * dev_b * w,
            s_bb + block[5] + dev_b * dev_b * w,
            np.maximum(peak1, peak),
        )

    def moments(self, settings: tuple) -> list:
        """_SettingMoments per setting, None where it has no records, once every record is added.

        A calibration that is not positive and finite is a CalibrationError.
        Then, setting by setting, fewer than 2 records is a
        ProtocolIncompleteError, and moments that overflow (a sample of
        1e200, a calibration of 1e-320) an InvalidArgumentError.
        """
        if self._scale is None:
            raise CalibrationError(
                "vacuum calibration variances must be positive and finite, "
                f"got calib_a={self.calib[0]}, calib_b={self.calib[1]}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            for sid, held in self._held.items():
                if held:
                    self._fold(sid, *(np.concatenate(column) for column in zip(*held)))
                    held.clear()
        out = []
        for idx, s in enumerate(settings):
            if idx not in self._sums:
                out.append(None)
                continue
            n, _, _, s_aa, s_ab, s_bb, peak = self._sums[idx]
            if n < 2:
                raise ProtocolIncompleteError(
                    f"setting {idx} {_fmt_setting(s)} has {n} record(s); at least 2 are needed to estimate moments"
                )
            m = _SettingMoments(n=n, var_a=s_aa / (n - 1), var_b=s_bb / (n - 1), cov=s_ab / (n - 1))
            if not all(map(math.isfinite, (m.var_a, m.var_b, m.cov))):
                raise InvalidArgumentError(
                    f"second moments of setting {idx} {_fmt_setting(s)} overflow the float "
                    f"range; samples reach {peak:.3g} in vacuum units"
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
