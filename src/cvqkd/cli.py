"""Command line front end.

Five subcommands cover the end-to-end workflow:

* simulate: build the modeled two-mode state from a run configuration and
  print the covariance matrix plus the full key-rate report as JSON
* scan: sweep one parameter over a grid and print one CSV row per point
* sample: generate a synthetic homodyne dataset CSV for the modeled state
* reconstruct: estimate a covariance matrix from a dataset CSV
* analyze: key-rate report for a dataset CSV or a covariance JSON file

Configuration is a JSON file with the sections and field names of
DEFAULT_CONFIG; every omitted field keeps its default, the fitted
operating-point values, so `cvqkd simulate` with no arguments reproduces
the headline numbers; the source and channel defaults are those of
noise.SourceParams and noise.ChannelParams. Command line flags override
file values.

Exit codes: 0 success, 1 usage/configuration/parse error, 2 for a valid
run whose nominal key rate is not positive.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, CvqkdError, InvalidStateError
from .gaussian import (
    _epr_products,
    covariance,
    covariance_from_json,
    covariance_to_json,
    is_physical,
    symplectic_eigenvalues,
    variance_to_db,
)
from .keyrate import _stacked_rates, secret_key_rate
from .noise import (
    ChannelParams,
    SourceParams,
    SqueezingSpec,
    _detection,
    _optical,
    _pump_sqz_variance,
    make_epr_state,
)
from .tomography import _MAX_ARRAY_BYTES, CANONICAL_SETTINGS, _reconstruct_file, _sample_blocks, _write_records

#: each config channel field and the ChannelParams field it sets, in the config's order
_CHANNEL_FIELDS = {
    "epsilon": "epsilon",
    "nu_a": "loss_a",
    "nu_b": "loss_b",
    "delta_a": "det_noise_a",
    "delta_b": "det_noise_b",
    "sigma_a": "phase_sigma_a",
    "sigma_b": "phase_sigma_b",
}

DEFAULT_CONFIG = {
    "source": {
        "mode": "measured",
        "var_sqz_db": -11.1,
        "var_asqz_db": None,
        **dataclasses.asdict(SourceParams()),
    },
    "channel": {key: getattr(ChannelParams(), field) for key, field in _CHANNEL_FIELDS.items()},
    "analysis": {
        "n_samples": 1000000,
        "seed": 0,
        "worst_case": False,
    },
}

SCAN_COLUMNS = (
    "input_sqz_db",
    "nu",
    "delta",
    "sigma",
    "mi",
    "chi_a",
    "chi_b",
    "k_nominal",
    "k_worst_case",
    "n",
)

#: scan rates its rows in stacked passes of this many, which bounds the
#: pass's transient memory
_SCAN_CHUNK = 256

#: config fields that may hold JSON null
_NULLABLE = {("source", "var_sqz_db"), ("source", "var_asqz_db"), ("source", "p_mw")}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, metavar="U64", help="override analysis.seed")
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    common.add_argument("--n", type=int, metavar="COUNT", help="override analysis.n_samples")
    common.add_argument(
        "--worst-case",
        action="store_true",
        help="also compute the finite-statistics worst-case key rate",
    )
    parser = _Parser(prog="cvqkd", description="Gaussian entangled-state key-rate toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("simulate", parents=[common], help="covariance matrix and key-rate report")

    scan = sub.add_parser("scan", parents=[common], help="parameter sweep as CSV")
    scan.add_argument("--sweep", required=True, choices=("sqz_db", "nu_b", "sigma"))
    scan.add_argument("--from", dest="sweep_start", type=float, required=True, metavar="F")
    scan.add_argument("--to", dest="sweep_stop", type=float, required=True, metavar="F")
    scan.add_argument("--steps", type=int, required=True, metavar="K")

    sub.add_parser("sample", parents=[common], help="synthetic homodyne dataset CSV")

    rec = sub.add_parser("reconstruct", parents=[common], help="covariance matrix from a dataset")
    rec.add_argument("dataset", help="homodyne dataset CSV")

    ana = sub.add_parser("analyze", parents=[common], help="key-rate report for a dataset or matrix")
    ana.add_argument("input", help="dataset CSV or covariance JSON")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call and shared by every later one.

    parse_args keeps no state between calls: each returns a new namespace
    filled from the parser's defaults.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        cfg = load_config(args.config)
        _apply_flag_overrides(cfg, args)
        handler = _DISPATCH[args.command]
        return handler(args, cfg)
    except (CvqkdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def load_config(path=None) -> dict:
    """DEFAULT_CONFIG with the JSON file at path merged over it, validated."""
    # one level deep is a full copy: every value is a scalar or None
    cfg = {section: dict(values) for section, values in DEFAULT_CONFIG.items()}
    if path is not None:
        try:
            # one binary read: opening a text stream costs more than decoding the bytes
            doc = json.loads(_read_utf8(path))
        except ValueError as exc:
            raise ConfigError(f"config {path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path}: top level must be a JSON object")
        for section, values in doc.items():
            if section not in cfg:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            for key, value in values.items():
                if key not in cfg[section]:
                    raise ConfigError(f"unknown config field {section}.{key}")
                cfg[section][key] = value
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    src = cfg["source"]
    if src["mode"] not in ("measured", "pump"):
        raise ConfigError(f"source.mode must be 'measured' or 'pump', got {src['mode']!r}")
    for section in ("source", "channel"):
        for key, value in cfg[section].items():
            if key == "mode":
                continue
            if value is None:
                if (section, key) in _NULLABLE:
                    continue
                raise ConfigError(f"config field {section}.{key} must be a number, got null")
            _require_number(section, key, value)
    if src["mode"] == "measured" and src["var_sqz_db"] is None:
        raise ConfigError("source.mode 'measured' needs source.var_sqz_db")
    if src["mode"] == "pump" and src["p_mw"] is None:
        raise ConfigError("source.mode 'pump' needs source.p_mw")
    ana = cfg["analysis"]
    _require_number("analysis", "n_samples", ana["n_samples"])
    _require_number("analysis", "seed", ana["seed"])
    if not float(ana["n_samples"]).is_integer() or ana["n_samples"] < 1:
        raise ConfigError(f"analysis.n_samples must be a positive integer, got {ana['n_samples']}")
    ana["n_samples"] = int(ana["n_samples"])
    if not float(ana["seed"]).is_integer() or ana["seed"] < 0:
        raise ConfigError(f"analysis.seed must be a non-negative integer, got {ana['seed']}")
    ana["seed"] = int(ana["seed"])
    if not isinstance(ana["worst_case"], bool):
        raise ConfigError(f"analysis.worst_case must be a boolean, got {ana['worst_case']!r}")


def _require_number(section: str, key: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {section}.{key} must be a number, got {value!r}")
    # also rejects an int beyond the float range, on which math.isfinite overflows
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config field {section}.{key} must be a finite float, got {value!r}")


def _apply_flag_overrides(cfg: dict, args) -> None:
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        cfg["analysis"]["seed"] = args.seed
    if getattr(args, "n", None) is not None:
        # the rule of analysis.n_samples: a count beyond the float range overflows math.sqrt
        if not 1 <= args.n <= sys.float_info.max:
            raise ConfigError(f"--n must be a positive integer no larger than the float maximum, got {args.n}")
        cfg["analysis"]["n_samples"] = args.n
    if getattr(args, "worst_case", False):
        cfg["analysis"]["worst_case"] = True


def _resolve(cfg: dict) -> tuple:
    """(make_epr_state spec, ChannelParams) for the config. The channel is
    built and checked first, so its error comes before the source's."""
    channel = _channel_of(cfg)()
    return _source_spec(cfg), channel


def _channel_of(cfg: dict) -> functools.partial:
    """ChannelParams of the config's channel fields, built and checked when
    called; a field passed to the call replaces the config's."""
    ch = cfg["channel"]
    return functools.partial(ChannelParams, **{field: ch[key] for key, field in _CHANNEL_FIELDS.items()})


def _source_spec(cfg: dict):
    """The make_epr_state spec of the config's source section."""
    src = cfg["source"]
    if src["mode"] == "pump":
        return SourceParams(**{f.name: src[f.name] for f in dataclasses.fields(SourceParams)})
    return SqueezingSpec(var_sqz_db=src["var_sqz_db"], var_asqz_db=src["var_asqz_db"])


def cmd_simulate(args, cfg: dict) -> int:
    # the Reid (EPR) product is of the optical state, before detection noise: one pipeline run builds both,
    # each validated once, the optical state first, bit for bit make_epr_state without and with detection noise
    spec, channel = _resolve(cfg)
    deltas = np.array([channel.det_noise_a, channel.det_noise_b], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # covariance() names a non-finite entry
        # + 0.0 is the zero detection noise's one effect: -0.0 entries read +0.0
        optical = covariance(_optical(spec, channel) + 0.0)
        detected = covariance(_detection(optical.entries, deltas)) if deltas.any() else optical
    n = cfg["analysis"]["n_samples"] if cfg["analysis"]["worst_case"] else None
    report = secret_key_rate(detected, n_samples=n)
    (direct_ab, opt_ab), (direct_ba, opt_ba) = _epr_products(optical, ("a_given_b", "b_given_a"))
    doc_report = report.as_dict()
    doc_report["epr_direct"] = min(direct_ab, direct_ba)
    doc_report["epr_optimized"] = min(opt_ab, opt_ba)
    doc = {"covariance": covariance_to_json(detected), "report": doc_report}
    _emit([_json(doc) + "\n"], args.out)
    return 2 if report.k_nominal <= 0.0 else 0


def cmd_scan(args, cfg: dict) -> int:
    for flag, bound in (("--from", args.sweep_start), ("--to", args.sweep_stop)):
        if not math.isfinite(bound):
            raise ConfigError(f"{flag} must be a finite number, got {bound!r}")
    if not math.isfinite(args.sweep_stop - args.sweep_start):  # np.linspace would overflow on the span
        raise ConfigError(f"--from {args.sweep_start!r} to --to {args.sweep_stop!r} spans more than the float range")
    if args.steps < 2:
        raise ConfigError(f"--steps must be at least 2, got {args.steps}")
    # numpy sizes an array in bytes by a signed pointer-sized integer, 8 bytes a grid point
    if args.steps > _MAX_ARRAY_BYTES // 8:
        raise ConfigError(f"--steps = {args.steps} is more grid points than a numpy array can hold")
    try:
        grid = np.linspace(args.sweep_start, args.sweep_stop, args.steps)
    except MemoryError as exc:
        raise ConfigError(f"--steps = {args.steps} grid points do not fit in memory") from exc
    # one string a chunk, written once every row is rated: a failing scan prints no row
    texts = [",".join(SCAN_COLUMNS) + "\n"]
    point, cells = _sweep_points(cfg, args.sweep, float(grid[0]))
    for start in range(0, len(grid), _SCAN_CHUNK):
        texts.append(_scan_chunk(point, cells, cfg["analysis"], grid[start : start + _SCAN_CHUNK].tolist()))
    _emit(texts, args.out)
    return 0


def _sweep_points(cfg: dict, sweep: str, first: float) -> tuple:
    """(point, cells) of a sweep. point maps a grid value to its row's (spec,
    channel): the config is resolved once, and each row replaces only the
    swept field, a new SqueezingSpec, or a new ChannelParams whose checks run
    again. The first row's channel is checked before the source, as _resolve
    checks them. So each row's checks and messages are those of resolving its
    own config. cells maps a row's (spec, channel), once its state is built,
    to its four input cells as CSV text: the swept cell is formatted for each
    row, the three the sweep leaves alone once."""
    vary = _channel_of(cfg)
    if sweep == "sqz_db":
        channel = vary()
        fixed = _cells(channel.loss_b, channel.det_noise_b, channel.phase_sigma_b)
        return (
            lambda value: (SqueezingSpec(var_sqz_db=-abs(value)), channel),
            lambda spec, _: f"{_fmt(spec.var_sqz_db)},{fixed}",
        )
    nu_b = cfg["channel"]["nu_b"]

    def swept(value: float) -> dict:
        if sweep == "sigma":
            return {"phase_sigma_a": value, "phase_sigma_b": value}
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"--sweep nu_b adds loss to arm B, which must lie in [0, 1], got {value}")
        return {"loss_b": 1.0 - (1.0 - nu_b) * (1.0 - value)}

    channel = vary(**swept(first))  # the first row's channel, checked before the source
    spec = _source_spec(cfg)
    # read once the first row's state is built, which checks and warns about a pump's power
    input_cell = functools.cache(lambda: _fmt(_input_db(spec)))
    if sweep == "sigma":
        fixed = _cells(channel.loss_b, channel.det_noise_b)
        cells = lambda _, ch: f"{input_cell()},{fixed},{_fmt(ch.phase_sigma_b)}"
    else:
        fixed = _cells(channel.det_noise_b, channel.phase_sigma_b)
        cells = lambda _, ch: f"{input_cell()},{_fmt(ch.loss_b)},{fixed}"
    return lambda value: (spec, vary(**swept(value))), cells


def _scan_chunk(point, cells, ana: dict, values: list) -> str:
    """The CSV rows of consecutive grid values, as one string: each row's raw
    optical state built in grid order (noise._optical), then the chunk's
    detection noise added in one array pass (noise._detection), and the raw
    rows validated and rated in one stacked pass (keyrate._stacked_rates),
    with --worst-case every row's worst case too. Each row's cells, errors
    and warnings are those of rating it on its own, byte for byte and in grid
    order: where a check fails, the stacked pass rates rows on their own, in
    turn, so the first error is raised where that row's own rating raises it."""
    optical, deltas, inputs = [], [], []
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is covariance()'s error
            for value in values:
                spec, channel = point(value)
                optical.append(_optical(spec, channel))
                deltas.append((channel.det_noise_a, channel.det_noise_b))
                inputs.append(cells(spec, channel))
    finally:
        # also when a state fails: the rows before it are validated and rated
        # first, so their errors come before its own, as when each row is
        # built and rated in turn
        with np.errstate(over="ignore"):  # likewise
            entries = _detection(np.array(optical).reshape(-1, 4, 4), np.array(deltas, dtype=float).reshape(-1, 2))
        rates = _stacked_rates(entries, ana["n_samples"] if ana["worst_case"] else None)
    n = str(ana["n_samples"])
    rows = [
        ",".join([row, *map(_fmt, rate[:4]), _fmt(rate[4]) if rate[4] is not None else "", n])
        for row, rate in zip(inputs, rates)
    ]
    return "\n".join(rows) + "\n"


def _input_db(spec) -> float:
    """A scan row's input cell, its detected squeezing in dB. A pump spec's
    comes from its model, whose power the state's build has checked and
    warned about; pump_to_variances would warn again."""
    if isinstance(spec, SqueezingSpec):
        return spec.var_sqz_db
    return variance_to_db(_pump_sqz_variance(spec, math.sqrt(spec.p_mw / spec.p_th_mw)))


def cmd_sample(args, cfg: dict) -> int:
    # save_dataset(sample_homodyne(...)) byte for byte, each block of records
    # written as it is drawn, so memory stays bounded in --n
    spec, channel = _resolve(cfg)
    blocks = _sample_blocks(
        make_epr_state(spec, channel),
        CANONICAL_SETTINGS,
        cfg["analysis"]["n_samples"],
        cfg["analysis"]["seed"],
    )
    _write_records(sys.stdout if args.out is None else args.out, CANONICAL_SETTINGS, blocks)
    return 0


def cmd_reconstruct(args, cfg: dict) -> int:
    result = _reconstruct_file(args.dataset)
    doc = {
        "covariance": covariance_to_json(result.gamma_hat),
        "std_errors": result.std_errors.tolist(),
        "n_min": result.n_min,
        "cross_check": None,
    }
    if result.cross_check_measured is not None:
        doc["cross_check"] = {
            "measured": result.cross_check_measured,
            "predicted": result.cross_check_predicted,
            "std_error": result.cross_check_std_error,
            "within_5_std_errors": result.cross_check_ok,
        }
    _emit([_json(doc) + "\n"], args.out)
    return 0


def cmd_analyze(args, cfg: dict) -> int:
    n_default = cfg["analysis"]["n_samples"]
    # one open stream, so the input may be a pipe: the first byte after its
    # leading whitespace, peeked and not consumed, tells a covariance JSON
    # from a dataset CSV
    with open(args.input, "r", encoding="utf-8") as fh:
        blank = _read_whitespace(fh.buffer)
        if fh.buffer.peek(1)[:1] == b"{":
            try:
                doc = json.loads(blank + fh.read())
            except ValueError as exc:
                raise ConfigError(f"{args.input}: invalid covariance JSON: {exc}") from exc
            g = covariance_from_json(doc)
        else:
            result = _reconstruct_file(fh, first_line=1 + blank.count("\n"))
            g = result.gamma_hat
            n_default = result.n_min
    if not is_physical(g):
        try:  # an indefinite matrix has no symplectic eigenvalues to name
            detail = f", its smallest symplectic eigenvalue is {symplectic_eigenvalues(g)[1]:.6g} < 1"
        except CvqkdError:
            detail = ""
        raise InvalidStateError(f"{args.input}: covariance matrix is unphysical{detail}")
    n = args.n if args.n is not None else n_default
    report = secret_key_rate(g, n_samples=n if cfg["analysis"]["worst_case"] else None)
    _emit([_json(report.as_dict()) + "\n"], args.out)
    return 2 if report.k_nominal <= 0.0 else 0


def _read_whitespace(buf) -> str:
    """The ASCII whitespace at the front of the binary stream buf, read off
    it, with its line breaks read as a text stream reads them. It waits for
    more bytes while all it has seen is whitespace, as a pipe may send them
    apart."""
    skipped = bytearray()
    while head := buf.peek(1):
        n = len(head) - len(head.lstrip())
        skipped += buf.read(n)
        if n < len(head):
            break
    return skipped.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")


def _read_utf8(path) -> str:
    """open(path, encoding="utf-8").read(), from one binary read: a BOM kept,
    line breaks read as "\n", and a decoding error at the same byte."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


#: json.dumps's spelling of the floats whose repr is not JSON
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """The JSON text of an exact float, whose repr is float.__repr__'s."""
    text = repr(value)
    return _NON_FINITE.get(text, text)


#: the JSON text of a scalar, by its exact type; a container member of one of
#: these types is written inline, without a call of _json
_JSON_SCALARS = {
    float: _json_float,
    int: repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    str: encode_basestring_ascii,
}


def _json(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, without the stdlib's pure-Python
    indenting encoder: dicts with str keys, lists and tuples, str, int, float,
    bool and None, and their subclasses. Floats read as float.__repr__,
    or NaN, Infinity and -Infinity; strings and keys go through the stdlib's
    ASCII escaper, its C function where there is one. newline is the line break
    and indent of the line value starts on; its members go one level deeper."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [scalar(v) if (scalar := _JSON_SCALARS.get(type(v))) else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(k)
            + ": "
            + (scalar(v) if (scalar := _JSON_SCALARS.get(type(v))) else _json(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _cells(*values) -> str:
    return ",".join(map(_fmt, values))


def _emit(texts: list, out_path) -> None:
    """Write the strings texts, in order, to out_path or to stdout."""
    if out_path is None:
        sys.stdout.writelines(texts)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)


def _parse(argv) -> argparse.Namespace:
    """_parser().parse_args(argv), with the named command's own sub-parser
    when that suffices: the top-level parser hands such an argv to that
    sub-parser anyway, and adds only the command's name. A missing or
    unknown command, an option before it, any arguments the sub-parser
    leaves over, and an argv holding "--" (whose hand-over to a sub-parser
    argparse has changed across Python versions) go to the top-level
    parser, so every usage error and help text is its own."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and "--" not in argv:
        commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        command = commands.get(argv[0])
        if command is not None:
            args, rest = command.parse_known_args(argv[1:])
            if not rest:
                args.command = argv[0]
                return args
    return parser.parse_args(argv)


_DISPATCH = {
    "simulate": cmd_simulate,
    "scan": cmd_scan,
    "sample": cmd_sample,
    "reconstruct": cmd_reconstruct,
    "analyze": cmd_analyze,
}


if __name__ == "__main__":
    sys.exit(main())
