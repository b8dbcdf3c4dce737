"""cvqkd benchmark: one workload, one seed, one fresh interpreter.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the program is imported from ./src. The
benchmark drives ``cvqkd.cli.main(argv)`` in-process, one client in a
closed loop with no think time, BLAS and OpenMP pinned to one thread.

--trace 0 times the workload untraced and prints the end-to-end metrics.
--trace 1 wraps the layer boundaries (see tracing.py), runs the workload
traced for half the time, replays the same calls untraced, and prints the
per-layer metrics with the tracing overhead, a byte-for-byte comparison of
both runs' outputs and how much of the traced wall time the spans cover.
--smoke runs each workload's stream once at tiny sizes, with one
deliberately truncated dataset on records-roundtrip, for the benchmark's
own test.

The last line of standard output is the result object; the line before it
holds provenance and the per-command figures behind the metrics.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here or in children

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 9
#: trace.accounted_ratio below this fails the run: spans must cover the
#: traced wall time except for the benchmark's own checks
ACCOUNTED_MIN = 0.9

REPORT_KINDS = ("simulate", "analyze")
BULK_KINDS = ("scan", "sample")


@dataclass
class Outcome:
    op: object
    t0: float
    seconds: float  # wall time of the call
    ok: bool
    digest: str | None
    scaled: float = 0.0  # seconds at the reference speed (see speed.py)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "cvqkd" / "__init__.py").is_file():
        print(f"perfbench: no cvqkd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cvqkd
    from workloads import WORKLOADS

    if Path(cvqkd.__file__).resolve().parent != SRC / "cvqkd":
        print(f"perfbench: imported cvqkd from {cvqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # one core for the loop, the calibration kernel and the set-up probes,
    # so the kernel measures the speed of the core the calls run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        if args.trace:
            correct, outcomes, metrics, detail = traced_run(args, wl)
        else:
            correct, outcomes, metrics, detail = untraced_run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o.ok for o in outcomes)
    detail["failed_ops_ratio"] = _m(failed / len(outcomes), "ratio")
    print(json.dumps({"workload": args.workload, "provenance": provenance(args, wl), "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


# -- running operations ------------------------------------------------------


def run_op(op, digest: bool) -> Outcome:
    """Run one command line in-process; fail on exit 1, a raise or a check."""
    from cvqkd import cli

    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
    text = buf.getvalue()
    if error is None and code not in (0, 2):
        error = f"exit code {code}"
    if error is None and op.check is not None:
        try:
            error = op.check(code, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
    if (error is None) != op.expect_ok:
        print(f"perfbench: {' '.join(op.argv)}: {error or 'accepted a malformed input'}", file=sys.stderr)
    return Outcome(op, t0, seconds, error is None, _digest(text, op.out_path) if digest else None)


def _digest(text: str, out_path) -> str:
    h = hashlib.sha256(text.encode())
    if out_path is not None:
        with open(out_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def closed_loop(ops, seconds: float, digest: bool = False) -> tuple:
    """Run ops back to back, with the calibration kernel in between, until
    seconds have passed and at least one report and one bulk call are done.

    Returns the outcomes, with scaled times filled in, and the loop's wall
    time minus the time spent in the kernel.
    """
    outcomes = []
    kinds_done = set()
    speed = Speed()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    for op in ops:
        if time.perf_counter() >= deadline and {"report", "bulk"} <= kinds_done:
            break
        if speed.due():
            speed.measure()
        outcomes.append(run_op(op, digest))
        kinds_done.add("report" if op.kind in REPORT_KINDS else "bulk")
    speed.measure()
    for o in outcomes:
        o.scaled = o.seconds * speed.factor(o.t0, o.t0 + o.seconds)
    return outcomes, time.perf_counter() - t_start - speed.total_s


def warm_up(wl) -> None:
    from cvqkd import cli

    for argv in wl.warmup:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)


def setup_seconds(wl, repeats: int) -> tuple:
    """Median set-up time over fresh interpreters (see setup_probe.py), as
    (scaled to the reference speed, raw)."""
    argv = wl.warmup[0]
    config = argv[argv.index("--config") + 1]
    speed = Speed()
    raw, scaled = [], []
    for _ in range(repeats):
        speed.measure()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), config, json.dumps(wl.warmup)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        t1 = time.perf_counter()
        speed.measure()
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * speed.factor(t0, t1))
    return statistics.median(scaled), statistics.median(raw)


# -- the two kinds of run ----------------------------------------------------


def untraced_run(args, wl) -> tuple:
    setup_s, setup_raw_s = setup_seconds(wl, 1 if args.smoke else SETUP_REPEATS)
    warm_up(wl)
    outcomes, wall = closed_loop(wl.ops, _budget(args))
    reports = [o for o in outcomes if o.op.kind in REPORT_KINDS]
    bulk = [o for o in outcomes if o.op.kind in BULK_KINDS]
    metrics = {
        "setup_s": _m(setup_s, "s"),
        "report_p50_ms": _m(statistics.median(o.scaled * 1e3 for o in reports), "ms"),
        "rows_per_s": _m(sum(o.op.items for o in bulk) / sum(o.scaled for o in bulk), "1/s"),
        "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "wall_s": _m(wall, "s"),
        "setup_raw_s": _m(setup_raw_s, "s"),
        "report_p50_raw_ms": _m(statistics.median(o.seconds * 1e3 for o in reports), "ms"),
        "rows_per_s_raw": _m(sum(o.op.items for o in bulk) / sum(o.seconds for o in bulk), "1/s"),
        **per_command(outcomes),
    }
    correct = all(o.ok == o.op.expect_ok for o in outcomes)
    return correct, outcomes, metrics, detail


def traced_run(args, wl) -> tuple:
    from tracing import Tracer

    warm_up(wl)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = closed_loop(wl.ops, _budget(args) / 2, digest=True)
    finally:
        tracer.uninstall()
    replay, _ = closed_loop([o.op for o in traced], math.inf, digest=True)

    summary = tracer.summary()
    tracer.write_spans(WORK / f"{args.workload}.spans.npz")
    mismatches = sum(a.digest != b.digest for a, b in zip(traced, replay))
    accounted = summary["self_s_total"] / traced_wall
    metrics = layer_metrics(summary, tracer.counters)
    metrics["trace.wall_s"] = _m(traced_wall, "s")
    overhead = sum(o.scaled for o in traced) / sum(o.scaled for o in replay)
    metrics["trace.overhead_ratio"] = _m(overhead, "ratio")
    metrics["trace.accounted_ratio"] = _m(accounted, "ratio")
    metrics["trace.output_mismatches"] = _m(mismatches, "count")
    outcomes = traced + replay
    correct = all(o.ok == o.op.expect_ok for o in outcomes) and mismatches == 0 and accounted >= ACCOUNTED_MIN
    detail = {"spans": _m(summary["spans"], "count"), **per_command(traced)}
    return correct, outcomes, metrics, detail


def layer_metrics(summary: dict, counters) -> dict:
    names, layers = summary["names"], summary["layers"]

    def name(key, field):
        return names.get(key, {}).get(field, 0)

    attempted = counters["keyrate.worst_case.corners_attempted"]
    physical = counters["keyrate.worst_case.corners_physical"]
    written = counters["tomography.save_dataset.bytes_written"]
    saved = counters["tomography.save_dataset.records"]
    out = {
        "keyrate.worst_case.busy_s": _m(name("keyrate.worst_case", "busy_s"), "s"),
        "keyrate.worst_case.calls": _m(name("keyrate.worst_case", "calls"), "count"),
        "keyrate.worst_case.corners_attempted": _m(attempted, "count"),
        "keyrate.worst_case.corners_physical": _m(physical, "count"),
        "keyrate.worst_case.physical_ratio": _m(physical / attempted if attempted else 0.0, "ratio"),
        "keyrate.worst_case.candidate_undercuts": _m(counters["keyrate.worst_case.candidate_undercuts"], "count"),
        "keyrate.secret_key_rate.self_s": _m(name("keyrate.secret_key_rate", "self_s"), "s"),
        "keyrate.secret_key_rate.calls": _m(name("keyrate.secret_key_rate", "calls"), "count"),
        "noise.busy_s": _m(layers["noise"]["busy_s"], "s"),
        "noise.make_epr_state.calls": _m(name("noise.make_epr_state", "calls"), "count"),
        "gaussian.busy_s": _m(layers["gaussian"]["busy_s"], "s"),
        "gaussian.calls": _m(layers["gaussian"]["calls"], "count"),
        "cli.self_s": _m(layers["cli"]["self_s"], "s"),
        "cli.calls": _m(layers["cli"]["calls"], "count"),
        "cli.exit_2": _m(counters["cli.exit_2"], "count"),
        "tomography.sample_homodyne.busy_s": _m(name("tomography.sample_homodyne", "busy_s"), "s"),
        "tomography.save_dataset.busy_s": _m(name("tomography.save_dataset", "busy_s"), "s"),
        "tomography.save_dataset.bytes_written": _m(written, "B"),
        "tomography.save_dataset.bytes_per_record": _m(written / saved if saved else 0.0, "B"),
        "tomography.load_dataset.busy_s": _m(name("tomography.load_dataset", "busy_s"), "s"),
        "tomography.load_dataset.bytes_read": _m(counters["tomography.load_dataset.bytes_read"], "B"),
        "tomography.load_dataset.records_parsed": _m(counters["tomography.load_dataset.records_parsed"], "count"),
        "tomography.reconstruct.busy_s": _m(name("tomography.reconstruct", "busy_s"), "s"),
    }
    for layer in ("noise", "gaussian", "keyrate", "tomography"):
        out[f"{layer}.self_s"] = _m(layers[layer]["self_s"], "s")
    return out


def per_command(outcomes) -> dict:
    """The figures behind the metrics, under the names of each command."""
    out = {}
    for kind in REPORT_KINDS + BULK_KINDS:
        runs = [o for o in outcomes if o.op.kind == kind]
        if not runs:
            continue
        ms = [o.scaled * 1e3 for o in runs]
        out[f"{kind}_calls"] = _m(len(runs), "count")
        if kind == "simulate":
            out["simulate_p50_ms"] = _m(statistics.median(ms), "ms")
            out["simulate_p90_ms"] = _m(_p90(ms), "ms")
        else:
            unit = "points" if kind == "scan" else "records"
            rate = sum(o.op.items for o in runs) / sum(o.scaled for o in runs)
            out[f"{kind}_{unit}_per_s"] = _m(rate, "1/s")
    return out


def _budget(args) -> float:
    """Seconds to loop for; a smoke run exhausts its finite stream instead."""
    return math.inf if args.smoke else args.seconds


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- provenance --------------------------------------------------------------


def provenance(args, wl) -> dict:
    import numpy

    import cvqkd

    src = hashlib.sha256()
    for path in sorted((SRC / "cvqkd").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "cvqkd": cvqkd.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **wl.provenance,
    }


def _git_sha():
    """HEAD's commit from .git, read directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
