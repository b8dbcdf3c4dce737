"""Per-layer and end-to-end timings of cvqkd, written to one JSON file.

usage: python3 benchmarks/bench.py --out BENCH.json

Run from anywhere; the program is imported from the src/ beside this
directory. The process pins BLAS and OpenMP to one thread and itself to
one core, then times, in-process, each layer of the pipeline and each CLI
command (driven through ``cvqkd.cli.main(argv)`` with its output captured).
Every figure is the median of REPEATS repeats; a repeat of a fast call
times a loop of calls and reports the time per call.

On a shared machine the speed of one process can drift by tens of percent
over seconds, and separate runs of the same code then read rows up to twice
apart. A fixed calibration kernel (interpreter arithmetic, float parsing
and formatting, small numpy and LAPACK calls, the kinds of work the rows
do) is therefore timed just before and just after every repeat, and each
repeat is also scaled by REFERENCE_S over the mean of those two kernel
times: the time it would have taken on a core where the kernel takes
REFERENCE_S. A row holds its raw median (``median_s``) next to its
scaled one (``scaled_median_s``); compare scaled medians across runs.
The file also records
N_PER_SETTING (the records per measurement setting of the sampling,
reconstruction and dataset rows), REPEATS, the numpy and Python versions,
the core count, the affinity it started with, the core it pinned, the git
SHA of HEAD and git's tree id of src/ as timed, which equals
``git rev-parse <commit>:src`` of a commit holding that code. A run takes
about 35 s.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cvqkd import (  # noqa: E402
    ChannelParams,
    SqueezingSpec,
    cli,
    load_dataset,
    make_epr_state,
    reconstruct,
    sample_homodyne,
    save_dataset,
    secret_key_rate,
    worst_case_key_rate,
)

#: the worst case's sample count, the CLI default
WORST_CASE_N = cli.DEFAULT_CONFIG["analysis"]["n_samples"]
#: repeats per figure; each figure is their median
REPEATS = 7
#: records per measurement setting; the CLI default of 10^6 would take minutes a run
N_PER_SETTING = 100_000
#: kernel_seconds() on the reference core, the fast state of the machine
#: it was written on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4)
REFERENCE_S = 0.0026

_TEXT = [repr(math.sin(i) * 1e3) for i in range(3000)]
_VALUES = [math.cos(i) for i in range(600)]
_MATRIX = np.eye(4) * 2.0 + 0.1


def kernel_seconds() -> float:
    """Seconds taken by the calibration kernel, a fixed mix of interpreter
    arithmetic, float parsing and formatting, and small numpy and LAPACK calls."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(25000):
        acc += i * 0.5
    for text in _TEXT:
        acc += float(text)
    acc += len(",".join(repr(v) for v in _VALUES))
    for _ in range(40):
        acc += float(np.linalg.det(_MATRIX)) + float(np.sqrt(_MATRIX).sum())
    return time.perf_counter() - t0


def median_per_call(fn, repeats: int, calls: int) -> dict:
    """Median over repeats of the mean time per call of `calls` calls of fn(),
    raw and scaled to the reference speed by the kernel times around each repeat."""
    fn()  # the first call fills caches
    per_call, kernel_s = [], [kernel_seconds()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls)
        kernel_s.append(kernel_seconds())
    scaled = [t * REFERENCE_S / ((before + after) / 2.0) for t, before, after in zip(per_call, kernel_s, kernel_s[1:])]
    return {
        "median_s": statistics.median(per_call),
        "scaled_median_s": statistics.median(scaled),
        "repeats_s": per_call,
        "scaled_repeats_s": scaled,
        "kernel_s": kernel_s,
        "calls_per_repeat": calls,
    }


def run_cli(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code not in (0, 2):
        raise SystemExit(f"cvqkd {' '.join(argv)} exited {code}")


def git_provenance() -> dict:
    """HEAD's SHA and the tree id of src/ as it is on disk, built in a scratch
    index, so it names the code timed whether or not HEAD holds it."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))

        def git(*args):
            proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True)
            return proc.stdout.strip() if proc.returncode == 0 else None

        tree = git("write-tree", "--prefix=src/") if git("add", "--all", "--", "src") is not None else None
        return {"head": git("rev-parse", "HEAD"), "src_tree": tree}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    affinity = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {affinity[0]})
    k, n = REPEATS, N_PER_SETTING

    # the default config's state: its channel is ChannelParams()'s defaults
    spec, channel = SqueezingSpec(var_sqz_db=cli.DEFAULT_CONFIG["source"]["var_sqz_db"]), ChannelParams()
    g = make_epr_state(spec, channel)
    ds = sample_homodyne(g, n_per_setting=n, seed=0)
    layers, commands = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = str(Path(tmp) / "records.csv")
        layers["make_epr_state"] = median_per_call(lambda: make_epr_state(spec, channel), k, 2000)
        layers["secret_key_rate"] = median_per_call(lambda: secret_key_rate(g), k, 2000)
        layers["worst_case_key_rate"] = median_per_call(lambda: worst_case_key_rate(g, WORST_CASE_N), k, 200)
        layers["sample_homodyne"] = median_per_call(lambda: sample_homodyne(g, n_per_setting=n, seed=0), k, 1)
        layers["reconstruct"] = median_per_call(lambda: reconstruct(ds), k, 1)
        layers["save_dataset"] = median_per_call(lambda: save_dataset(ds, csv_path), k, 1)
        layers["load_dataset"] = median_per_call(lambda: load_dataset(csv_path), k, 1)

        sweep = ["scan", "--sweep", "sqz_db", "--from", "4.5", "--to", "12", "--steps", "16", "--worst-case"]
        # a dense nominal sweep, as the benchmark's model-nominal workload runs them: state assembly shows
        dense = ["scan", "--sweep", "sigma", "--from", "0", "--to", "0.2", "--steps", "2000"]
        commands["simulate"] = median_per_call(lambda: run_cli(["simulate"]), k, 1000)
        commands["simulate --worst-case"] = median_per_call(lambda: run_cli(["simulate", "--worst-case"]), k, 200)
        commands[" ".join(sweep)] = median_per_call(lambda: run_cli(sweep), k, 20)
        commands[" ".join(dense)] = median_per_call(lambda: run_cli(dense), k, 3)
        commands[f"sample --n {n} then analyze --worst-case"] = median_per_call(
            lambda: (run_cli(["sample", "--n", str(n), "--out", csv_path]), run_cli(["analyze", "--worst-case", csv_path])),
            k,
            1,
        )

    doc = {
        "n_per_setting": n,
        "records": ds.n_records,
        "repeats": k,
        "reference_kernel_s": REFERENCE_S,
        "worst_case_n": WORST_CASE_N,
        "config": "cvqkd.cli.DEFAULT_CONFIG",
        "layers": layers,
        "cli": commands,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cores": os.cpu_count(),
            "affinity": affinity,
            "pinned_core": affinity[0],
            "machine": platform.machine(),
        },
        "git": git_provenance(),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"{'':55s} {'scaled':>10s}    {'raw':>10s}")
    for group in ("layers", "cli"):
        for name, figure in doc[group].items():
            print(f"{name:55s} {figure['scaled_median_s'] * 1e3:10.4f} ms {figure['median_s'] * 1e3:10.4f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
