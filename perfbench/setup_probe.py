"""Time one set-up of cvqkd in a fresh interpreter; print seconds.

usage: python3 setup_probe.py SRC_DIR CONFIG_JSON WARMUP_ARGV_JSON

Set-up is importing cvqkd, loading the workload's config and making the
first warm-up calls, which also pays for lazy imports inside numpy.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, config, warmup = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from cvqkd import cli

    cli.load_config(config)
    for argv in warmup:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code not in (0, 2):
            print(f"setup_probe: warm-up {argv} exited {code}", file=sys.stderr)
            return 1
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
