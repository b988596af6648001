"""Run pan4d commands in this fresh interpreter and report what they cost.

Usage: python3 child.py SPEC.json

SPEC.json holds {"commands": [[argv...], ...], "trace": bool, "out": path}.
The result written to "out" holds the wall time of ``import pan4d.cli``, the
wall time and exit code of each ``pan4d.cli.main(argv)`` call, this process's
peak RSS and, when tracing, the per-layer summary. The parent sets
PYTHONPATH so that ``pan4d`` is imported from the checkout's ``src/``.
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_mb():
    """This process's peak RSS (VmHWM). getrusage's ru_maxrss would also count
    the parent's RSS at fork, which Linux carries across exec."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    with open(sys.argv[1]) as f:
        spec = json.load(f)

    t0 = time.perf_counter()
    import pan4d.cli as cli
    import_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod  # this file's directory is sys.path[0]

        tracer = tracer_mod.install()

    seconds, codes = [], []
    for argv in spec["commands"]:
        with contextlib.redirect_stdout(io.StringIO()):
            t = time.perf_counter()
            codes.append(cli.main(argv))
            seconds.append(time.perf_counter() - t)

    result = {
        "pan4d_file": cli.__file__,
        "import_s": import_s,
        "seconds": seconds,
        "codes": codes,
        "peak_rss_mb": peak_rss_mb(),
        "trace": tracer.summary() if tracer else None,
    }
    with open(spec["out"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
