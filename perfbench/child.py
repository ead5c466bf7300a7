"""One fresh interpreter running the program's CLI entry point.

Usage::

    python perfbench/child.py RESULT.json TRACE.json|- -- <repro-lofreq args>

Times ``import repro.cli`` and ``repro.cli.main(args)``, records when
the first BAM record is decoded and the process's peak RSS, and writes
them to ``RESULT.json``.  With a trace path (not ``-``), every layer is
wrapped by :class:`spans.Tracer` and the spans are written there as
Chrome trace-event JSON, with the per-layer summary in the result.
``serve`` runs until SIGTERM, like the real server.
"""

import json
import sys
import time


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM).  Not ru_maxrss: after
    exec that still counts the memory of the process that forked us."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT TRACE|- -- ARGS...")
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    first = []
    tracer = None
    if trace_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        # One-shot hook: note the first decoded record, then get out of
        # the way so the untraced run pays for one extra call only.
        import repro.io.bam as bam

        decode = bam.decode_record

        def first_decode(*args, **kwargs):
            bam.decode_record = decode
            if not first:
                first.append(time.perf_counter())
            return decode(*args, **kwargs)

        bam.decode_record = first_decode
    t_enter = time.perf_counter()
    rc = repro.cli.main(argv)
    t_exit = time.perf_counter()
    out = {
        "rc": rc,
        "import_s": import_s,
        "main_s": t_exit - t_enter,
        "first_decode_s": first[0] - t_enter if first else None,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary((t_enter, t_exit), trace_path)
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
