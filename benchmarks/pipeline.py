"""One pipeline process: import ``deidkit.cli``, then run each stage through ``cli.main``.

Usage: python3 pipeline.py SPEC.json

SPEC holds ``stages`` (a list of [name, argv]), ``result`` (where to write the
timings) and ``trace`` (where to write spans, or null for an untraced run).
The process stamps ``ready`` with the system-wide monotonic clock just before
the first stage, so its launcher can measure start-up. Stages stop at the first
non-zero exit code.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    from deidkit import cli

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ready = time.monotonic()
    stages = []
    for name, argv in spec["stages"]:
        start = time.monotonic()
        try:
            if tracer:
                with tracer.stage(name):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception:  # report the stage as failed, with its traceback
            traceback.print_exc()
            rc = "exception"
        stages.append({"name": name, "rc": rc, "start": start, "end": time.monotonic()})
        if rc != 0:
            break

    usage = resource.getrusage(resource.RUSAGE_SELF)
    # VmHWM is this process image's own peak; ru_maxrss would carry the
    # launcher's size across exec.
    with open("/proc/self/status", encoding="ascii") as status:
        peak_rss_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    if tracer:
        tracer.dump(spec["trace"])
    result = {
        "ready": ready,
        "stages": stages,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kb": peak_rss_kb,
        "deidkit_file": cli.__file__,
    }
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
