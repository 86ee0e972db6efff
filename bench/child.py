"""Run one warpfilt subcommand as the benchmark's child process.

    python3 bench/child.py RECORD_JSON SPAWN_MONOTONIC TRACE <subcommand> [args...]

It imports warpfilt.cli, as the `warpfilt` console script does, calls
cli.main with the remaining arguments and exits with its return code. Before
exiting it writes RECORD_JSON: the monotonic times at which the import ended
and main started and returned, the CPU time (user+sys) the process had used
when the import ended, and, with TRACE=1, the spans and counters of
bench/tracer.py. SPAWN_MONOTONIC is the parent's time.monotonic() just before
the spawn; the clock is system-wide on Linux, so the two can be subtracted.
"""

import json
import sys
import time


def main() -> int:
    record_path, spawned, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    import warpfilt.cli as cli

    imported = time.monotonic()
    record = {"spawned": spawned, "imported": imported, "import_cpu_s": time.process_time()}
    if trace:
        from tracer import Tracer

        tracer = Tracer(argv)
        tracer.install()
        record["main_start"] = time.monotonic()
        rc = tracer.run_main(cli.main, argv)
        record["main_end"] = time.monotonic()
        if rc == 0:
            tracer.finish()
        record.update(tracer.record())
    else:
        record["main_start"] = time.monotonic()
        rc = cli.main(argv)
        record["main_end"] = time.monotonic()
    record["rc"] = rc
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
