"""One stripewalk CLI run in a fresh process, as the console script runs it.

    python3 perfbench/child.py RECORD MODE -- <stripewalk arguments>

Runs ``stripewalk.cli.main`` on the arguments and exits with its status.
Beside it, the process writes RECORD (JSON): the monotonic time at which
the subcommand started and ended, so the parent can split set-up from
work, and its own thread count and peak resident set.  MODE is one of

* ``run``: the plain CLI run;
* ``trace``: the layers are traced (see ``spans.py``) and RECORD also
  carries the span totals;
* ``setup``: everything up to the subcommand (interpreter, imports,
  argparse, config parsing) and no subcommand work, to sample set-up time.
"""

from __future__ import annotations

import json
import sys
import time


def _status() -> dict[str, int]:
    """Thread count and peak resident set (kB) of this process.

    ``VmHWM`` is the high-water mark of this process's own address space,
    which ``exec`` made fresh.  The parent's ``wait4`` figure is not: Linux
    carries the launching process's peak RSS across ``fork`` and ``exec``
    into the child's ``ru_maxrss``.
    """
    fields = {"Threads": "threads", "VmHWM": "peak_rss_kb"}
    out = dict.fromkeys(fields.values(), 0)
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                key = line.split(":")[0]
                if key in fields:
                    out[fields[key]] = int(line.split()[1])
    except OSError:
        pass
    return out


def main() -> int:
    record_path, mode = sys.argv[1], sys.argv[2]
    if mode not in ("run", "trace", "setup") or sys.argv[3] != "--":
        raise SystemExit("usage: child.py RECORD run|trace|setup -- <stripewalk arguments>")
    traced = mode == "trace"
    from stripewalk import cli

    record: dict = {}
    if traced:
        import spans as spans_mod

        tracer = spans_mod.Tracer()
        spans_mod.install(tracer)
    else:
        marks: list[int] = []

        def marked(fn):
            def run(*args, **kwargs):
                marks.append(time.monotonic_ns())
                try:
                    return 0 if mode == "setup" else fn(*args, **kwargs)
                finally:
                    marks.append(time.monotonic_ns())

            return run

        for name in [n for n in vars(cli) if n.startswith("cmd_")]:
            setattr(cli, name, marked(getattr(cli, name)))

    status = cli.main(sys.argv[4:])

    if traced:
        roots = [s for s in tracer.spans if s[spans_mod.PARENT] < 0]
        record["cmd_start_ns"] = roots[0][spans_mod.START]
        record["cmd_end_ns"] = roots[-1][spans_mod.END]
        record["layers"] = spans_mod.summarize(tracer.spans)
        # The ROADMAP traffic check: totals inside run_series at M = 2.
        record["m2_traffic"] = spans_mod.summarize(
            tracer.spans,
            lambda s: s[spans_mod.NAME] == "characteristics.run_series"
            and "m=2" in (s[spans_mod.COUNTS] or {}),
        )
        record["n_crit"] = spans_mod.summarize(
            tracer.spans, lambda s: s[spans_mod.NAME] == "characteristics.n_crit"
        )
    else:
        record["cmd_start_ns"], record["cmd_end_ns"] = marks[0], marks[-1]
    record.update(_status())
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
