"""Write the output gate's reference files from the current source tree.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs the CLI once per workload and input variant and stores a sketch of
its outputs in ``perfbench/reference/<workload>/v<i>.json`` and
``v<i>.npz`` (see ``gate.py``).  The
references define correctness for every later commit, so they are made
once, on the commit whose outputs are the contract; a run that fails is
an error, never a reference.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

import run
import gate
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS), choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    revision = run.git_revision(root) or "unknown"
    work = run.HERE / "_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    for workload in args.workload:
        target = run.HERE / "reference" / workload
        target.mkdir(parents=True, exist_ok=True)
        for v in range(workloads.POOL):
            text = workloads.config_text(workload, v)
            config = work / "config.txt"
            config.write_text(text)
            res = run.launch(root, workload, config, work / "out", work / "record.json", "run", 600.0)
            if res["exit_status"] != 0:
                print(f"{workload} v{v}: exit status {res['exit_status']}\n{res.get('log_tail', '')}")
                return 1
            ref = gate.make_reference(workload, v, text, work / "out", revision)
            gate.save_reference(ref, target / f"v{v}")
            print(f"{workload} v{v}: {res['wall_s']:.2f} s, {len(ref['files'])} files")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
