"""The stripewalk benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the one holding ``src/stripewalk``).
The benchmark writes the workload's config file for the seed.  It starts
``SETUP_PROBES`` CLI processes that stop where the subcommand would start,
then runs the CLI on the file in a fresh process, one run after another,
for about S seconds and at least ``MIN_RUNS`` times.  Every run is gated
against the seed commit's reference outputs and must be byte-identical to
the first run of the set.

With ``--trace 0`` it reports the end-to-end metrics (median over runs).
With ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics of the traced ones, and the tracing overhead as traced
minus untraced wall time.  The last line of standard output is one JSON
object; the lines before it are a readable report and the environment
record.  Per-run records go to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: Fewest CLI runs per set, so every median has at least three samples
#: even when one run is longer than a third of the measuring time.
MIN_RUNS = 3
#: A run never starts a CLI process that could end past this many seconds.
HARD_LIMIT_S = 160.0
#: Extra CLI processes per untraced set that stop where the subcommand
#: would start, so ``setup_s`` is a median of many set-ups.
SETUP_PROBES = 8
#: BLAS and OpenMP threads in every CLI process; the same on every commit.
BLAS_THREADS = "1"

#: End-to-end metrics and their units; each is a field of every run record.
#: ``setup_s`` also takes the set-up probes.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: ROADMAP's cProfile shares of run_series at M=2, n=2000, for the traffic check.
ROADMAP_M2_SHARES = {"kernel": 0.40, "step_alloc": 0.12, "norm": 0.12, "observables": 0.23}


class SetupError(Exception):
    """The tree cannot be benchmarked (no package, no reference)."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def launch(root: Path, workload: str, config: Path, out_dir: Path, record: Path, mode: str, timeout: float) -> dict:
    """Run the CLI once in a fresh process; wall, set-up and peak RSS of that process.

    The peak RSS is the process's own ``VmHWM`` (see ``child.py``), not the
    ``ru_maxrss`` that ``wait4`` reports, which includes this process's peak.

    ``mode`` is ``run``, ``trace`` or ``setup`` (see ``child.py``).
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    record.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        str(record),
        mode,
        "--",
        workloads.SUBCOMMAND[workload],
        "--config",
        str(config),
        "--out",
        str(out_dir),
        *workloads.FLAGS.get(workload, []),
    ]
    log = out_dir.parent / "child.log"
    with open(log, "w") as fh:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=child_env(root), cwd=root)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = {
        "traced": mode == "trace",
        "exit_status": proc.returncode,
        "wall_s": (t1 - t0) / 1e9,
        "peak_rss_mb": float("nan"),
    }
    if record.is_file():
        rec = json.loads(record.read_text())
        run["setup_s"] = (rec["cmd_start_ns"] - t0) / 1e9
        run["exit_s"] = (t1 - rec["cmd_end_ns"]) / 1e9
        run["threads"] = rec["threads"]
        run["peak_rss_mb"] = rec["peak_rss_kb"] / 1024.0
        run["record"] = rec
    if proc.returncode != 0:
        run["log_tail"] = log.read_text()[-2000:]
    return run


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path, load_at_start: tuple) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root),
        "loadavg_start": list(load_at_start),
        "client_processes": 1,
    }


def load_reference(workload: str, seed: int) -> dict:
    stem = HERE / "reference" / workload / f"v{workloads.variant(seed)}"
    for path in (stem.with_suffix(".json"), stem.with_suffix(".npz")):
        if not path.is_file():
            raise SetupError(f"missing reference outputs {path}")
    return gate.load_reference(stem)


def _field(summary: dict, name: str, key: str = "self_ns") -> float:
    """A span total (calls, self_ns, incl_ns) or count; 0 for a layer never entered."""
    agg = summary.get(name)
    if agg is None:
        return 0
    return agg[key] if key in agg else agg["counts"].get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layers_of_run(run: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced CLI process."""
    rec = run["record"]
    layers, m2 = rec["layers"], rec["m2_traffic"]

    def self_s(name):
        return _field(layers, name) / 1e9

    cells = _field(layers, "walker.step", "cells")
    eig_calls = _field(layers, "spectral.eig", "calls")
    rows = _field(layers, "cli", "rows")
    m2_total = _field(m2, "characteristics.run_series", "incl_ns")
    m2_kernel = _field(m2, "walker.step", "kernel_ns")
    return {
        "walker.step.calls": (_field(layers, "walker.step", "calls"), "count"),
        "walker.step.self_s": (self_s("walker.step"), "s"),
        "walker.step.kernel_s": (_field(layers, "walker.step", "kernel_ns") / 1e9, "s"),
        "walker.step.live_cells": (cells, "count"),
        "walker.step.ns_per_live_cell": (_ratio(_field(layers, "walker.step", "incl_ns"), cells), "ns"),
        "walker.step.live_fraction": (_ratio(_field(layers, "walker.step", "nonzero"), cells), "ratio"),
        "walker.step.alloc_bytes": (_field(layers, "walker.step", "alloc_bytes"), "B"),
        "walker.measure.self_s": (self_s("walker.measure"), "s"),
        "walker.norm.calls": (_field(layers, "walker.norm", "calls"), "count"),
        "walker.norm.self_s": (self_s("walker.norm"), "s"),
        "walker.evolve.self_s": (self_s("walker.evolve"), "s"),
        "walker.band_field.self_s": (self_s("walker.band_field"), "s"),
        "walker.band_field.cells": (_field(layers, "walker.band_field", "cells"), "count"),
        "characteristics.run_series.self_s": (self_s("characteristics.run_series"), "s"),
        "characteristics.observables.self_s": (self_s("characteristics.observables"), "s"),
        "characteristics.n_crit.self_s": (self_s("characteristics.n_crit"), "s"),
        "characteristics.n_crit.steps": (_field(rec["n_crit"], "walker.step", "calls"), "count"),
        "characteristics.fits.self_s": (self_s("characteristics.fits"), "s"),
        "spectral.build_w.calls": (_field(layers, "spectral.build_w", "calls"), "count"),
        "spectral.build_w.self_s": (self_s("spectral.build_w"), "s"),
        "spectral.eig.calls": (eig_calls, "count"),
        "spectral.eig.self_s": (self_s("spectral.eig"), "s"),
        "spectral.eig.us_per_call": (_ratio(_field(layers, "spectral.eig", "incl_ns") / 1e3, eig_calls), "us"),
        "coin.blocks.calls": (_field(layers, "coin.blocks", "calls"), "count"),
        "coin.blocks.self_s": (self_s("coin.blocks"), "s"),
        "limits.self_s": (self_s("limits"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.rows_written": (rows, "count"),
        "cli.bytes_written": (_field(layers, "cli", "bytes"), "B"),
        "cli.ns_per_row": (_ratio(_field(layers, "cli"), rows), "ns"),
        "trace.setup_s": (run["setup_s"], "s"),
        "trace.bookkeeping_s": (self_s("trace.bookkeeping"), "s"),
        "trace.wall_s": (run["wall_s"], "s"),
        "trace.exit_s": (run["exit_s"], "s"),
        "trace.unaccounted_s": (
            run["wall_s"] - run["setup_s"] - run["exit_s"] - sum(a["self_ns"] for a in layers.values()) / 1e9,
            "s",
        ),
        "traffic.m2.kernel_share": (_ratio(m2_kernel, m2_total), "ratio"),
        "traffic.m2.step_alloc_share": (_ratio(_field(m2, "walker.step") - m2_kernel, m2_total), "ratio"),
        "traffic.m2.norm_share": (_ratio(_field(m2, "walker.norm"), m2_total), "ratio"),
        "traffic.m2.observables_share": (
            _ratio(_field(m2, "characteristics.observables") + _field(m2, "walker.measure"), m2_total),
            "ratio",
        ),
    }


def layer_metrics(runs: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over the traced runs of one set."""
    per_run = [_layers_of_run(r) for r in runs if r["traced"] and "record" in r]
    if not per_run:
        return {}
    out = {
        name: (stats.summary([p[name][0] for p in per_run])["median"], unit)
        for name, (_, unit) in per_run[0].items()
    }
    untraced = [r["wall_s"] for r in runs if not r["traced"] and "record" in r]
    untraced_wall = stats.summary(untraced)["median"] if untraced else 0.0
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (out["trace.wall_s"][0] - untraced_wall, "s")
    return out


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (root / "src" / "stripewalk" / "cli.py").is_file():
        raise SetupError(f"no stripewalk package under {root / 'src'}; run from the source tree root")
    reference = load_reference(workload, seed)
    config_text = workloads.config_text(workload, seed)
    if config_text != reference["config"]:
        raise SetupError(f"generated config for {workload} seed {seed} differs from its reference")
    work = HERE / "_work" / f"{workload}-s{seed}-t{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.txt"
    config.write_text(config_text)
    out_dir, record = work / "out", work / "record.json"

    runs: list[dict] = []
    first_hashes: dict | None = None
    first_errors: list[str] = []
    min_runs = 2 * MIN_RUNS - 2 if trace else MIN_RUNS
    start = time.monotonic()
    probes = [] if trace else [
        launch(root, workload, config, out_dir, record, "setup", HARD_LIMIT_S) for _ in range(SETUP_PROBES)
    ]
    while True:
        elapsed = time.monotonic() - start
        walls = [r["wall_s"] for r in runs]
        if walls and elapsed + max(walls) > HARD_LIMIT_S:
            break
        # Start another run only if it should end by S plus half a run, so
        # a set lasts S on average whatever the length of one run.
        if len(runs) >= min_runs and elapsed + stats.summary(walls)["median"] / 2 >= seconds:
            break
        mode = "trace" if trace and len(runs) % 2 == 1 else "run"
        run = launch(root, workload, config, out_dir, record, mode, HARD_LIMIT_S - elapsed)
        errors = []
        if run["exit_status"] != 0:
            errors.append(f"exit status {run['exit_status']}")
        if "record" not in run:
            errors.append("the CLI process wrote no timing record")
        hashes = gate.output_hashes(out_dir)
        if first_hashes is None:
            first_hashes = hashes
            first_errors = gate.check_outputs(out_dir, reference)
        elif hashes != first_hashes:
            errors.append("outputs are not byte-identical to the first run of the set")
        run["errors"] = errors + first_errors
        run["output_sha256"] = hashes
        runs.append(run)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "variant": workloads.variant(seed),
        "config_sha256": workloads.sha256_text(config_text),
        "setup_probes_s": [p["setup_s"] for p in probes if p["exit_status"] == 0 and "setup_s" in p],
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that ``launch`` kills and reaps the running CLI.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    load_at_start = os.getloadavg()
    try:
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    runs = result["runs"]
    env = environment(root, load_at_start)
    env["max_child_threads"] = max((r.get("threads", 0) for r in runs), default=0)
    env["threads_within_nproc"] = env["max_child_threads"] <= (env["nproc"] or 1)
    failed = sum(1 for r in runs if r["errors"])
    timed = [r for r in runs if not r["traced"] and "setup_s" in r]

    print(f"workload {args.workload}  seed {args.seed} (variant {result['variant']})  "
          f"config sha256 {result['config_sha256']}")
    for i, r in enumerate(runs):
        status = "ok" if not r["errors"] else "FAILED: " + "; ".join(r["errors"])[:300]
        print(f"  run {i}: {'traced' if r['traced'] else 'untraced'}  wall {r['wall_s']:.4f} s  "
              f"setup {r.get('setup_s', float('nan')):.4f} s  rss {r['peak_rss_mb']:.1f} MB  {status}")
        if r.get("log_tail"):
            print("    " + r["log_tail"].strip().replace("\n", "\n    "))
    metrics: dict[str, dict] = {}
    if args.trace:
        for name, (value, unit) in layer_metrics(runs).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:40s} {value:.6g} {unit}")
        if "traffic.m2.kernel_share" in metrics and args.workload == "characteristics":
            for key, roadmap in ROADMAP_M2_SHARES.items():
                got = metrics[f"traffic.m2.{key}_share"]["value"]
                print(f"  traffic check run_series M=2 {key:12s} measured {got:6.1%}  ROADMAP {roadmap:4.0%}")
        if "trace.overhead_s" in metrics:
            gap = metrics["trace.unaccounted_s"]["value"]
            over = metrics["trace.overhead_s"]["value"]
            verdict = "within" if abs(gap) <= max(over, 0.0) else "NOT within"
            print(f"  layer self times + set-up vs traced wall: gap {gap:.4f} s, {verdict} "
                  f"the tracing overhead {over:.4f} s")
    elif timed:
        samples = {name: [r[name] for r in timed] for name in END_TO_END}
        samples["setup_s"] = result["setup_probes_s"] + samples["setup_s"]
        for name, unit in END_TO_END.items():
            s = stats.summary(samples[name])
            metrics[name] = {"value": s["median"], "unit": unit}
            print(f"  {name:12s} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  (n={s['n']})")
    failed_frac = failed / len(runs) if runs else 1.0
    print(f"  {'failed_frac':12s} {failed_frac:.6g} fraction  ({failed} of {len(runs)} runs)")
    print("env " + json.dumps(env, sort_keys=True))

    results = HERE / "_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for r in runs:
        r.pop("record", None)
    result.update(environment=env, failed_frac=failed_frac, metrics=metrics, trace=bool(args.trace))
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
