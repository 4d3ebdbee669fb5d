import json
import subprocess
import sys

import pytest

import run
import spans
from conftest import ROOT


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_with_nested_spans():
    clock = FakeClock()
    t = spans.Tracer(clock)
    root = t.open("cli")            # 0
    clock.now = 10
    a = t.open("walker.evolve")     # 10
    clock.now = 15
    b = t.open("walker.step")       # 15
    clock.now = 45
    t.close(b)                      # step: 30
    clock.now = 50
    c = t.open("walker.step")
    clock.now = 70
    t.close(c)                      # step: 20
    clock.now = 75
    t.close(a)                      # evolve: 65, self 65 - 50 = 15
    clock.now = 100
    t.close(root)                   # cli: 100, self 100 - 65 = 35
    assert spans.self_times(t.spans) == [35, 15, 30, 20]
    out = spans.summarize(t.spans)
    assert out["walker.step"] == {"calls": 2, "self_ns": 50, "incl_ns": 50, "counts": {}}
    assert out["walker.evolve"]["self_ns"] == 15
    assert out["cli"]["self_ns"] == 35
    assert sum(v["self_ns"] for v in out.values()) == 100


def test_recursive_layer_counts_inclusive_time_once():
    clock = FakeClock()
    t = spans.Tracer(clock)
    outer = t.open("limits")
    clock.now = 5
    inner = t.open("limits")
    clock.now = 8
    t.close(inner)
    clock.now = 10
    t.close(outer)
    out = spans.summarize(t.spans)["limits"]
    assert (out["calls"], out["self_ns"], out["incl_ns"]) == (2, 10, 10)


def test_summary_below_chosen_roots():
    clock = FakeClock()
    t = spans.Tracer(clock)
    root = t.open("cli")
    for m, dur in ((2, 10), (3, 20)):
        r = t.open("characteristics.run_series")
        t.count(f"m={m}", 1)
        s = t.open("walker.step")
        clock.now += dur
        t.count("kernel_ns", dur // 2)
        t.close(s)
        clock.now += 1
        t.close(r)
    t.close(root)
    m2 = spans.summarize(t.spans, lambda s: "m=2" in (s[spans.COUNTS] or {}))
    assert m2["characteristics.run_series"]["incl_ns"] == 11
    assert m2["walker.step"] == {"calls": 1, "self_ns": 10, "incl_ns": 10, "counts": {"kernel_ns": 5}}
    assert "cli" not in m2


def test_closing_out_of_order_is_an_error():
    t = spans.Tracer(FakeClock())
    a = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(a)


def _traced_child(tmp_path, subcommand, config_text):
    config = tmp_path / "cfg.txt"
    config.write_text(config_text)
    record = tmp_path / "rec.json"
    cmd = [sys.executable, str(run.HERE / "child.py"), str(record), "trace", "--",
           subcommand, "--config", str(config), "--out", str(tmp_path / "out")]
    proc = subprocess.run(cmd, env=run.child_env(ROOT), cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(record.read_text())


def test_traced_live_cells_match_the_closed_form(tmp_path):
    m, n = 3, 40
    rec = _traced_child(tmp_path, "simulate", f"m = {m}\nsteps = {n}\nsnapshots = 10 {n}\n")
    step = rec["layers"]["walker.step"]
    assert step["calls"] == n
    assert step["counts"]["cells"] == sum((2 * k + 1) * 4 * m for k in range(1, n + 1))
    # One sublattice of u + v is exactly zero at every time.
    assert 0.3 < step["counts"]["nonzero"] / step["counts"]["cells"] <= 0.5 + 1e-9
    assert step["counts"]["alloc_bytes"] > 0
    assert rec["layers"]["walker.evolve"]["calls"] == 2
    assert rec["layers"]["cli"]["counts"]["rows"] == 2 * (21 + 81)


def test_traced_characteristics_counts(tmp_path):
    n = 120
    rec = _traced_child(tmp_path, "characteristics", f"mlist = 2 3\nsteps = {n}\n")
    step = rec["layers"]["walker.step"]
    ncrit_steps = rec["n_crit"]["walker.step"]["calls"]
    assert step["calls"] == 2 * n + ncrit_steps
    assert 0 < ncrit_steps <= (4 * 2 + 40) + (4 * 3 + 40)
    assert rec["layers"]["walker.norm"]["calls"] == 2 * n
    m2 = rec["m2_traffic"]
    assert m2["walker.step"]["calls"] == n
    assert m2["characteristics.run_series"]["calls"] == 1
