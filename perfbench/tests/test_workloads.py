import json

import pytest

import run
import workloads
from stripewalk.cli import config_from_text


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_regenerates_byte_identical_configs(workload):
    for seed in range(workloads.POOL):
        text = workloads.config_text(workload, seed)
        assert text == workloads.config_text(workload, seed)
        assert text == workloads.config_text(workload, seed + 3 * workloads.POOL)
        ref = json.loads((run.HERE / "reference" / workload / f"v{seed}.json").read_text())
        assert text == ref["config"]
    assert len({workloads.config_text(workload, s) for s in range(workloads.POOL)}) == workloads.POOL


def test_spinor_phase_is_real_or_complex_by_workload():
    for seed in range(workloads.POOL):
        for workload in ("characteristics", "limits-narrow"):
            cfg = config_from_text(workloads.config_text(workload, seed))
            assert all(z.imag == 0.0 for z in cfg.g)
        cfg = config_from_text(workloads.config_text("simulate-band", seed))
        assert cfg.g[1].imag != 0.0 and cfg.g[0].imag == 0.0
        assert abs(abs(cfg.g[0]) ** 2 + abs(cfg.g[1]) ** 2 - 1.0) < 1e-15


def test_spectrum_coin_is_a_valid_unitary():
    coins = set()
    for seed in range(workloads.POOL):
        cfg = config_from_text(workloads.config_text("spectrum-grid", seed))
        coin = cfg.coin_obj()  # raises unless unitary to 1e-10
        assert coin.is_generic
        coins.add((coin.a, coin.b))
    assert len(coins) == workloads.POOL


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.config_text("nope", 1)
