"""Memory benchmark: record schema, determinism, capping, and curve fitting."""

import numpy as np
import pytest

from ckrank.bench import (BenchRecord, analyze, bench_attention_config,
                          bench_memory, write_bench_csv)
from ckrank.model import ModelConfig

SMALL_CFG = ModelConfig(model_dim=8, num_heads=2, d_key=4, d_value=4,
                        conv_window=3, conv_groups=2, dropout_rate=0.0,
                        num_layers=1)
LENGTHS = (40, 80, 160)


@pytest.fixture(scope="module")
def records():
    return bench_memory(lengths=LENGTHS, config=SMALL_CFG, seed=0)


def test_default_config_is_small():
    cfg = bench_attention_config()
    assert cfg.model_dim == 32 and cfg.num_heads == 2 and cfg.num_layers == 2
    assert cfg.dropout_rate == 0.0


def test_record_grid_complete(records):
    keys = {(r.variant, r.n) for r in records}
    assert keys == {(v, n) for v in ("standard", "separable") for n in LENGTHS}
    for r in records:
        assert r.status == "ok"
        assert r.peak_bytes > 0
        assert r.ms >= 0.0


def test_peak_bytes_deterministic(records):
    again = bench_memory(lengths=LENGTHS, config=SMALL_CFG, seed=0)
    a = {(r.variant, r.n): r.peak_bytes for r in records}
    b = {(r.variant, r.n): r.peak_bytes for r in again}
    assert a == b


def test_peaks_increase_with_length(records):
    for variant in ("standard", "separable"):
        peaks = [r.peak_bytes for r in records if r.variant == variant]
        assert peaks == sorted(peaks)
        assert peaks[0] < peaks[-1]


def test_max_bytes_caps_large_rows():
    capped = bench_memory(lengths=(40, 4000), config=SMALL_CFG, seed=0,
                          max_bytes=2_000_000)
    by_n = {(r.variant, r.n): r for r in capped}
    assert by_n[("standard", 4000)].status == "capped"
    assert by_n[("standard", 4000)].ms == 0.0
    assert by_n[("standard", 40)].status == "ok"
    # the capped row records the refusing estimate, not a measured peak
    assert by_n[("standard", 4000)].peak_bytes > 2_000_000


def test_write_bench_csv(tmp_path):
    path = tmp_path / "bench.csv"
    write_bench_csv([BenchRecord("separable", 10, 1234, 1.5),
                     BenchRecord("standard", 10, 9999, 2.25, "capped")], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "variant,n,peak_bytes,ms,status"
    assert lines[1] == "separable,10,1234,1.500,ok"
    assert lines[2] == "standard,10,9999,2.250,capped"


def test_analyze_fields(records):
    out = analyze(records)
    assert set(out) >= {"separable_linear_r2", "standard_linear_residual",
                        "standard_quadratic_residual",
                        "standard_residual_ratio", "peak_ratio_at_max_n",
                        "max_common_n"}
    assert out["max_common_n"] == max(LENGTHS)
    assert out["peak_ratio_at_max_n"] > 1.0


def test_analyze_on_synthetic_curves():
    linear = [BenchRecord("separable", n, 100 * n + 5000, 1.0)
              for n in (100, 200, 400, 800)]
    quad = [BenchRecord("standard", n, 3 * n * n + 100 * n, 1.0)
            for n in (100, 200, 400, 800)]
    out = analyze(linear + quad)
    assert out["separable_linear_r2"] == pytest.approx(1.0, abs=1e-9)
    assert out["standard_quadratic_residual"] == pytest.approx(0.0, abs=1e-3)
    assert out["standard_residual_ratio"] > 1e6
    assert out["peak_ratio_at_max_n"] == pytest.approx(
        (3 * 800 * 800 + 100 * 800) / (100 * 800 + 5000))


def test_analyze_skips_capped_rows():
    rows = [BenchRecord("separable", n, 10 * n, 1.0) for n in (10, 20, 30)]
    rows.append(BenchRecord("separable", 40, 10**12, 0.0, "capped"))
    rows += [BenchRecord("standard", n, n * n, 1.0) for n in (10, 20, 30)]
    rows.append(BenchRecord("standard", 40, 10**12, 0.0, "capped"))
    out = analyze(rows)
    assert out["max_common_n"] == 30
    assert out["peak_ratio_at_max_n"] == pytest.approx(900 / 300)
    assert out["separable_linear_r2"] == pytest.approx(1.0, abs=1e-12)


def test_analyze_handles_missing_variant():
    rows = [BenchRecord("separable", n, 10 * n, 1.0) for n in (10, 20)]
    out = analyze(rows)
    assert "standard_linear_residual" not in out
    assert "peak_ratio_at_max_n" not in out
