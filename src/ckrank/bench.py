"""Peak-memory benchmark: standard vs separable attention inside the encoder.

Runs one forward+backward of the two-layer encoder per variant per sequence
length and records the allocator's peak live bytes for the run, which is
exact by construction (every tensor registers its bytes). Absolute numbers
are CPU-allocator artifacts; the reproducible claim is the growth shape:
linear in sequence length for the separable path, quadratic for standard
attention.

The default benchmark model is deliberately small (32-dim, 2 heads) so the
quadratic variant fits in desk-scale RAM at n=4000; the shape of the curves
is what matters, not the absolute megabytes.
"""

import gc
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import conformer_block, init_block_params
from .memory import tracker
from .model import ModelConfig

DEFAULT_LENGTHS = (250, 500, 1000, 2000, 4000)
# Length of the unrecorded run that seeds the estimates when a capped sweep
# has measured nothing smaller yet.
PROBE_LENGTH = 32


@dataclass
class BenchRecord:
    variant: str
    n: int
    peak_bytes: int
    ms: float
    status: str = "ok"


def bench_attention_config():
    """The benchmark's own encoder settings (documented, not model defaults)."""
    return ModelConfig(model_dim=32, num_heads=2, d_key=16, d_value=16,
                       conv_window=7, conv_groups=4, dropout_rate=0.0,
                       num_layers=2)


def _estimate_bytes(n, measured, variant):
    """Crude upper-scale estimate used only to refuse hopeless runs: the peak
    of the longest measured run, scaled by the length ratio, squared for the
    standard variant's n-by-n weights."""
    n0, peak0 = max(measured)
    power = 2 if variant == "standard" else 1
    return int(peak0 * (n / n0) ** power)


def _measure(blocks, params, cfg, variant, x):
    """Peak tracked bytes of one encoder forward + backward on x."""
    try:
        with tracker.scope() as st:
            out = x
            for block in blocks:
                out = conformer_block(out, block, cfg, training=False,
                                      rng=None, variant=variant)
            T.backward(T.tmean(out))
            return st.peak_bytes
    finally:
        for p in params:
            p.drop_grad()


def bench_memory(lengths=DEFAULT_LENGTHS, config=None, seed=0, max_bytes=None):
    """One BenchRecord per (variant, n) for the encoder of the ``ModelConfig``
    config (num_layers blocks of model_dim, as ``conformer_block`` reads
    them); rows that would exceed max_bytes (or die with MemoryError) come
    back with status 'capped'. The estimate extrapolates the peaks measured
    at shorter lengths of the same sweep."""
    cfg = config or bench_attention_config()
    rng = np.random.default_rng(seed)
    records = []
    for variant in ("standard", "separable"):
        blocks = [init_block_params(cfg, rng) for _ in range(cfg.num_layers)]
        params = [t for block in blocks for t in block.values()]
        measured = []                                   # (n, peak) of ok rows
        if max_bytes is not None:
            probe = T.constant(np.zeros((PROBE_LENGTH, cfg.model_dim)))
            measured.append((PROBE_LENGTH,
                             _measure(blocks, params, cfg, variant, probe)))
        for n in lengths:
            smaller = [m for m in measured if m[0] <= n]
            if max_bytes is not None and smaller:
                estimate = _estimate_bytes(n, smaller, variant)
                if estimate > max_bytes:
                    records.append(BenchRecord(variant, n, estimate, 0.0, "capped"))
                    continue
            x = T.constant(rng.normal(size=(n, cfg.model_dim)))
            gc.collect()
            start = time.perf_counter()
            try:
                peak = _measure(blocks, params, cfg, variant, x)
                status = "ok"
                measured.append((n, peak))
            except MemoryError:
                peak = tracker.peak_bytes
                status = "capped"
            elapsed = (time.perf_counter() - start) * 1000.0
            del x
            records.append(BenchRecord(variant, n, int(peak), elapsed, status))
        del blocks, params
        gc.collect()
    return records


def write_bench_csv(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("variant,n,peak_bytes,ms,status\n")
        for r in records:
            fh.write(f"{r.variant},{r.n},{r.peak_bytes},{r.ms:.3f},{r.status}\n")


def _fit(ns, ys, degree):
    coeffs = np.polyfit(ns, ys, degree)
    pred = np.polyval(coeffs, ns)
    residual = float(np.linalg.norm(ys - pred))
    total = float(np.linalg.norm(ys - ys.mean()))
    r2 = 1.0 - (residual / total) ** 2 if total > 0 else 1.0
    return coeffs, residual, r2


def analyze(records):
    """Fit growth curves over the 'ok' rows of a sweep.

    Returns a dict with the separable linear R^2, the standard variant's
    linear/quadratic residual norms, and the peak ratio at the largest
    common length.
    """
    out = {}
    by_variant = {}
    for r in records:
        if r.status == "ok":
            by_variant.setdefault(r.variant, []).append((r.n, r.peak_bytes))
    if len(by_variant.get("separable", ())) >= 2:
        ns, ys = map(np.asarray, zip(*sorted(by_variant["separable"])))
        _, _, r2 = _fit(ns, ys.astype(np.float64), 1)
        out["separable_linear_r2"] = r2
    if len(by_variant.get("standard", ())) >= 3:
        ns, ys = map(np.asarray, zip(*sorted(by_variant["standard"])))
        ys = ys.astype(np.float64)
        _, res_lin, _ = _fit(ns, ys, 1)
        _, res_quad, _ = _fit(ns, ys, 2)
        out["standard_linear_residual"] = res_lin
        out["standard_quadratic_residual"] = res_quad
        out["standard_residual_ratio"] = res_lin / max(res_quad, 1e-12)
    if "separable" in by_variant and "standard" in by_variant:
        sep = dict(by_variant["separable"])
        std = dict(by_variant["standard"])
        common = sorted(set(sep) & set(std))
        if common:
            n_max = common[-1]
            out["peak_ratio_at_max_n"] = std[n_max] / sep[n_max]
            out["max_common_n"] = n_max
    return out
