#!/usr/bin/env python3
"""ckrank benchmark: one seeded workload per run, end to end or per layer.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports the package from ``src/``). With
``--trace 0`` the workload runs untraced and the last stdout line holds the
end-to-end metrics; with ``--trace 1`` it runs once untraced and once with
spans around the package's public functions, and the last line holds the
per-layer metrics. The line before it is a report: provenance, the
workload's figures under their own names, the per-layer map and, when
traced, the tracing overhead. Spans go to ``.perfbench/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("peak_bytes", "B", "lower"),
    ("ok_frac", "ratio", "higher"),
)

SERVES = ("serve",)
FOLDS = ("fold-short", "fold-long")
WORKLOAD_NAMES = SERVES + FOLDS
# name, unit, better, (end-to-end metrics it should move, on which workloads),
# source: ("span", span name, scale) | ("count", counter, request kind)
#         | ("extra",) from the workload's layer_counts | ("overhead",)
PER_LAYER = (
    ("index.retrieve_ms", "ms", "lower", (("p50_ms", "p99_ms"), SERVES),
     ("span", "index.retrieve", 1e3)),
    ("index.postings_touched_per_query", "count", "lower",
     (("throughput",), SERVES), ("extra",)),
    ("index.docs_scored_per_query", "count", "lower",
     (("throughput",), SERVES), ("extra",)),
    ("index.build_index_s", "s", "lower", (("setup_s",), SERVES),
     ("span", "index.build_index", 1.0)),
    ("index.save_index_ms", "ms", "lower", (("setup_s",), SERVES),
     ("span", "index.save_index", 1e3)),
    ("index.load_index_ms", "ms", "lower", (("setup_s",), SERVES),
     ("span", "index.load_index", 1e3)),
    ("index.file_bytes", "B", "lower", (("setup_s",), SERVES), ("extra",)),
    ("index.rare_term_gap_pairs", "count", "lower",
     ((), SERVES + FOLDS), ("extra",)),
    ("bm25.search_ms", "ms", "lower", ((), SERVES),
     ("span", "bm25.search", 1e3)),
    ("model.encode_document_ms", "ms", "lower", (("throughput",), FOLDS),
     ("span", "model.encode_document", 1e3)),
    ("model.per_term_scores_ms", "ms", "lower", (("throughput",), FOLDS),
     ("span", "model.per_term_scores", 1e3)),
    ("model.explicit_term_scores_ms", "ms", "lower", (("throughput",), FOLDS),
     ("span", "model.explicit_term_scores", 1e3)),
    ("attention.conformer_block_ms", "ms", "lower", (("throughput",), FOLDS),
     ("span", "attention.conformer_block", 1e3)),
    ("attention.multi_head_ms", "ms", "lower", (("throughput",), FOLDS),
     ("span", "attention.multi_head", 1e3)),
    ("attention.separable_linear_r2", "ratio", "higher",
     (("peak_bytes",), ("fold-long",)), ("extra",)),
    ("attention.peak_ratio_at_max_n", "ratio", "higher",
     (("peak_bytes",), ("fold-long",)), ("extra",)),
    ("tensor.grouped_conv1d_ms", "ms", "lower", (("throughput",), ("fold-long",)),
     ("span", "tensor.grouped_conv1d", 1e3)),
    ("tensor.linear_ms", "ms", "lower", (("throughput",), ("fold-long",)),
     ("span", "tensor.linear", 1e3)),
    ("tensor.layer_norm_ms", "ms", "lower", (("throughput",), ("fold-long",)),
     ("span", "tensor.layer_norm", 1e3)),
    ("tensor.softmax_ms", "ms", "lower", (("throughput",), ("fold-long",)),
     ("span", "tensor.softmax", 1e3)),
    ("tensor.ops_per_doc", "count", "lower", (("throughput",), ("fold-short",)),
     ("count", "tensor.ops", "doc")),
    # serve's set-up trains ndrm2, the only training a workload runs.
    ("tensor.ops_per_step", "count", "lower", (("setup_s",), SERVES),
     ("count", "tensor.ops", "step")),
    ("tensor.backward_ms", "ms", "lower", (("setup_s",), SERVES),
     ("span", "tensor.backward", 1e3)),
    ("memory.tensors_allocated_per_doc", "count", "lower",
     (("throughput",), ("fold-short",)),
     ("count", "memory.tensors_allocated", "doc")),
    ("memory.peak_live_bytes_per_doc", "B", "lower",
     (("peak_bytes",), ("fold-long",)), ("extra",)),
    ("pooling.interaction_rows_ms", "ms", "lower", (("throughput",), FOLDS),
     ("span", "pooling.interaction_rows", 1e3)),
    ("pooling.windowed_pool_terms_ms", "ms", "lower", (("throughput",), FOLDS),
     ("span", "pooling.windowed_pool_terms", 1e3)),
    ("pooling.latent_term_scores_ms", "ms", "lower", (("throughput",), FOLDS),
     ("span", "pooling.latent_term_scores", 1e3)),
    ("train.batch_loss_ms", "ms", "lower", (("setup_s",), SERVES),
     ("span", "train.batch_loss", 1e3)),
    ("train.clip_gradients_ms", "ms", "lower", (("setup_s",), SERVES),
     ("span", "train.clip_gradients", 1e3)),
    ("train.adam_step_ms", "ms", "lower", (("setup_s",), SERVES),
     ("span", "train.adam_step", 1e3)),
    ("checkpoint.save_model_ms", "ms", "lower", (("setup_s",), SERVES + FOLDS),
     ("span", "checkpoint.save_model", 1e3)),
    ("checkpoint.load_model_ms", "ms", "lower", (("setup_s",), SERVES + FOLDS),
     ("span", "checkpoint.load_model", 1e3)),
    # Input generation, made once per run outside the timed set-up.
    ("synth.make_synthetic_s", "s", "lower", ((), WORKLOAD_NAMES),
     ("span", "synth.make_synthetic", 1.0)),
    ("corpus.vocabulary_build_s", "s", "lower", ((), WORKLOAD_NAMES),
     ("span", "corpus.vocabulary_build", 1.0)),
    ("trace.overhead_pct", "%", "lower", ((), ()), ("overhead",)),
)


def per_layer_map():
    return {name: {"moves": list(moves), "on": list(on)}
            for name, _, _, (moves, on), _ in PER_LAYER}


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, configs):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "config_hash": {name: cfg.config_hash() for name, cfg in configs.items()},
        "seed": seed,
        "git_commit": git_commit(),
    }


def run_phase(workload, seed, seconds, workdir, checks, setups, tracer=None):
    """Make the seeded inputs once (untimed), then set up ``setups`` times;
    after each set-up, warm up and measure for an equal share of
    ``seconds``. Returns the last state and the pooled figures."""
    clock = time.perf_counter
    inputs = workload.inputs(seed)
    setup_times = []
    timed = None
    for _ in range(setups):
        t0 = clock()
        state = workload.setup(inputs, seed, workdir)
        setup_times.append(clock() - t0)
        workload.warm(state)
        part = workload.measure(state, seconds / setups, checks, tracer)
        timed = part if timed is None else timed.merge(part)
    figures = timed.figures()
    figures["setup_s"] = statistics.median(setup_times)
    return state, figures


def layer_metrics(tracer, extras, untraced, traced):
    self_times = tracer.self_times()
    out = {}
    for name, unit, _, _, source in PER_LAYER:
        kind = source[0]
        if kind == "span":
            calls = self_times.get(source[1], ())
            value = statistics.median(calls) * source[2] if calls else 0.0
        elif kind == "count":
            value = tracer.per_request(source[1], source[2])
        elif kind == "extra":
            value = extras.get(name, 0.0)
        else:
            value = 100.0 * (untraced["throughput"] - traced["throughput"]) \
                / untraced["throughput"]
        out[name] = {"value": value, "unit": unit}
    return out


def run(workload_name, seed, seconds, trace, workdir, out_dir):
    from tracing import Tracer
    from workloads import SETUP_REPEATS, WORKLOADS, Checks, model_configs

    workload = WORKLOADS[workload_name]
    checks = Checks()
    state, untraced = run_phase(workload, seed, seconds, workdir, checks,
                                1 if trace else SETUP_REPEATS)
    workload.check(state, seed, checks)
    untraced["ok_frac"] = checks.ok_frac()
    report = {"workload": workload_name,
              "provenance": provenance(seed, model_configs()),
              "figures": {k: {"value": v, "unit": u} for k, (v, u)
                          in workload.named(state, untraced).items()},
              "failures": checks.failures}
    report["figures"]["setup_s"] = {"value": untraced["setup_s"], "unit": "s"}
    for name, unit in (("p99_all_calls_ms", "ms"), ("items", "count"),
                       ("timed_calls", "count")):
        report["figures"][name] = {"value": untraced[name], "unit": unit}
    report["figures"]["fail_frac"] = {
        "value": checks.failed / checks.attempted, "unit": "ratio"}
    units = {name: unit for name, unit, _ in END_TO_END}
    if not trace:
        metrics = {name: {"value": untraced[name], "unit": units[name]}
                   for name in units}
    else:
        del state
        tracer = Tracer()
        tracer.install()
        try:
            state, traced = run_phase(workload, seed, seconds, workdir,
                                      Checks(), 1, tracer)
        finally:
            tracer.uninstall()
        extras = workload.layer_counts(state, tracer)
        metrics = layer_metrics(tracer, extras, untraced, traced)
        report["per_layer_map"] = per_layer_map()
        report["tracing_overhead"] = {
            name: {"untraced": untraced[name], "traced": traced[name],
                   "traced_minus_untraced": traced[name] - untraced[name],
                   "unit": units[name]}
            for name in units if name in traced}
        spans_path = out_dir / f"spans-{workload_name}-seed{seed}.json"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Fixed before numpy loads its BLAS, so every run uses the same threads.
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "ckrank" / "__init__.py").is_file():
        print(f"perfbench: no ckrank package under {src}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir)
    try:
        result, report = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
