"""Tests of the benchmark itself: output schema and tracing off when untraced.

    python3 -m pytest perfbench -q

They run fold-long for real, one pass per set-up over its four
documents, so they take under a minute.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fold-long",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check_result(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


def test_spec_matches_run_tables():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [row[:3] for row in run.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_untraced_output_schema():
    report, result = _run_cli(0)
    _check_result(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
    assert report["provenance"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "fold-long" in report["provenance"]["config_hash"]
    assert report["figures"]["fail_frac"]["value"] == 0.0


def test_traced_output_schema():
    report, result = _run_cli(1)
    _check_result(result, SPEC["per_layer"])
    assert set(report["per_layer_map"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(report["tracing_overhead"]) == \
        {m["name"] for m in SPEC["end_to_end"]} - {"ok_frac"}
    metrics = result["metrics"]
    assert metrics["model.encode_document_ms"]["value"] > 0
    assert metrics["tensor.ops_per_doc"]["value"] > 0
    assert metrics["memory.peak_live_bytes_per_doc"]["value"] > 0
    assert metrics["attention.separable_linear_r2"]["value"] >= 0.99
    assert (ROOT / report["spans_file"]).is_file()


def _raw_targets():
    return [tracing._raw_attr(owner, attr) for owner, attr in tracing.target_attrs()]


def test_untraced_run_leaves_wrapped_callables_untouched(tmp_path, monkeypatch):
    before = _raw_targets()

    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    result, _ = run.run("fold-long", 3, 0.0, False, str(tmp_path), tmp_path)
    assert result["correct"]
    assert all(a is b for a, b in zip(before, _raw_targets()))


def test_tracer_restores_every_target():
    before = _raw_targets()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _raw_targets()
    finally:
        tracer.uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _raw_targets()))


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [[0, 0.0, 10.0, -1, "setup"], [1, 2.0, 5.0, 0, "setup"],
                    [1, 6.0, 7.0, 0, "setup"]]
    self_times = tracer.self_times()
    assert self_times["outer"] == pytest.approx([6.0])
    assert self_times["inner"] == pytest.approx([3.0, 1.0])


def test_failed_result_checks_are_not_diluted_by_calls():
    checks = workloads.Checks()
    for _ in range(10000):
        checks.call(True, "call")
    for i in range(25):
        checks.record(i > 0, "result")
    assert (checks.attempted, checks.failed) == (10025, 1)
    assert checks.ok_frac() == pytest.approx(1 - 1 / 25)


@pytest.mark.parametrize("variant", ["ndrm2", "ndrm3"])
def test_reference_matches_per_term_scores(variant):
    from ckrank.synth import make_synthetic
    from ckrank.model import CKModel, ModelConfig

    data = make_synthetic(seed=2, num_docs=24, num_train_queries=1,
                          num_eval_queries=2, doc_len=(300, 400))
    model = CKModel(ModelConfig(variant=variant, seed=0,
                                **workloads.TINY_KWARGS), data.vocab)
    doc = data.corpus.get(sorted(data.corpus.docs)[0])
    terms = sorted(t for t in doc.tf if t in model.vocab)
    np.testing.assert_allclose(reference.term_scores(model, terms, doc),
                               model.per_term_scores(terms, doc),
                               rtol=1e-5, atol=1e-5)
