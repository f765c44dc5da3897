"""Hand-computed fixtures and boundary behavior for the ranking metrics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckrank.errors import ConfigError
from ckrank.evalmetrics import (BINARY_REL_THRESHOLD, METRICS, ap_at_k,
                                evaluate, ncg_at_k, ndcg_at_k, rr_at_k,
                                write_per_query_csv)


def test_ndcg_swapped_pair_fixture():
    qrel = {"d1": 3, "d2": 1}
    got = ndcg_at_k(["d2", "d1"], qrel, 10)
    want = (1.0 + 7.0 / math.log2(3)) / (7.0 + 1.0 / math.log2(3))
    assert got == pytest.approx(want, abs=1e-9)


def test_ndcg_perfect_and_empty():
    qrel = {"d1": 3, "d2": 2, "d3": 1}
    assert ndcg_at_k(["d1", "d2", "d3"], qrel, 10) == 1.0
    assert ndcg_at_k([], qrel, 10) == 0.0
    assert ndcg_at_k(["x", "y"], qrel, 10) == 0.0


def test_ndcg_cutoff_limits_both_sides():
    qrel = {"d1": 1, "d2": 1}
    # at cutoff 1 the ideal also only counts one document
    assert ndcg_at_k(["d1"], qrel, 1) == 1.0


def test_ndcg_no_positive_judgments():
    assert ndcg_at_k(["d1"], {"d1": 0}, 10) == 0.0


def test_ncg_ignores_rank_position():
    qrel = {"d1": 3, "d2": 1}
    # gain 1 of 8 total, wherever it sits in the top k
    assert ncg_at_k(["d2", "x", "y"], qrel, 10) == pytest.approx(1.0 / 8.0)
    assert ncg_at_k(["x", "y", "d2"], qrel, 10) == pytest.approx(1.0 / 8.0)
    assert ncg_at_k(["d1", "d2"], qrel, 10) == 1.0


def test_ncg_ideal_respects_cutoff():
    qrel = {"d1": 2, "d2": 2, "d3": 2}
    assert ncg_at_k(["d1"], qrel, 1) == 1.0


def test_ap_binarizes_and_divides_by_total_relevant():
    assert BINARY_REL_THRESHOLD == 2
    qrel = {"d1": 3, "d2": 2, "d3": 1}          # two relevant at threshold
    got = ap_at_k(["d1", "d3", "d2"], qrel, 10)
    want = (1.0 / 1.0 + 2.0 / 3.0) / 2.0
    assert got == pytest.approx(want, abs=1e-9)


def test_ap_missing_relevant_lowers_score():
    qrel = {"d1": 2, "d2": 2}
    assert ap_at_k(["d1"], qrel, 10) == pytest.approx(0.5)
    assert ap_at_k([], qrel, 10) == 0.0
    assert ap_at_k(["d1"], {"d3": 1}, 10) == 0.0  # nothing meets the threshold


def test_rr_first_qualifying_hit():
    qrel = {"d1": 3, "d2": 1}
    assert rr_at_k(["x", "d2", "d1"], qrel, 10) == pytest.approx(1.0 / 3.0)
    assert rr_at_k(["d1"], qrel, 10) == 1.0
    assert rr_at_k(["d2", "x"], qrel, 10) == 0.0  # rel 1 is below threshold
    assert rr_at_k(["x", "x", "x", "d1"], qrel, 3) == 0.0  # outside cutoff


def test_evaluate_means_and_skips():
    run = {"Q1": [("d1", 2.0)], "Q2": [("d9", 1.0)], "Q3": [("d1", 1.0)]}
    qrels = {"Q1": {"d1": 2}, "Q2": {"d2": 2}}
    per_query, mean, skipped = evaluate(run, qrels, "rr", 10)
    assert per_query == {"Q1": 1.0, "Q2": 0.0}
    assert mean == pytest.approx(0.5)
    assert skipped == 1  # Q3 has no judgments


def test_evaluate_rejects_unknown_metric():
    with pytest.raises(ConfigError):
        evaluate({}, {}, "f1", 10)


@pytest.mark.parametrize("cutoff", [0, -1, 2.0, True, "10"])
def test_evaluate_rejects_a_cutoff_below_one_or_not_an_int(cutoff):
    with pytest.raises(ConfigError, match="cutoff must be an integer >= 1"):
        evaluate({"q1": [("d1", 1.0)]}, {"q1": {"d1": 1}}, "ndcg", cutoff)


# Rankings that list a doc id twice, each beside itself with every repeat
# dropped. The second lists an unjudged d3 twice before d1, so counting
# repeats moves every metric, RR too.
REPEATS = [
    ([("d1", 2.0), ("d1", 1.0), ("d2", 0.5)], [("d1", 2.0), ("d2", 0.5)],
     {"d1": 3, "d2": 1}),
    ([("d3", 3.0), ("d3", 2.5), ("d1", 2.0), ("d1", 1.0), ("d2", 0.5)],
     [("d3", 3.0), ("d1", 2.0), ("d2", 0.5)], {"d1": 3, "d2": 2}),
]


@pytest.mark.parametrize("metric", METRICS)
def test_evaluate_counts_a_document_once_per_ranking(metric):
    for ranking, once, qrel in REPEATS:
        _, got, _ = evaluate({"q1": ranking}, {"q1": qrel}, metric, 10)
        _, want, _ = evaluate({"q1": once}, {"q1": qrel}, metric, 10)
        assert got == want and 0.0 < got <= 1.0


def test_evaluate_empty_run():
    per_query, mean, skipped = evaluate({}, {"Q1": {"d": 2}}, "ndcg", 10)
    assert per_query == {}
    assert mean == 0.0
    assert skipped == 0


def test_per_query_csv_layout(tmp_path):
    path = tmp_path / "per_query.csv"
    write_per_query_csv({"Q2": 0.25, "Q1": 1.0}, 0.625, "ndcg", 10, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "query_id,metric,cutoff,value"
    assert lines[1] == "Q1,ndcg,10,1.000000"
    assert lines[2] == "Q2,ndcg,10,0.250000"
    assert lines[3] == "all,ndcg,10,0.625000"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_metrics_bounded_and_ideal_is_one(rels, seed):
    import random
    qrel = {f"d{i}": r for i, r in enumerate(rels)}
    ids = list(qrel)
    random.Random(seed).shuffle(ids)
    for fn in (ndcg_at_k, ncg_at_k, ap_at_k, rr_at_k):
        value = fn(ids, qrel, 10)
        assert 0.0 <= value <= 1.0
    ideal = sorted(ids, key=lambda d: -qrel[d])
    if any(r > 0 for r in rels):
        assert ndcg_at_k(ideal, qrel, 10) == pytest.approx(1.0)
        assert ncg_at_k(ideal, qrel, 10) == pytest.approx(1.0)
    if any(r >= BINARY_REL_THRESHOLD for r in rels):
        assert ap_at_k(ideal, qrel, 10) == pytest.approx(1.0)
        assert rr_at_k(ideal, qrel, 10) == pytest.approx(1.0)
