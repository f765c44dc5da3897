"""End-to-end command-line pipeline over a small synthetic collection."""

import json

import numpy as np
import pytest
from helpers import micro_config

import ckrank.cli
import ckrank.index
from ckrank.checkpoint import load_model
from ckrank.cli import main
from ckrank.corpus import Vocabulary, load_run
from ckrank.selftest import run_selftest
from ckrank.synth import (make_synthetic, write_qrels, write_queries_tsv,
                          write_tsv_corpus, write_candidates, write_triples)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic collection materialized as the CLI's on-disk formats."""
    root = tmp_path_factory.mktemp("cli")
    data = make_synthetic(seed=5, num_docs=120, num_topics=8,
                          terms_per_topic=12, num_train_queries=6,
                          num_eval_queries=4, doc_len=(20, 35),
                          topk_candidates=30)
    write_tsv_corpus(data.corpus, root / "docs.tsv")
    write_queries_tsv(data.train_queries, root / "train_queries.tsv")
    write_queries_tsv(data.eval_queries, root / "eval_queries.tsv")
    write_qrels(data.eval_qrels, root / "eval_qrels.txt")
    write_candidates(data.candidates, root / "candidates.txt")
    write_triples(data.triples, root / "triples.tsv")
    (root / "model_config.json").write_text(
        json.dumps(micro_config("ndrm2").to_dict()))
    return root, data


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def vocab_path(workspace):
    root, _ = workspace
    out = root / "vocab.json"
    assert run_cli("build-vocab", "--docs", root / "docs.tsv",
                   "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def model_path(workspace, vocab_path):
    root, _ = workspace
    out = root / "model.ckpt"
    code = run_cli("--seed", "1", "train",
                   "--docs", root / "docs.tsv",
                   "--vocab", vocab_path,
                   "--queries", root / "train_queries.tsv",
                   "--triples", root / "triples.tsv",
                   "--candidates", root / "candidates.txt",
                   "--config", root / "model_config.json",
                   "--steps", "10", "--batch-size", "4", "--lr", "1e-3",
                   "--out", out, "--trace", root / "trace.csv")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def index_path(workspace, vocab_path, model_path):
    root, _ = workspace
    out = root / "index.ckix"
    assert run_cli("--seed", "1", "index", "--docs", root / "docs.tsv",
                   "--vocab", vocab_path, "--model", model_path,
                   "--out", out) == 0
    return out


def test_build_vocab_output(workspace, vocab_path, capsys):
    _, data = workspace
    vocab = Vocabulary.load(vocab_path)
    assert vocab.size == data.vocab.size
    assert vocab.num_docs == 120


def test_train_writes_checkpoint_and_trace(workspace, vocab_path, model_path):
    root, _ = workspace
    model = load_model(model_path, Vocabulary.load(vocab_path))
    assert model.config.variant == "ndrm2"
    assert model.config.seed == 1
    trace = (root / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,mean_loss"
    assert len(trace) == 11


def test_variant_flag_overrides_config_file(workspace, vocab_path):
    root, _ = workspace
    out = root / "model_ndrm1.ckpt"
    code = run_cli("--seed", "2", "train",
                   "--docs", root / "docs.tsv", "--vocab", vocab_path,
                   "--queries", root / "train_queries.tsv",
                   "--triples", root / "triples.tsv",
                   "--candidates", root / "candidates.txt",
                   "--config", root / "model_config.json",
                   "--variant", "ndrm1",
                   "--steps", "2", "--batch-size", "2", "--out", out)
    assert code == 0
    model = load_model(out, Vocabulary.load(vocab_path))
    assert model.config.variant == "ndrm1"


def _train_cli(root, vocab_path, out, config, *flags):
    """Two ndrm2 steps through ``ckrank train`` with a config file."""
    path = root / f"{out.stem}_config.json"
    path.write_text(json.dumps(config.to_dict()))
    assert run_cli(*flags, "train", "--docs", root / "docs.tsv",
                   "--vocab", vocab_path,
                   "--queries", root / "train_queries.tsv",
                   "--triples", root / "triples.tsv",
                   "--candidates", root / "candidates.txt",
                   "--config", path, "--steps", "2", "--batch-size", "2",
                   "--out", out) == 0
    return load_model(out, Vocabulary.load(vocab_path))


def test_seed_flag_overrides_config_seed(workspace, vocab_path):
    """Flags > config file > defaults holds for --seed: the config's seed
    stands unless --seed is given, and it seeds the instances and the
    shuffle as a flag would."""
    root, _ = workspace
    from_config = root / "seed_from_config.ckpt"
    model = _train_cli(root, vocab_path, from_config,
                       micro_config("ndrm2", seed=7))
    assert model.config.seed == 7
    model = _train_cli(root, vocab_path, root / "seed_flag.ckpt",
                       micro_config("ndrm2", seed=7), "--seed", "3")
    assert model.config.seed == 3
    from_flag = root / "seed_7_flag.ckpt"
    _train_cli(root, vocab_path, from_flag, micro_config("ndrm2"), "--seed", "7")
    assert from_flag.read_bytes() == from_config.read_bytes()


@pytest.fixture(scope="module")
def long_query(workspace, vocab_path):
    """A model capped at 30 query tokens, its index, and a 25-token query
    whose first 20 tokens match nothing and whose last 5 are one
    document's terms."""
    root, data = workspace
    model = _train_cli(root, vocab_path, root / "cap30.ckpt",
                       micro_config("ndrm2", max_query_tokens=30))
    index = root / "cap30.ckix"
    assert run_cli("index", "--docs", root / "docs.tsv", "--vocab", vocab_path,
                   "--model", root / "cap30.ckpt", "--out", index) == 0
    doc = data.corpus.get(sorted(data.corpus.docs)[0])
    tokens = ["zzz"] * 20 + doc.tokens[:5]
    queries = root / "long_query.tsv"
    queries.write_text(f"L1\t{' '.join(tokens)}\n")
    return model, index, queries, tokens, doc


def test_search_reads_every_token_the_index_cap_allows(workspace, long_query):
    root, _ = workspace
    _, index, queries, tokens, doc = long_query
    out = root / "long_search.txt"
    assert run_cli("search", "--index", index, "--queries", queries,
                   "--out", out) == 0
    got = load_run(out)["L1"]
    want = ckrank.index.retrieve(tokens, ckrank.index.load_index(index)).ranking
    assert len(got) == len(want) > 0
    assert doc.doc_id in dict(got)
    for (doc_id, score), (want_id, want_score) in zip(got, want):
        assert doc_id == want_id
        assert score == pytest.approx(want_score, abs=1e-6)


def test_rerank_reads_every_token_the_model_cap_allows(workspace, vocab_path,
                                                       long_query):
    root, data = workspace
    model, _, queries, tokens, doc = long_query
    candidates = sorted(data.corpus.docs)[:5]
    run = root / "long_candidates.txt"
    run.write_text("".join(f"L1 Q0 {d} {r} 1.0 t\n"
                           for r, d in enumerate(candidates, start=1)))
    out = root / "long_rerank.txt"
    assert run_cli("rerank", "--docs", root / "docs.tsv", "--vocab", vocab_path,
                   "--model", root / "cap30.ckpt", "--queries", queries,
                   "--run", run, "--out", out) == 0
    got = dict(load_run(out)["L1"])
    assert got.keys() == set(candidates)
    for doc_id in candidates:
        want = model.score_query_document(tokens, data.corpus.get(doc_id))
        assert got[doc_id] == pytest.approx(want, abs=1e-6)
    assert got[doc.doc_id] > model.score_query_document(tokens[:20], doc)


def test_search_writes_trec_run(workspace, index_path, capsys):
    root, data = workspace
    out = root / "eval_run.txt"
    assert run_cli("search", "--index", index_path,
                   "--queries", root / "eval_queries.tsv",
                   "--k", "20", "--out", out, "--tag", "t1") == 0
    lines = out.read_text().splitlines()
    assert lines
    parts = lines[0].split()
    assert len(parts) == 6
    assert parts[1] == "Q0" and parts[3] == "1" and parts[5] == "t1"
    run = load_run(out)
    assert set(run) <= {q.query_id for q in data.eval_queries}
    assert all(len(v) <= 20 for v in run.values())


def test_rerank_from_run(workspace, vocab_path, model_path, index_path):
    root, _ = workspace
    base = root / "eval_run.txt"
    if not base.exists():
        assert run_cli("search", "--index", index_path,
                       "--queries", root / "eval_queries.tsv",
                       "--k", "20", "--out", base) == 0
    out = root / "rerank_run.txt"
    assert run_cli("rerank", "--docs", root / "docs.tsv",
                   "--vocab", vocab_path, "--model", model_path,
                   "--queries", root / "eval_queries.tsv",
                   "--run", base, "--k", "10", "--out", out) == 0
    base_run, rerun = load_run(base), load_run(out)
    assert set(rerun) == set(base_run)
    for qid, ranking in rerun.items():
        assert len(ranking) <= 10
        assert {d for d, _ in ranking} <= {d for d, _ in base_run[qid]}


def test_eval_reports_mean(workspace, index_path, capsys):
    root, _ = workspace
    run_path = root / "eval_run.txt"
    if not run_path.exists():
        assert run_cli("search", "--index", index_path,
                       "--queries", root / "eval_queries.tsv",
                       "--k", "20", "--out", run_path) == 0
    capsys.readouterr()
    per_query_csv = root / "per_query.csv"
    assert run_cli("eval", "--run", run_path,
                   "--qrels", root / "eval_qrels.txt",
                   "--metric", "ndcg", "--cutoff", "10",
                   "--per-query", per_query_csv) == 0
    out = capsys.readouterr().out
    assert "all,ndcg@10," in out
    lines = per_query_csv.read_text().splitlines()
    assert lines[0] == "query_id,metric,cutoff,value"
    assert lines[-1].startswith("all,")


def test_bench_memory_csv(workspace, capsys):
    root, _ = workspace
    out = root / "bench.csv"
    assert run_cli("bench-memory", "--lengths", "40,80", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,n,peak_bytes,ms,status"
    assert len(lines) == 5
    text = capsys.readouterr().out
    assert "separable_linear_r2" in text


def test_bench_memory_capping(workspace):
    root, _ = workspace
    out = root / "bench_capped.csv"
    assert run_cli("bench-memory", "--lengths", "40,4000",
                   "--max-bytes", "1000000", "--out", out) == 0
    assert any(line.endswith("capped")
               for line in out.read_text().splitlines())


def test_search_refuses_negative_k(workspace, index_path, capsys):
    root, _ = workspace
    out = root / "never_run.txt"
    assert run_cli("search", "--index", index_path,
                   "--queries", root / "eval_queries.tsv",
                   "--k", "-1", "--out", out) == 1
    assert "error: k must be None or a non-negative integer" in \
        capsys.readouterr().err
    assert not out.exists()


def test_selftest_passes(capsys):
    assert run_cli("selftest") == 0
    assert "FAIL" not in capsys.readouterr().out


def test_selftest_fails_on_a_broken_fold(monkeypatch, capsys):
    checked = ckrank.index._checked

    def reversed_scores(doc_ids, terms, counts, doc_idx, scores, cap):
        """Each term's doc indices paired with its scores in reverse."""
        parts = np.split(np.asarray(scores), np.cumsum(counts)[:-1])
        return checked(doc_ids, terms, counts, doc_idx,
                       np.concatenate([p[::-1] for p in parts]), cap)

    monkeypatch.setattr(ckrank.index, "_checked", reversed_scores)
    assert run_selftest(verbose=False) is False
    assert run_selftest() is False
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("[FAIL]")]
    assert [line.split(":")[0] for line in failed] == \
        [f"[FAIL] additive contract, {v}" for v in ("ndrm1", "ndrm2", "ndrm3")]


def test_missing_file_is_runtime_error(workspace, capsys):
    root, _ = workspace
    code = run_cli("eval", "--run", root / "nope.txt",
                   "--qrels", root / "eval_qrels.txt")
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "no_df"])
def test_malformed_vocab_is_runtime_error(workspace, vocab_path, model_path,
                                          damage, capsys):
    root, _ = workspace
    text = vocab_path.read_text()
    bad = root / f"vocab_{damage}.json"
    bad.write_text(text[:len(text) // 2] if damage == "truncated" else
                   json.dumps({k: v for k, v in json.loads(text).items()
                               if k != "df"}))
    code = run_cli("index", "--docs", root / "docs.tsv", "--vocab", bad,
                   "--model", model_path, "--out", root / "never.ckix")
    assert code == 1
    assert f"error: {bad}: malformed vocabulary" in capsys.readouterr().err


def test_malformed_config_is_runtime_error(workspace, vocab_path, capsys):
    root, _ = workspace
    text = (root / "model_config.json").read_text()
    bad = root / "config_truncated.json"
    bad.write_text(text[:len(text) // 2])
    code = run_cli("train", "--docs", root / "docs.tsv", "--vocab", vocab_path,
                   "--queries", root / "train_queries.tsv",
                   "--triples", root / "triples.tsv",
                   "--candidates", root / "candidates.txt",
                   "--config", bad, "--steps", "1", "--out", root / "never.ckpt")
    assert code == 1
    assert f"error: {bad}: malformed model config" in capsys.readouterr().err


@pytest.mark.parametrize("name,value", [("seed", -2), ("bn_momentum", 1.5),
                                        ("model_dim", 8.0)])
def test_config_file_with_a_bad_field_is_one_error_line(workspace, vocab_path,
                                                        capsys, name, value):
    root, _ = workspace
    bad = root / f"config_{name}.json"
    bad.write_text(json.dumps({**micro_config("ndrm2").to_dict(), name: value}))
    code = run_cli("train", "--docs", root / "docs.tsv", "--vocab", vocab_path,
                   "--queries", root / "train_queries.tsv",
                   "--triples", root / "triples.tsv",
                   "--candidates", root / "candidates.txt",
                   "--config", bad, "--steps", "1", "--out", root / "never.ckpt")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed model config ({name} must be")
    assert err.count("\n") == 1
    assert not (root / "never.ckpt").exists()


@pytest.mark.parametrize("flag, value, rule", [
    ("--steps", "-3", "steps must be an integer >= 1"),
    ("--batch-size", "0", "batch_size must be an integer >= 1"),
    ("--lr", "-0.001", "lr must be >= 0"),
    ("--lr", "nan", "lr must be a finite real number"),
    ("--clip-norm", "-1", "clip_norm must be >= 0 (0 turns clipping off)")])
def test_train_refuses_a_bad_number_in_one_error_line(workspace, vocab_path,
                                                      capsys, flag, value, rule):
    root, _ = workspace
    code = run_cli("train", "--docs", root / "docs.tsv", "--vocab", vocab_path,
                   "--queries", root / "train_queries.tsv",
                   "--triples", root / "triples.tsv",
                   "--candidates", root / "candidates.txt",
                   "--config", root / "model_config.json", flag, value,
                   "--out", root / "never.ckpt")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rule}, not ")
    assert err.count("\n") == 1
    assert not (root / "never.ckpt").exists()


@pytest.mark.parametrize("lengths", ["8,x", "0", "-5", "", "8,,16"])
def test_bench_memory_lengths_are_checked_when_parsed(tmp_path, capsys, lengths):
    with pytest.raises(SystemExit) as err:
        run_cli("bench-memory", "--lengths", lengths, "--out", tmp_path / "b.csv")
    assert err.value.code == 2
    assert "argument --lengths: must be a comma-separated list of integers >= 1" \
        in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# Each command with its required flags; the paths need not exist, because a
# bad --seed is refused before any is read
COMMAND_ARGS = {
    "build-vocab": ["--docs", "d", "--out", "o"],
    "train": ["--docs", "d", "--vocab", "v", "--queries", "q", "--triples", "t",
              "--candidates", "c", "--out", "o"],
    "index": ["--docs", "d", "--vocab", "v", "--model", "m", "--out", "o"],
    "search": ["--index", "i", "--queries", "q", "--out", "o"],
    "rerank": ["--docs", "d", "--vocab", "v", "--model", "m", "--queries", "q",
               "--run", "r", "--out", "o"],
    "eval": ["--run", "r", "--qrels", "q"],
    "bench-memory": ["--lengths", "8", "--out", "o"],
    "selftest": [],
}


@pytest.mark.parametrize("command", ckrank.cli._HANDLERS)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    argv = [a if a.startswith("--") else tmp_path / a for a in COMMAND_ARGS[command]]
    with pytest.raises(SystemExit) as err:
        run_cli("--seed", "-1", command, *argv)
    assert err.value.code == 2
    assert "argument --seed: must be an integer >= 0, not '-1'" in \
        capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_usage_errors_exit_two(workspace):
    with pytest.raises(SystemExit) as err:
        run_cli()
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli("eval", "--run")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli("eval", "--run", "r", "--qrels", "q", "--metric", "bogus")
    assert err.value.code == 2


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "ckrank", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ckrank" in proc.stdout
