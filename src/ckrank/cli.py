"""Command-line pipeline: vocabulary, training, indexing, retrieval, eval.

Flag precedence for model settings: explicit flags > --config JSON file >
built-in defaults. All randomness flows from one seed: --seed, else the
config file's for ``train``, else 0. Exit codes: 0 success, 1 runtime
error, 2 usage error.
"""

import argparse
import sys

import numpy as np

from .bench import DEFAULT_LENGTHS, analyze, bench_memory, write_bench_csv
from .checkpoint import load_model, save_model
from .corpus import Vocabulary, ingest_corpus, load_qrels, load_queries, load_run, \
    write_run
from .errors import CkrankError
from .evalmetrics import METRICS, evaluate, write_per_query_csv
from .index import build_index, load_index, rerank, retrieve, save_index
from .model import CKModel, ModelConfig, VARIANTS
from .selftest import run_selftest
from .train import TrainConfig, load_candidates, load_triples, make_instances, train


def _at_least(least):
    """An argparse type: an integer >= least, or else a usage error."""
    def integer(text):
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, not {text!r}")
        return value
    return integer


def _lengths(text):
    """--lengths's type: a comma-separated list of integers >= 1."""
    try:
        lengths = tuple(int(part) for part in text.split(","))
    except ValueError:
        lengths = ()
    if not lengths or min(lengths) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated list of integers >= 1, not {text!r}")
    return lengths


def _add_corpus_flags(sub):
    sub.add_argument("--docs", required=True, help="tab-separated corpus file")
    sub.add_argument("--orcas", help="optional doc-id \\t query-text field file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ckrank",
        description="Additive per-term neural ranking with impact-index retrieval")
    parser.add_argument("--seed", type=_at_least(0),
                        help="global random seed (default: the config's, else 0)")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("build-vocab", help="build vocabulary + statistics")
    _add_corpus_flags(p)
    p.add_argument("--min-df", type=_at_least(1), default=2)
    p.add_argument("--out", required=True)

    p = commands.add_parser("train", help="train a ranking model")
    _add_corpus_flags(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--triples", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--config", help="model config JSON file")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--clip-norm", type=float, default=1.0)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--trace", help="loss trace CSV output path")

    p = commands.add_parser("index", help="precompute the impact index")
    _add_corpus_flags(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = commands.add_parser("search", help="top-k retrieval from an impact index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", required=True, help="TREC run output path")
    p.add_argument("--tag", default="ckrank")

    p = commands.add_parser("rerank", help="rescore candidates with a model")
    _add_corpus_flags(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--run", required=True, help="candidate TREC run file")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--tag", default="ckrank-rerank")

    p = commands.add_parser("eval", help="score a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metric", choices=METRICS, default="ndcg")
    p.add_argument("--cutoff", type=_at_least(1), default=10)
    p.add_argument("--per-query", help="per-query CSV output path")

    p = commands.add_parser("bench-memory", help="attention memory benchmark")
    p.add_argument("--lengths", type=_lengths, default=DEFAULT_LENGTHS,
                   help="comma-separated sequence lengths, each >= 1")
    p.add_argument("--max-bytes", type=_at_least(1),
                   help="cap a row instead of running it")
    p.add_argument("--out", required=True, help="CSV output path")

    commands.add_parser("selftest", help="run built-in gradient and contract checks")
    return parser


def _model_config(args):
    config = ModelConfig.load(args.config) if args.config else ModelConfig()
    if args.variant:
        config = ModelConfig.from_dict({**config.to_dict(), "variant": args.variant})
    if args.seed is not None:
        config = ModelConfig.from_dict({**config.to_dict(), "seed": args.seed})
    return config


def _cmd_build_vocab(args):
    corpus = ingest_corpus(args.docs, args.orcas)
    vocab = Vocabulary.build(corpus, min_df=args.min_df)
    vocab.save(args.out)
    print(f"vocabulary: {vocab.size} terms over {vocab.num_docs} documents")
    return 0


def _cmd_train(args):
    config = _model_config(args)        # holds the resolved seed
    cfg = TrainConfig(batch_size=args.batch_size, steps=args.steps, lr=args.lr,
                      clip_norm=args.clip_norm, seed=config.seed)
    corpus = ingest_corpus(args.docs, args.orcas)
    vocab = Vocabulary.load(args.vocab)
    queries = load_queries(args.queries)
    query_tokens = {q.query_id: q.tokens for q in queries}
    triples = load_triples(args.triples)
    candidates = load_candidates(args.candidates)
    model = CKModel(config, vocab)
    rng = np.random.default_rng(config.seed)
    instances = make_instances(triples, candidates, corpus, rng)
    result = train(model, corpus, query_tokens, instances, cfg,
                   trace_path=args.trace)
    save_model(model, args.out)
    first = result.loss_trace[0] if result.loss_trace else float("nan")
    last = result.loss_trace[-1] if result.loss_trace else float("nan")
    print(f"trained {result.steps} steps on {len(instances)} instances; "
          f"loss {first:.4f} -> {last:.4f}; saved {args.out}")
    return 0


def _cmd_index(args):
    corpus = ingest_corpus(args.docs, args.orcas)
    vocab = Vocabulary.load(args.vocab)
    model = load_model(args.model, vocab)
    idx = build_index(corpus, model)
    save_index(idx, args.out)
    print(f"indexed {idx.num_docs} documents, {len(idx.terms)} terms, "
          f"{idx.num_postings} postings -> {args.out}")
    return 0


def _cmd_search(args):
    idx = load_index(args.index)
    queries = load_queries(args.queries)
    run = {}
    for q in queries:
        result = retrieve(q, idx, k=args.k)
        run[q.query_id] = result.ranking
    write_run(run, args.out, tag=args.tag)
    print(f"wrote {sum(len(v) for v in run.values())} results for "
          f"{len(run)} queries -> {args.out}")
    return 0


def _cmd_rerank(args):
    corpus = ingest_corpus(args.docs, args.orcas)
    vocab = Vocabulary.load(args.vocab)
    model = load_model(args.model, vocab)
    queries = load_queries(args.queries)
    candidates = load_run(args.run)
    run = {}
    skipped = 0
    for q in queries:
        cand_ids = [doc for doc, _ in candidates.get(q.query_id, ())]
        if not cand_ids:
            continue
        result = rerank(q, cand_ids, model, corpus, k=args.k)
        run[q.query_id] = result.ranking
        skipped += result.skipped
    write_run(run, args.out, tag=args.tag)
    print(f"reranked {len(run)} queries ({skipped} unknown docs skipped) "
          f"-> {args.out}")
    return 0


def _cmd_eval(args):
    run = load_run(args.run)
    qrels = load_qrels(args.qrels)
    per_query, mean, skipped = evaluate(run, qrels, args.metric, args.cutoff)
    if args.per_query:
        write_per_query_csv(per_query, mean, args.metric, args.cutoff,
                            args.per_query)
    for qid in sorted(per_query):
        print(f"{qid},{args.metric}@{args.cutoff},{per_query[qid]:.6f}")
    print(f"all,{args.metric}@{args.cutoff},{mean:.6f} "
          f"({len(per_query)} queries, {skipped} without judgments)")
    return 0


def _cmd_bench_memory(args):
    records = bench_memory(lengths=args.lengths, seed=args.seed or 0,
                           max_bytes=args.max_bytes)
    write_bench_csv(records, args.out)
    for r in records:
        print(f"{r.variant:>9} n={r.n:<5} peak={r.peak_bytes:>12} bytes "
              f"{r.ms:8.1f} ms [{r.status}]")
    stats = analyze(records)
    for key in sorted(stats):
        print(f"{key}: {stats[key]:.4f}" if isinstance(stats[key], float)
              else f"{key}: {stats[key]}")
    return 0


def _cmd_selftest(args):
    return 0 if run_selftest(seed=args.seed or 0) else 1


_HANDLERS = {
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "index": _cmd_index,
    "search": _cmd_search,
    "rerank": _cmd_rerank,
    "eval": _cmd_eval,
    "bench-memory": _cmd_bench_memory,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (CkrankError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
