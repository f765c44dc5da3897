"""Span tracing around ckrank's public functions, installed from outside.

The package itself carries no profiler, so the traced run replaces each
function below at the attribute its callers look it up through (a module
global, a class attribute, or the name another module imported) with a
timing wrapper, and ``uninstall`` puts the originals back. Nothing under
``src/`` changes, and an untraced run never calls ``install``.

A span records its name, start, end, parent span and request id. Requests
are queries (opened by the benchmark), documents (opened by each
``CKModel.encode_document`` call) and training steps (opened by each
``train.batch_loss`` call). Spans stay in memory until the run ends.
"""

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

import ckrank.attention
import ckrank.bm25
import ckrank.checkpoint
import ckrank.corpus
import ckrank.index
import ckrank.model
import ckrank.pooling
import ckrank.synth
import ckrank.tensor
from ckrank.memory import MemoryTracker

# The package re-exports the train() function under the module's name.
train_mod = importlib.import_module("ckrank.train")

# (owner, attribute, span name, request kind the call opens or None)
SPAN_TARGETS = (
    (ckrank.index, "retrieve", "index.retrieve", None),
    (ckrank.index, "build_index", "index.build_index", None),
    (ckrank.index, "save_index", "index.save_index", None),
    (ckrank.index, "load_index", "index.load_index", None),
    (ckrank.bm25.BM25Searcher, "search", "bm25.search", None),
    (ckrank.model.CKModel, "encode_document", "model.encode_document", "doc"),
    (ckrank.model.CKModel, "per_term_scores", "model.per_term_scores", None),
    (ckrank.model.CKModel, "explicit_term_scores",
     "model.explicit_term_scores", None),
    # model.py imported conformer_block by name, so patch that binding too.
    (ckrank.model, "conformer_block", "attention.conformer_block", None),
    (ckrank.attention, "conformer_block", "attention.conformer_block", None),
    (ckrank.attention, "multi_head", "attention.multi_head", None),
    (ckrank.tensor, "grouped_conv1d", "tensor.grouped_conv1d", None),
    (ckrank.tensor, "linear", "tensor.linear", None),
    (ckrank.tensor, "layer_norm", "tensor.layer_norm", None),
    (ckrank.tensor, "softmax", "tensor.softmax", None),
    (ckrank.tensor, "backward", "tensor.backward", None),
    (ckrank.pooling, "interaction_rows", "pooling.interaction_rows", None),
    (ckrank.pooling, "windowed_pool_terms", "pooling.windowed_pool_terms", None),
    (ckrank.pooling, "latent_term_scores", "pooling.latent_term_scores", None),
    (train_mod, "batch_loss", "train.batch_loss", "step"),
    (train_mod, "clip_gradients", "train.clip_gradients", None),
    (train_mod.Adam, "step", "train.adam_step", None),
    (ckrank.checkpoint, "save_model", "checkpoint.save_model", None),
    (ckrank.checkpoint, "load_model", "checkpoint.load_model", None),
    (ckrank.synth, "make_synthetic", "synth.make_synthetic", None),
    (ckrank.corpus.Vocabulary, "build", "corpus.vocabulary_build", None),
)

# Calls counted per request but not timed: every op output passes through
# wrap_op (tensor.py calls it as a global), and every tensor registers with
# the tracker.
COUNT_TARGETS = (
    (ckrank.tensor, "wrap_op", "tensor.ops"),
    (MemoryTracker, "register", "memory.tensors_allocated"),
)


def _raw_attr(owner, attr):
    """The attribute as stored on its owner (keeps classmethod wrappers)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _replace(raw, make_wrapper):
    if isinstance(raw, classmethod):
        return classmethod(make_wrapper(raw.__func__))
    return make_wrapper(raw)


def target_attrs():
    """(owner, attribute) of every callable the traced run replaces."""
    return [(o, a) for o, a, *_ in SPAN_TARGETS + COUNT_TARGETS]


class Tracer:
    """Span recorder that installs itself over SPAN_TARGETS and COUNT_TARGETS."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []             # [name id, start, end, parent index, request]
        self._stack = []
        self._seq = 0
        self.active = {}            # request kind -> current request id
        self.counts = defaultdict(Counter)  # (counter, kind) -> request -> n
        self._saved = []

    # -- requests -------------------------------------------------------

    @property
    def request(self):
        for kind in ("doc", "step", "query"):
            if kind in self.active:
                return self.active[kind]
        return "setup"

    def begin_request(self, kind):
        """Open a new request of ``kind``; a new step also ends the document."""
        if kind == "step":
            self.active.pop("doc", None)
        self._seq += 1
        rid = f"{kind}:{self._seq}"
        self.active[kind] = rid
        return rid

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, opens):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if opens:
                    self.begin_request(opens)
                rec = [nid, clock(), 0.0, stack[-1] if stack else -1,
                       self.request]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
            return traced
        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                for kind, rid in self.active.items():
                    counts[(name, kind)][rid] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, opens in SPAN_TARGETS:
            raw = _raw_attr(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, _replace(raw, self._span_wrapper(name, opens)))
        for owner, attr, name in COUNT_TARGETS:
            raw = _raw_attr(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, _replace(raw, self._count_wrapper(name)))

    def uninstall(self):
        self.active.clear()
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- summaries ------------------------------------------------------

    def self_times(self):
        """Span name -> list of self times in seconds, one per call."""
        child = np.zeros(len(self.spans))
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            out[self.names[nid]].append(end - start - child[i])
        return out

    def per_request(self, counter, kind):
        """Median count of ``counter`` over requests of ``kind`` (0 if none)."""
        values = list(self.counts[(counter, kind)].values())
        return float(np.median(values)) if values else 0.0

    def write(self, path):
        """Write every span once, as columns, to ``path``."""
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        blob = {"names": self.names, "name": cols[0], "start": cols[1],
                "end": cols[2], "parent": cols[3], "request": cols[4]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
