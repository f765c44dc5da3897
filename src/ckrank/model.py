"""Ranking models over the shared embedding + encoder + pooling stack.

Three variants share one additive contract: a query's score for a document
is the sum of independent per-term scores, so term scores can be
precomputed offline into an impact index.

- ndrm1: latent matching only. Query terms stay non-contextualized
  embedding rows; documents pass through the convolution/attention encoder;
  per-term cosine rows are window-pooled into kernel features and scored by
  a linear head.
- ndrm2: explicit matching only. A BM25-shaped formula over corpus
  statistics whose only learnables are the two document-length scalars.
- ndrm3: both branches, each batch-normalized, linearly mixed by three
  scalars.

Batch normalization uses batch statistics in train mode and frozen running
averages (momentum 0.9) everywhere else; the scale statistics of the
explicit branch (mean TF, mean document length) follow the same rule.
"""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields as dc_fields
from itertools import chain

import numpy as np

from . import pooling, tensor as T
# The encoder calls conformer_sublayers; conformer_block stays bound here
# because the benchmark traces this binding.
from .attention import block_param_specs, conformer_block, conformer_sublayers, \
    positional_encoding
from .corpus import DocumentRecord, QueryRecord
from .errors import ConfigError, ContractError
from .pooling import KernelBank, empty_features

VARIANTS = ("ndrm1", "ndrm2", "ndrm3")

# ModelConfig's rules: the least value of each integer field, and the range
# of each real field (a finite int or float) as a test and in words
_INTEGER_MINIMA = {"model_dim": 1, "num_heads": 1, "d_key": 1, "d_value": 1,
                   "conv_window": 1, "conv_groups": 1, "num_layers": 1,
                   "window_len": 1, "stride": 1, "max_doc_tokens": 1,
                   "max_query_tokens": 0, "seed": 0}
_REAL_RULES = {"dropout_rate": (lambda v: 0 <= v < 1, "in [0, 1)"),
               "bn_momentum": (lambda v: 0 <= v <= 1, "in [0, 1]"),
               "epsilon": (lambda v: v > 0, "positive"),
               "eps_log": (lambda v: v > 0, "positive"),
               "var_floor": (lambda v: v > 0, "positive")}


def _finite_real(value):
    """A finite int or float that is not a bool."""
    return type(value) is not bool and isinstance(value, (int, float)) and \
        math.isfinite(value)


def check_numbers(config, integer_minima, real_rules):
    """ConfigError unless each field of config named in integer_minima is an
    int (not a bool) of at least its minimum, and each named in real_rules
    (name -> (test, rule in words)) is a finite int or float that passes
    its test."""
    for name, least in integer_minima.items():
        value = getattr(config, name)
        if type(value) is not int or value < least:
            raise ConfigError(f"{name} must be an integer >= {least}, not {value!r}")
    for name, (holds, rule) in real_rules.items():
        value = getattr(config, name)
        if not _finite_real(value):
            raise ConfigError(f"{name} must be a finite real number, not {value!r}")
        if not holds(value):
            raise ConfigError(f"{name} must be {rule}, not {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Model hyperparameters, the one object that holds them: the encoder
    and pooling read their fields from it. Construction refuses a field out
    of type or range (``_INTEGER_MINIMA``, ``_REAL_RULES``, the kernel fields
    through a ``KernelBank``, and the cross-field rules) with a ConfigError,
    and coerces nothing but the kernel sequences, to tuples of floats.
    Frozen: a model hashes its config once, when it is built, and its
    checkpoints and indexes carry that hash."""

    variant: str = "ndrm3"
    model_dim: int = 256
    num_heads: int = 32
    d_key: int = 8
    d_value: int = 8
    conv_window: int = 31
    conv_groups: int = 32
    dropout_rate: float = 0.2
    num_layers: int = 2
    window_len: int = 300
    stride: int = 100
    kernel_mus: tuple = pooling.KERNEL_MUS
    kernel_sigmas: tuple = pooling.KERNEL_SIGMAS
    eps_log: float = 1e-10
    epsilon: float = 1e-6
    bn_momentum: float = 0.9
    var_floor: float = 1e-5
    max_doc_tokens: int = 4000
    max_query_tokens: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        check_numbers(self, _INTEGER_MINIMA, _REAL_RULES)
        for name in ("kernel_mus", "kernel_sigmas"):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list, np.ndarray)) or \
                    not all(map(_finite_real, values)):
                raise ConfigError(f"{name} must be a sequence of finite real "
                                  f"numbers, not {values!r}")
            object.__setattr__(self, name, tuple(map(float, values)))
        for name in ("num_heads", "conv_groups"):
            if self.model_dim % getattr(self, name):
                raise ConfigError(f"model_dim {self.model_dim} not divisible by "
                                  f"{name} {getattr(self, name)}")
        if self.conv_window % 2 != 1:
            raise ConfigError(f"conv_window must be odd, got {self.conv_window}")
        if self.stride > self.window_len:
            raise ConfigError(f"stride {self.stride} exceeds window_len "
                              f"{self.window_len}")
        KernelBank(self.kernel_mus, self.kernel_sigmas, self.eps_log)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_dict(cls, blob):
        known = {f.name for f in dc_fields(cls)}
        unknown = set(blob) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**blob)

    def config_hash(self):
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path):
        """Read a ``save`` file; a malformed one raises ConfigError."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (ValueError, KeyError, TypeError) as err:
                raise ConfigError(f"{path}: malformed model config ({err})") \
                    from None


# -- explicit branch -------------------------------------------------------------


def _require_finite(owner, names):
    """ContractError unless each named field is a finite int or float."""
    for name in names:
        value = getattr(owner, name)
        if not _finite_real(value):
            raise ContractError(f"{name} must be a finite real number, not {value!r}")


@dataclass
class BSState:
    """Running means used by the x / (E[x] + eps) scale normalization."""
    mean_tf: float = 1.0
    mean_dlen: float = 1.0

    def __post_init__(self):
        _require_finite(self, ("mean_tf", "mean_dlen"))
        if self.mean_tf < 0 or self.mean_dlen < 0:
            raise ContractError("scale-normalization means must be non-negative")


@dataclass
class ExplicitParams:
    w_dlen: T.Tensor = field(default_factory=lambda: T.parameter(1.0))
    b_dlen: T.Tensor = field(default_factory=lambda: T.parameter(0.0))
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")


def ndrm2_term_scores(idf, tf, dlen, params, bs_state):
    """Saturating lexical scores over parallel idf/tf/dlen arrays -> Tensor[m]:
    idf * bs(tf) / (bs(tf) + relu-dlen-term + eps), elementwise.

    bs(x) = x / (running_mean + eps). The relu term is the only place the
    two learnable scalars enter, so gradients exist w.r.t. them alone.
    """
    dt = T.default_dtype()
    eps = params.epsilon
    w, b = params.w_dlen, params.b_dlen
    bs_tf = np.divide(tf, bs_state.mean_tf + eps, dtype=dt)
    bs_dl = np.divide(dlen, bs_state.mean_dlen + eps, dtype=dt)
    lin = bs_dl * w._data + b._data
    denom = np.maximum(lin, 0) + (bs_tf + eps)
    num = np.multiply(idf, bs_tf, dtype=dt)
    data = num / denom

    def backward(g):
        glin = -g * num / (denom * denom) * (lin > 0)
        w._accumulate((glin * bs_dl).sum())
        b._accumulate(glin.sum())

    return T.wrap_op(data, (w, b), backward, "ndrm2_term_scores",
                     saved=(num, denom, lin, bs_dl))


# -- duet branch -------------------------------------------------------------------


# DuetParams' running statistics, named as checkpoints store them
_DUET_STATS = ("bn_latent_mean", "bn_latent_var", "bn_explicit_mean",
              "bn_explicit_var")


@dataclass
class DuetParams:
    w1: T.Tensor = field(default_factory=lambda: T.parameter(1.0))
    w2: T.Tensor = field(default_factory=lambda: T.parameter(1.0))
    b: T.Tensor = field(default_factory=lambda: T.parameter(0.0))
    bn_latent_mean: float = 0.0
    bn_latent_var: float = 1.0
    bn_explicit_mean: float = 0.0
    bn_explicit_var: float = 1.0
    momentum: float = 0.9
    var_floor: float = 1e-5

    def __post_init__(self):
        _require_finite(self, _DUET_STATS)
        if self.bn_latent_var < 0 or self.bn_explicit_var < 0:
            raise ContractError("running variances must be non-negative")


def duet_scores(s_latent, s_explicit, params, mode):
    """w1 * BN(latent) + w2 * BN(explicit) + b over parallel score vectors.

    Train mode normalizes by the statistics of the vectors given here (and
    folds them into the running averages), then mixes; infer mode is one
    elementwise op over the frozen running statistics.
    """
    if mode == "infer":
        floor = params.var_floor
        return _duet_mix(s_latent, s_explicit, params, params.bn_latent_mean,
                         math.sqrt(max(params.bn_latent_var, floor)),
                         params.bn_explicit_mean,
                         math.sqrt(max(params.bn_explicit_var, floor)))
    if mode != "train":
        raise ConfigError(f"unknown duet mode {mode!r}")
    bn_lat, m_l, v_l = T.batch_norm_train(s_latent, params.var_floor)
    bn_exp, m_e, v_e = T.batch_norm_train(s_explicit, params.var_floor)
    mom = params.momentum
    params.bn_latent_mean = mom * params.bn_latent_mean + (1 - mom) * m_l
    params.bn_latent_var = mom * params.bn_latent_var + (1 - mom) * v_l
    params.bn_explicit_mean = mom * params.bn_explicit_mean + (1 - mom) * m_e
    params.bn_explicit_var = mom * params.bn_explicit_var + (1 - mom) * v_e
    return _duet_mix(bn_lat, bn_exp, params, 0.0, 1.0, 0.0, 1.0)


def _duet_mix(lat, exp, params, m_l, d_l, m_e, d_e):
    """w1 * (lat - m_l) / d_l + w2 * (exp - m_e) / d_e + b in one op, with
    the means and deviations Python floats."""
    w1, w2, b = params.w1, params.w2, params.b
    bn_lat = (lat._data - m_l) / d_l
    bn_exp = (exp._data - m_e) / d_e
    data = bn_lat * w1._data + bn_exp * w2._data + b._data

    def backward(g):
        lat._accumulate(g * w1._data / d_l)
        exp._accumulate(g * w2._data / d_e)
        w1._accumulate((g * bn_lat).sum())
        w2._accumulate((g * bn_exp).sum())
        b._accumulate(g.sum())

    return T.wrap_op(data, (lat, exp, w1, w2, b), backward, "duet_mix",
                     saved=(bn_lat, bn_exp))


# -- the model ----------------------------------------------------------------------


def parameter_specs(config, vocab_size):
    """``(name, shape, init)`` of every parameter the variant trains, under
    its ``CKModel.parameters()`` name and in drawing order, as
    ``tensor.init_parameters`` reads them."""
    specs = []
    if config.variant in ("ndrm1", "ndrm3"):
        specs.append(("embedding", (vocab_size + 1, config.model_dim), 0.05))
        block = block_param_specs(config)
        for i in range(config.num_layers):
            specs += [(f"block{i}.{key}", shape, init) for key, shape, init in block]
        specs += [(f"head.{key}", shape, init) for key, shape, init in
                  pooling.head_param_specs(len(config.kernel_mus))]
    if config.variant in ("ndrm2", "ndrm3"):
        specs += [("explicit.w_dlen", (), "ones"), ("explicit.b_dlen", (), "zeros")]
    if config.variant == "ndrm3":
        specs += [("duet.w1", (), "ones"), ("duet.w2", (), "ones"),
                  ("duet.b", (), "zeros")]
    return specs


class CKModel:
    """Embedding table, document encoder, pooling head, and scoring branches.

    Construction is deterministic given (config, vocabulary): all parameter
    initialization derives from config.seed, and dropout noise from an
    internal stream seeded alongside it. ``arrays`` (name -> ndarray of
    every ``parameter_specs`` entry, what ``load_model`` passes) supplies
    the parameters instead, and nothing is drawn.
    """

    def __init__(self, config, vocab, arrays=None):
        self.config = config
        self.config_hash = config.config_hash()  # of the config built with
        self.vocab = vocab
        self.bank = KernelBank(config.kernel_mus, config.kernel_sigmas,
                               config.eps_log)
        self.training = False
        rng = None if arrays is not None else np.random.default_rng(config.seed)
        self.dropout_rng = np.random.default_rng(config.seed + 1)
        self._params = T.init_parameters(parameter_specs(config, vocab.size),
                                         rng, arrays)
        groups = {}  # "block0" -> {"wq": ..., ...}, "head" -> ..., ...
        for name, p in self._params.items():
            owner, _, key = name.rpartition(".")
            groups.setdefault(owner, {})[key] = p
        self.embedding = self._params.get("embedding")
        self.blocks = [groups[f"block{i}"] for i in range(config.num_layers)] \
            if self.needs_latent else []
        self.head = groups.get("head")
        self.explicit = ExplicitParams(**groups["explicit"], epsilon=config.epsilon) \
            if self.needs_explicit else None
        self.bs = BSState(mean_tf=max(vocab.mean_tf, config.epsilon),
                          mean_dlen=max(vocab.mean_dlen, 1.0)) \
            if self.needs_explicit else None
        self.duet = DuetParams(**groups["duet"], momentum=config.bn_momentum,
                               var_floor=config.var_floor) \
            if config.variant == "ndrm3" else None

    @property
    def variant(self):
        return self.config.variant

    @property
    def needs_latent(self):
        return self.variant in ("ndrm1", "ndrm3")

    @property
    def needs_explicit(self):
        return self.variant in ("ndrm2", "ndrm3")

    def train(self):
        self.training = True

    def eval(self):
        self.training = False

    @property
    def mode(self):
        return "train" if self.training else "infer"

    def parameters(self):
        """Flat name -> leaf tensor map of everything the variant trains."""
        return dict(self._params)

    def running_stats(self):
        stats = {}
        if self.bs is not None:
            stats["bs_tf_mean"] = self.bs.mean_tf
            stats["bs_dlen_mean"] = self.bs.mean_dlen
        if self.duet is not None:
            stats.update((name, getattr(self.duet, name)) for name in _DUET_STATS)
        return stats

    def load_running_stats(self, stats):
        """Adopt the statistics ``running_stats`` names; the ``BSState`` and
        ``DuetParams`` checks apply, and a refused set changes nothing."""
        bs = self.bs and BSState(stats["bs_tf_mean"], stats["bs_dlen_mean"])
        duet = self.duet and dataclasses.replace(
            self.duet, **{name: stats[name] for name in _DUET_STATS})
        self.bs, self.duet = bs, duet

    # -- encoding -------------------------------------------------------------

    def encode_document(self, doc):
        """Token embeddings + positional features through the encoder stack.

        The sublayers of all blocks run in one flat loop, each one op from
        its input to its output (``attention.conformer_sublayers``), so
        without a graph at most two (n, d) activations are live."""
        if not self.needs_latent:
            raise ContractError(f"variant {self.variant} has no document encoder")
        tokens = doc.tokens if isinstance(doc, DocumentRecord) else list(doc)
        tokens = tokens[:self.config.max_doc_tokens]
        if not tokens:
            raise ContractError("cannot encode an empty document")
        lookup, oov = self.vocab.term_to_id.get, self.vocab.oov_id
        ids = [lookup(t, oov) for t in tokens]
        x = T.embedding(self.embedding, ids,
                        positional_encoding(len(ids), self.config.model_dim))
        for block in self.blocks:
            for sublayer in conformer_sublayers(block, self.config, self.training,
                                                self.dropout_rng):
                x = sublayer(x)
        return x

    # -- per-term scores -------------------------------------------------------

    def latent_term_scores(self, terms, doc_enc):
        """Tensor[t] of latent scores, in query order (repeats scored alike).

        Unknown query terms carry an empty interaction: their kernel features
        are the constant no-match vector, so only the head touches them. A
        doc_enc of None stands for an empty document, which every term
        matches as an unknown term does.
        """
        ids = list(map(self.vocab.term_to_id.get, terms)) \
            if doc_enc is not None else [None] * len(terms)
        if None not in ids:
            return self._vocab_term_scores(ids, doc_enc)
        known = [i for i, tid in enumerate(ids) if tid is not None]
        pieces = [self._vocab_term_scores([ids[i] for i in known], doc_enc)] \
            if known else []
        pieces.append(pooling.latent_term_scores(
            T.constant(empty_features(self.bank)[None, :]), self.head))
        combined = pieces[0] if len(pieces) == 1 else T.concat(pieces, axis=0)
        # each term's row of combined: its place among the known terms, or
        # the no-match row after them
        perm = [len(known)] * len(terms)
        for j, i in enumerate(known):
            perm[i] = j
        if perm == list(range(combined.shape[0])):
            return combined
        return T.gather(combined, perm)

    def _vocab_term_scores(self, ids, doc_enc):
        """Tensor[t] of latent scores of vocabulary term ids."""
        rows = pooling.interaction_rows(T.embedding(self.embedding, ids), doc_enc)
        feats = pooling.windowed_pool_terms(rows, self.config, self.bank)
        return pooling.latent_term_scores(feats, self.head)

    def explicit_stats(self, docs, terms):
        """(idf, tf, dlen) float64 columns over a doc-major column: each term
        of terms[i] against docs[i]."""
        flat = list(chain.from_iterable(terms))
        tf = np.fromiter((doc.tf.get(t, 0) for doc, ts in zip(docs, terms)
                          for t in ts), np.float64, len(flat))
        dlen = np.array([max(doc.length, 1) for doc in docs], dtype=np.float64)
        return self.vocab.idfs(flat), tf, dlen.repeat(list(map(len, terms)))

    def explicit_scores(self, idf, tf, dlen):
        """Tensor[m] of explicit scores over parallel idf/tf/dlen columns."""
        return ndrm2_term_scores(idf, tf, dlen, self.explicit, self.bs)

    def explicit_term_scores(self, terms, doc):
        return self.explicit_scores(*self.explicit_stats([doc], [terms]))

    def column_scores(self, docs, terms, explicit=None):
        """Tensor of the variant's scores over a doc-major column: each term
        of terms[i] against docs[i], in that order, in the model's mode, so
        ndrm3's train-mode batch is the whole column.

        The latent branch encodes each document once and scores its terms;
        every term of a document with no tokens gets the no-match score.
        The explicit branch scores ``explicit``, parallel (idf, tf, dlen)
        arrays over the column, or reads them from the documents through
        ``explicit_stats`` when it is None.
        """
        lat = exp = None
        if self.needs_latent:
            chunks = [self.latent_term_scores(
                ts, self.encode_document(doc) if doc.tokens else None)
                for doc, ts in zip(docs, terms)]
            lat = chunks[0] if len(chunks) == 1 else T.concat(chunks, axis=0)
        if self.needs_explicit:
            exp = self.explicit_scores(*(self.explicit_stats(docs, terms)
                                         if explicit is None else explicit))
        if self.variant == "ndrm3":
            return duet_scores(lat, exp, self.duet, self.mode)
        return lat if self.needs_latent else exp

    # -- whole-query scoring ------------------------------------------------------

    def query_terms(self, query):
        """The tokens of a query record or sequence that the model reads: the
        first ``max_query_tokens``. ``rerank`` (once a query), ``batch_loss``
        and (through the index) ``retrieve`` all apply this one cap."""
        tokens = query.tokens if isinstance(query, QueryRecord) else list(query)
        return tokens[:self.config.max_query_tokens]

    def per_term_scores(self, terms, doc):
        """Per-occurrence float64 score array, for audits of the index."""
        if not terms:
            return np.zeros(0, dtype=np.float64)
        with T.no_grad():
            scores = self.column_scores([doc], [terms])
        return scores.data.astype(np.float64)

    # -- training-side statistics ---------------------------------------------------

    def update_bs_stats(self, tf_values, dlen_values):
        """Fold a batch of observed TF / length values into the running means."""
        if self.bs is None or len(tf_values) == 0:
            return
        mom = self.config.bn_momentum
        self.bs.mean_tf = mom * self.bs.mean_tf + (1 - mom) * float(np.mean(tf_values))
        self.bs.mean_dlen = mom * self.bs.mean_dlen + \
            (1 - mom) * float(np.mean(dlen_values))
