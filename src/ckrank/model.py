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

import hashlib
import json
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import pooling, tensor as T
from .attention import AttentionConfig, conformer_block, init_block_params, \
    positional_encoding
from .corpus import DocumentRecord, QueryRecord
from .errors import ConfigError, ContractError
from .pooling import KernelBank, WindowConfig, empty_features

VARIANTS = ("ndrm1", "ndrm2", "ndrm3")


@dataclass
class ModelConfig:
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
    kernel_mus: tuple = (-0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    kernel_sigmas: tuple = (0.1,) * 9 + (0.001,)
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
        self.kernel_mus = tuple(float(m) for m in self.kernel_mus)
        self.kernel_sigmas = tuple(float(s) for s in self.kernel_sigmas)
        self.attention_config()  # validates dims
        self.window_config()
        self.kernel_bank()

    def attention_config(self):
        return AttentionConfig(self.model_dim, self.num_heads, self.d_key,
                               self.d_value, self.conv_window, self.conv_groups,
                               self.dropout_rate, self.num_layers)

    def window_config(self):
        return WindowConfig(self.window_len, self.stride)

    def kernel_bank(self):
        return KernelBank(np.array(self.kernel_mus), np.array(self.kernel_sigmas),
                          self.eps_log)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_dict(cls, blob):
        known = {f.name for f in dc_fields(cls)}
        unknown = set(blob) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        blob = dict(blob)
        for key in ("kernel_mus", "kernel_sigmas"):
            if key in blob:
                blob[key] = tuple(blob[key])
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
            except ConfigError:
                raise
            except (UnicodeDecodeError, ValueError, KeyError, TypeError) as err:
                raise ConfigError(f"{path}: malformed model config ({err})") \
                    from None


# -- explicit branch -------------------------------------------------------------


@dataclass
class BSState:
    """Running means used by the x / (E[x] + eps) scale normalization."""
    mean_tf: float = 1.0
    mean_dlen: float = 1.0

    def __post_init__(self):
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
    bs_tf = np.asarray(tf, dtype=dt) / (bs_state.mean_tf + eps)
    bs_dl = np.asarray(dlen, dtype=dt) / (bs_state.mean_dlen + eps)
    lin = T.add(T.mul(T.constant(bs_dl), params.w_dlen), params.b_dlen)
    denom = T.add(T.relu(lin), T.constant(bs_tf + eps))
    return T.div(T.constant(np.asarray(idf, dtype=dt) * bs_tf), denom)


# -- duet branch -------------------------------------------------------------------


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
        if self.bn_latent_var < 0 or self.bn_explicit_var < 0:
            raise ContractError("running variances must be non-negative")


def duet_scores(s_latent, s_explicit, params, mode):
    """w1 * BN(latent) + w2 * BN(explicit) + b over parallel score vectors.

    Train mode normalizes by the statistics of the vectors given here (and
    folds them into the running averages); infer mode uses the frozen
    running statistics elementwise.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"unknown duet mode {mode!r}")
    if mode == "train":
        bn_lat, m_l, v_l = T.batch_norm_train(s_latent, params.var_floor)
        bn_exp, m_e, v_e = T.batch_norm_train(s_explicit, params.var_floor)
        mom = params.momentum
        params.bn_latent_mean = mom * params.bn_latent_mean + (1 - mom) * m_l
        params.bn_latent_var = mom * params.bn_latent_var + (1 - mom) * v_l
        params.bn_explicit_mean = mom * params.bn_explicit_mean + (1 - mom) * m_e
        params.bn_explicit_var = mom * params.bn_explicit_var + (1 - mom) * v_e
    else:
        bn_lat = T.batch_norm_infer(s_latent, params.bn_latent_mean,
                                    params.bn_latent_var, params.var_floor)
        bn_exp = T.batch_norm_infer(s_explicit, params.bn_explicit_mean,
                                    params.bn_explicit_var, params.var_floor)
    mixed = T.add(T.mul(bn_lat, params.w1), T.mul(bn_exp, params.w2))
    return T.add(mixed, params.b)


# -- the model ----------------------------------------------------------------------


class CKModel:
    """Embedding table, document encoder, pooling head, and scoring branches.

    Construction is deterministic given (config, vocabulary): all parameter
    initialization derives from config.seed, and dropout noise from an
    internal stream seeded alongside it.
    """

    def __init__(self, config, vocab):
        self.config = config
        self.config_hash = config.config_hash()  # of the config built with
        self.vocab = vocab
        self.acfg = config.attention_config()
        self.wcfg = config.window_config()
        self.bank = config.kernel_bank()
        self.training = False
        rng = np.random.default_rng(config.seed)
        self.dropout_rng = np.random.default_rng(config.seed + 1)
        self.embedding = None
        self.blocks = []
        self.head = None
        if self.needs_latent:
            self.embedding = T.parameter(
                rng.uniform(-0.05, 0.05, size=(vocab.size + 1, config.model_dim)))
            self.blocks = [init_block_params(self.acfg, rng)
                           for _ in range(config.num_layers)]
            self.head = pooling.init_head_params(rng, self.bank.k)
        self.explicit = ExplicitParams(epsilon=config.epsilon) \
            if self.needs_explicit else None
        self.bs = BSState(mean_tf=max(vocab.mean_tf, config.epsilon),
                          mean_dlen=max(vocab.mean_dlen, 1.0)) \
            if self.needs_explicit else None
        self.duet = DuetParams(momentum=config.bn_momentum,
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
        params = {}
        if self.needs_latent:
            params["embedding"] = self.embedding
            for i, block in enumerate(self.blocks):
                for key, tensor in block.items():
                    params[f"block{i}.{key}"] = tensor
            params["head.w"] = self.head["w"]
            params["head.b"] = self.head["b"]
        if self.needs_explicit:
            params["explicit.w_dlen"] = self.explicit.w_dlen
            params["explicit.b_dlen"] = self.explicit.b_dlen
        if self.duet is not None:
            params["duet.w1"] = self.duet.w1
            params["duet.w2"] = self.duet.w2
            params["duet.b"] = self.duet.b
        return params

    def running_stats(self):
        stats = {}
        if self.bs is not None:
            stats["bs_tf_mean"] = self.bs.mean_tf
            stats["bs_dlen_mean"] = self.bs.mean_dlen
        if self.duet is not None:
            stats["bn_latent_mean"] = self.duet.bn_latent_mean
            stats["bn_latent_var"] = self.duet.bn_latent_var
            stats["bn_explicit_mean"] = self.duet.bn_explicit_mean
            stats["bn_explicit_var"] = self.duet.bn_explicit_var
        return stats

    def load_running_stats(self, stats):
        if self.bs is not None:
            self.bs.mean_tf = stats["bs_tf_mean"]
            self.bs.mean_dlen = stats["bs_dlen_mean"]
        if self.duet is not None:
            self.duet.bn_latent_mean = stats["bn_latent_mean"]
            self.duet.bn_latent_var = stats["bn_latent_var"]
            self.duet.bn_explicit_mean = stats["bn_explicit_mean"]
            self.duet.bn_explicit_var = stats["bn_explicit_var"]

    # -- encoding -------------------------------------------------------------

    def encode_document(self, doc, encoder_variant="separable"):
        """Token embeddings + positional features through the encoder stack."""
        if not self.needs_latent:
            raise ContractError(f"variant {self.variant} has no document encoder")
        tokens = doc.tokens if isinstance(doc, DocumentRecord) else list(doc)
        tokens = tokens[:self.config.max_doc_tokens]
        if not tokens:
            raise ContractError("cannot encode an empty document")
        lookup, oov = self.vocab.term_to_id.get, self.vocab.oov_id
        ids = [lookup(t, oov) for t in tokens]
        x = T.embedding(self.embedding, ids)
        x = T.add(x, T.constant(positional_encoding(len(ids), self.config.model_dim)))
        for block in self.blocks:
            x = conformer_block(x, block, self.acfg, training=self.training,
                                rng=self.dropout_rng, variant=encoder_variant)
        return x

    def encode_query_term(self, term):
        """The term's embedding row, untouched; unknown terms are zero."""
        if term in self.vocab:
            row = T.embedding(self.embedding, [self.vocab.id_of(term)])
            return T.reshape(row, (self.config.model_dim,))
        return T.constant(np.zeros(self.config.model_dim))

    # -- per-term scores -------------------------------------------------------

    def latent_term_scores(self, terms, doc_enc):
        """Tensor[t] of latent scores, in query order (repeats scored alike).

        Unknown query terms carry an empty interaction: their kernel features
        are the constant no-match vector, so only the head touches them.
        """
        lookup = self.vocab.term_to_id.get
        iv = [(i, tid) for i, t in enumerate(terms) if (tid := lookup(t)) is not None]
        pieces = []
        slot = {}
        if iv:
            q_embs = T.embedding(self.embedding, [tid for _, tid in iv])
            rows = pooling.interaction_rows(q_embs, doc_enc)
            feats = pooling.windowed_pool_terms(rows, self.wcfg, self.bank)
            pieces.append(pooling.latent_term_scores(feats, self.head))
            for j, (i, _) in enumerate(iv):
                slot[i] = j
        if len(iv) < len(terms):
            s_oov = pooling.latent_term_score(
                T.constant(empty_features(self.bank)), self.head)
            pieces.append(T.reshape(s_oov, (1,)))
            oov_slot = pieces[0].shape[0] if len(pieces) == 2 else 0
            for i in range(len(terms)):
                slot.setdefault(i, oov_slot)
        combined = pieces[0] if len(pieces) == 1 else T.concat(pieces, axis=0)
        perm = [slot[i] for i in range(len(terms))]
        if perm == list(range(combined.shape[0])):
            return combined
        return T.gather(combined, perm)

    def explicit_stats(self, terms, doc):
        """(idf, tf, dlen) arrays over the query terms against one document."""
        idf = np.array([self.vocab.idf(t) for t in terms], dtype=np.float64)
        tf = np.array([doc.tf.get(t, 0) for t in terms], dtype=np.float64)
        dlen = np.full(len(terms), max(doc.length, 1), dtype=np.float64)
        return idf, tf, dlen

    def explicit_scores(self, idf, tf, dlen):
        """Tensor[m] of explicit scores over parallel idf/tf/dlen columns."""
        return ndrm2_term_scores(idf, tf, dlen, self.explicit, self.bs)

    def explicit_term_scores(self, terms, doc):
        return self.explicit_scores(*self.explicit_stats(terms, doc))

    def mix_scores(self, lat, exp):
        """The variant's scores from parallel branch vectors (the branch it
        lacks is None); ndrm3 mixes them with duet_scores in the model's
        mode, so in train mode the batch is exactly these vectors."""
        if self.variant == "ndrm1":
            return lat
        if self.variant == "ndrm2":
            return exp
        return duet_scores(lat, exp, self.duet, self.mode)

    def term_scores(self, terms, doc, doc_enc=None):
        """Tensor[t] of per-term scores under the configured variant.

        For ndrm3 the normalization batch is exactly the vector built here;
        training code that needs batch statistics across documents should
        combine the branch vectors itself via duet_scores.
        """
        if not terms:
            raise ContractError("term_scores needs at least one query term")
        lat = exp = None
        if self.needs_latent:
            if doc_enc is None:
                doc_enc = self.encode_document(doc)
            lat = self.latent_term_scores(terms, doc_enc)
        if self.needs_explicit:
            exp = self.explicit_term_scores(terms, doc)
        return self.mix_scores(lat, exp)

    # -- whole-query scoring ------------------------------------------------------

    def _query_tokens(self, query):
        tokens = query.tokens if isinstance(query, QueryRecord) else list(query)
        return tokens[:self.config.max_query_tokens]

    def score_query_document(self, query, doc):
        """Sum of per-term scores over query term occurrences -> float."""
        terms = self._query_tokens(query)
        if not terms:
            return 0.0
        with T.no_grad():
            scores = self.term_scores(terms, doc)
        return float(scores.data.sum(dtype=np.float64))

    def per_term_scores(self, terms, doc, doc_enc=None):
        """Per-occurrence score array (float) for index building and audits."""
        if not terms:
            return np.zeros(0, dtype=np.float64)
        with T.no_grad():
            scores = self.term_scores(terms, doc, doc_enc=doc_enc)
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
