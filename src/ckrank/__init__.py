"""Additive per-term neural ranking with impact-index retrieval.

The package splits into a small instrumented tensor core (tensor, memory,
gradcheck), the encoder and pooling stack (attention, pooling), the ranking
models (model), training (train), offline index + retrieval (index), data
and evaluation plumbing (corpus, bm25, evalmetrics, synth), and harnesses
(bench, selftest, cli).
"""

from . import (attention, bench, bm25, checkpoint, corpus, evalmetrics,
               gradcheck, index, model, pooling, synth, tensor, train)
from .attention import conformer_block, multi_head, positional_encoding
from .corpus import Corpus, DocumentRecord, QueryRecord, Vocabulary, \
    ingest_corpus, load_qrels, load_queries, load_run, tokenize, write_run
from .errors import CkrankError, ConfigError, ContractError, IndexFormatError, \
    NonFiniteError, ShapeError, TrainingDiverged
from .evalmetrics import evaluate
from .gradcheck import finite_difference_check
from .index import ImpactIndex, RetrievalResult, build_index, load_index, \
    rerank, retrieve, save_index
from .memory import MemoryTracker, tracker
from .model import BSState, CKModel, DuetParams, ExplicitParams, ModelConfig, \
    duet_scores, ndrm2_term_scores
from .pooling import KernelBank, interaction_rows, num_windows, \
    windowed_pool_terms
from .tensor import Tensor, backward, constant, finite_checks, no_grad, \
    parameter, precision
from .train import Adam, TrainConfig, TrainInstance, TrainPair, expand_pairs, \
    make_instances, ranknet_loss

__version__ = "0.1.0"
