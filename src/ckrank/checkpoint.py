"""Parameter checkpoints: a ``CKPT`` container (``container.py``) whose
manifest holds the model config, its hash, the running statistics and the
training vocabulary's fingerprint, and whose payloads are the parameters,
float32 or float64, in name order. Round-trips are bit-exact.

Each parameter is copied once either way: saving writes every array's own
buffer to the file, and loading reads every payload from the file straight
into the array the model then adopts. ``load_model`` builds the model from
those arrays without drawing a random initialization first.

Version 2 adds the training vocabulary's fingerprint (``save_model``);
``load_model`` refuses a vocabulary whose term order, document frequencies
or document count differ from it. Version 1 files are refused.
"""

from . import container
from .errors import ConfigError, ContractError, IndexFormatError

MAGIC = b"CKPT"
VERSION = 2
_OLDER = {1: f"predates the vocabulary fingerprint of version {VERSION}; train "
             f"and save the model again"}


def save_model(model, path):
    container.write(path, MAGIC, VERSION,
                    {"config": model.config.to_dict(),
                     "config_hash": model.config_hash,
                     "stats": model.running_stats(),
                     "vocab_fingerprint": model.vocab.fingerprint()},
                    model.parameters())


def load_model(path, vocab):
    """Rebuild a CKModel from a checkpoint; returns it in eval mode. A
    malformed config, a parameter that is not float or does not match the
    config, running statistics the config does not name or that the
    model's ``BSState`` or ``DuetParams`` refuses, another vocabulary or a
    stored config hash that differs from the rebuilt config's raises
    IndexFormatError.

    The model adopts the loaded arrays; its dropout stream starts as a
    fresh model's does.
    """
    from .model import CKModel, ModelConfig, parameter_specs

    fields, arrays = container.read(path, MAGIC, VERSION, "checkpoint", _OLDER)
    try:
        config = ModelConfig.from_dict(fields["config"])
        stats = dict(fields["stats"])
    except (KeyError, TypeError, ValueError) as err:
        raise IndexFormatError(f"{path}: malformed manifest ({err})") from None
    specs = parameter_specs(config, vocab.size)
    names = {name for name, _, _ in specs}
    if names != set(arrays):
        raise IndexFormatError(f"{path}: parameter set mismatch: "
                               f"{sorted(names ^ set(arrays))}")
    for name, shape, _ in specs:
        arr = arrays[name]
        if arr.shape != shape:
            raise IndexFormatError(f"{path}: shape mismatch for {name}: "
                                   f"{arr.shape} vs {shape}")
        if arr.dtype.kind != "f":
            raise IndexFormatError(f"{path}: parameter {name} has dtype "
                                   f"{arr.dtype}, not float")
    if fields.get("vocab_fingerprint") != vocab.fingerprint():
        raise IndexFormatError(f"{path}: the model was trained with a different "
                               f"vocabulary (term order, document frequencies "
                               f"or document count differ)")
    try:
        # the model hashes its config once, on construction
        model = CKModel(config, vocab, arrays)
        if stats.keys() != model.running_stats().keys():
            raise IndexFormatError(f"{path}: running statistics {sorted(stats)} "
                                   f"are not the model's")
        model.load_running_stats(stats)
    except (ConfigError, ContractError) as err:
        raise IndexFormatError(f"{path}: {err}") from None
    if model.config_hash != fields.get("config_hash"):
        raise IndexFormatError(f"{path}: config hash mismatch")
    model.eval()
    return model
