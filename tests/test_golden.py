"""Outputs pinned against ``golden.json``: micro ndrm1, ndrm2 and ndrm3
checkpoints, the CKIX framing, gap bytes and score columns of their indexes
and of BM25's, and one training step (see ``golden_regen.py``, which writes
the file). A change meant to move an output regenerates the file and says
what moved; any other change must leave every key as it is.

What does not depend on the CPU is compared exactly: the seeded
initialization (through the checkpoint's sha256), integer columns and the
container framing. Float columns and the training step are compared at
rtol 1e-6, because float32 BLAS kernels and SIMD transcendentals (exp, log,
tanh) may round differently on another CPU. A value that cancels to near
zero (a bias gradient under a pairwise loss is rounding noise) carries the
rounding of what it sums, so each float also passes within 1e-6 of the
largest magnitude among its siblings: the values under the same key prefix.
"""

import json

import numpy as np
import pytest
from golden_regen import GOLDEN, golden_outputs

WANT = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def got():
    return golden_outputs()


def _scale(outputs, key):
    parent = key.rpartition("/")[0]
    return max(np.abs(v).max() for k, v in outputs.items()
               if isinstance(v, list) and k.rpartition("/")[0] == parent)


def test_the_same_outputs_are_pinned(got):
    assert sorted(got) == sorted(WANT)


@pytest.mark.parametrize("key", sorted(WANT))
def test_output_matches_the_golden_file(got, key):
    want = WANT[key]
    if isinstance(want, list):
        np.testing.assert_allclose(got[key], want, rtol=1e-6,
                                   atol=1e-6 * _scale(WANT, key), err_msg=key)
    else:
        assert got[key] == want
