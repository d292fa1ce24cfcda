import os
from pathlib import Path

import numpy as np
import pytest

from hdq import jalgebra
from hdq.lie_core import LieAlgebraData

# the CLI tests start `python -m hdq.cli` in a subprocess; let it import
# the package from this checkout without an install
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)


def _relabelled_polydisc(rank, rng, per_vector=False):
    """A copy of polydisc:rank with its basis permuted and rescaled: new basis
    vector a is scale[a] * e_perm[a], with one factor per basis vector or
    one per disc factor.  Returns (copy, perm, scale)."""
    J = jalgebra.preset(f"polydisc:{rank}")
    n = J.dim
    perm = rng.permutation(n)
    scale = rng.uniform(0.5, 2.0, n) if per_vector else rng.uniform(0.5, 2.0, rank)[perm // 2]
    c = J.L.c[np.ix_(perm, perm, perm)] * np.einsum("a,b,k->abk", scale, scale, 1.0 / scale)
    j = J.j[np.ix_(perm, perm)] * np.outer(1.0 / scale, scale)
    omega = J.omega[perm] * scale
    labels = tuple(f"b{a:02d}" for a in range(n))
    return jalgebra.NormalJAlgebra(LieAlgebraData(n, labels, c), j, omega), perm, scale


@pytest.fixture
def relabelled_polydisc():
    return _relabelled_polydisc
