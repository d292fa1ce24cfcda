"""Closed forms on the unit ball that only the tests read: the flows of
the canonical generators on the half-plane model, real half-block
coordinates of complex ones, and the Cayley transform between that model
and the bounded ball."""

import numpy as np

from hdq.ball import BallAlgebra
from hdq.errors import InputError
from hdq.siegel import DomainPoint, SiegelModel


def table1_flow(generator: str, t: float, point: DomainPoint, B: BallAlgebra) -> DomainPoint:
    """Closed-form flow of a canonical generator on the half-plane model."""
    M = B.model
    z = complex(point.z[0])
    wc = M.to_complex_w(point.w)
    if generator == "zeta":
        z = z + t
    elif generator == "delta":
        z = np.exp(t) * z
        wc = np.exp(t / 2.0) * wc
    elif generator.startswith("xi"):
        k = _flow_index(generator, B.n)
        z = z + 2j * t * wc[k] + 1j * t * t
        wc = wc.copy()
        wc[k] = wc[k] + t
    elif generator.startswith("eta"):
        k = _flow_index(generator, B.n)
        z = z + 2.0 * t * wc[k] + 1j * t * t
        wc = wc.copy()
        wc[k] = wc[k] + 1j * t
    else:
        raise InputError(f"unknown generator {generator!r}")
    return DomainPoint(np.array([z]), from_complex_w(M, wc))


def from_complex_w(M: SiegelModel, wc: np.ndarray) -> np.ndarray:
    """Real half-block coordinates of complex ones (``M.to_complex_w`` undone)."""
    w = np.zeros(M.q)
    at = 0
    for off, m in M.half_pairs:
        w[off : off + m] = wc[at : at + m].real
        w[off + m : off + 2 * m] = wc[at : at + m].imag
        at += m
    return w


def _flow_index(generator: str, n: int) -> int:
    k = int(generator.lstrip("xieta").lstrip(":"))
    if not 1 <= k <= n - 1:
        raise InputError(f"generator index {k} out of range for n={n}")
    return k - 1


def siegel_to_ball(z: complex, w: np.ndarray) -> np.ndarray:
    """Cayley transform of the half-plane model onto the bounded ball."""
    w = np.asarray(w, dtype=complex)
    denom = z + 1j
    return np.concatenate([[(z - 1j) / denom], 2.0 * w / denom])


def ball_to_siegel(zeta: np.ndarray):
    zeta = np.asarray(zeta, dtype=complex)
    z = 1j * (1 + zeta[0]) / (1 - zeta[0])
    w = 1j * zeta[1:] / (1 - zeta[0])
    return z, w
