"""The three workloads: their inputs, their two timed phases, their checks.

Each workload builds operation ``index`` from ``numpy.random.default_rng
([seed, index])``, so a seed fixes every input whatever the run length.
An operation is one ``analyze`` followed by one ``verify`` of the
certificate it wrote.  Operations come in rounds of a fixed make-up, and a
run attempts whole rounds.

The checks test properties the method must have, never stored output.
They raise ``CheckFailed``; the self-test feeds them wrong expectations to
show that each one can fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from hdq import analyzer, cli, jalgebra
from hdq.errors import HdqError
from hdq.lie_core import LieAlgebraData
from hdq.siegel import build_model


class CheckFailed(Exception):
    """An output of the program lacks a property the method guarantees."""


class OpFailed(Exception):
    """The program refused an operation (CLI exit 4)."""


# what counts as a failed operation rather than a wrong answer
FAILURES = (HdqError, OpFailed)


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------

def _step(cert, kind):
    return next((s for s in cert["steps"] if s["kind"] == kind), None)


def check_conclusion(cert, expected):
    expect(cert["conclusion"] == expected, f"conclusion {cert['conclusion']!r}, expected {expected!r}")


def check_elliptic_identity(cert):
    e = np.asarray(_step(cert, "jordan_split")["payload"]["elliptic"])
    dev = float(np.max(np.abs(e - np.eye(len(e)))))
    expect(dev <= 1e-8, f"elliptic factor of an exp: element is {dev:.2e} from the identity")


def tower_shape(cert):
    """(depth, quotient algebra dims of the tower_descend steps)."""
    levels = [s["level"] for s in cert["steps"] if s["kind"] in ("tower_descend", "fiber_case")]
    quotients = [s["payload"]["dim_quotient_algebra"] for s in cert["steps"] if s["kind"] == "tower_descend"]
    return (max(levels) if levels else 0), quotients


def check_tower(cert, depth, quotients):
    got = tower_shape(cert)
    expect(got == (depth, list(quotients)), f"tower (depth, quotients) {got}, expected {(depth, list(quotients))}")


def check_finite_order(cert, order):
    step = _step(cert, "finite_case")
    expect(step is not None, "no finite_case step")
    expect(step["payload"]["order"] == order, f"finite order {step['payload']['order']}, expected {order}")


def check_elliptic_angles(cert, angles):
    """Eigen-angles of the elliptic factor equal the given rotation angles,
    as absolute values in [0, pi], each rotated pair giving two eigenvalues."""
    e = np.asarray(_step(cert, "jordan_split")["payload"]["elliptic"])
    got = np.sort(np.abs(np.angle(np.linalg.eigvals(e))))
    want = [abs(math.remainder(a, 2 * math.pi)) for a in angles] * 2
    want = np.sort(want + [0.0] * (len(got) - len(want)))
    dev = float(np.max(np.abs(got - want)))
    expect(dev <= 1e-8, f"elliptic eigen-angles differ from the input angles by {dev:.2e}")


def format_exp(coeffs, labels) -> str:
    """``exp:`` spec in fixed-point notation."""
    terms = [f"{'-' if c < 0 else '+'} {abs(c):.12f}*{lbl}" for c, lbl in zip(coeffs, labels)]
    return "exp:" + " ".join(terms).lstrip("+ ")


# Distinct eigenvalues of an input's affine matrix are kept apart: the
# delta coefficients behind the real spectrum differ by at least
# SPECTRAL_GAP (and from 0), and rotation angles by ROTATION_GAP radians.
# Closer eigenvalues make the Jordan split fail or lose accuracy (see
# CHANGES.md).
SPECTRAL_GAP = 0.02
ROTATION_GAP = 0.01


@dataclass
class Op:
    index: int
    domain: str
    phi: str
    facts: dict  # what the generator knows about the input, for the checks


class _Workload:
    round_size = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index):
        return np.random.default_rng([self.seed, index])

    def setup_args(self, op: Op, out: Path):
        """``hdq`` arguments that analyze ``op`` into ``out``."""
        return ["analyze", "--domain", op.domain, "--phi", op.phi, "--out", str(out)]


class _ApiWorkload(_Workload):
    """Drives ``analyzer.analyze`` / ``analyzer.verify``; the certificate
    travels as the bytes ``dump_certificate`` writes."""

    def analyze(self, op: Op):
        return analyzer.dump_certificate(analyzer.analyze(op.domain, op.phi))

    def verify(self, op: Op, blob):
        return analyzer.verify(json.loads(blob))[0]

    def repeat(self, op: Op, blob):
        expect(self.analyze(op) == blob, "repeated analyze gave different certificate bytes")


class BallFiber(_ApiWorkload):
    """``ball:8`` by preset name; every fourth element has no delta term."""

    name = "ball-fiber"
    domain = "ball:8"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.labels = jalgebra.preset(self.domain).L.basis_labels

    def prepare(self, index):
        rng = self.rng(index)
        coeffs = rng.uniform(-1.0, 1.0, len(self.labels))
        d = self.labels.index("delta")
        if index % 4 == 3:
            coeffs[d] = 0.0
        while 0.0 < abs(coeffs[d]) < SPECTRAL_GAP:
            coeffs[d] = rng.uniform(-1.0, 1.0)
        return Op(index, self.domain, format_exp(coeffs, self.labels), {"delta": coeffs[d]})

    def check(self, op, blob, verified):
        cert = json.loads(blob)
        expect(verified, "verify rejected the certificate")
        check_conclusion(cert, "stein_certified")
        check_elliptic_identity(cert)
        check_tower(cert, 1, [])
        # a zero frame coefficient takes the abelian branch, which needs no conjugator
        conj = np.asarray(_step(cert, "fiber_case")["payload"]["conjugator_x_minus"])
        expect((op.facts["delta"] == 0.0) == (not np.any(conj)), "totally-real branch does not match the delta coefficient")


class PolydiscTower(_ApiWorkload):
    """A fresh relabelled copy of ``polydisc:6`` per operation, as a file:
    the basis permuted, each disc factor rescaled by its own factor."""

    name = "polydisc-tower"
    rank = 6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.preset = jalgebra.preset(f"polydisc:{self.rank}")

    def prepare(self, index):
        rng = self.rng(index)
        J = self.preset
        n = J.dim
        perm = rng.permutation(n)  # new basis vector a is scale[a] * old e_perm[a]
        # one factor per disc (delta_k, zeta_k): with a factor per basis vector
        # about one copy in sixty loses accuracy in the tower (see CHANGES.md)
        scale = rng.uniform(0.5, 2.0, self.rank)[perm // 2]
        c = J.L.c[np.ix_(perm, perm, perm)] * np.einsum("a,b,k->abk", scale, scale, 1.0 / scale)
        j = J.j[np.ix_(perm, perm)] * np.outer(1.0 / scale, scale)
        omega = J.omega[perm] * scale
        labels = tuple(f"b{a:02d}" for a in range(n))
        copy = jalgebra.NormalJAlgebra(LieAlgebraData(n, labels, c), j, omega)
        path = self.workdir / f"polydisc-{index}.json"
        path.write_text(json.dumps(jalgebra.j_algebra_to_dict(copy)))
        on_preset = np.zeros(n)
        while True:
            coeffs = rng.uniform(-1.0, 1.0, n)
            on_preset[perm] = coeffs * scale
            deltas = np.sort(np.append(on_preset[0::2], 0.0))  # preset order is delta1, zeta1, ...
            if np.min(np.diff(deltas)) >= SPECTRAL_GAP:
                break
        return Op(index, str(path), format_exp(coeffs, labels),
                  {"preset_phi": format_exp(on_preset, J.L.basis_labels)})

    def check(self, op, blob, verified):
        cert = json.loads(blob)
        expect(verified, "verify rejected the certificate")
        check_conclusion(cert, "stein_certified")
        check_elliptic_identity(cert)
        check_tower(cert, self.rank, range(2 * self.rank - 2, 0, -2))

    def relabel(self, op, blob):
        """The same element on the preset reaches the same conclusion and depth."""
        cert = json.loads(blob)
        ref = analyzer.analyze(f"polydisc:{self.rank}", op.facts["preset_phi"])
        expect(ref["conclusion"] == cert["conclusion"], "relabelled copy and preset disagree on the conclusion")
        expect(tower_shape(ref)[0] == tower_shape(cert)[0], "relabelled copy and preset disagree on the depth")


class AffineElliptic(_Workload):
    """Rotations of the w-coordinates through ``hdq.cli.main`` in-process.

    A round is every (domain, kind) pair: rational angles (a finite group),
    irrational angles (not applicable), and irrational angles with a
    dilation and a real translation (certified after elliptic reduction).
    """

    name = "affine-elliptic"
    domains = ("ball:4", "product:[ball:3,ball:3]")
    kinds = ("rational", "irrational", "dilation")
    round_size = 6
    exit_codes = {"rational": 0, "irrational": 2, "dilation": 0}
    conclusions = {"rational": "stein_by_citation", "irrational": "not_applicable", "dilation": "stein_certified"}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.layout = {}
        for d in self.domains:
            M = build_model(jalgebra.preset(d))
            self.layout[d] = (M.p, M.q, M.half_pairs)

    def prepare(self, index):
        rng = self.rng(index)
        domain = self.domains[(index // 3) % 2]
        kind = self.kinds[index % 3]
        p, q, pairs = self.layout[domain]
        m = q // 2
        facts = {"kind": kind}
        if kind == "rational":
            fracs = [Fraction(int(rng.integers(1, b)), int(b)) for b in rng.integers(2, 13, m)]
            fracs[1] = fracs[0]  # a repeated eigenvalue pair in every Jordan split
            angles = [2 * math.pi * float(f) for f in fracs]
            facts["order"] = math.lcm(*(f.denominator for f in fracs))
        else:
            angles = _irrational_angles(rng, m)
        lam, shift = 1.0, np.zeros(p)
        if kind == "dilation":
            u = 0.0
            while abs(u) < SPECTRAL_GAP:
                u = rng.uniform(-1.0, 1.0)
            lam = math.exp(0.5 * u)
            shift = rng.uniform(-1.0, 1.0, p)
        facts["angles"] = angles
        dim = 2 * p + q
        linear = np.zeros((dim, dim))
        linear[: 2 * p, : 2 * p] = lam * lam * np.eye(2 * p)
        k = 0
        for off, size in pairs:
            for i in range(size):
                re, im = 2 * p + off + i, 2 * p + off + size + i
                c, s = math.cos(angles[k]), math.sin(angles[k])
                linear[re, re], linear[re, im], linear[im, re], linear[im, im] = lam * c, -lam * s, lam * s, lam * c
                k += 1
        translation = np.concatenate([shift, np.zeros(p + q)])
        path = self.workdir / f"phi-{index}.json"
        path.write_text(json.dumps({"linear": linear.tolist(), "translation": translation.tolist()}))
        return Op(index, domain, f"affine:{path}", facts)

    def _cert_path(self, op, tag=""):
        return self.workdir / f"cert-{op.index}{tag}.json"

    def analyze(self, op, tag=""):
        out = self._cert_path(op, tag)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.setup_args(op, out))
        if code == cli.EXIT_INPUT:
            raise OpFailed(f"analyze exited {code}")
        return code, out.read_bytes()

    def verify(self, op, analyzed):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["verify", str(self._cert_path(op))])
        if code == cli.EXIT_INPUT:
            raise OpFailed(f"verify exited {code}")
        return code, text.getvalue()

    def check(self, op, analyzed, verified):
        kind = op.facts["kind"]
        code, blob = analyzed
        cert = json.loads(blob)
        expect(code == self.exit_codes[kind], f"{kind} rotation: analyze exit {code}")
        check_conclusion(cert, self.conclusions[kind])
        if kind == "rational":
            check_finite_order(cert, op.facts["order"])
        if kind == "dilation":
            check_elliptic_angles(cert, op.facts["angles"])
        vcode, text = verified
        expect(vcode == 0 and text.rstrip().endswith("certificate verifies"), f"verify exit {vcode}")

    def repeat(self, op, analyzed):
        expect(self.analyze(op, "-repeat") == analyzed, "repeated analyze gave different certificate bytes")


def _irrational_angles(rng, count):
    """Angles whose turn fractions are at least 1e-6 from every fraction with
    denominator <= 97, and whose eigenvalues e^(+-i angle) stay
    ``ROTATION_GAP`` radians apart from each other and from +-1.

    The analyzer's rationality test (continued fractions up to 97,
    tolerance 1e-9, undecided up to 1e-7) reads such angles as irrational
    by design.  Eigenvalues closer than about 1e-4 are merged by the Jordan
    split's loosest clustering and give a wrong elliptic factor (see
    CHANGES.md), so they are left out.
    """
    while True:
        turns = rng.uniform(0.0, 1.0, count)
        if any(abs(x - float(Fraction(x).limit_denominator(97))) <= 1e-6 for x in turns):
            continue
        unsigned = np.sort([abs(math.remainder(2 * math.pi * x, 2 * math.pi)) for x in turns])
        if np.min(np.diff(np.concatenate([[0.0], unsigned, [math.pi]]))) >= ROTATION_GAP:
            return [2 * math.pi * x for x in turns]


WORKLOADS = {w.name: w for w in (BallFiber, PolydiscTower, AffineElliptic)}
