"""The three workloads: inputs made from the seed, one timed op, its check.

Each workload is driven as a closed loop by one client: the next op starts
only after the previous one returned.  ``op`` is the timed part; ``check``
compares its output with :mod:`oracles` and returns ``None`` or a reason.
``items`` counts the work units an op did (cases, coefficients or points).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import numpy as np

import oracles


def _seed_for(seed: int, i: int) -> int:
    return int(np.random.default_rng([seed, i]).integers(2**31))


def _torus_phases(rng: np.random.Generator) -> tuple[float, float]:
    """Two phases at least 0.3 rad from 0 and pi, the excluded set of the torus."""
    return tuple(
        float(rng.uniform(0.3, math.pi - 0.3) + math.pi * rng.integers(2)) for _ in range(2)
    )


class VerifyAll:
    """One op is ``run_suite("all")`` with a fresh seed; all cases must pass."""

    name = "verify-all"
    warmup = 0

    def __init__(self, bt, seed: int):
        self.bt = bt
        self.seed = seed

    def op(self, i: int, tracer):
        with tracer.span("verification.run_suite", op=i):
            return self.bt.run_suite("all", seed=_seed_for(self.seed, i))

    def check(self, i: int, report) -> str | None:
        return oracles.check_report(report.to_dict()["cases"])

    def items(self, i: int, report) -> int:
        return len(report.cases)


class _CoeffCase:
    """A seeded Hermite vector with the parameters of its pipeline."""

    def __init__(self, rng: np.random.Generator, degree: int, sigma: float, nu: float):
        self.coeffs = rng.standard_normal((degree + 1, 4))
        self.sigma = sigma
        self.nu = nu
        self.phases = _torus_phases(rng)
        self.point = [float(v) for v in rng.standard_normal(4) * 0.5]
        self.data = {"sigma": sigma, "coeffs": self.coeffs.tolist()}
        self.text = json.dumps(self.data)
        self.expect = oracles.pipeline_expect(self.coeffs, sigma, nu, self.phases, self.point)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class CoeffPipeline:
    """One op takes a vector through ``bctransforms.cli.main`` in four steps.

    transform --nu --eval (forward and evaluate), transform --sigma (inverse),
    frft --theta-phases (rotate) and frft --inverse (rotate back), each step
    reading the previous step's JSON from stdin.  The pool holds one vector of
    every degree 1..150 in seeded order, so every seed does the same work.
    """

    name = "coeff-pipeline"
    warmup = 20
    MAX_DEGREE = 150

    def __init__(self, bt, seed: int):
        from bctransforms.cli import main

        self.bt = bt
        self.main = main
        rng = np.random.default_rng(seed)
        self.cases = [
            _CoeffCase(rng, int(d), float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.5, 3.0)))
            for d in rng.permutation(np.arange(1, self.MAX_DEGREE + 1))
        ]

    def case(self, i: int) -> _CoeffCase:
        return self.cases[i % len(self.cases)]

    def _cli(self, tracer, argv: list[str], stdin_text: str) -> str:
        out = io.StringIO()
        old_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with tracer.span(f"cli.main.{argv[0]}"), contextlib.redirect_stdout(out):
                rc = self.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        finally:
            sys.stdin = old_stdin
        if rc != 0:
            raise RuntimeError(f"bctransforms {' '.join(argv)} exited with {rc}")
        return out.getvalue()

    def op(self, i: int, tracer):
        c = self.case(i)
        phases = "--theta-phases={!r},{!r}".format(*c.phases)
        with tracer.span("op.coeff-pipeline", op=i):
            fwd = self._cli(
                tracer,
                ["transform", "--input", "-", "--nu", repr(c.nu), "--eval=" + ",".join(map(repr, c.point))],
                c.text,
            )
            inv = self._cli(tracer, ["transform", "--input", "-", "--sigma", repr(c.sigma)], fwd)
            rot = self._cli(tracer, ["frft", "--input", "-", phases], inv)
            back = self._cli(tracer, ["frft", "--input", "-", phases, "--inverse"], rot)
        return fwd, inv, rot, back

    def check(self, i: int, out) -> str | None:
        fwd, inv, rot, back = (json.loads(text) for text in out)
        got = {
            "forward": np.array(fwd["vector"]["coeffs"], dtype=float),
            "eval": fwd["eval"]["value"],
            "inverse": np.array(inv["vector"]["coeffs"], dtype=float),
            "rotated": np.array(rot["vector"]["coeffs"], dtype=float),
            "back": np.array(back["vector"]["coeffs"], dtype=float),
            "nu": fwd["vector"]["nu"],
            "sigma": inv["vector"]["sigma"],
        }
        return oracles.check_pipeline(self.case(i).expect, got)

    def items(self, i: int, out) -> int:
        return self.case(i).degree + 1

    def replay(self, i: int, tracer) -> None:
        """Make the library calls of op ``i`` directly, one span each.

        The CLI's own time in an op is its ``cli.main`` spans minus these.
        """
        bt, c = self.bt, self.case(i)
        with tracer.span("bargmann.from_json"):
            h = bt.HermiteCoeffVector.from_json(c.data)
        with tracer.span("transforms.sbt_forward"):
            m = bt.sbt_forward(h, c.nu)
        with tracer.span("bargmann.monomial_evaluate"):
            value = m.evaluate(bt.Bicomplex.from_reals(*c.point))
        with tracer.span("bargmann.to_json"):
            m_json = m.to_json()
            value.to_json()
        with tracer.span("bargmann.from_json"):
            m = bt.MonomialCoeffVector.from_json(m_json)
        with tracer.span("transforms.sbt_inverse_coeff"):
            h = bt.sbt_inverse_coeff(m, c.sigma)
        with tracer.span("bargmann.to_json"):
            h_json = h.to_json()
        for inverse in (False, True):
            with tracer.span("bargmann.from_json"):
                h = bt.HermiteCoeffVector.from_json(h_json)
            with tracer.span("frft.ThetaParam"):
                theta = bt.ThetaParam.from_phases(*c.phases)
                if inverse:
                    theta = bt.ThetaParam(bt.conj_star(theta.theta))
            with tracer.span("frft.frft_coefficients"):
                h = bt.frft_coefficients(h, theta)
            with tracer.span("bargmann.to_json"):
                h_json = h.to_json()


#: rungs of the degree ladder behind ``coeff_max_degree``
DEGREE_LADDER = (150, 160, 171, 200, 500, 1000, 2000, 5000)


def ladder_rung(bt, seed: int, degree: int) -> str | None:
    """Run forward, both evaluations, inverse and both rotations at ``degree``.

    sigma = 1 and nu = 2 throughout.  Returns ``None`` when every output is
    finite and passes the pipeline's check, else the first failure.
    """
    c = _CoeffCase(np.random.default_rng([seed, degree]), degree, 1.0, 2.0)
    x0 = 0.5
    try:
        h = bt.HermiteCoeffVector.from_json(c.data)
        hval = bt.as_bicomplex(h.evaluate(x0))
        m = bt.sbt_forward(h, c.nu)
        mval = m.evaluate(bt.Bicomplex.from_reals(*c.point))
        inv = bt.sbt_inverse_coeff(m, c.sigma)
        theta = bt.ThetaParam.from_phases(*c.phases)
        rot = bt.frft_coefficients(inv, theta)
        back = bt.frft_coefficients(rot, bt.ThetaParam(bt.conj_star(theta.theta)))
        got = {
            "forward": np.array(m.to_json()["coeffs"]),
            "eval": mval.to_json(),
            "inverse": np.array(inv.to_json()["coeffs"]),
            "rotated": np.array(rot.to_json()["coeffs"]),
            "back": np.array(back.to_json()["coeffs"]),
            "nu": m.nu,
            "sigma": inv.sigma,
        }
    except Exception as err:  # any failure ends the ladder; its type is the finding
        return f"{type(err).__name__}: {err}"
    problem = oracles.check_pipeline(c.expect, got)
    if problem is None:
        (ea, eb), scale = oracles.hermite_eval_expect(c.coeffs, c.sigma, x0)
        ga, gb = oracles.channels(hval.z1, hval.z2)
        if not (np.isfinite(scale) and abs(ga - ea) + abs(gb - eb) <= oracles.VALUE_RTOL * scale):
            problem = "Hermite expansion evaluates to the wrong value"
    return problem


def max_degree(bt, seed: int) -> tuple[int, list[dict]]:
    """Highest ladder rung reached before the first rung that fails, and the log."""
    best, log = 0, []
    for degree in DEGREE_LADDER:
        problem = ladder_rung(bt, seed, degree)
        log.append({"degree": degree, "problem": problem})
        if problem is not None:
            break
        best = degree
    return best, log


class KernelGrid:
    """One op is a batch of 10**4 seeded points through eight closed forms.

    Every call takes whole arrays, so the work is array broadcasting in the
    bicomplex layer with no per-point Python and no quadrature.
    """

    name = "kernel-grid"
    warmup = 5
    POINTS = 10_000
    POOL = 8
    PSI_DEGREE = 40

    #: span name and the call it times, in op order
    CALLS = (
        ("bargmann.kernel_K_BC", lambda bt, b: bt.kernel_K_BC(b["nu"], b["Zb"], b["Wb"])),
        ("transforms.sbt_kernel_BC", lambda bt, b: bt.sbt_kernel_BC(b["sigma"], b["nu"], b["x"], b["Zb"])),
        ("hermite.generating_G", lambda bt, b: bt.generating_G(b["sigma"], b["nu"], b["x"], b["Zb"])),
        ("frft.frft_kernel", lambda bt, b: bt.frft_kernel(b["sigma"], b["theta"], b["x"], b["y"])),
        ("frft.ck_frft_kernel", lambda bt, b: bt.ck_frft_kernel(b["sigma"], b["theta"], b["x"], b["Zb"])),
        ("frft.mehler_closed", lambda bt, b: bt.mehler_closed(b["sigma"], b["theta"].theta, b["x"], b["y"])),
        (
            "frft.mehler_bilinear_bc",
            lambda bt, b: bt.mehler_bilinear_bc(b["sigma"], b["theta"].theta, b["Zb"], b["y"]),
        ),
        ("hermite.psi_values", lambda bt, b: bt.psi_values(b["psi_degree"], b["sigma"], b["x"])),
    )

    def __init__(self, bt, seed: int):
        self.bt = bt
        rng = np.random.default_rng(seed)
        self.batches = [self.make_batch(bt, rng, self.POINTS) for _ in range(self.POOL)]

    @classmethod
    def make_batch(cls, bt, rng: np.random.Generator, n: int) -> dict:
        def ring():
            return tuple(rng.normal(0, 0.5, n) + 1j * rng.normal(0, 0.5, n) for _ in range(2))

        b = {
            "sigma": float(rng.uniform(0.5, 2.0)),
            "nu": float(rng.uniform(1.0, 3.0)),
            "phases": _torus_phases(rng),
            "x": rng.uniform(-2.0, 2.0, n),
            "y": rng.uniform(-2.0, 2.0, n),
            "Z": ring(),
            "W": ring(),
            "psi_degree": cls.PSI_DEGREE,
        }
        b["Zb"] = bt.Bicomplex(*b["Z"])
        b["Wb"] = bt.Bicomplex(*b["W"])
        b["theta"] = bt.ThetaParam.from_phases(*b["phases"])
        return b

    def batch(self, i: int) -> dict:
        return self.batches[i % self.POOL]

    def op(self, i: int, tracer):
        b, out = self.batch(i), {}
        with tracer.span("op.kernel-grid", op=i):
            for span_name, call in self.CALLS:
                with tracer.span(span_name):
                    out[span_name.split(".", 1)[1]] = call(self.bt, b)
        return out

    @staticmethod
    def channel_values(out: dict) -> dict:
        """Op output as channel pairs, with the psi list as one array."""
        return {
            k: np.array(v, dtype=float) if k == "psi_values" else oracles.channels(v.z1, v.z2)
            for k, v in out.items()
        }

    def check(self, i: int, out) -> str | None:
        return oracles.check_kernels(oracles.kernel_expect(self.batch(i)), self.channel_values(out))

    def items(self, i: int, out) -> int:
        return self.POINTS


WORKLOADS = {w.name: w for w in (VerifyAll, CoeffPipeline, KernelGrid)}
