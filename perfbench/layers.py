"""Per-layer probes for the traced run.

Each probe times calls into one module of bctransforms, one span per call,
and reports the median span.  The probes are the same on every workload, so a
traced run of any workload reports every per-layer metric.  Each probe's
result is checked against :mod:`oracles`; failures are returned, not raised.

Metric names are ``<module>.<metric>``.  The end-to-end metric each should
move, and on which workload:

* verify-all ``op_p50_ms``: quadrature integrate_*, bargmann project_P and
  inner_H2nu, transforms sbt_inverse_integral and s_transform, frft
  frft_apply_integral and mehler_series, every verification metric;
* coeff-pipeline ``ops_per_s`` and ``op_p50_ms``: bicomplex scalar_mul,
  hermite psi_values_scalar, the bargmann coefficient-vector metrics (json,
  evaluate, norm_sq), transforms sbt_forward and sbt_inverse_coeff, frft
  frft_coefficients, cli self_ms;
* kernel-grid ``items_per_s`` (points per second): bicomplex array_mul and
  array_exp and every ``*_ns_per_pt`` metric;
* ``setup_s`` on every workload: quadrature rule_build_ms.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import oracles
from workloads import CoeffPipeline, KernelGrid

POINTS = KernelGrid.POINTS


class Probes:
    def __init__(self, bt, seed: int, tracer):
        self.bt = bt
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 7])
        self.seed = seed
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.batch = KernelGrid.make_batch(bt, self.rng, POINTS)
        self.expect = oracles.kernel_expect(self.batch)

    def time(self, name: str, fn, repeats: int, scale: float, per: float = 1.0):
        """Record the median of ``repeats`` spans of ``fn`` as ``name``; return fn's result."""
        durations = []
        for _ in range(repeats):
            with self.tracer.span(name) as span:
                result = fn()
            durations.append(span.duration)
        self.metrics[name] = statistics.median(durations) * scale / per
        return result

    def verify(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def close(self, label: str, got, want_channels, scale: float, rtol: float) -> None:
        """Check a scalar Bicomplex result against expected channel values."""
        ga, gb = oracles.channels(got.z1, got.z2)
        err = abs(ga - want_channels[0]) + abs(gb - want_channels[1])
        self.verify(label, None if err <= rtol * scale else f"error {err:.3e} > {rtol:g} x {scale:.3e}")

    # ------------------------------------------------------------ modules

    def bicomplex(self) -> None:
        bt = self.bt
        z, w = (bt.Bicomplex(*(complex(*self.rng.standard_normal(2)) for _ in range(2))) for _ in range(2))
        prod = self.time("bicomplex.scalar_mul_us", lambda: [z * w for _ in range(1000)][-1], 5, 1e6, 1000)
        za, zb = oracles.channels(z.z1, z.z2)
        wa, wb = oracles.channels(w.z1, w.z2)
        self.close("bicomplex.scalar_mul", prod, (za * wa, zb * wb), (abs(za) + abs(zb)) * (abs(wa) + abs(wb)), 1e-14)
        b = KernelGrid.make_batch(bt, self.rng, POINTS)
        za, zb = oracles.channels(*b["Z"])
        wa, wb = oracles.channels(*b["W"])
        prod = self.time("bicomplex.array_mul_ns_per_pt", lambda: b["Zb"] * b["Wb"], 20, 1e9, POINTS)
        got = KernelGrid.channel_values({"mul": prod})["mul"]
        self.verify("bicomplex.array_mul", oracles.check_kernels({"mul": (za * wa, zb * wb)}, {"mul": got}))
        ex = self.time("bicomplex.array_exp_ns_per_pt", lambda: bt.exp(b["Zb"]), 20, 1e9, POINTS)
        got = KernelGrid.channel_values({"exp": ex})["exp"]
        self.verify("bicomplex.array_exp", oracles.check_kernels({"exp": (np.exp(za), np.exp(zb))}, {"exp": got}))

    def quadrature(self, coldstarts: list[dict]) -> None:
        bt = self.bt
        for order in ("64", "256", "1000"):
            self.metrics[f"quadrature.rule_build_ms.o{order}"] = statistics.median(c["rule_ms"][order] for c in coldstarts)
        nu, c = 2.0, 1.5 - 0.5j
        rule = bt.gauss_hermite(24, nu / 2.0)
        counts = [0, 0]

        def constant(Z):
            counts[0] += 1
            counts[1] += np.size(Z.z1)
            return np.zeros(np.shape(Z.z1), dtype=complex) + c

        def once():
            counts[:] = [0, 0]
            return bt.integrate_bicomplex(constant, nu, rule, vectorized=True)

        got = self.time("quadrature.integrate_bicomplex_ms.o24", once, 5, 1e3)
        want = c * (math.pi / nu) ** 2
        self.close("quadrature.integrate_bicomplex", got, (want, want), abs(want), 1e-12)
        self.metrics["quadrature.integrand_calls.o24"] = counts[0]
        self.metrics["quadrature.integrand_points.o24"] = counts[1]
        rule = bt.gauss_hermite(64, 1.0)
        got = self.time(
            "quadrature.integrate_complex_us.o64",
            lambda: bt.integrate_complex(lambda xi: np.abs(xi) ** 2, rule, vectorized=True),
            20,
            1e6,
        )
        self.close("quadrature.integrate_complex", got, (math.pi, math.pi), math.pi, 1e-12)
        got = self.time(
            "quadrature.integrate_real_us.o64",
            lambda: bt.integrate_real(lambda t: t * t, rule, vectorized=True),
            20,
            1e6,
        )
        want = math.sqrt(math.pi) / 2.0
        self.close("quadrature.integrate_real", got, (want, want), want, 1e-12)

    def hermite(self) -> None:
        bt = self.bt
        # sigma = 1 as on the degree ladder: at degree 150 a sigma above about
        # 1.2 overflows the norm and psi_values silently returns 0
        sigma, x0 = 1.0, 0.7
        got = self.time("hermite.psi_values_scalar_ms.d150", lambda: bt.psi_values(150, sigma, x0), 10, 1e3)
        want = oracles.psi_table(150, sigma, x0)
        self.verify(
            "hermite.psi_values_scalar",
            oracles.check_kernels({"psi_values": want}, {"psi_values": np.array(got, dtype=float)}),
        )
        self._kernel_probe("hermite.psi_values_array_ns_per_pt.d40", "hermite.psi_values")
        self._kernel_probe("hermite.generating_G_ns_per_pt", "hermite.generating_G")

    def _kernel_probe(self, metric: str, call_name: str) -> None:
        call = dict(KernelGrid.CALLS)[call_name]
        out = self.time(metric, lambda: call(self.bt, self.batch), 20, 1e9, POINTS)
        key = call_name.split(".", 1)[1]
        got = KernelGrid.channel_values({key: out})
        self.verify(metric, oracles.check_kernels({key: self.expect[key]}, {key: got[key]}))

    def bargmann(self) -> None:
        bt = self.bt
        nu, sigma = 2.0, 1.0
        Z = bt.Bicomplex(*(complex(*self.rng.uniform(-0.6, 0.6, 2)) for _ in range(2)))
        za, zb = oracles.channels(Z.z1, Z.z2)
        got = self.time(
            "bargmann.project_P_ms.o24", lambda: bt.project_P(lambda W: W * W, nu, Z, order=24, vectorized=True), 3, 1e3
        )
        self.close("bargmann.project_P", got, (za * za, zb * zb), 1.0 + abs(za) ** 2 + abs(zb) ** 2, 1e-8)
        got = self.time(
            "bargmann.inner_H2nu_ms.o20",
            lambda: bt.inner_H2nu(lambda W: W * W, lambda W: W * W, nu, order=20, vectorized=True),
            3,
            1e3,
        )
        want = 8.0 / nu**2
        self.close("bargmann.inner_H2nu", got, (want, want), want, 1e-8)
        self._kernel_probe("bargmann.kernel_K_BC_ns_per_pt", "bargmann.kernel_K_BC")

        coeffs = self.rng.standard_normal((151, 4))
        data = {"sigma": sigma, "coeffs": coeffs.tolist()}
        h = self.time("bargmann.from_json_ms.d150", lambda: bt.HermiteCoeffVector.from_json(data), 20, 1e3)
        wire = self.time("bargmann.to_json_ms.d150", h.to_json, 20, 1e3)
        self.verify(
            "bargmann.json_roundtrip", None if wire == data else "to_json(from_json(data)) differs from data"
        )
        x0 = 0.4
        got = self.time("bargmann.hermite_evaluate_ms.d150", lambda: bt.as_bicomplex(h.evaluate(x0)), 10, 1e3)
        want, scale = oracles.hermite_eval_expect(coeffs, sigma, x0)
        self.close("bargmann.hermite_evaluate", got, want, scale, oracles.VALUE_RTOL)
        m = bt.MonomialCoeffVector.from_json({"nu": nu, "coeffs": coeffs.tolist()})
        got = self.time("bargmann.monomial_evaluate_ms.d150", lambda: m.evaluate(Z), 10, 1e3)
        ca, cb = oracles.wire_channels(coeffs)
        scale = oracles.horner(np.abs(ca), abs(za)).real + oracles.horner(np.abs(cb), abs(zb)).real
        self.close("bargmann.monomial_evaluate", got, (oracles.horner(ca, za), oracles.horner(cb, zb)), scale, oracles.VALUE_RTOL)
        got = self.time("bargmann.norm_sq_ms.d150", h.norm_sq, 20, 1e3)
        want = float(np.sum(coeffs**2))
        self.verify("bargmann.norm_sq", None if abs(got - want) <= 1e-12 * want else f"norm_sq {got!r} != {want!r}")

    def transforms(self) -> None:
        bt = self.bt
        sigma, nu = 1.0, 2.0
        for d in (10, 100, 150):
            coeffs = self.rng.standard_normal((d + 1, 4))
            h = bt.HermiteCoeffVector.from_json({"sigma": sigma, "coeffs": coeffs.tolist()})
            m = self.time(f"transforms.sbt_forward_ms.d{d}", lambda: bt.sbt_forward(h, nu), 10, 1e3)
            back = self.time(f"transforms.sbt_inverse_coeff_ms.d{d}", lambda: bt.sbt_inverse_coeff(m, sigma), 10, 1e3)
            ca, cb = oracles.wire_channels(coeffs)
            s = oracles.forward_scale(d, nu)
            got = {
                "forward": oracles.wire_channels(np.array(m.to_json()["coeffs"])),
                "inverse": oracles.wire_channels(np.array(back.to_json()["coeffs"])),
            }
            want = {"forward": (ca * s, cb * s), "inverse": (ca, cb)}
            self.verify(f"transforms.sbt_maps.d{d}", oracles.check_kernels(want, got))
        self._kernel_probe("transforms.sbt_kernel_BC_ns_per_pt", "transforms.sbt_kernel_BC")

        n, x0 = 3, 0.7
        got = self.time(
            "transforms.sbt_inverse_integral_ms.o80",
            lambda: bt.sbt_inverse_integral(lambda Z: Z * Z * Z, sigma, nu, x0, order=80),
            5,
            1e3,
        )
        want = math.sqrt(2.0**n * math.factorial(n) / nu**n) * oracles.psi_table(n, sigma, x0)[n]
        self.close("transforms.sbt_inverse_integral", got, (want, want), 1.0 + abs(want), 1e-7)
        Z = bt.Bicomplex(*(complex(*self.rng.uniform(-0.6, 0.6, 2)) for _ in range(2)))
        za, zb = oracles.channels(Z.z1, Z.z2)
        got = self.time(
            "transforms.s_transform_ms.o64", lambda: bt.s_transform(lambda xi: xi**3, nu, Z, order=64), 5, 1e3
        )
        self.close("transforms.s_transform", got, (za**3, zb**3), 1.0 + abs(za) ** 3 + abs(zb) ** 3, 1e-8)

    def frft(self) -> None:
        bt = self.bt
        sigma = 1.0
        phases = (0.9, 2.2)
        theta = bt.ThetaParam.from_phases(*phases)
        for d in (10, 150, 1000):
            coeffs = self.rng.standard_normal((d + 1, 4))
            h = bt.HermiteCoeffVector.from_json({"sigma": sigma, "coeffs": coeffs.tolist()})
            rot = self.time(f"frft.frft_coefficients_ms.d{d}", lambda: bt.frft_coefficients(h, theta), 10, 1e3)
            ca, cb = oracles.wire_channels(coeffs)
            k = np.arange(d + 1)
            want = {"rot": (ca * np.exp(1j * phases[0] * k), cb * np.exp(1j * phases[1] * k))}
            got = {"rot": oracles.wire_channels(np.array(rot.to_json()["coeffs"]))}
            self.verify(f"frft.frft_coefficients.d{d}", oracles.check_kernels(want, got))
        for name in ("frft_kernel", "ck_frft_kernel", "mehler_closed"):
            self._kernel_probe(f"frft.{name}_ns_per_pt", f"frft.{name}")

        n, y0 = 4, 0.6
        got = self.time(
            "frft.frft_apply_integral_ms.o96",
            lambda: bt.frft_apply(lambda x: oracles.psi_table(n, sigma, x)[n], theta, y0, sigma=sigma, order=96),
            5,
            1e3,
        )
        psi = oracles.psi_table(n, sigma, y0)[n]
        ta, tb = np.exp(1j * phases[0]), np.exp(1j * phases[1])
        self.close("frft.frft_apply_integral", got, (ta**n * psi, tb**n * psi), 1.0 + abs(psi), 1e-8)
        ta, tb = 0.5 * np.exp(1j * math.pi / 5.0), 0.45 + 0j
        inner = bt.Bicomplex.from_channels(ta, tb)
        x0, y0 = 0.4, -0.7
        got = self.time("frft.mehler_series_ms.n60", lambda: bt.mehler_series(sigma, inner, x0, y0, n_terms=60), 5, 1e3)

        def closed(t):
            return np.exp((-sigma * t * t * (x0 * x0 + y0 * y0) + 2 * sigma * t * x0 * y0) / (1 - t * t)) / np.sqrt(1 - t * t)

        want = (closed(ta), closed(tb))
        self.close("frft.mehler_series", got, want, abs(want[0]) + abs(want[1]), 1e-10)

    def verification(self) -> None:
        bt = self.bt
        total = 0
        for suite in bt.SUITE_NAMES:
            if suite == "all":
                continue
            report = self.time(f"verification.suite_s.{suite}", lambda: bt.run_suite(suite, seed=self.seed), 1, 1.0)
            self.verify(f"verification.{suite}", oracles.check_report(report.to_dict()["cases"], min_cases=1))
            total += len(report.cases)
            for case in report.cases:
                if case.id in ("bargmann/reproducing", "bargmann/monomial-orthogonality"):
                    self.metrics["verification.case_ms." + case.id.replace("/", ".")] = case.ms
        self.verify("verification.case_count", None if total >= oracles.MIN_CASES else f"only {total} cases")

    def cli(self) -> None:
        """CLI self time per coeff op: cli.main spans minus the library calls they make."""
        pipe = CoeffPipeline(self.bt, self.seed)
        by_degree = {c.degree: i for i, c in enumerate(pipe.cases)}
        selfs = []
        for degree in (10, 50, 100, 150):
            i = by_degree[degree]
            for _ in range(3):
                first = len(self.tracer.spans)
                out = pipe.op(i, self.tracer)
                pipe.replay(i, self.tracer)
                spans = self.tracer.spans[first:]
                cli_s = sum(s.duration for s in spans if s.name.startswith("cli.main."))
                lib_s = sum(s.duration for s in spans if s.parent is None and not s.name.startswith("op."))
                selfs.append(cli_s - lib_s)
                self.verify(f"cli.pipeline.d{degree}", pipe.check(i, out))
        self.metrics["cli.self_ms"] = statistics.median(selfs) * 1e3

    def run(self, coldstarts: list[dict]) -> None:
        self.bicomplex()
        self.quadrature(coldstarts)
        self.hermite()
        self.bargmann()
        self.transforms()
        self.frft()
        self.verification()
        self.cli()
