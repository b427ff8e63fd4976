"""Expected values and output checks, written with numpy alone.

Nothing here imports bctransforms, so a defect in the library cannot hide in
its own check.  Every closed form is computed channelwise from the idempotent
split Z = alpha e+ + beta e-, with alpha = z1 - i z2 and beta = z1 + i z2; a
coefficient vector is the (n+1, 4) array of its wire form [x1, y1, x2, y2].

Each check returns ``None`` when the output is correct and a short reason
otherwise.  :func:`selftest` feeds every check corrupted outputs and fails
unless each corruption is caught.
"""

from __future__ import annotations

import math

import numpy as np

#: verify-all must report at least this many cases (53 at the commit that
#: added the benchmark); fewer means cases went missing
MIN_CASES = 53

#: relative error allowed for the diagonal coefficient maps and round trips
COEFF_RTOL = 1e-10

#: relative error allowed for kernels and point evaluations, measured against
#: |alpha| + |beta| of the expected value at each point
VALUE_RTOL = 1e-9


def channels(z1, z2):
    """Channel values (alpha, beta) of z1 + j z2."""
    return z1 - 1j * z2, z1 + 1j * z2


def wire_channels(rows: np.ndarray):
    """Channel arrays of a coefficient vector given in its wire form."""
    rows = np.asarray(rows, dtype=float)
    return channels(rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3])


def forward_scale(degree: int, nu: float) -> np.ndarray:
    """sqrt(nu**n / (2**n n!)) for n = 0..degree, in log space."""
    n = np.arange(degree + 1)
    lg = np.array([math.lgamma(k + 1) for k in range(degree + 1)])
    return np.exp(0.5 * (n * math.log(nu / 2.0) - lg))


def psi_table(n_max: int, sigma: float, x) -> np.ndarray:
    """psi_0..psi_n_max at ``x`` by the normalized three-term recurrence.

    psi_{n+1} = sqrt(2 sigma/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1} never
    forms H_n or n!, unlike the library's unnormalized recurrence.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = math.sqrt(2.0 * sigma) * x
    for n in range(1, n_max):
        out[n + 1] = math.sqrt(2.0 * sigma / (n + 1)) * x * out[n] - math.sqrt(n / (n + 1)) * out[n - 1]
    return out


def horner(coeffs: np.ndarray, z):
    """sum_n coeffs[n] z**n for one complex channel."""
    acc = np.zeros_like(np.asarray(z, dtype=complex)) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def hermite_eval_expect(coeffs: np.ndarray, sigma: float, x: float):
    """Channels of sum_n c_n psi_n(x) and the scale sum_n |c_n| |psi_n(x)|."""
    alpha, beta = wire_channels(coeffs)
    psi = psi_table(len(coeffs) - 1, sigma, x)
    scale = float(np.sum((np.abs(alpha) + np.abs(beta)) * np.abs(psi)))
    return (np.sum(alpha * psi), np.sum(beta * psi)), scale


def _bad_values(got, want, scale, rtol) -> bool:
    got = np.asarray(got)
    return not (np.all(np.isfinite(got)) and np.all(np.abs(got - want) <= rtol * scale))


# ------------------------------------------------------------ coefficient maps


def pipeline_expect(coeffs: np.ndarray, sigma: float, nu: float, phases, point) -> dict:
    """Expected outputs of forward / evaluate / inverse / rotate / rotate back."""
    alpha, beta = wire_channels(coeffs)
    scale = forward_scale(len(coeffs) - 1, nu)
    pa, pb = channels(complex(point[0], point[1]), complex(point[2], point[3]))
    ta, tb = np.exp(1j * phases[0]), np.exp(1j * phases[1])
    n = np.arange(len(coeffs))
    return {
        "forward": (alpha * scale, beta * scale),
        "eval": (horner(alpha * scale, pa), horner(beta * scale, pb)),
        "eval_scale": float(
            horner(np.abs(alpha * scale), abs(pa)).real + horner(np.abs(beta * scale), abs(pb)).real
        ),
        "rotated": (alpha * ta**n, beta * tb**n),
        "input": (alpha, beta),
        "norm_sq": float(np.sum(coeffs**2)),
        "sigma": sigma,
        "nu": nu,
    }


def check_pipeline(expect: dict, got: dict) -> str | None:
    """Check the four pipeline outputs against :func:`pipeline_expect`.

    ``got`` holds wire-form arrays ``forward``, ``inverse``, ``rotated`` and
    ``back``, the wire form of the evaluated value ``eval``, and the
    parameters ``nu`` and ``sigma`` the outputs carry.
    """
    if got["nu"] != expect["nu"] or got["sigma"] != expect["sigma"]:
        return "output carries the wrong nu or sigma"
    alpha, beta = expect["input"]
    cmax = float(np.max(np.abs(alpha) + np.abs(beta)))
    fa, fb = expect["forward"]
    ga, gb = wire_channels(got["forward"])
    # the floor keeps an expected value that underflowed to 0 from demanding
    # an exact 0 back
    fscale = np.maximum(np.abs(fa) + np.abs(fb), 1e-280)
    if _bad_values(ga, fa, fscale, COEFF_RTOL) or _bad_values(gb, fb, fscale, COEFF_RTOL):
        return "forward coefficients differ from c_n sqrt(nu^n/(2^n n!))"
    va, vb = channels(complex(got["eval"][0], got["eval"][1]), complex(got["eval"][2], got["eval"][3]))
    ea, eb = expect["eval"]
    if _bad_values([va, vb], [ea, eb], expect["eval_scale"], VALUE_RTOL):
        return "forward vector evaluates to the wrong value"
    for key, want in (("inverse", expect["input"]), ("rotated", expect["rotated"]), ("back", expect["input"])):
        ga, gb = wire_channels(got[key])
        if _bad_values(ga, want[0], cmax, COEFF_RTOL) or _bad_values(gb, want[1], cmax, COEFF_RTOL):
            return f"{key} coefficients are wrong"
    nsq = float(np.sum(np.asarray(got["rotated"], dtype=float) ** 2))
    if not abs(nsq - expect["norm_sq"]) <= COEFF_RTOL * expect["norm_sq"]:
        return "rotation does not preserve the norm"
    return None


# ------------------------------------------------------------------ kernels


def kernel_expect(batch: dict) -> dict:
    """Channel values of every kernel in a kernel-grid batch.

    ``batch`` holds sigma, nu, the theta phases, real points x and y, and the
    components (z1, z2) of the ring points Z and W.
    """
    s, nu = batch["sigma"], batch["nu"]
    x, y = batch["x"], batch["y"]
    za, zb = channels(*batch["Z"])
    wa, wb = channels(*batch["W"])
    c0 = math.sqrt(s / math.pi)
    shift = math.sqrt(nu / (4.0 * s))
    root = math.sqrt(s * nu)
    out: dict = {}

    def both(f):
        return f(za, wa, np.exp(1j * batch["phases"][0])), f(zb, wb, np.exp(1j * batch["phases"][1]))

    out["kernel_K_BC"] = both(lambda z, w, t: np.exp(0.5 * nu * z * np.conj(w)))
    out["sbt_kernel_BC"] = both(lambda z, w, t: c0 * np.exp(-s * (x - shift * z) ** 2))
    out["generating_G"] = both(lambda z, w, t: np.exp(-0.25 * nu * np.conj(z) ** 2 + root * x * np.conj(z)))
    out["frft_kernel"] = both(
        lambda z, w, t: c0 / np.sqrt(1 - t * t) * np.exp(-s * (x - t * y) ** 2 / (1 - t * t))
    )
    out["ck_frft_kernel"] = both(
        lambda z, w, t: c0
        / np.sqrt(1 - t * t)
        * np.exp((-s * t * t * z * z - s * x * x + 2 * s * x * t * z) / (1 - t * t))
    )
    out["mehler_closed"] = both(
        lambda z, w, t: np.exp((-s * t * t * (x * x + y * y) + 2 * s * t * x * y) / (1 - t * t))
        / np.sqrt(1 - t * t)
    )
    out["mehler_bilinear_bc"] = both(
        lambda z, w, t: np.exp((-s * t * t * (z * z + y * y) + 2 * s * y * t * z) / (1 - t * t))
        / np.sqrt(1 - t * t)
    )
    out["psi_values"] = psi_table(batch["psi_degree"], s, x)
    return out


def check_kernels(expect: dict, got: dict) -> str | None:
    """Compare a batch's channel values (and psi table) with :func:`kernel_expect`."""
    for name, want in expect.items():
        if name not in got:
            return f"{name} missing"
        if name == "psi_values":
            table = np.asarray(got[name], dtype=float)
            scale = np.maximum(1.0, np.max(np.abs(want), axis=0))
            if table.shape != want.shape or _bad_values(table, want, scale, VALUE_RTOL):
                return "psi_values differs from the normalized recurrence"
            continue
        ga, gb = got[name]
        scale = np.abs(want[0]) + np.abs(want[1])
        if _bad_values(ga, want[0], scale, VALUE_RTOL) or _bad_values(gb, want[1], scale, VALUE_RTOL):
            return f"{name} differs from its closed form"
    return None


# ------------------------------------------------------------------- reports


def check_report(cases: list[dict], min_cases: int = MIN_CASES) -> str | None:
    """Every case of a verification report passes, re-judged from error and tol."""
    if len(cases) < min_cases:
        return f"report has {len(cases)} cases, expected at least {min_cases}"
    for c in cases:
        if not (c["pass"] is True and math.isfinite(c["error"]) and c["error"] <= c["tol"]):
            return f"case {c['id']} failed: error {c['error']!r} > tol {c['tol']!r}"
    return None


# ----------------------------------------------------------------- self-test


def selftest() -> list[str]:
    """Run each check on correct and corrupted outputs; return what went wrong.

    An empty list means every check accepts correct output and rejects a
    flipped coefficient, a kernel batch with one wrong point, and a report
    with one failed case.
    """
    rng = np.random.default_rng(12345)
    problems = []

    def wire(pair):
        a, b = pair
        z1, z2 = (a + b) / 2, 1j * (a - b) / 2
        return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)

    coeffs = rng.standard_normal((13, 4))
    point = rng.standard_normal(4) * 0.5
    exp = pipeline_expect(coeffs, 1.3, 2.1, (0.9, 2.2), point)
    ea, eb = exp["eval"]
    z1, z2 = (ea + eb) / 2, 1j * (ea - eb) / 2
    good = {
        "forward": wire(exp["forward"]),
        "eval": [z1.real, z1.imag, z2.real, z2.imag],
        "inverse": coeffs.copy(),
        "rotated": wire(exp["rotated"]),
        "back": coeffs.copy(),
        "nu": 2.1,
        "sigma": 1.3,
    }
    if check_pipeline(exp, good) is not None:
        problems.append(f"pipeline check rejects correct output: {check_pipeline(exp, good)}")
    for key in ("forward", "inverse", "rotated", "back"):
        bad = dict(good)
        bad[key] = good[key].copy()
        bad[key][7, 2] = -bad[key][7, 2]
        if check_pipeline(exp, bad) is None:
            problems.append(f"pipeline check accepts a flipped coefficient in {key}")

    n = 64
    batch = {
        "sigma": 0.8,
        "nu": 2.5,
        "phases": (1.1, 4.0),
        "x": rng.uniform(-2, 2, n),
        "y": rng.uniform(-2, 2, n),
        "Z": (rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal(n) * 0.5 + 0j),
        "W": (rng.standard_normal(n) * 0.5 + 0j, rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        "psi_degree": 40,
    }
    want = kernel_expect(batch)
    if check_kernels(want, want) is not None:
        problems.append("kernel check rejects correct output")
    for name in want:
        bad = dict(want)
        if name == "psi_values":
            table = want[name].copy()
            table[17, 5] *= 1.0 + 1e-6
            bad[name] = table
        else:
            a = want[name][0].copy()
            a[5] *= 1.0 + 1e-6
            bad[name] = (a, want[name][1])
        if check_kernels(want, bad) is None:
            problems.append(f"kernel check accepts one wrong point in {name}")

    cases = [{"id": f"s/{i}", "error": 1e-15, "tol": 1e-12, "pass": True} for i in range(MIN_CASES)]
    if check_report(cases) is not None:
        problems.append("report check rejects a passing report")
    failed = [dict(c) for c in cases]
    failed[9].update(error=1e-3, **{"pass": False})
    lying = [dict(c) for c in cases]
    lying[9].update(error=1e-3)
    for label, bad in (("a failed case", failed), ("a case over tolerance", lying), ("a missing case", cases[1:])):
        if check_report(bad) is None:
            problems.append(f"report check accepts {label}")
    return problems
