"""Command-line front end.

Subcommands:

    verify     run a named verification suite, print one line per case,
               optionally write JSON + CSV reports
    transform  forward/inverse coefficient transform on a JSON vector
    frft       rotate a coefficient vector by theta (diagonal action)
    kernel     evaluate one of the closed-form kernels at a point
    mehler     tabulate closed-form vs series kernel error on a grid

Exit codes: 0 all good, 1 a verification case failed, 2 configuration or
input error (bad flags, schema violations, excluded parameters).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .bargmann import HermiteCoeffVector, MonomialCoeffVector, kernel_K_BC, kernel_K_C
from .bicomplex import Bicomplex, as_bicomplex, conj_star
from .bicomplex import norm as bc_norm
from .errors import BCTransformsError
from .frft import (
    ThetaParam,
    ck_frft_kernel,
    frft_coefficients,
    frft_kernel,
    mehler_closed,
    mehler_series,
)
from .hermite import generating_G
from .transforms import sbt_forward, sbt_inverse_coeff, sbt_kernel_BC, sbt_kernel_C
from .verification import SUITE_NAMES, run_suite

__all__ = ["main"]


class _ConfigError(Exception):
    pass


def _parse_floats(text: str | None, count: int, what: str) -> list[float]:
    if text is None:
        raise _ConfigError(f"{what} is required")
    # tolerate a leading name tag like "Z=0.3,0.1,..."
    tag, sep, rest = text.partition("=")
    body = rest if sep and tag.strip().isidentifier() else text
    try:
        vals = [float(p) for p in body.split(",") if p.strip()]
    except ValueError:
        vals = []
    if len(vals) != count:
        raise _ConfigError(f"{what} expects {count} comma-separated floats, got {text!r}")
    return vals


def _parse_theta(args, *, allow_scalar: bool = False):
    """Build the rotation parameter from --theta-phases or --theta.

    Returns a ThetaParam for the transform commands.  With allow_scalar=True
    (the mehler command) a bare value is returned instead, since the kernel
    there accepts any parameter with channel moduli <= 1.
    """
    phases = getattr(args, "theta_phases", None)
    raw = getattr(args, "theta", None)
    if phases is not None and raw is not None:
        raise _ConfigError("give either --theta-phases or --theta, not both")
    if phases is not None:
        a, b = _parse_floats(phases, 2, "--theta-phases")
        if allow_scalar:
            return ThetaParam.from_phases(a, b).theta
        return ThetaParam.from_phases(a, b)
    if raw is None:
        return None
    parts = [p for p in raw.split(",") if p.strip()]
    if allow_scalar and len(parts) == 1:
        return as_bicomplex(float(parts[0]))
    vals = _parse_floats(raw, 4, "--theta")
    Z = Bicomplex.from_reals(*vals)
    if allow_scalar:
        return Z
    return ThetaParam(Z)


def _load_vector(path: str):
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise _ConfigError("input must be a JSON object")
    # --out wraps the vector in a result envelope; accept those files directly
    if isinstance(data.get("vector"), dict):
        data = data["vector"]
    if "sigma" in data:
        return HermiteCoeffVector.from_json(data)
    if "nu" in data:
        return MonomialCoeffVector.from_json(data)
    raise _ConfigError('input object needs a "sigma" or "nu" key')


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ------------------------------------------------------------- subcommands


def _cmd_verify(args) -> int:
    theta = _parse_theta(args)
    report = run_suite(
        args.suite,
        sigma=args.sigma,
        nu=args.nu,
        order=args.order,
        seed=args.seed,
        theta=theta,
    )
    width = max(len(c.id) for c in report.cases)
    for c in report.cases:
        flag = "PASS" if c.passed else "FAIL"
        print(f"{flag}  {c.id:<{width}}  error={c.error:.3e}  tol={c.tol:.1e}  ({c.ms:.1f} ms)")
    n_pass = sum(c.passed for c in report.cases)
    print(f"{n_pass}/{len(report.cases)} cases passed")
    if args.out:
        report.write(args.out)
        print(f"report written to {args.out}")
    return 0 if report.all_passed else 1


def _cmd_transform(args) -> int:
    vec = _load_vector(args.input)
    if isinstance(vec, HermiteCoeffVector):
        if args.nu is None:
            raise _ConfigError("forward transform needs --nu")
        out_vec = sbt_forward(vec, args.nu)
    else:
        if args.sigma is None:
            raise _ConfigError("inverse transform needs --sigma")
        out_vec = sbt_inverse_coeff(vec, args.sigma)
    payload: dict = {"vector": out_vec.to_json()}
    if args.eval is not None:
        if isinstance(out_vec, MonomialCoeffVector):
            vals = _parse_floats(args.eval, 4, "--eval")
            point = Bicomplex.from_reals(*vals)
            value = out_vec.evaluate(point)
            payload["eval"] = {"point": point.to_json(), "value": value.to_json()}
        else:
            vals = _parse_floats(args.eval, 1, "--eval")
            value = as_bicomplex(out_vec.evaluate(vals[0]))
            payload["eval"] = {"point": vals[0], "value": value.to_json()}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_frft(args) -> int:
    vec = _load_vector(args.input)
    if not isinstance(vec, HermiteCoeffVector):
        raise _ConfigError("frft expects a sigma-keyed coefficient vector")
    theta = _parse_theta(args)
    if theta is None:
        raise _ConfigError("frft needs --theta-phases or --theta")
    eff = ThetaParam(conj_star(theta.theta)) if args.inverse else theta
    out_vec = frft_coefficients(vec, eff)
    payload: dict = {"vector": out_vec.to_json()}
    if args.eval is not None:
        vals = _parse_floats(args.eval, 1, "--eval")
        value = as_bicomplex(out_vec.evaluate(vals[0]))
        payload["eval"] = {"point": vals[0], "value": value.to_json()}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


#: each kernel type: its function and the flags of its arguments, in call order
_KERNELS = {
    "KC": (kernel_K_C, ("gamma", "z", "w")),
    "KBC": (kernel_K_BC, ("nu", "Z", "W")),
    "SBT": (sbt_kernel_BC, ("sigma", "nu", "x", "Z")),
    "SBTC": (sbt_kernel_C, ("sigma", "gamma", "x", "z")),
    "G": (generating_G, ("sigma", "nu", "x", "Z")),
    "FRFT": (frft_kernel, ("sigma", "theta", "x", "y")),
    "CK": (ck_frft_kernel, ("sigma", "theta", "x", "Z")),
}


def _kernel_arg(args, flag: str):
    """The value of one kernel argument flag and its JSON echo."""
    if flag in ("z", "w"):
        z = complex(*_parse_floats(getattr(args, flag), 2, f"--{flag}"))
        return z, [z.real, z.imag]
    if flag in ("Z", "W"):
        Z = Bicomplex.from_reals(*_parse_floats(getattr(args, flag), 4, f"--{flag}"))
        return Z, Z.to_json()
    if flag == "theta":
        theta = _parse_theta(args)
        if theta is None:
            raise _ConfigError(f"kernel --type {args.type} needs --theta-phases or --theta")
        return theta, theta.theta.to_json()
    value = getattr(args, flag)
    return value, value


def _cmd_kernel(args) -> int:
    fn, flags = _KERNELS[args.type]
    values, echoes = zip(*(_kernel_arg(args, flag) for flag in flags))
    meta = dict(zip(flags, echoes), type=args.type, value=as_bicomplex(fn(*values)).to_json())
    _emit(json.dumps(meta, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as err:
        raise _ConfigError(f"--grid expects start:stop:step, got {text!r}") from err
    if step <= 0 or stop < start:
        raise _ConfigError("--grid needs step > 0 and stop >= start")
    return np.arange(start, stop + step / 2.0, step)


def _cmd_mehler(args) -> int:
    theta = _parse_theta(args, allow_scalar=True)
    if theta is None:
        raise _ConfigError("mehler needs --theta or --theta-phases")
    grid = _parse_grid(args.grid)
    x, y = grid[:, None], grid[None, :]
    closed = mehler_closed(args.sigma, theta, x, y)
    series = mehler_series(args.sigma, theta, x, y, n_terms=args.terms)
    errors = bc_norm(closed - series)
    worst = float(np.max(errors))  # np.max keeps a NaN
    lines = ["x,y,error"]
    points = grid.tolist()
    lines += [f"{a!r},{b!r},{e!r}" for a, row in zip(points, errors.tolist()) for b, e in zip(points, row)]
    _emit("\n".join(lines) + "\n", args.out)
    print(f"max closed-vs-series error {worst:.3e} over {len(grid) ** 2} points", file=sys.stderr)
    return 0


# ------------------------------------------------------------------ parser


def _add_theta_flags(sub) -> None:
    sub.add_argument("--theta-phases", help="two comma-separated phases; theta = exp(i a) e+ + exp(i b) e-")
    sub.add_argument("--theta", help="theta as four comma-separated reals x1,y1,x2,y2")


@functools.cache  # parsing does not mutate the parser, so one build serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bctransforms",
        description="bicomplex Bargmann-space transforms: evaluation and verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all", choices=SUITE_NAMES)
    p_verify.add_argument("--sigma", type=float, default=1.0)
    p_verify.add_argument("--nu", type=float, default=2.0)
    p_verify.add_argument("--order", type=int, default=64)
    p_verify.add_argument("--seed", type=int, default=20240817)
    p_verify.add_argument("--out", help="write JSON report here (CSV sibling alongside)")
    _add_theta_flags(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_tr = subs.add_parser("transform", help="coefficient-space transform of a JSON vector")
    p_tr.add_argument("--input", required=True, help="coefficient vector JSON file, or - for stdin")
    p_tr.add_argument("--nu", type=float, help="target parameter for the forward direction")
    p_tr.add_argument("--sigma", type=float, help="target parameter for the inverse direction")
    p_tr.add_argument("--eval", help="evaluate the result: four floats for a ring point, one for a real point")
    p_tr.add_argument("--out")
    p_tr.set_defaults(fn=_cmd_transform)

    p_fr = subs.add_parser("frft", help="rotate a coefficient vector by theta")
    p_fr.add_argument("--input", required=True)
    p_fr.add_argument("--inverse", action="store_true", help="apply the inverse rotation")
    p_fr.add_argument("--eval", help="evaluate the rotated vector at a real point")
    p_fr.add_argument("--out")
    _add_theta_flags(p_fr)
    p_fr.set_defaults(fn=_cmd_frft)

    p_k = subs.add_parser("kernel", help="evaluate a closed-form kernel")
    p_k.add_argument("--type", required=True, choices=list(_KERNELS))
    p_k.add_argument("--sigma", type=float, default=1.0)
    p_k.add_argument("--nu", type=float, default=2.0)
    p_k.add_argument("--gamma", type=float, default=1.0)
    p_k.add_argument("--x", type=float, default=0.0)
    p_k.add_argument("--y", type=float, default=0.0)
    p_k.add_argument("--z", help="complex point re,im")
    p_k.add_argument("--w", help="complex point re,im")
    p_k.add_argument("--Z", help="ring point x1,y1,x2,y2")
    p_k.add_argument("--W", help="ring point x1,y1,x2,y2")
    p_k.add_argument("--out")
    _add_theta_flags(p_k)
    p_k.set_defaults(fn=_cmd_kernel)

    p_m = subs.add_parser("mehler", help="closed-form vs series kernel error on a grid")
    p_m.add_argument("--sigma", type=float, default=1.0)
    p_m.add_argument("--grid", default="-2:2:0.5", help="start:stop:step, used for both x and y")
    p_m.add_argument("--terms", type=int, default=60)
    p_m.add_argument("--out")
    _add_theta_flags(p_m)
    p_m.set_defaults(fn=_cmd_mehler)

    return parser


_VALUE_FLAGS = ("--grid", "--theta", "--theta-phases", "--eval", "--z", "--w", "--Z", "--W")


def _absorb_dash_values(argv: list[str]) -> list[str]:
    # argparse mistakes dash-leading values like "-2:2:0.5" or "-0.5,0,0,0"
    # for option strings; glue them to their flag with "="
    out: list[str] = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if (
            a in _VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and not argv[i + 1].startswith("--")
        ):
            out.append(a + "=" + argv[i + 1])
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_absorb_dash_values(list(argv)))
    try:
        return args.fn(args)
    except (_ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BCTransformsError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
