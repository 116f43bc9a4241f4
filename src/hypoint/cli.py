"""Command-line front end: deterministic point encoding, exact identity
certification, exhaustive surveys and modular square roots.

Exit codes are a fixed contract for CI consumers:

    0  success
    1  usage or specification errors (bad flags, bad field/curve strings)
    2  domain errors (pair outside the encoder domain, field over the cap)
    3  a broken algebraic promise or a failed certificate: an AssertionError
       from the library (U^2 != prod g(x_i), a character product of -1, a
       point off the curve), reported as {"error": "AssertionError", ...};
       identities with all_certified false; a sweep with all_sound false

All JSON output is printed with sorted keys, and every number in it is a
decimal string: _emit applies _record.json_value once to every payload, so
repeated invocations with identical flags are byte identical. The exhaustive
enumeration cap (default 10000) can be overridden by --max-q or the
ULAS_MAX_Q environment variable; the flag wins.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from ._record import json_value
from .curves import (
    FAMILIES,
    DomainExcluded,
    encode,
    even_n_point,
    identity_rows,
    parse_curve_spec,
)
from .ff import field_new, parse_field_spec
from .survey import FieldTooLarge, coverage, sweep_soundness


class UsageError(ValueError):
    pass


# a sweep runs one walk per sample, so its cost is bounded by this fixed cap
MAX_SAMPLES = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract wants 1
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="hypoint", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, curve=False):
        sp.add_argument("--field", required=True, help="p or p^m:c0,...,cm (modulus constant term first)")
        if curve:
            sp.add_argument("--curve", help="g1:n=3,a=1,b=1 or g2:...; a,b parse as field elements")
        sp.add_argument("--output", choices=("json", "text"), default="json")
        sp.add_argument("--trust-prime", action="store_true", help="accept p above the deterministic primality bound")

    enc = sub.add_parser("encode", help="deterministic point on y^2 = g(x)")
    common(enc, curve=True)
    enc.add_argument("--t", help="parameter t (odd n only)")
    enc.add_argument("--u", help="parameter u (odd n only)")

    idn = sub.add_parser("identities", help="exact certification of every construction")
    idn.add_argument("--n-min", type=int, default=3)
    idn.add_argument("--n-max", type=int, default=9)
    idn.add_argument("--erratum-check", action="store_true",
                     help="also run the published two-point value term for the second family, expecting it to fail")
    idn.add_argument("--output", choices=("json", "text"), default="json")

    srv = sub.add_parser("survey", help="exhaustive coverage report or random-curve soundness sweep")
    common(srv, curve=True)
    srv.add_argument("--max-q", type=int, help="override the enumeration cap")
    srv.add_argument("--family", choices=FAMILIES, help="sweep mode: curve family")
    srv.add_argument("--n", type=int, help="sweep mode: degree")
    srv.add_argument("--samples", type=int, help=f"sweep mode: number of random (a,b), at most {MAX_SAMPLES}")
    srv.add_argument("--seed", type=int, help="sweep mode: RNG seed for (a,b) sampling")

    sq = sub.add_parser("sqrt", help="canonical square root in F_q, or null")
    common(sq)
    sq.add_argument("--x", required=True, help="element to take the root of")

    return p


def _emit(payload, mode: str, renderer=None):
    payload = json_value(payload)
    if mode == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(renderer(payload) if renderer else _plain_text(payload))


def _plain_text(payload, indent="") -> str:
    lines = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.append(_plain_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.append(_plain_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{v}")
    else:
        lines.append(f"{indent}{payload}")
    return "\n".join(line for line in lines if line)


def _effective_cap(args) -> int | None:
    if getattr(args, "max_q", None) is not None:
        cap, source = args.max_q, "--max-q"
    else:
        env = os.environ.get("ULAS_MAX_Q")
        if env is None:
            return None
        try:
            cap, source = int(env), "ULAS_MAX_Q"
        except ValueError:
            raise UsageError(f"ULAS_MAX_Q must be an integer, got {env!r}")
    if cap < 1:
        raise UsageError(f"{source} must be at least 1, got {cap}")
    return cap


def _field(args):
    return field_new(parse_field_spec(args.field, trust_prime=args.trust_prime))


def _cmd_encode(args) -> int:
    ctx = _field(args)
    if not args.curve:
        raise UsageError("encode needs --curve")
    params = parse_curve_spec(args.curve, ctx)
    if params.n % 2 == 0:
        if args.t is not None or args.u is not None:
            raise UsageError("even-degree curves have a fixed point; drop --t/--u")
        pt = even_n_point(params)
    else:
        if args.t is None or args.u is None:
            raise UsageError("odd-degree encoding needs both --t and --u")
        pt = encode(params, ctx.parse_elem(args.t), ctx.parse_elem(args.u))
    _emit(pt, args.output)
    return 0


def _cmd_identities(args) -> int:
    if not (3 <= args.n_min <= args.n_max <= 9):
        raise UsageError("need 3 <= n-min <= n-max <= 9")
    results = []
    bad = 0
    for name, fn, fn_args, expected in identity_rows(args.n_min, args.n_max, args.erratum_check):
        ok = bool(fn(*fn_args))
        if expected:
            status = "certified" if ok else "failed"
            bad += not ok
            entry = {"name": name, "status": status}
        else:
            status = "failed_as_expected" if not ok else "unexpectedly_certified"
            bad += ok
            entry = {"name": name, "status": status,
                     "note": "suspected erratum: the value term should use the curve's own family polynomial"}
        results.append(entry)
    payload = {
        "all_certified": bad == 0,
        "identities": results,
        "n_max": args.n_max,
        "n_min": args.n_min,
    }

    def text(pl):
        lines = []
        for row in pl["identities"]:
            mark = {"certified": "PASS", "failed": "FAIL",
                    "failed_as_expected": "XFAIL", "unexpectedly_certified": "XPASS"}[row["status"]]
            note = f"  ({row['note']})" if "note" in row else ""
            lines.append(f"{mark} {row['name']}{note}")
        lines.append(f"all_certified: {pl['all_certified']}")
        return "\n".join(lines)

    _emit(payload, args.output, text)
    return 0 if bad == 0 else 3


def _sample_sweep(args, cap) -> dict:
    for flag in ("family", "n", "samples", "seed"):
        if getattr(args, flag) is None:
            raise UsageError("sweep mode needs --family, --n, --samples and --seed together")
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    ctx = _field(args)
    if ctx.m != 1:
        raise UsageError("the soundness sweep runs over prime fields only")
    rng = random.Random(args.seed)
    runs = []
    for _ in range(args.samples):
        a = rng.randrange(1, ctx.p)
        b = rng.randrange(1, ctx.p)
        runs.append(sweep_soundness(ctx, args.n, a, b, args.family, cap=cap))
    sound = not any(r["char_violations"] or r["identity_failures"] or r["membership_failures"]
                    for r in runs)
    bounds = all(r["bound_holds"] for r in runs if r["bound_applicable"])
    return {
        "all_bounds_hold": bounds,
        "all_sound": sound,
        "family": args.family,
        "field": ctx.p,
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "sweep": runs,
    }


def _cmd_survey(args) -> int:
    cap = _effective_cap(args)
    sweep_flags = any(getattr(args, f) is not None for f in ("family", "n", "samples", "seed"))
    if sweep_flags and args.curve:
        raise UsageError("--curve and the sweep flags are mutually exclusive")
    if sweep_flags:
        sweep = _sample_sweep(args, cap)
        _emit(sweep, args.output)
        return 0 if sweep["all_sound"] else 3
    if not args.curve:
        raise UsageError("survey needs --curve, or the sweep flags")
    ctx = _field(args)
    params = parse_curve_spec(args.curve, ctx)
    _emit(coverage(params, cap), args.output)
    return 0


def _cmd_sqrt(args) -> int:
    ctx = _field(args)
    _emit({"sqrt": ctx.sqrt(ctx.parse_elem(args.x))}, args.output)
    return 0


_DISPATCH = {
    "encode": _cmd_encode,
    "identities": _cmd_identities,
    "survey": _cmd_survey,
    "sqrt": _cmd_sqrt,
}


def main(argv=None) -> int:
    mode = "json"
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        mode = getattr(args, "output", "json")
        return _DISPATCH[args.command](args)
    except (DomainExcluded, FieldTooLarge) as exc:
        error, code = exc, 2
    except ValueError as exc:
        error, code = exc, 1
    except AssertionError as exc:
        error, code = exc, 3
    # UsageError, FieldError and CurveError are all ValueErrors
    _emit({"error": type(error).__name__, "detail": str(error)}, mode,
          lambda pl: f"error: {pl['error']}: {pl['detail']}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
