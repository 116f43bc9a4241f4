"""The three workloads: seeded inputs, set-up, one pass, the correctness gate,
the end-to-end figures and the traced replay probes.

A workload is a fixed list of operations (one call into a public hypoint
function each) built from the seed. A run repeats that list as "passes"; the
first pass is the reference whose outputs the gate checks, and every later
pass must reproduce it exactly. See README.md for why each workload exists and
which per-module metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import defaultdict, namedtuple
from itertools import islice
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

FAMILIES = ("g1", "g2")
P3MOD4 = 2**256 - 189
P1MOD4 = 2**255 - 19
# the README's 256-bit example, run as a separate `hypoint encode` process
README_ENCODE_ARGV = ("encode", "--field", str(P3MOD4), "--trust-prime",
                      "--curve", "g1:n=3,a=1,b=1", "--t", "2", "--u", "3")

Op = namedtuple("Op", "name tag fn args")


class Failed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def canon(self):
        return ["error", self.text]


def checked(outs):
    """(index, output) for every operation that returned rather than raised."""
    return ((i, out) for i, out in enumerate(outs) if not isinstance(out, Failed))


def fresh_import():
    """Import hypoint anew, so that set-up time includes the import itself."""
    for name in [m for m in sys.modules if m == "hypoint" or m.startswith("hypoint.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"hypoint.{m}")
                              for m in ("ff", "poly", "curves", "survey", "cli")})


def int_g(family, n, a, b, x, p):
    """g(x) mod p in plain integers, independent of the library."""
    if family == "g1":
        return (pow(x, n, p) + a * x + b) % p
    return (pow(x, n, p) + a * x * x + b * x) % p


def elem_on_curve(params, x, y):
    """y^2 = g(x) in field-element arithmetic, written out here, not via g_eval."""
    a, b, n = params.a, params.b, params.n
    gx = x**n + a * x + b if params.family == "g1" else x**n + a * x * x + b * x
    return y * y == gx


def median(xs):
    return statistics.median(xs)


def quantile(xs, q):
    """The sample at rank ceil(q * N), so that (1 - q) * N samples lie beyond it."""
    return sorted(xs)[max(0, math.ceil(q * len(xs)) - 1)]


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv):
    """Wall time in seconds, exit code and stdout of one child process."""
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=subprocess_env(), capture_output=True,
                          text=True, timeout=120, check=False)
    return perf_counter() - t0, proc.returncode, proc.stdout


def residue_tag(p):
    return "p3mod4" if p % 4 == 3 else "p1mod4"


class Workload:
    """Interface of a workload; see Encode256 for one with every part used."""

    name = ""
    pass_share = 1.0  # share of the run spent on passes; the rest goes to extra()

    def extra(self, st, seconds):
        """Work outside the passes: (attempted, failed, figures, counts)."""
        return 0, 0, {}, {}


# ---------------------------------------------------------------------------


class Encode256(Workload):
    """Seeded encode stream on two 256-bit primes, plus `hypoint encode` processes."""

    name = "encode-256"
    pass_share = 0.85  # the rest of the run spawns CLI processes
    degrees = (3, 5, 7, 9)

    def __init__(self, seed, per_curve=8, cli_min=3, probe_reps=5):
        rng = random.Random(seed)
        self.curves = [(p, fam, n, rng.randrange(1, p), rng.randrange(1, p))
                       for p in (P3MOD4, P1MOD4) for fam in FAMILIES for n in self.degrees]
        # round-robin over the curves, so both primes see the same machine state
        self.stream = [(ci, rng.randrange(1, cur[0]), rng.randrange(1, cur[0]))
                       for _ in range(per_curve) for ci, cur in enumerate(self.curves)]
        self.cli_min = cli_min
        self.probe_reps = probe_reps

    def build(self, lib):
        fields = {p: lib.ff.field_new(lib.ff.FieldSpec(p, trust_prime=True)) for p in (P3MOD4, P1MOD4)}
        params = [lib.curves.parse_curve_spec(f"{fam}:n={n},a={a},b={b}", fields[p])
                  for p, fam, n, a, b in self.curves]
        ops = []
        for ci, t, u in self.stream:
            p = self.curves[ci][0]
            K = fields[p]
            ops.append(Op("curves.encode", residue_tag(p), lib.curves.encode,
                          (params[ci], K.elem(t), K.elem(u))))
        return SimpleNamespace(lib=lib, fields=fields, params=params, ops=ops)

    def canon(self, st, i, out):
        return [str(out.x), str(out.y)]

    def check(self, st, outs):
        bad = {}
        for i, out in checked(outs):
            p, fam, n, a, b = self.curves[self.stream[i][0]]
            x, y = out.x.val, out.y.val
            if y * y % p != int_g(fam, n, a, b, x, p):
                bad[i] = f"encode output ({x}, {y}) is not on the curve"
        return bad

    @staticmethod
    def _cli_point(rc, stdout):
        try:
            doc = json.loads(stdout)
            return (int(doc["x"]), int(doc["y"])) if rc == 0 else None
        except (ValueError, KeyError, TypeError):
            return None

    def extra(self, st, seconds):
        """`hypoint encode` processes on the README argv, sequentially."""
        K = st.fields[P3MOD4]
        pt = st.lib.curves.encode(st.lib.curves.parse_curve_spec("g1:n=3,a=1,b=1", K), K.elem(2), K.elem(3))
        x, y = pt.x.val, pt.y.val
        ok = y * y % P3MOD4 == int_g("g1", 3, 1, 1, x, P3MOD4)
        walls, failed = [], 0
        deadline = perf_counter() + seconds
        while len(walls) < self.cli_min or perf_counter() < deadline:
            wall, rc, out = run_process([sys.executable, "-m", "hypoint.cli", *README_ENCODE_ARGV])
            walls.append(wall)
            failed += not (ok and self._cli_point(rc, out) == (x, y))
        metrics = {"cli_encode_ms_p50": (median(walls) * 1e3, "ms")}
        return len(walls), failed, metrics, {"cli_processes": len(walls)}

    def metrics(self, st, recs, ref):
        lat = {tag: [ns for rec in recs for ns in rec.samples["curves.encode", tag]]
               for tag in ("p3mod4", "p1mod4")}
        both = [ns / 1e3 for tag in lat for ns in lat[tag]]
        return {
            "encode_p3mod4_ops_per_s": (len(lat["p3mod4"]) / (sum(lat["p3mod4"]) / 1e9), "1/s"),
            "encode_p1mod4_ops_per_s": (len(lat["p1mod4"]) / (sum(lat["p1mod4"]) / 1e9), "1/s"),
            "encode_us_p50": (median(both), "us"),
            "encode_us_p99": (quantile(both, 0.99), "us"),
        }, {"encode_samples": len(both)}

    def probe(self, st, tr, ref):
        """Replay each encode from outside: map, characters, root, inverse, mul."""
        lib, curves = st.lib, st.lib.curves
        bad, redundant, tested = {}, defaultdict(list), []
        for i, op in enumerate(st.ops):
            params, t, u = op.args
            K = t.ctx
            with tr.operation(i):
                pt = tr.call("curves.encode", op.tag, curves.encode, params, t, u)
                spent = tr.samples["curves.encode", op.tag][-1]
                triple = tr.call("curves.three_point_map", "p256", curves.three_point_map, params, t, u)
                least = tr.samples["curves.three_point_map", "p256"][-1]
                for k, x in enumerate(triple.xs, 1):
                    gx = tr.call("curves.g_eval", "p256", curves.g_eval, params, x)
                    chi = tr.call("ff.legendre", op.tag, K.legendre, gx)
                    least += tr.samples["ff.legendre", op.tag][-1]
                    if chi == 1:
                        break
                y = tr.call("ff.sqrt", op.tag, K.sqrt, gx)
                least += tr.samples["ff.sqrt", op.tag][-1]
                tr.call("ff.inv", "p256", K.inv, gx)
                with tr.span("ff.mul", "p256", count=64):
                    acc = gx
                    for _ in range(64):
                        acc = acc * y
            tested.append(k)
            redundant[op.tag].append((spent - least) / 1e3)
            if (x, y) != (pt.x, pt.y):
                bad[i] = "replayed encode differs from encode"
        for _ in range(self.probe_reps):
            for p in (P3MOD4, P1MOD4):
                tr.call("ff.field_new", "p256", lib.ff.field_new, lib.ff.FieldSpec(p, trust_prime=True))
        argv = [sys.executable, "-m", "hypoint.cli", *README_ENCODE_ARGV]
        for _ in range(self.probe_reps):
            with contextlib.redirect_stdout(io.StringIO()):
                tr.call("cli.main", "encode", lib.cli.main, list(README_ENCODE_ARGV))
            with tr.span("cli.process", "encode"):
                run_process(argv)
            with tr.span("python.startup"):
                run_process([sys.executable, "-c", "pass"])
        us = lambda name, tag: median(tr.per_call_us(name, tag))
        ms = lambda name, tag: us(name, tag) / 1e3
        return {
            "ff.field_new_ms.p256": (ms("ff.field_new", "p256"), "ms"),
            "ff.legendre_us.p3mod4": (us("ff.legendre", "p3mod4"), "us"),
            "ff.legendre_us.p1mod4": (us("ff.legendre", "p1mod4"), "us"),
            "ff.sqrt_us.p3mod4": (us("ff.sqrt", "p3mod4"), "us"),
            "ff.sqrt_us.p1mod4": (us("ff.sqrt", "p1mod4"), "us"),
            "ff.inv_us.p256": (us("ff.inv", "p256"), "us"),
            "ff.mul_ns.p256": (us("ff.mul", "p256") * 1e3, "ns"),
            "curves.g_eval_us.p256": (us("curves.g_eval", "p256"), "us"),
            "curves.three_point_map_us.p256": (us("curves.three_point_map", "p256"), "us"),
            "curves.encode_redundant_us.p3mod4": (median(redundant["p3mod4"]), "us"),
            "curves.encode_redundant_us.p1mod4": (median(redundant["p1mod4"]), "us"),
            "curves.components_tested_mean": (statistics.fmean(tested), "count"),
            "cli.main_encode_ms": (ms("cli.main", "encode"), "ms"),
            "cli.startup_ms": (ms("cli.process", "encode") - ms("cli.main", "encode"), "ms"),
            "python_startup_ms": (ms("python.startup", ""), "ms"),
        }, bad


# ---------------------------------------------------------------------------


def random_elem_text(rng, K):
    """A uniformly random nonzero element, written in the curve-spec grammar."""
    while True:
        coeffs = [rng.randrange(K.p) for _ in range(K.m)]
        if any(coeffs):
            return ",".join(map(str, coeffs))


class SurveySmall(Workload):
    """Exhaustive coverage on small prime and extension fields, plus integer sweeps."""

    name = "survey-small"
    # q = 59 and 27 are 3 mod 4 (one-exponent root), q = 61 and 25 are 1 mod 4
    # (Tonelli-Shanks), so both root paths run on both kinds of field
    prime_fields = ("59", "61")
    ext_fields = ("3^3:1,2,0,1", "5^2:3,0,1")
    sweep_p = 251
    n = 3

    def __init__(self, seed, prime_fields=None, ext_fields=None, sweep_p=None,
                 encode_sample=200, probe_reps=10):
        self.seed = seed
        self.prime_fields = prime_fields or self.prime_fields
        self.ext_fields = ext_fields or self.ext_fields
        self.sweep_p = sweep_p or self.sweep_p
        self.encode_sample = encode_sample
        self.probe_reps = probe_reps

    def _curves(self, fields):
        """(spec, family, a text, b text) per coverage curve, drawn from the seed."""
        rng = random.Random(self.seed)
        cov = [(spec, fam, random_elem_text(rng, fields[spec]), random_elem_text(rng, fields[spec]))
               for spec in self.prime_fields + self.ext_fields for fam in FAMILIES]
        sweeps = [(fam, rng.randrange(1, self.sweep_p), rng.randrange(1, self.sweep_p)) for fam in FAMILIES]
        return cov, sweeps

    def build(self, lib):
        fields = {spec: lib.ff.field_new(spec) for spec in self.prime_fields + self.ext_fields}
        cov, sweeps = self._curves(fields)
        params = [lib.curves.parse_curve_spec(f"{fam}:n={self.n},a={a},b={b}", fields[spec])
                  for spec, fam, a, b in cov]
        ops = [Op("survey.coverage", "prime" if pr.a.ctx.m == 1 else "ext", lib.survey.coverage, (pr,))
               for pr in params]
        ops += [Op("survey.sweep_soundness", "prime", lib.survey.sweep_soundness,
                   (self.sweep_p, self.n, a, b, fam)) for fam, a, b in sweeps]
        return SimpleNamespace(lib=lib, fields=fields, params=params, ops=ops)

    def canon(self, st, i, out):
        return out.to_json() if i < len(st.params) else out

    def check(self, st, outs):
        bad = {}
        for i, out in checked(outs):
            if i >= len(st.params):
                if out["char_violations"] or out["identity_failures"] or out["membership_failures"]:
                    bad[i] = f"sweep counters not zero: {out}"
                elif out["bound_applicable"] and not out["bound_holds"]:
                    bad[i] = "sweep domain bound fails"
                continue
            if out.bound_applicable and not out.bound_holds:
                bad[i] = "coverage domain bound fails"
                continue
            params = st.params[i]
            image = self._prime_image(st, params) if params.a.ctx.m == 1 else self._ext_image(st, params)
            if isinstance(image, str):
                bad[i] = image
                continue
            pts = st.lib.survey.enumerate_curve(params)
            missed = [pt for pt in pts if pt not in image]
            cap = st.lib.survey.MISSED_CAP
            if ((out.image_size, out.curve_size, out.missed_truncated) != (len(image), len(pts), len(missed) > cap)
                    or list(out.missed) != missed[:cap]):
                bad[i] = "coverage report disagrees with the independently computed image"
        return bad

    def _prime_image(self, st, params):
        """The image by the integer sweep, as field points; a string on failure."""
        K = params.a.ctx
        p, a, b = K.p, params.a.val, params.b.val
        sw = st.lib.survey.sweep_soundness(p, params.n, a, b, params.family, collect_image=True)
        for x, y in sw["image"]:
            if y * y % p != int_g(params.family, params.n, a, b, x, p):
                return f"sweep image point ({x}, {y}) is not on the curve"
        return {st.lib.curves.AffinePoint(K.elem(x), K.elem(y)) for x, y in sw["image"]}

    def _ext_image(self, st, params):
        """The image by encoding every domain pair; a string on failure."""
        image = set()
        for t, u in st.lib.survey.enumerate_T(params):
            pt = st.lib.curves.encode(params, t, u)
            if not elem_on_curve(params, pt.x, pt.y):
                return f"extension-field point ({pt.x}, {pt.y}) is not on the curve"
            image.add(pt)
        return image

    def _pairs(self, st, ref):
        pairs = defaultdict(int)
        for op, out in zip(st.ops, ref):
            kind = "sweep" if op.name == "survey.sweep_soundness" else op.tag
            pairs[kind] += int(out["size_T"])
        return pairs

    def metrics(self, st, recs, ref):
        pairs = self._pairs(st, ref)
        rate = lambda name, tag, kind: pairs[kind] * len(recs) / (sum(ns for r in recs for ns in r.samples[name, tag]) / 1e9)
        return {
            "coverage_prime_pairs_per_s": (rate("survey.coverage", "prime", "prime"), "pairs/s"),
            "coverage_ext_pairs_per_s": (rate("survey.coverage", "ext", "ext"), "pairs/s"),
            "sweep_pairs_per_s": (rate("survey.sweep_soundness", "prime", "sweep"), "pairs/s"),
        }, {"pairs_per_pass": dict(pairs)}

    def probe(self, st, tr, ref):
        """Per-function spans: field operations over whole fields, the curve
        scan, the domain walk alone and encode on a sample of each domain."""
        lib = st.lib
        sweep_s = sum(tr.samples["survey.sweep_soundness", "prime"]) / 1e9
        for K in st.fields.values():
            tag = "small" if K.m == 1 else "ext"
            nonzero = [e for e in K.elements() if e]
            squares = [e * e for e in nonzero]
            other = nonzero[-1]
            for _ in range(self.probe_reps):
                with tr.span("ff.legendre", tag, count=len(nonzero)):
                    for e in nonzero:
                        K.legendre(e)
                with tr.span("ff.sqrt", tag, count=len(squares)):
                    for e in squares:
                        K.sqrt(e)
                if K.m > 1:
                    with tr.span("ff.mul", tag, count=len(nonzero)):
                        for e in nonzero:
                            e * other
                    with tr.span("ff.inv", tag, count=len(nonzero)):
                        for e in nonzero:
                            K.inv(e)
        for spec in self.ext_fields:
            for _ in range(self.probe_reps):
                tr.call("ff.field_new", "ext", lib.ff.field_new, spec)
        bad, pairs, walk_ns = {}, defaultdict(int), defaultdict(int)
        for i, params in enumerate(st.params):
            kind = st.ops[i].tag
            tag = "small" if kind == "prime" else "ext"
            with tr.operation(i):
                tr.call("survey.enumerate_curve", kind, lib.survey.enumerate_curve, params)
                summary = tr.call("survey.domain_summary", kind, lib.survey.domain_summary, params)
                walk_ns[kind] += tr.samples["survey.domain_summary", kind][-1]
                sample = list(islice(lib.survey.enumerate_T(params), self.encode_sample))
                with tr.span("curves.encode", tag, count=len(sample)):
                    for t, u in sample:
                        lib.curves.encode(params, t, u)
            pairs[kind] += summary["size_T"]
            if summary["size_T"] != int(ref[i]["size_T"]):
                bad[i] = "domain_summary disagrees with coverage on size_T"
        us = lambda name, tag: median(tr.per_call_us(name, tag))
        enum_s = lambda kind: sum(tr.samples["survey.enumerate_curve", kind]) / 1e9
        return {
            "ff.legendre_us.small": (us("ff.legendre", "small"), "us"),
            "ff.sqrt_us.small": (us("ff.sqrt", "small"), "us"),
            "ff.legendre_us.ext": (us("ff.legendre", "ext"), "us"),
            "ff.sqrt_us.ext": (us("ff.sqrt", "ext"), "us"),
            "ff.mul_us.ext": (us("ff.mul", "ext"), "us"),
            "ff.inv_us.ext": (us("ff.inv", "ext"), "us"),
            "ff.field_new_ms.ext": (us("ff.field_new", "ext") / 1e3, "ms"),
            "curves.encode_us.small": (us("curves.encode", "small"), "us"),
            "curves.encode_us.ext": (us("curves.encode", "ext"), "us"),
            "survey.enumerate_curve_s.prime": (enum_s("prime"), "s"),
            "survey.enumerate_curve_s.ext": (enum_s("ext"), "s"),
            "survey.domain_walk_pairs_per_s.prime": (pairs["prime"] / (walk_ns["prime"] / 1e9), "pairs/s"),
            "survey.domain_walk_pairs_per_s.ext": (pairs["ext"] / (walk_ns["ext"] / 1e9), "pairs/s"),
            "survey.sweep_soundness_s": (sweep_s, "s"),
        }, bad


# ---------------------------------------------------------------------------


def reciprocal_samples(MPoly):
    """The self-reciprocal polynomials of `hypoint identities`."""
    t = MPoly.var("t")
    pairs = ((t**3 + 1, 3), (t**4 + 1, 4), (t**4 + 3 * t**3 + 5 * t**2 + 3 * t + 1, 4))
    triples = ((t**3 + 1, 3), (t**5 + 1, 5), (t**5 + 2 * t**4 + 7 * t**3 + 7 * t**2 + 2 * t + 1, 5))
    return pairs, triples


def identity_sides(lib, tag, args):
    """(lhs, rhs) pairs whose equality is the identity of one certify row,
    built through the public builders as the certify_* functions build them.
    Three-point rows give the inner check in raw and cancelled form; the deep
    (t, u) check of the n = 3 rows is left out."""
    g_shape = lib.curves.g_shape
    a, b, c, d = (lib.poly.RatFun.var(v) for v in "abcd")
    if tag == "surface":
        fam, m, n = args
        cur = lib.curves.auxiliary_curve(fam, m, n)
        x, y, z = cur["x"], cur["y"], cur["z"]
        rhs = y**n + c * y + d if fam == "g1" else y**n + c * y * y + d * y
        return [(g_shape(fam, n, a, b, x) * z**m, rhs)]
    if tag == "two_point":
        fam, n, *formula = args
        tri = lib.curves.two_point_symbolic(fam, n, *formula)
        return [(tri.u * tri.u, g_shape(fam, n, a, b, tri.xs[0]) * g_shape(fam, n, a, b, tri.xs[1]))]
    fam, n, _ = args
    sides = []
    for form in ("raw", "cancelled"):
        core = lib.curves.three_point_inner(fam, n, form)
        rhs = core["g_x1"] * g_shape(fam, n, a, b, core["x2"]) * g_shape(fam, n, a, b, core["x3"])
        sides.append((core["u"] * core["u"], rhs))
    return sides


class Certify(Workload):
    """Every row of `hypoint identities --n-min 3 --n-max 9 --erratum-check`,
    through the public certify_* functions, plus degree_stats instances."""

    name = "certify"
    # acceptance criterion 5; the seed adds further instances
    degree_cases = ((1, 1, 0), (2, 3, 1), (1, 1, 2), (5, 7, 1), (3, 2, 4))

    def __init__(self, seed, n_min=3, n_max=9, extra_degree_cases=3):
        rng = random.Random(seed)
        self.n_min, self.n_max = n_min, n_max
        cases = list(self.degree_cases)
        while len(cases) < len(self.degree_cases) + extra_degree_cases:
            a, b, u = rng.randint(1, 9), rng.randint(1, 9), rng.randint(-5, 5)
            if u**3 + a * u + b:
                cases.append((a, b, u))
        self.cases = cases

    def build(self, lib):
        c = lib.curves
        rows = []  # (label, span name, tag, fn, args, expected)
        for fam in FAMILIES:
            for m in (1, 2, 3):
                for n in range(1, 6):
                    rows.append((f"surface-curve {fam} m={m} n={n}", "certify_auxiliary", "surface",
                                 c.certify_auxiliary, (fam, m, n), True))
        ns = range(self.n_min, self.n_max + 1)
        for fam in FAMILIES:
            for n in ns:
                rows.append((f"two-point {fam} n={n}", "certify_two_point", "two_point",
                             c.certify_two_point, (fam, n), True))
        for fam in FAMILIES:
            for n in ns:
                if n % 2:
                    rows.append((f"three-point {fam} n={n}", "certify_three_point",
                                 "deep" if n == 3 else "inner", c.certify_three_point, (fam, n, n == 3), True))
        for fam in FAMILIES:
            for n in ns:
                if n % 2 == 0:
                    rows.append((f"even-degree point value {fam} n={n}", "certify_even_n_value", "special",
                                 c.certify_even_n_value, (fam, n), True))
        pairs, triples = reciprocal_samples(lib.poly.MPoly)
        for g, n in pairs:
            rows.append((f"reciprocal two-point deg {n}: {g}", "certify_reciprocal_pair", "special",
                         c.certify_reciprocal_pair, (g, n), True))
        for g, n in triples:
            rows.append((f"reciprocal three-point deg {n}: {g}", "certify_reciprocal_triple", "special",
                         c.certify_reciprocal_triple, (g, n), True))
        rows.append(("quartic three-point x^4 + 1", "certify_quartic", "special", c.certify_quartic, (), True))
        for n in ns:
            rows.append((f"two-point g2 n={n} with first-family value term", "certify_two_point", "two_point",
                         c.certify_two_point, ("g2", n, "family1_literal"), False))
        ops = [Op(f"curves.{fn_name}", tag, fn, args) for _, fn_name, tag, fn, args, _ in rows]
        ops += [Op("survey.degree_stats", "", lib.survey.degree_stats, case) for case in self.cases]
        return SimpleNamespace(lib=lib, rows=rows, ops=ops)

    def canon(self, st, i, out):
        if i >= len(st.rows):
            return out.to_json()
        label, *_, expected = st.rows[i]
        if expected:
            return [label, "certified" if out else "failed"]
        return [label, "unexpectedly_certified" if out else "failed_as_expected"]

    def check(self, st, outs):
        bad = {}
        for i, out in checked(outs):
            if i < len(st.rows):
                if bool(out) != st.rows[i][-1]:
                    bad[i] = f"identity row has status {self.canon(st, i, out)[1]}"
            elif not (out.deg_num <= 8 and out.deg_den <= 6):
                bad[i] = f"degree bound fails: {out}"
        return bad

    def metrics(self, st, recs, ref):
        suite = [sum(ns for (name, _), v in rec.samples.items() if name.startswith("curves.") for ns in v)
                 for rec in recs]
        return {"identities_s": (median(suite) / 1e9, "s")}, {"identity_rows": len(st.rows)}

    def probe(self, st, tr, ref):
        """Split building the expressions from the cross-multiplied equality
        check, for the surface, two-point and three-point inner identities."""
        lib = st.lib
        group_s = defaultdict(float)
        for (name, tag), ns in tr.samples.items():
            if name.startswith("curves.certify_"):
                group_s[tag] += sum(ns) / 1e9
        degree_s = sum(tr.samples["survey.degree_stats", ""]) / 1e9
        bad, monomials = {}, {}
        for i, (label, _, tag, _, args, expected) in enumerate(st.rows):
            if tag == "special":
                continue
            with tr.operation(i):
                checks = tr.call("curves.expressions", tag, identity_sides, lib, tag, args)
                verdict = all(tr.call("poly.rf_eq", "", lib.poly.rf_eq, lhs, rhs) for lhs, rhs in checks)
            if verdict != expected:
                bad[i] = f"replayed identity {label!r} gives {verdict}"
            if tag in ("inner", "deep") and args[0] == "g1":
                lhs, rhs = checks[1]
                monomials[args[1]] = len((lhs.num * rhs.den).terms) + len((rhs.num * lhs.den).terms)
        metrics = {
            "poly.three_point_deep_s": (group_s["deep"], "s"),
            "poly.three_point_inner_s": (group_s["inner"], "s"),
            "poly.two_point_s": (group_s["two_point"], "s"),
            "poly.surface_grid_s": (group_s["surface"], "s"),
            "poly.special_curves_s": (group_s["special"], "s"),
            "poly.rf_eq_s": (sum(tr.samples["poly.rf_eq", ""]) / 1e9, "s"),
            "survey.degree_stats_s": (degree_s, "s"),
        }
        for n in (3, 5, 7, 9):
            metrics[f"poly.cross_monomials.n{n}"] = (monomials.get(n, 0), "count")
        return metrics, bad


WORKLOADS = {w.name: w for w in (Encode256, SurveySmall, Certify)}
