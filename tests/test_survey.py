"""Enumeration, coverage, the domain-size bound, and degree statistics.

The central fixture is the F_13 curve with (a, b) = (2, 6): the uncancelled
denominator rule would leave only 96 admissible pairs there, under the proven
lower bound of 100, while the deployed geometric-sum denominator admits 108.
"""

import gc
import hashlib
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoint import survey
from hypoint.curves import (
    BasePointOnCurve,
    CurveParams,
    DenominatorVanishes,
    DomainExcluded,
    UnsupportedParity,
    _three_point,
    encode,
    g_eval,
    parse_curve_spec,
    three_point_map,
)
from hypoint.ff import Field, FieldSpec, field_new
from hypoint.survey import (
    CoverageReport,
    FieldTooLarge,
    coverage,
    degree_stats,
    domain_bound,
    domain_summary,
    enumerate_T,
    enumerate_curve,
    sweep_soundness,
)

K11 = field_new(11)
P11 = CurveParams("g1", 3, K11.elem(1), K11.elem(1))


def brute_points(params):
    ctx = params.a.ctx
    pts = set()
    for x in ctx.elements():
        for y in ctx.elements():
            if y * y == g_eval(params, x):
                pts.add((str(x), str(y)))
    return pts


# --- curve enumeration -------------------------------------------------------


@pytest.mark.parametrize(
    "field,curve",
    [
        (11, ("g1", 3, 1, 1)),
        (5, ("g1", 3, 1, 1)),
        (3, ("g1", 3, 1, 1)),
        (13, ("g2", 5, 2, 6)),
        ("3^2:1,0,1", ("g1", 3, 1, 1)),
    ],
)
def test_enumerate_curve_against_double_loop(field, curve):
    ctx = field_new(field)
    fam, n, a, b = curve
    params = CurveParams(fam, n, ctx.elem(a), ctx.elem(b))
    pts = enumerate_curve(params)
    assert {(str(p.x), str(p.y)) for p in pts} == brute_points(params)
    assert len(pts) == len(set(pts))
    assert len(pts) <= 2 * ctx.q


def test_enumerate_curve_order_is_canonical():
    pts = enumerate_curve(P11)
    xs = [int(str(p.x)) for p in pts]
    assert xs == sorted(xs)
    # within one x, the canonical root comes first
    for i in range(len(pts) - 1):
        if pts[i].x == pts[i + 1].x:
            assert int(str(pts[i].y)) <= int(str(pts[i + 1].y))


def test_cap_enforcement_and_warning():
    with pytest.raises(FieldTooLarge):
        enumerate_curve(P11, cap=7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enumerate_curve(P11, cap=20_000)
    assert any("cap" in str(w.message) for w in caught)


def _sweep(params, cap):
    return sweep_soundness(params.a.ctx, params.n, params.a.val, params.b.val, params.family, cap=cap)


@pytest.mark.parametrize("call,cost", [
    (enumerate_curve, "enumerating the curve evaluates g at all q elements"),
    (enumerate_T, "enumerating all of T lists up to q^2 pairs"),
    (domain_summary, "the domain walk builds tables of q entries"),
    (coverage, "the domain walk builds tables of q entries"),
    (_sweep, "the domain walk builds tables of q entries"),
])
def test_raised_cap_warning_names_the_callers_cost(call, cost):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(P11, cap=20_000)
    assert [str(w.message) for w in caught] == [f"enumeration cap raised to 20000; {cost}"]
    assert caught[0].filename == __file__


# --- the encoder domain ------------------------------------------------------


def test_enumerate_T_matches_map_acceptance_exactly():
    accepted = set()
    for t in range(11):
        for u in range(11):
            try:
                three_point_map(P11, K11.elem(t), K11.elem(u))
                accepted.add((t, u))
            except (DenominatorVanishes, BasePointOnCurve):
                pass
    listed = [(int(str(t)), int(str(u))) for t, u in enumerate_T(P11)]
    assert set(listed) == accepted
    assert len(listed) == len(accepted) == 92
    # row-major, t outer
    assert listed == sorted(listed)


def test_domain_summary_f11():
    ds = domain_summary(P11)
    assert ds["size_T"] == 92
    assert ds["bound"] == domain_bound(11, 3) == 64
    assert ds["bound_applicable"] and ds["bound_holds"]


def test_uncancelled_rule_would_break_the_bound_on_f13():
    K13 = field_new(13)
    params = CurveParams("g1", 3, K13.elem(2), K13.elem(6))
    ds = domain_summary(params)
    assert ds["bound"] == 100
    assert ds["size_T"] == 108 and ds["bound_holds"]
    # rejecting the t^2 g(u) = 1 pairs as well would drop below the bound
    assert ds["raw_excluded"] == 12
    assert ds["size_T"] - ds["raw_excluded"] == 96 < ds["bound"]


def test_domain_summary_agrees_with_generator():
    for params in (P11, CurveParams("g2", 5, K11.elem(3), K11.elem(4))):
        ds = domain_summary(params)
        assert ds["size_T"] == sum(1 for _ in enumerate_T(params))


# --- coverage ----------------------------------------------------------------


def test_coverage_report_f11():
    rep = coverage(P11)
    assert isinstance(rep, CoverageReport)
    assert rep.size_T == 92 and rep.bound == 64
    assert rep.image_size <= rep.curve_size == 13
    assert rep.image_size + len(rep.missed) == rep.curve_size
    assert not rep.missed_truncated
    j = rep.to_json()
    assert j["coverage_ratio"] == f"{rep.image_size}/{rep.curve_size}"
    assert all(isinstance(j[k], str) for k in ("q", "size_T", "bound", "curve_size", "image_size"))


def test_coverage_image_points_pass_membership():
    rep = coverage(P11)
    pts = {(str(p.x), str(p.y)) for p in enumerate_curve(P11)}
    missed = {(p["x"], p["y"]) for p in (pj for pj in (dict(x=str(m.x), y=str(m.y)) for m in rep.missed))}
    # image = curve minus missed; every member is a real curve point
    assert missed <= pts


def test_coverage_deterministic():
    a = json.dumps(coverage(P11).to_json(), sort_keys=True)
    b = json.dumps(coverage(P11).to_json(), sort_keys=True)
    assert a == b


def test_coverage_empty_curve_edge():
    # over F_3 with a = b = 2 the curve has no affine points and T is empty
    K3 = field_new(3)
    rep = coverage(CurveParams("g1", 3, K3.elem(2), K3.elem(2)))
    assert rep.curve_size == 0 and rep.image_size == 0 and rep.size_T == 0
    assert rep.to_json()["coverage_ratio"] == "0"
    assert not rep.bound_applicable


def test_coverage_extension_field():
    F9 = field_new("3^2:1,0,1")
    params = CurveParams("g1", 3, F9.elem(1), F9.elem(1))
    rep = coverage(params)
    assert rep.q == 9
    assert rep.size_T == 36 and rep.bound == 36 and rep.bound_holds
    assert not rep.bound_applicable  # p = 3 is not > 2(n-1)-1


# --- the table-backed walk against the generic encoder --------------------------


def generic_walk(params):
    """T, raw_excluded and the image by pair-by-pair encode over all of F_q^2."""
    ctx = params.a.ctx
    pairs, raw, image = [], 0, set()
    for t in ctx.elements():
        for u in ctx.elements():
            if not g_eval(params, u):
                continue
            try:
                pt = encode(params, t, u)
            except DomainExcluded:
                continue
            pairs.append((t, u))
            raw += t * t * g_eval(params, u) == 1
            image.add(pt)
    return pairs, raw, image


@pytest.mark.parametrize("family", ["g1", "g2"])
@pytest.mark.parametrize(
    "field,a,b",
    [("3^2:1,0,1", "1", "1"), ("3^3:1,2,0,1", "1,2", "2,0,1"), ("5^2:3,0,1", "2,1", "3,4")],
)
def test_walk_matches_generic_encode_on_extension_fields(field, a, b, family):
    params = parse_curve_spec(f"{family}:n=3,a={a},b={b}", field_new(field))
    pairs, raw, image = generic_walk(params)
    assert list(enumerate_T(params)) == pairs
    ds = domain_summary(params)
    assert (ds["size_T"], ds["raw_excluded"]) == (len(pairs), raw)
    rep = coverage(params)
    assert (rep.size_T, rep.raw_excluded, rep.image_size) == (len(pairs), raw, len(image))
    assert not rep.missed_truncated
    assert set(enumerate_curve(params)) - set(rep.missed) == image


# sha256 of json.dumps(coverage(...).to_json(), sort_keys=True), recorded from
# the per-pair encode implementation that the table-backed walk replaced
COVERAGE_DIGESTS = [
    ("11", "g1:n=3,a=1,b=1", "1e532566f9ad974d8d52c40716d09fc465ba5542bd504c6645818c5d456e49e6"),
    ("13", "g2:n=5,a=2,b=6", "10d02cc79f94940186fc9b159dbc3f6a32b64540b067f5f3526c26af990c226a"),
    ("3^3:1,2,0,1", "g1:n=3,a=1,2,b=2,0,1", "55ca9f5378a8607a53649009eb081b9a67c809926062aedfe90a60a707d71c40"),
    ("5^2:3,0,1", "g2:n=3,a=2,1,b=3,4", "7d107d0a4d5e645b42eab5aff2f6a921db74f7a11be5b21b849f25a8ab9c0fd3"),
    # recorded from the FieldElement-built tables that the log/Zech tables
    # replaced, on the fields where the table arithmetic changed the most
    ("3^5:1,2,0,0,0,1", "g1:n=3,a=1,b=1", "dbd92bb61d17916b30853be4bd832576097dd4419219fbb11fe12f6f75cee0e9"),
    ("7^3:1,1,0,1", "g2:n=3,a=2,1,b=3,0,1", "67f499cfb059f33612c385aaadfc3d1c4ad4f3adb1ec09934431e98728f8c229"),
    # recorded from the walk whose antilog and Zech tables came from
    # FieldElement arithmetic and whose s-table evaluated g(X2) itself: a
    # prime q = 1 mod 4, and the largest field pinned (about 0.1 s)
    ("61", "g2:n=3,a=5,b=7", "c7a50229a0c6647a2e534fb4714d6ee0246b76772f38af1361303418dbb87271"),
    ("9973", "g2:n=5,a=2,b=3", "33128be9502273a7b3289816f0287d285ad00da47b1f6b8e653c117648301a67"),
]


@pytest.mark.parametrize("field,curve,digest", COVERAGE_DIGESTS)
def test_coverage_json_is_pinned(field, curve, digest):
    rep = coverage(parse_curve_spec(curve, field_new(field)))
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_coverage_json_is_pinned_at_q_1009():
    # recorded from the per-pair walk; the per-s walk must reproduce it
    rep = coverage(parse_curve_spec("g1:n=3,a=1,b=1", field_new(1009)))
    j = rep.to_json()
    assert j["coverage_ratio"] == "516/1033"
    digest = hashlib.sha256(json.dumps(j, sort_keys=True).encode()).hexdigest()
    assert digest == "b1ce6bffa9acda3fcd0f796c28125f6a154639f30bcd53c46385aae94b8a209d"


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("walk", [enumerate_T, domain_summary, coverage])
def test_walk_entry_points_reject_even_n(walk, n):
    params = CurveParams("g1", n, K11.elem(1), K11.elem(1))
    with pytest.raises(UnsupportedParity):
        walk(params)  # enumerate_T too: on the call, before any pair


@pytest.mark.parametrize("n", [1, 2, 4])
def test_sweep_rejects_unsupported_parity(n):
    with pytest.raises(UnsupportedParity):
        sweep_soundness(11, n, 1, 1)


def _wrong_roots(walk):
    q = walk.ctx.q
    walk.root = [r if not r else r % (q - 1) + 1 for r in walk.root]


def _squares_as_nonsquares(walk):
    walk.chi = [-1 if c == 1 else c for c in walk.chi]


def _x3_as_x2(walk):
    walk._x3_of = list(walk._x2_of)


@pytest.mark.parametrize(
    "corrupt,counter",
    [(_wrong_roots, "membership_failures"), (_squares_as_nonsquares, "char_violations"),
     (_x3_as_x2, "identity_failures")],
)
def test_per_pair_checks_catch_corrupted_tables(corrupt, counter, monkeypatch):
    class Corrupted(survey._DomainWalk):
        def __init__(self, params):
            super().__init__(params)
            corrupt(self)

    monkeypatch.setattr(survey, "_DomainWalk", Corrupted)
    assert sweep_soundness(13, 3, 2, 6)[counter] > 0
    K13 = field_new(13)
    with pytest.raises(AssertionError):
        coverage(CurveParams("g1", 3, K13.elem(2), K13.elem(6)))


# --- the log/Zech tables against FieldElement arithmetic -------------------------


def field_element_tables(walk):
    """gx, X2, X3 and log U by log of s, rebuilt from g_eval and _three_point
    in FieldElement arithmetic over the walk's own antilog."""
    params, elems = walk.params, list(walk.ctx.elements())
    index = {x.val: i for i, x in enumerate(elems)}
    gx = [index[g_eval(params, x).val] for x in elems]
    x2_of, x3_of, lu_of = [], [], []
    for i in walk._alog:
        try:
            x2, x3, uu, _ = _three_point(params.family, params.n, params.a, params.b,
                                         walk.ctx.one(), elems[i], "raw")
        except DenominatorVanishes:
            x2, x3, lu = None, None, None
        else:
            x2, x3, lu = index[x2.val], index[x3.val], walk._log[index[uu.val]]
        x2_of.append(x2)
        x3_of.append(x3)
        lu_of.append(lu)
    return gx, x2_of, x3_of, lu_of


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("family", ["g1", "g2"])
@pytest.mark.parametrize(
    "field,a,b",
    [("13", "2", "6"), ("101", "3", "5"), ("3^2:1,0,1", "1,1", "2"), ("5^2:3,0,1", "2,1", "3,4"),
     ("3^3:1,2,0,1", "1,2", "2,0,1"), ("7^2:1,0,1", "3,2", "5,1"), ("3^5:1,2,0,0,0,1", "1,0,2", "0,1")],
)
def test_log_tables_match_field_element_arithmetic(field, a, b, family, n):
    walk = survey._DomainWalk(parse_curve_spec(f"{family}:n={n},a={a},b={b}", field_new(field)))
    gx, x2_of, x3_of, lu_of = field_element_tables(walk)
    assert walk.gx == gx
    assert walk._x2_of == x2_of
    assert walk._x3_of == x3_of
    assert walk._lu_of == lu_of


def _corrupt_zech(monkeypatch, k):
    """Corrupt entry k of the Zech table of every Field that builds its
    tables from here on; a Field that has built them keeps its own."""
    build = Field._zech

    def corrupted(ctx, *tables):
        zech = build(ctx, *tables)
        zech[k] = 0 if zech[k] is None else (zech[k] + 1) % len(zech)
        return zech

    monkeypatch.setattr(Field, "_zech", corrupted)


# entry (q - 1)/2 is log(1 + gen^((q-1)/2)) = log(1 - 1), None before corruption
@pytest.mark.parametrize("field,curve,k", [
    ("3^3:1,2,0,1", "g1:n=3,a=1,2,b=2,0,1", 1), ("3^3:1,2,0,1", "g1:n=3,a=1,2,b=2,0,1", 13),
    ("3^3:1,2,0,1", "g1:n=3,a=1,2,b=2,0,1", 20), ("59", "g1:n=3,a=2,b=6", 0),
    ("59", "g1:n=3,a=2,b=6", 29), ("59", "g1:n=3,a=2,b=6", 40),
])
def test_walk_checks_catch_a_corrupted_zech_entry(field, curve, k, monkeypatch):
    params = parse_curve_spec(curve, field_new(field))
    _corrupt_zech(monkeypatch, k)
    with pytest.raises(AssertionError):
        coverage(params)
    if params.a.ctx.m == 1:
        sw = sweep_soundness(params.a.ctx.p, params.n, params.a.val, params.b.val, params.family)
        assert sw["identity_failures"] + sw["char_violations"] + sw["membership_failures"] > 0


COUNTERS = ("size_T", "raw_excluded", "identity_failures", "char_violations", "membership_failures")


def pair_counts(walk):
    """The walk's counters and hit, recounted pair by pair from its tables,
    with each pair's own U = t^n g(u)^((n+1)/2) g(X2)."""
    n, q = walk.params.n, walk.ctx.q
    qm1 = q - 1
    log, alog, gx, chi, root = walk._log, walk._alog, walk.gx, walk.chi, walk.root
    counts = dict.fromkeys(COUNTERS, 0)
    hit = bytearray(q)
    for t in range(1, q):
        for u in range(q):
            if not gx[u]:
                continue
            lgu = log[gx[u]]
            ls = (2 * log[t] + lgu) % qm1
            x2, x3 = walk._x2_of[ls], walk._x3_of[ls]
            if x2 is None:
                continue
            counts["size_T"] += 1
            counts["raw_excluded"] += ls == 0
            g2, g3 = gx[x2], gx[x3]
            if not g2:
                x = x2
            else:
                lu = n * log[t] + (n + 1) // 2 * lgu + log[g2]
                if not g3 or (2 * lu - lgu - log[g2] - log[g3]) % qm1:
                    counts["identity_failures"] += 1
                    continue
                if chi[gx[u]] * chi[g2] * chi[g3] == -1:
                    counts["char_violations"] += 1
                    continue
                x = u if chi[gx[u]] == 1 else x2 if chi[g2] == 1 else x3
            y = root[gx[x]]
            if (alog[2 * log[y] % qm1] if y else 0) != gx[x]:
                counts["membership_failures"] += 1
            hit[x] = 1
    return counts, hit


@pytest.mark.parametrize("corrupt", [None, _wrong_roots, _x3_as_x2])
@pytest.mark.parametrize(
    "field,curve",
    [("13", "g1:n=3,a=2,b=6"), ("31", "g2:n=7,a=3,b=5"), ("3^2:1,0,1", "g1:n=3,a=1,b=1"),
     ("5^2:3,0,1", "g2:n=5,a=2,1,b=3,4")],
)
def test_per_s_walk_counts_every_pair(field, curve, corrupt):
    """One check per s, weighted, gives the pair-by-pair counts, also on
    corrupted tables, where the failure counters are not zero."""
    walk = survey._DomainWalk(parse_curve_spec(curve, field_new(field)))
    if corrupt:
        corrupt(walk)
    expect, hit = pair_counts(walk)
    walk.run()
    assert {k: getattr(walk, k) for k in COUNTERS} == expect
    assert walk.hit == hit


# the s-table's core vanishes at every s != 1 where (q - 1) | (e - 1), and at
# s = 1 itself (the raw form's e - 1) where p | (e - 1); e is n for g1, n - 1
# for g2
VANISHING_CORES = [
    ("3", "g1:n=3,a=1,b=1"), ("5", "g1:n=5,a=1,b=2"), ("7", "g1:n=7,a=1,b=3"), ("13", "g1:n=13,a=2,b=6"),
    ("3^2:1,0,1", "g1:n=7,a=1,b=1"), ("3^2:1,0,1", "g2:n=5,a=1,1,b=2"),
    ("3^3:1,2,0,1", "g1:n=7,a=1,2,b=2,0,1"), ("3^3:1,2,0,1", "g2:n=5,a=1,2,b=2,0,1"),
]


@pytest.mark.parametrize("field,curve", VANISHING_CORES)
def test_walk_matches_per_pair_encode_where_cores_vanish(field, curve):
    params = parse_curve_spec(curve, field_new(field))
    ctx, e = params.a.ctx, params.n if params.family == "g1" else params.n - 1
    pairs, raw, image = generic_walk(params)
    assert list(enumerate_T(params)) == pairs
    walk = survey._DomainWalk(params).run()
    counts = {k: getattr(walk, k) for k in COUNTERS}
    assert counts == {**dict.fromkeys(COUNTERS, 0), "size_T": len(pairs), "raw_excluded": raw}
    xs = {ctx.index(pt.x.val) for pt in image}
    assert walk.hit == bytearray(x in xs for x in range(ctx.q))
    if (ctx.q - 1) % (e - 1) == 0:
        assert 0 < raw == len(pairs)  # only s = 1 is admissible
    else:
        assert (e - 1) % ctx.p == 0 and raw == 0 < len(pairs)


@pytest.mark.parametrize("field", ["3", "59", "251", "3^2:1,0,1", "3^3:1,2,0,1", "5^2:3,0,1", "3^5:1,2,0,0,0,1",
                                   "7^3:1,1,0,1", "3^4:2,0,0,1,1"])
def test_antilog_picks_the_first_generator(field):
    ctx = field_new(field)
    elems = list(ctx.elements())
    index = {x.val: i for i, x in enumerate(elems)}
    # the first element whose powers reach all of F_q^*, found by walking them
    for gen in elems[1:]:
        powers = [ctx.one()]
        while len(powers) < ctx.q and (len(powers) == 1 or powers[-1] != ctx.one()):
            powers.append(powers[-1] * gen)
        if len(powers) == ctx.q:
            break
    assert ctx._antilog() == [index[x.val] for x in powers[:-1]]
    assert ctx.log_tables()[0] == tuple(ctx._antilog())


@pytest.mark.parametrize("field", ["3", "59", "61", "251", "3^2:1,0,1", "5^2:3,0,1", "3^3:1,2,0,1",
                                   "3^4:2,0,0,1,1", "7^3:1,1,0,1", "3^5:1,2,0,0,0,1"])
def test_zech_table_matches_field_addition(field):
    """The index shift against log(1 + gen^k) by the field's own addition."""
    ctx = field_new(field)
    elems = list(ctx.elements())
    index = {x.val: i for i, x in enumerate(elems)}
    alog = ctx._antilog()
    log = [None] * ctx.q
    for k, i in enumerate(alog):
        log[i] = k
    one = ctx.one()
    assert ctx._zech(alog, log) == [log[index[(elems[i] + one).val]] for i in alog]
    _, cached_log, _, _, cached_zech = ctx.log_tables()
    assert (cached_log, cached_zech) == (tuple(log), tuple(ctx._zech(alog, log)))


@pytest.mark.parametrize("field", ["3", "59", "61", "251", "3^2:1,0,1", "5^2:3,0,1", "3^3:1,2,0,1", "3^4:2,0,0,1,1"])
def test_character_and_root_tables_match_the_field(field):
    ctx = field_new(field)
    _, _, chi, root, _ = ctx.log_tables()
    elems = list(ctx.elements())
    assert list(chi) == [ctx.legendre(x) for x in elems]
    roots = [ctx.sqrt(x) for x in elems]
    assert list(root) == [None if r is None else ctx.index(r.val) for r in roots]


@pytest.mark.parametrize("field,curve", [("251", "g1:n=3,a=1,b=1"), ("3^3:1,2,0,1", "g1:n=3,a=1,2,b=2,0,1")])
def test_walk_leaves_no_cyclic_garbage(field, curve):
    """Neither a walk, nor a Field that drops its tables, nor a sweep that
    builds and drops its own Field leaves garbage for the cycle collector."""
    params = parse_curve_spec(curve, field_new(field))
    gc.collect()
    gc.disable()
    try:
        coverage(params)
        assert gc.collect() == 0
        del params
        assert gc.collect() == 0
        sweep_soundness(251, 3, 1, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the field's tables, shared by every walk over it ----------------------------------

SHARED_FIELDS = [("59", "2", "6"), ("61", "3", "5"), ("5^2:3,0,1", "2,1", "3,4"), ("3^3:1,2,0,1", "1,2", "2,0,1")]


@pytest.mark.parametrize("field,a,b", SHARED_FIELDS)
def test_walks_over_one_field_match_walks_over_fresh_fields(field, a, b):
    curves = [f"{family}:n=3,a={a},b={b}" for family in ("g1", "g2")]
    shared = field_new(field)
    assert shared._logs is None  # nothing built before the first walk
    reports = [coverage(parse_curve_spec(c, shared)).to_json() for c in curves]
    tables = shared.log_tables()
    assert reports == [coverage(parse_curve_spec(c, field_new(field))).to_json() for c in curves]
    if shared.m == 1:
        sweeps = [sweep_soundness(shared, 3, int(a), int(b), family, collect_image=True)
                  for family in ("g1", "g2")]
        assert sweeps == [sweep_soundness(int(field), 3, int(a), int(b), family, collect_image=True)
                          for family in ("g1", "g2")]
    assert shared.log_tables() is tables
    assert tables == field_new(field).log_tables()


@pytest.mark.parametrize("corrupt", [_wrong_roots, _squares_as_nonsquares, _x3_as_x2])
@pytest.mark.parametrize("field,a,b", SHARED_FIELDS)
def test_a_corrupted_walk_leaves_the_field_tables_sound(field, a, b, corrupt):
    params = parse_curve_spec(f"g1:n=3,a={a},b={b}", field_new(field))
    first = survey._DomainWalk(params).run()
    corrupted = survey._DomainWalk(params)
    corrupt(corrupted)
    corrupted.run()
    assert corrupted.identity_failures + corrupted.char_violations + corrupted.membership_failures > 0
    again = survey._DomainWalk(params).run()
    counts = {k: getattr(again, k) for k in COUNTERS}
    assert counts == {k: getattr(first, k) for k in COUNTERS}
    assert counts["identity_failures"] == counts["char_violations"] == counts["membership_failures"] == 0
    assert again.hit == first.hit
    assert (again.root, again.chi, again._x2_of, again._x3_of, again._lu_of) == \
        (first.root, first.chi, first._x2_of, first._x3_of, first._lu_of)


def test_encode_builds_no_tables():
    ctx = field_new(FieldSpec(2**256 - 189, trust_prime=True))
    params = CurveParams("g1", 3, ctx.elem(3), ctx.elem(5))
    encode(params, ctx.elem(7), ctx.elem(11))
    assert ctx._logs is None


def test_sweep_takes_prime_fields_only():
    with pytest.raises(ValueError, match="prime fields only"):
        sweep_soundness(field_new("3^2:1,0,1"), 3, 1, 1)
    with pytest.raises(ValueError, match="prime fields only"):  # before the cap
        sweep_soundness(field_new("3^2:1,0,1"), 3, 1, 1, cap=5)


def test_sweep_checks_the_cap_before_any_table(monkeypatch):
    def no_tables(self):
        raise AssertionError("log tables built above the cap")

    monkeypatch.setattr(Field, "log_tables", no_tables)
    for n in (3, 4):  # the cap is checked before the parity
        with pytest.raises(FieldTooLarge, match="q = 10007 exceeds the enumeration cap 10000"):
            sweep_soundness(10007, n, 1, 1)
    with pytest.raises(FieldTooLarge, match="cap 250"):
        sweep_soundness(251, 3, 1, 1, cap=250)


# --- degree statistics ---------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,u,expect",
    [
        (1, 1, 0, (-1, 0)),  # X1 = 0 collapses the product
        (2, 3, 1, (8, 6)),
        (1, 1, 2, (8, 6)),
        (5, 7, 1, (8, 6)),
        (3, 2, 4, (8, 6)),
    ],
)
def test_degree_stats_instances(a, b, u, expect):
    st_ = degree_stats(a, b, u)
    assert (st_.deg_num, st_.deg_den) == expect
    assert st_.deg_num <= 8 and st_.deg_den <= 6
    assert st_.deg_num >= st_.deg_den - 2


def test_degree_stats_rejects_roots():
    with pytest.raises(ValueError):
        degree_stats(1, -2, 1)  # g(1) = 1 + 1 - 2 = 0


# --- raw-integer sweep ----------------------------------------------------------


def test_sweep_matches_generic_layer_counts():
    sw = sweep_soundness(13, 3, 2, 6)
    K13 = field_new(13)
    ds = domain_summary(CurveParams("g1", 3, K13.elem(2), K13.elem(6)))
    assert sw["size_T"] == ds["size_T"] == 108
    assert sw["raw_excluded"] == ds["raw_excluded"] == 12
    assert sw["bound_holds"] and not sw["char_violations"]
    assert not sw["identity_failures"] and not sw["membership_failures"]


@pytest.mark.parametrize("family", ["g1", "g2"])
@pytest.mark.parametrize(
    "p,n,a,b",
    [(11, 3, 1, 1), (13, 5, 2, 6), (17, 3, 3, 5), (11, 7, 1, 1), (13, 3, 2, 6), (17, 7, 3, 5),
     (23, 5, 4, 9), (31, 3, 6, 2), (37, 7, 5, 7), (43, 5, 9, 4), (53, 3, 2, 3), (61, 7, 10, 3),
     (101, 3, 7, 3), (101, 5, 7, 3), (101, 7, 7, 3)],
)
def test_sweep_image_equals_encode_image(family, p, n, a, b):
    """The per-s sweep against per-pair encode: size_T, raw_excluded, image."""
    sw = sweep_soundness(p, n, a, b, family, collect_image=True)
    K = field_new(p)
    params = CurveParams(family, n, K.elem(a), K.elem(b))
    size, raw, slow = 0, 0, set()
    for t, u in enumerate_T(params):
        pt = encode(params, t, u)
        size += 1
        raw += t * t * g_eval(params, u) == 1
        slow.add((int(str(pt.x)), int(str(pt.y))))
    assert (sw["size_T"], sw["raw_excluded"]) == (size, raw)
    assert sw["image"] == sorted(slow)
    assert sw["size_T"] == domain_summary(params)["size_T"]


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_soundness(11, 4, 1, 1)
    with pytest.raises(ValueError):
        sweep_soundness(11, 3, 11, 1)  # a = 0 mod p


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
    st.sampled_from([3, 5]),
    st.integers(1, 1000),
    st.integers(1, 1000),
    st.sampled_from(["g1", "g2"]),
)
def test_sweep_soundness_properties(p, n, a, b, family):
    if a % p == 0 or b % p == 0:
        return
    sw = sweep_soundness(p, n, a, b, family)
    assert sw["char_violations"] == 0
    assert sw["identity_failures"] == 0
    assert sw["membership_failures"] == 0
    if family == "g1" and sw["bound_applicable"]:
        assert sw["size_T"] >= sw["bound"]
