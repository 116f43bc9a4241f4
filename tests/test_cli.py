"""CLI contract: subcommands, exit codes, JSON schema, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from hypoint import cli, curves, survey
from hypoint.curves import g_eval, parse_curve_spec
from hypoint.ff import Field, field_new, parse_field_spec

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "cli_output.schema.json").read_text()
)
VALIDATOR = Draft202012Validator(SCHEMA)


def run(argv, capsys):
    """Invoke main in process; validate any JSON line against the schema."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    payload = None
    if "--output" not in argv or argv[argv.index("--output") + 1] == "json":
        payload = json.loads(out)
        VALIDATOR.validate(payload)
    return code, out, payload


# --- encode ---------------------------------------------------------------


def test_encode_three_point_instance(capsys):
    code, _, payload = run(
        ["encode", "--field", "11", "--curve", "g1:n=3,a=1,b=1", "--t", "2", "--u", "3"], capsys
    )
    assert code == 0 and payload == {"x": "3", "y": "3"}


def test_encode_even_degree_fixed_point(capsys):
    code, _, payload = run(["encode", "--field", "11", "--curve", "g1:n=4,a=2,b=6"], capsys)
    assert code == 0 and payload == {"x": "8", "y": "9"}


def test_encode_not_prime_exits_1(capsys):
    code, _, payload = run(
        ["encode", "--field", "15", "--curve", "g1:n=3,a=1,b=1", "--t", "2", "--u", "3"], capsys
    )
    assert code == 1 and payload["error"] == "NotPrime"


def test_encode_trusted_pseudoprime_exits_1(capsys):
    # a strong pseudoprime to the twelve bases 2..37; Baillie-PSW rejects it
    code, _, payload = run(
        ["encode", "--field", "318665857834031151167461", "--trust-prime", "--curve", "g1:n=3,a=1,b=1",
         "--t", "2", "--u", "3"], capsys
    )
    assert code == 1 and payload["error"] == "NotPrime"


def test_encode_domain_exclusion_exits_2(capsys):
    code, _, payload = run(
        ["encode", "--field", "11", "--curve", "g1:n=3,a=1,b=1", "--t", "0", "--u", "3"], capsys
    )
    assert code == 2 and payload["error"] == "DomainExcluded"


def test_encode_usage_errors(capsys):
    code, _, payload = run(["encode", "--field", "11", "--curve", "g1:n=3,a=1,b=1", "--t", "2"], capsys)
    assert code == 1 and payload["error"] == "UsageError"
    code, _, payload = run(
        ["encode", "--field", "11", "--curve", "g1:n=4,a=2,b=6", "--t", "1", "--u", "1"], capsys
    )
    assert code == 1 and payload["error"] == "UsageError"
    code, _, payload = run(["encode", "--field", "11", "--curve", "g1:n=3,a=0,b=1", "--t", "2", "--u", "3"], capsys)
    assert code == 1


def test_encode_repeated_curve_key_is_curve_error(capsys):
    code, _, payload = run(
        ["encode", "--field", "11", "--curve", "g1:n=3,a=1,b=1,b=2", "--t", "2", "--u", "3"], capsys
    )
    assert code == 1 and payload["error"] == "CurveError"


def test_encode_extension_field(capsys):
    code, _, payload = run(
        ["encode", "--field", "3^2:1,0,1", "--curve", "g1:n=3,a=0,1,b=1,1", "--t", "1,1", "--u", "0,2"],
        capsys,
    )
    assert code == 0 and set(payload) == {"x", "y"}


def test_encode_base_point_short_circuit(capsys):
    # g(2) = 0 over F_11: the root itself comes back with y = 0
    code, _, payload = run(
        ["encode", "--field", "11", "--curve", "g1:n=3,a=1,b=1", "--t", "5", "--u", "2"], capsys
    )
    assert code == 0 and payload == {"x": "2", "y": "0"}


def test_encode_huge_degree_is_decided_in_log_n(capsys):
    # over F_11, s = t^2*g(u) = -1 and s^(n-1) = 1: the geometric factor
    # vanishes, which the closed form finds without an O(n) sum
    start = time.perf_counter()
    code, _, payload = run(
        ["encode", "--field", "11", "--curve", "g1:n=99999999,a=1,b=1", "--t", "2", "--u", "3"], capsys
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and payload["error"] == "DomainExcluded"


def test_encode_large_odd_degree_lands_on_the_curve(capsys):
    p, n = 2**255 - 19, 1_000_001
    code, _, payload = run(
        ["encode", "--field", str(p), "--trust-prime", "--curve", f"g2:n={n},a=3,b=5",
         "--t", "7", "--u", "11"],
        capsys,
    )
    assert code == 0
    x, y = int(payload["x"]), int(payload["y"])
    assert y * y % p == (pow(x, n, p) + 3 * x * x + 5 * x) % p


BIG_EXT = "170141183460469231731687303715884105727^2:1,0,1"  # p = 2^127 - 1, modulus z^2 + 1


def test_encode_on_a_127_bit_extension_field(capsys):
    """q = 1 mod 4, so sqrt needs the first non-residue, found without
    walking the field."""
    argv = ["encode", "--field", BIG_EXT, "--trust-prime", "--curve", "g1:n=3,a=1,b=1",
            "--t", "2,5", "--u", "3,7"]
    start = time.perf_counter()
    code, _, payload = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    K = field_new(parse_field_spec(BIG_EXT, trust_prime=True))
    x, y = K.parse_elem(payload["x"]), K.parse_elem(payload["y"])
    assert y * y == g_eval(parse_curve_spec("g1:n=3,a=1,b=1", K), x)


@pytest.mark.parametrize("x,expect", [("4", "2,0"), ("3,7", None)])
def test_sqrt_on_a_127_bit_extension_field(x, expect, capsys):
    code, _, payload = run(["sqrt", "--field", BIG_EXT, "--trust-prime", "--x", x], capsys)
    assert code == 0 and payload == {"sqrt": expect}


# --- sqrt -----------------------------------------------------------------


@pytest.mark.parametrize("x,expect", [("5", "4"), ("2", None), ("0", "0")])
def test_sqrt_instances(x, expect, capsys):
    code, _, payload = run(["sqrt", "--field", "11", "--x", x], capsys)
    assert code == 0 and payload == {"sqrt": expect}


def test_sqrt_extension_field(capsys):
    code, _, payload = run(["sqrt", "--field", "3^2:1,0,1", "--x", "2"], capsys)
    assert code == 0 and payload == {"sqrt": "0,1"}


# --- identities -------------------------------------------------------------


def test_identities_full_suite(capsys):
    code, _, payload = run(["identities", "--n-min", "3", "--n-max", "4"], capsys)
    assert code == 0 and payload["all_certified"]
    names = [row["name"] for row in payload["identities"]]
    assert "surface-curve g1 m=1 n=1" in names
    assert "two-point g2 n=3" in names
    assert "three-point g1 n=3" in names
    assert "quartic three-point x^4 + 1" in names
    assert all(row["status"] == "certified" for row in payload["identities"])


def test_identities_erratum_check(capsys):
    code, _, payload = run(["identities", "--n-min", "3", "--n-max", "4", "--erratum-check"], capsys)
    assert code == 0 and payload["all_certified"]
    flagged = [r for r in payload["identities"] if "first-family value term" in r["name"]]
    assert len(flagged) == 2
    assert all(r["status"] == "failed_as_expected" for r in flagged)
    assert all("suspected erratum" in r["note"] for r in flagged)


# sha256 of the stdout of `hypoint identities --n-min 3 --n-max 9
# --erratum-check`, recorded before denominators were kept factored; any
# changed, added or reordered row of the full document changes it
IDENTITIES_3_9_SHA256 = "3d38d6dfcc20080239b370971534b2aaa06bbc491ed29ccbc06b46c07a75b331"


def test_identities_full_document_is_pinned(capsys):
    code, out, payload = run(["identities", "--n-min", "3", "--n-max", "9", "--erratum-check"], capsys)
    assert code == 0 and payload["all_certified"] and len(payload["identities"]) == 72
    assert hashlib.sha256(out.encode()).hexdigest() == IDENTITIES_3_9_SHA256


def test_identities_range_validation(capsys):
    code, _, payload = run(["identities", "--n-min", "5", "--n-max", "3"], capsys)
    assert code == 1 and payload["error"] == "UsageError"
    code, _, payload = run(["identities", "--n-min", "2", "--n-max", "9"], capsys)
    assert code == 1


def test_identities_failure_exits_3(capsys, monkeypatch):
    rows = [("forced failure", bool, (0,), True)]
    monkeypatch.setattr(cli, "identity_rows", lambda *a: rows)
    code, _, payload = run(["identities"], capsys)
    assert code == 3 and not payload["all_certified"]
    assert payload["identities"][0]["status"] == "failed"


def test_identities_unexpected_pass_exits_3(capsys, monkeypatch):
    rows = [("forced pass", bool, (1,), False)]
    monkeypatch.setattr(cli, "identity_rows", lambda *a: rows)
    code, _, payload = run(["identities"], capsys)
    assert code == 3
    assert payload["identities"][0]["status"] == "unexpectedly_certified"


def test_identities_text_mode(capsys):
    code, out, _ = run(["identities", "--n-min", "3", "--n-max", "3", "--output", "text"], capsys)
    assert code == 0
    assert "PASS two-point g1 n=3" in out
    assert "all_certified: True" in out


# --- survey -----------------------------------------------------------------


def test_survey_report(capsys):
    code, _, payload = run(["survey", "--field", "11", "--curve", "g1:n=3,a=1,b=1"], capsys)
    assert code == 0
    assert payload["size_T"] == "92" and payload["bound"] == "64"
    assert payload["bound_applicable"] and payload["bound_holds"]


def test_survey_bound_not_applicable_branch(capsys):
    code, _, payload = run(["survey", "--field", "3", "--curve", "g1:n=3,a=1,b=1"], capsys)
    assert code == 0 and payload["bound_applicable"] is False


def test_survey_field_too_large_exits_2(capsys):
    code, _, payload = run(
        ["survey", "--field", "101", "--curve", "g1:n=3,a=1,b=1", "--max-q", "50"], capsys
    )
    assert code == 2 and payload["error"] == "FieldTooLarge"


def test_survey_env_cap_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("ULAS_MAX_Q", "50")
    code, _, payload = run(["survey", "--field", "101", "--curve", "g1:n=3,a=1,b=1"], capsys)
    assert code == 2 and payload["error"] == "FieldTooLarge"
    code, _, payload = run(
        ["survey", "--field", "101", "--curve", "g1:n=3,a=1,b=1", "--max-q", "150"], capsys
    )
    assert code == 0 and payload["q"] == "101"
    monkeypatch.setenv("ULAS_MAX_Q", "oops")
    code, _, payload = run(["survey", "--field", "11", "--curve", "g1:n=3,a=1,b=1"], capsys)
    assert code == 1 and payload["error"] == "UsageError"


def test_survey_sweep_mode(capsys):
    code, _, payload = run(
        ["survey", "--field", "13", "--family", "g1", "--n", "3", "--samples", "3", "--seed", "7"],
        capsys,
    )
    assert code == 0
    assert payload["all_sound"] and payload["all_bounds_hold"]
    assert len(payload["sweep"]) == 3


def test_survey_sweep_field_too_large_exits_2(capsys):
    code, _, payload = run(
        ["survey", "--field", "101", "--family", "g1", "--n", "3", "--samples", "1", "--seed", "1",
         "--max-q", "50"],
        capsys,
    )
    assert code == 2 and payload["error"] == "FieldTooLarge"
    # above the cap and of even degree: the cap is checked first
    code, out, _ = run(
        ["survey", "--field", "10007", "--family", "g1", "--n", "4", "--samples", "1", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert out == '{"detail": "q = 10007 exceeds the enumeration cap 10000", "error": "FieldTooLarge"}\n'


@pytest.mark.parametrize(
    "mode",
    [["--curve", "g1:n=3,a=1,b=1"], ["--family", "g1", "--n", "3", "--samples", "1", "--seed", "1"]],
    ids=["curve", "sweep"],
)
def test_survey_raised_cap_warns_on_stderr(mode):
    proc = subprocess.run(
        [sys.executable, "-m", "hypoint.cli", "survey", "--field", "11", *mode, "--max-q", "20000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    VALIDATOR.validate(json.loads(proc.stdout))
    assert "enumeration cap raised to 20000" in proc.stderr


def test_survey_sweep_flag_validation(capsys):
    code, _, payload = run(
        ["survey", "--field", "13", "--family", "g1", "--n", "3", "--samples", "3"], capsys
    )
    assert code == 1 and payload["error"] == "UsageError"
    code, _, payload = run(
        ["survey", "--field", "13", "--curve", "g1:n=3,a=1,b=1", "--seed", "1",
         "--family", "g1", "--n", "3", "--samples", "1"],
        capsys,
    )
    assert code == 1
    code, _, payload = run(
        ["survey", "--field", "3^2:1,0,1", "--family", "g1", "--n", "3",
         "--samples", "1", "--seed", "1"],
        capsys,
    )
    assert code == 1
    code, _, payload = run(["survey", "--field", "13"], capsys)
    assert code == 1


@pytest.mark.parametrize("curve", ["g2:n=2,a=1,b=1", "g1:n=4,a=1,b=1"])
def test_survey_even_degree_is_unsupported_parity(curve, capsys):
    code, _, payload = run(["survey", "--field", "11", "--curve", curve], capsys)
    assert code == 1 and payload["error"] == "UnsupportedParity"


def test_survey_sweep_even_degree_is_unsupported_parity(capsys):
    code, _, payload = run(
        ["survey", "--field", "13", "--family", "g2", "--n", "2", "--samples", "2", "--seed", "3"],
        capsys,
    )
    assert code == 1 and payload["error"] == "UnsupportedParity"


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_survey_sweep_samples_below_one_is_usage_error(samples, capsys):
    # an empty sweep must not report "all_sound": true
    code, _, payload = run(
        ["survey", "--field", "13", "--family", "g1", "--n", "3", "--samples", samples, "--seed", "3"],
        capsys,
    )
    assert code == 1 and payload["error"] == "UsageError"


def test_survey_sweep_samples_are_capped_at_10000(capsys, monkeypatch):
    # the walks are stubbed: the cap itself runs 10000 of them, one more runs none
    walks = []

    def walk(*args, **kwargs):
        walks.append(args)
        return dict.fromkeys(("char_violations", "identity_failures", "membership_failures",
                              "bound_applicable"), 0)

    monkeypatch.setattr(cli, "sweep_soundness", walk)
    argv = ["survey", "--field", "13", "--family", "g1", "--n", "3", "--seed", "3", "--samples"]
    code, _, payload = run(argv + ["10001"], capsys)
    assert code == 1 and payload == {"error": "UsageError",
                                     "detail": "--samples must be at most 10000, got 10001"}
    assert walks == []
    # not run(): the stubbed walks are not schema-valid sweep entries
    assert cli.main(argv + ["10000"]) == 0
    assert len(walks) == 10000 and json.loads(capsys.readouterr().out)["samples"] == "10000"


def test_survey_max_q_below_one_is_usage_error(capsys):
    code, _, payload = run(
        ["survey", "--field", "11", "--curve", "g1:n=3,a=1,b=1", "--max-q", "-5"], capsys
    )
    assert code == 1 and payload["error"] == "UsageError"


def test_survey_env_cap_below_one_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ULAS_MAX_Q", "0")
    code, _, payload = run(["survey", "--field", "11", "--curve", "g1:n=3,a=1,b=1"], capsys)
    assert code == 1 and payload["error"] == "UsageError"


# --- cross-cutting -----------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    code, _, payload = run([], capsys)
    assert code == 1 and payload["error"] == "UsageError"


def test_unknown_flag_is_usage_error(capsys):
    code, _, payload = run(["sqrt", "--field", "11", "--x", "5", "--bogus"], capsys)
    assert code == 1 and payload["error"] == "UsageError"


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--field", "11", "--curve", "g1:n=3,a=1,b=1", "--t", "2", "--u", "3"],
        ["sqrt", "--field", "11", "--x", "5"],
        ["identities", "--n-min", "3", "--n-max", "3"],
        ["survey", "--field", "11", "--curve", "g1:n=3,a=1,b=1"],
        ["survey", "--field", "13", "--family", "g2", "--n", "5", "--samples", "2", "--seed", "3"],
    ],
    ids=["encode", "sqrt", "identities", "survey", "sweep"],
)
def test_byte_identical_reruns(argv, capsys):
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert (code1, out1) == (code2, out2)


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "hypoint.cli", "sqrt", "--field", "11", "--x", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"sqrt": "4"}


def test_cli_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hypoint.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_text_output_has_no_json(capsys):
    code, out, _ = run(
        ["encode", "--field", "11", "--curve", "g1:n=3,a=1,b=1", "--t", "2", "--u", "3",
         "--output", "text"],
        capsys,
    )
    assert code == 0
    assert "{" not in out and "x: 3" in out and "y: 3" in out


# argv, optional ULAS_MAX_Q, exit code and stdout sha256 of CLI documents; a
# change to any document, on purpose or not, shows up here and is re-recorded
# in the same change
CORPUS = json.loads((Path(__file__).resolve().parent / "data" / "cli_corpus.json").read_text())


@pytest.mark.filterwarnings("ignore:enumeration cap raised to 20000")
def test_cli_corpus_is_byte_identical(capsys, monkeypatch):
    assert {entry["exit"] for entry in CORPUS} == {0, 1, 2}
    changed = []
    for entry in CORPUS:
        if "ULAS_MAX_Q" in entry:
            monkeypatch.setenv("ULAS_MAX_Q", entry["ULAS_MAX_Q"])
        else:
            monkeypatch.delenv("ULAS_MAX_Q", raising=False)
        code = cli.main(list(entry["argv"]))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if (code, digest) != (entry["exit"], entry["stdout_sha256"]):
            changed.append((entry["argv"], code, digest))
    assert changed == [], f"CLI documents differ from the corpus: {changed}"


# --- argv fuzz ----------------------------------------------------------------

# A drawn argv is a well-formed one on a field of q <= 1000 with n <= 9, so
# that every command runs in milliseconds, and then up to three mutations:
# a flag dropped, a value replaced by a malformed one, or a flag added that
# the subcommand does not take or takes once.
_PRIMES = ["3", "5", "11", "13", "101", "997"]
_EXTENSIONS = ["3^2:1,0,1", "3^3:1,2,0,1", "5^2:3,0,1", "7^3:1,1,0,1"]
_MALFORMED = ["", "x", "0", "-1", "2", "9", "1,2,3,4", "1e400", "3^0:", "3^2", "31^2:1,0,1", "5^2:1,0,1",
              "3^2:1,0,1,0", "g3:n=3,a=1,b=1", "g1:n=3", "g1:n=3,a=1,b=1,b=2", "g1:n=4,a=1,b=1", "2000"]
_STRAY = [["--bogus"], ["--output", "xml"], ["--trust-prime"], ["--erratum-check"], ["--max-q", "50"],
          ["--curve", "g1:n=3,a=1,b=1"], ["--family", "g1"], ["--n", "3"], ["--field", "11"], ["--t", "0"]]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["encode", "identities", "survey", "sweep", "sqrt"]))
    field = draw(st.sampled_from(_PRIMES if command == "sweep" else _PRIMES + _EXTENSIONS))
    elems = ["0", "1", "2", "3", "-1", "10"] + (["1,2", "2,0,1"] if "^" in field else [])

    def elem(nonzero=False):
        return draw(st.sampled_from(elems[1:] if nonzero else elems))

    family, n = draw(st.sampled_from(["g1", "g2"])), draw(st.integers(3, 9))
    flags = {"--output": draw(st.sampled_from(["json", "text"]))}
    if command == "identities":
        lo = draw(st.integers(3, 9))
        flags.update({"--n-min": str(lo), "--n-max": str(draw(st.integers(lo, 9)))})
        if draw(st.booleans()):
            flags["--erratum-check"] = None
    else:
        flags["--field"] = field
    if command == "encode":
        flags["--curve"] = f"{family}:n={n},a={elem(True)},b={elem(True)}"
        if n % 2:
            flags.update({"--t": elem(), "--u": elem()})
    elif command == "survey":
        flags["--curve"] = f"{family}:n={n | 1},a={elem(True)},b={elem(True)}"
    elif command == "sweep":
        flags.update({"--family": family, "--n": str(n | 1), "--samples": str(draw(st.integers(1, 3))),
                      "--seed": str(draw(st.integers(0, 9)))})
    elif command == "sqrt":
        flags["--x"] = elem()
    fragments = [[flag] + ([] if value is None else [value]) for flag, value in flags.items()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(fragments) - 1))
        mutation = draw(st.sampled_from(["drop", "malform", "stray"]))
        if mutation == "drop":
            fragments.pop(i)
        elif mutation == "malform":
            fragments[i] = fragments[i][:1] + [draw(st.sampled_from(_MALFORMED))]
        else:
            fragments.insert(i, draw(st.sampled_from(_STRAY)))
        if not fragments:
            break
    fragments = draw(st.permutations(fragments))
    return ["survey" if command == "sweep" else command] + [token for fragment in fragments for token in fragment]


@pytest.mark.filterwarnings("ignore:enumeration cap raised")
@settings(max_examples=150, deadline=None)
@given(_argvs(), st.sampled_from([None, "50", "2000", "0", "oops"]))
def test_fuzzed_argv_exits_by_contract(argv, env_cap):
    """Every argv exits 0-3 with no traceback; a json document is one line
    that validates against the schema."""
    try:
        mode = cli._build_parser().parse_args(argv).output
    except cli.UsageError:
        mode = "json"  # main reports a bad argv as a json document
    saved = os.environ.pop("ULAS_MAX_Q", None)
    if env_cap is not None:
        os.environ["ULAS_MAX_Q"] = env_cap
    try:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = cli.main(argv)
    finally:
        os.environ.pop("ULAS_MAX_Q", None)
        if saved is not None:
            os.environ["ULAS_MAX_Q"] = saved
    out = buf.getvalue()
    assert code in (0, 1, 2, 3)
    if mode == "json":
        assert out.count("\n") == 1 and out.endswith("\n")
        VALIDATOR.validate(json.loads(out))
    else:
        assert out.endswith("\n")


# --- broken promises ------------------------------------------------------------


def _zero_roots(monkeypatch):
    # zero is a root of no g-value that encode completes
    monkeypatch.setattr(Field, "sqrt", lambda self, x: self.zero())


def _x3_as_x2(monkeypatch):
    # every walk reads X3 as X2, so the identity fails at each s with s^n != 1
    class Corrupted(survey._DomainWalk):
        def __init__(self, params):
            super().__init__(params)
            self._x3_of = list(self._x2_of)

    monkeypatch.setattr(survey, "_DomainWalk", Corrupted)


def _no_quartic_root(monkeypatch):
    monkeypatch.setattr(curves, "poly_exact_sqrt", lambda p: None)


def _error_names(fragment):
    def check(payload):
        assert payload["error"] == "AssertionError" and fragment in payload["detail"]
    return check


def _only_quartic_fails(payload):
    assert not payload["all_certified"]
    assert {row["name"]: row["status"] for row in payload["identities"] if row["status"] != "certified"} \
        == {"quartic three-point x^4 + 1": "failed"}


def _unsound_sweep(payload):
    assert not payload["all_sound"]
    assert all(int(sample["identity_failures"]) > 0 for sample in payload["sweep"])


@pytest.mark.parametrize("argv,corrupt,check", [
    (["encode", "--field", "11", "--curve", "g1:n=3,a=1,b=1", "--t", "2", "--u", "3"], _zero_roots,
     _error_names("not on g1:n=3,a=1,b=1")),
    (["survey", "--field", "13", "--curve", "g1:n=3,a=2,b=6"], _x3_as_x2, _error_names("encoder unsound")),
    (["identities", "--n-min", "3", "--n-max", "3"], _no_quartic_root, _only_quartic_fails),
    (["survey", "--field", "13", "--family", "g1", "--n", "3", "--samples", "2", "--seed", "1"], _x3_as_x2,
     _unsound_sweep),
], ids=["encode", "survey", "identities", "sweep"])
def test_broken_promises_exit_3(argv, corrupt, check, capsys, monkeypatch):
    """A broken algebraic promise exits 3 with one schema-valid json line
    that names it, and no traceback."""
    corrupt(monkeypatch)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3 and "Traceback" not in captured.err
    assert captured.out.count("\n") == 1 and captured.out.endswith("\n")
    payload = json.loads(captured.out)
    VALIDATOR.validate(payload)
    check(payload)
