"""The scripts under scripts/, loaded by path and run in-process."""

import importlib.util
import json
from pathlib import Path

import pytest

from hypoint.curves import CurveParams
from hypoint.ff import field_new
from hypoint.survey import DEFAULT_CAP, MISSED_CAP, coverage

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def sweep():
    return _load("coverage_sweep")


def test_json_rows_agree_with_coverage(sweep, capsys):
    assert sweep.main(["--p-max", "13", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    expected = []
    for p in (5, 7, 11, 13):
        K = field_new(p)
        expected.append(coverage(CurveParams("g1", 3, K.elem(1), K.elem(1))).to_json())
    assert rows == expected


def test_missed_column_is_the_uncapped_count(sweep, capsys):
    assert sweep.main(["--p-min", "397", "--p-max", "397"]) == 0
    p, _, _, curve, image, missed, _ = capsys.readouterr().out.splitlines()[-1].split()
    assert p == "397"
    assert int(missed) == int(curve) - int(image) > MISSED_CAP


@pytest.mark.parametrize("n", ["1", "2", "4"])
def test_unsupported_degree_is_a_usage_error(sweep, capsys, n):
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--n", n, "--p-max", "13"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--n must be odd" in err and "Traceback" not in err


def test_p_max_past_the_enumeration_cap_is_a_usage_error(sweep, capsys):
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--p-min", str(DEFAULT_CAP + 7), "--p-max", str(DEFAULT_CAP + 7)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--p-max must not exceed the enumeration cap" in err and "Traceback" not in err


def test_code_size_counts_every_library_module(capsys):
    code_size = _load("code_size")
    assert code_size.main() == 0
    out = json.loads(capsys.readouterr().out)
    modules = out["modules"]
    assert set(modules) == {path.name for path in (ROOT / "src" / "hypoint").glob("*.py")}
    assert out["total"] == {key: sum(m[key] for m in modules.values()) for key in ("lines", "tokens")}
    # comments, indentation and line ends are no code tokens: if x : y = 1
    assert code_size.code_tokens("if x:\n    y = 1  # one\n") == 6


@pytest.fixture(scope="module")
def mutants():
    return _load("mutants")


def test_every_mutant_text_occurs_once_in_the_source(mutants):
    entries = mutants.load()
    assert len({entry["name"] for entry in entries}) == len(entries)
    for entry in entries:
        assert set(entry) == {"name", "file", "find", "replace", "target"}
        assert entry["file"].startswith("src/") and entry["find"] != entry["replace"]
        assert (ROOT / entry["target"].partition("::")[0]).is_file()
        assert mutants.occurrences(entry) == 1, entry["name"]


def test_cheapest_mutants_are_killed(mutants):
    # only exit code 1 is a kill; both targets pass unmutated in this suite,
    # and the script itself runs each target on an unmutated copy first
    names = ["no Lucas step", "_sum drops the second sign"]
    assert mutants.run([entry for entry in mutants.load() if entry["name"] in names]) == [1, 1]


def test_ab_passes_reads_one_tree_against_itself_level(capsys):
    ab = _load("ab_passes")
    src = str(ROOT / "src")
    assert ab.main(["survey-small", src, src, "1", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"workload", "a", "b", "ratio", "b_lower", "rounds", "a_rounds", "b_rounds"}
    assert out["workload"] == "survey-small" and out["rounds"] == 1 and out["b_lower"] in (0, 1)
    assert out["a_rounds"] == [out["a"]] and out["b_rounds"] == [out["b"]] and out["ratio"] == out["b"] / out["a"]
    # one tree against itself: only noise separates the sides
    assert 0.5 < out["ratio"] < 2
