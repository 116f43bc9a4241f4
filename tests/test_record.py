"""The document rule: _record.json_value and the records' to_json."""

from fractions import Fraction

import pytest

from hypoint._record import Record, json_value
from hypoint.curves import AffinePoint
from hypoint.ff import field_new, parse_field_spec
from hypoint.survey import CoverageReport, DegreeStats

K11 = field_new(11)
K9 = field_new(parse_field_spec("3^2:1,0,1"))


class _Pair(Record):
    __slots__ = ("name", "points")

    def __init__(self, name, points):
        self._init(name, points)


@pytest.mark.parametrize("value, expected", [
    (None, None),
    (True, True),
    (False, False),
    (0, "0"),
    (-17, "-17"),
    (Fraction(1, 2), "1/2"),
    (K11.elem(-1), "10"),
    (K9.elem([2, 1]), "2,1"),
    ("g1:n=3,a=1,b=1", "g1:n=3,a=1,b=1"),
])
def test_json_value_of_a_scalar(value, expected):
    out = json_value(value)
    assert out == expected and type(out) is type(expected)


def test_json_value_writes_a_large_int_in_full():
    n = 7 * 10**299
    assert json_value(n) == "7" + "0" * 299 and len(json_value(-n)) == 301


def test_json_value_converts_containers_entry_by_entry():
    nested = {"counts": (1, (2, -3)), "inner": {"ok": True, "r": Fraction(-3, 4), "none": None}, "l": []}
    assert json_value(nested) == {"counts": ["1", ["2", "-3"]],
                                  "inner": {"ok": True, "r": "-3/4", "none": None}, "l": []}


def test_json_value_of_a_record_holding_points():
    pts = (AffinePoint(K11.elem(3), K11.elem(8)), AffinePoint(K9.elem([0, 1]), K9.elem(2)))
    assert json_value(_Pair("two", pts)) == {
        "name": "two", "points": [{"x": "3", "y": "8"}, {"x": "0,1", "y": "2,0"}]}


def test_records_write_the_dicts_of_the_former_hand_written_writers():
    assert AffinePoint(K11.elem(2), K11.elem(0)).to_json() == {"x": "2", "y": "0"}
    stats = DegreeStats(Fraction(1, 2), Fraction(3, 4), Fraction(-1, 3), 8, 6)
    assert stats.to_json() == {"a": "1/2", "b": "3/4", "u": "-1/3", "deg_num": "8", "deg_den": "6"}
    assert DegreeStats(Fraction(1), Fraction(2), Fraction(0), -1, 0).to_json() == {
        "a": "1", "b": "2", "u": "0", "deg_num": "-1", "deg_den": "0"}


def _report(curve_size, image_size, missed=()):
    return CoverageReport(q=11, field="11", params="g1:n=3,a=1,b=1", size_T=90, raw_excluded=10,
                          bound=64, bound_applicable=True, bound_holds=True, curve_size=curve_size,
                          image_size=image_size, missed=missed, missed_truncated=False)


def test_coverage_report_writes_full_and_empty_coverage_ratios():
    full = _report(12, 12).to_json()
    assert full == {
        "q": "11", "field": "11", "params": "g1:n=3,a=1,b=1", "size_T": "90", "raw_excluded": "10",
        "bound": "64", "bound_applicable": True, "bound_holds": True, "curve_size": "12",
        "image_size": "12", "coverage_ratio": "1/1", "missed": [], "missed_truncated": False,
        "curve_size_convention": "affine points only; the encoder never outputs the point at infinity",
    }
    missed = (AffinePoint(K11.elem(0), K11.elem(1)),)
    empty = _report(12, 0, missed).to_json()
    assert empty["coverage_ratio"] == "0" and empty["missed"] == [{"x": "0", "y": "1"}]
    assert _report(12, 8).to_json()["coverage_ratio"] == "2/3"
