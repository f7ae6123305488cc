import math

import pytest

import pins


def test_identical_bodies_read_identical():
    body = "# fracstep solve\nn,value\n0,0.1\n"
    assert pins.drift(body, body) == "identical"
    assert pins.row(pins.CASES[0], (0, body), (0, body)).endswith("| 0 / 0 | identical |")


@pytest.mark.parametrize("x", [0.1, -2.5, 0.0, 1e300])
def test_a_field_moved_by_one_ulp(x):
    y = math.nextafter(x, math.inf)
    old, new = f"n,value\n0,{x!r}\n1,3.0\n", f"n,value\n0,{y!r}\n1,3.0\n"
    assert pins.drift(old, new) == \
        f"1 of 3 lines: abs {y - x:.1e}, rel {(y - x) / max(abs(x), abs(y)):.1e}, 1 ulp"


def test_a_changed_exit_code_is_reported():
    case = pins.CASES[0]
    assert pins.row(case, (0, "1.0\n"), (4, "1.0\n")) == \
        f"| {case.test}[{case.id}] | 0 / 4 | exit 0, then 4; body identical |"


@pytest.mark.parametrize("new, verdict", [
    ("# fracstep solve v2\nn,value\n0,0.1\n", "text differs on line 1"),
    ("# fracstep solve\nn,value,exact\n0,0.1\n", "text differs on line 2"),
    ("# fracstep solve\nn,value\n0,0.1\n1,0.2\n", "text differs: 3 lines, then 4"),
    ("# fracstep solve\nn,value\n0,null\n", "text differs on line 3"),
    ("# fracstep solve\nn,value\n0,nan\n", "text differs on line 3: 0.1, then nan"),
    ("# fracstep solve\nn,value\n0.5,0.1 x\n", "text differs on line 3"),
])
def test_a_text_change_is_reported_not_skipped(new, verdict):
    assert pins.drift("# fracstep solve\nn,value\n0,0.1\n", new) == verdict
