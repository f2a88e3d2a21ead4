"""scripts/bench_pairs.py's per-metric row, on hand-made run values."""

import pytest

from bench_pairs import metric_row

TIGHT = [9, 10, 10, 10, 11]  # quartiles 10 and 10: no spread
WIDE = [6, 8, 10, 12, 14]    # quartiles 8 and 12: a spread of 40%, above the 0.25 bound


@pytest.mark.parametrize("better,parent,change,row", [
    ("higher", TIGHT, [11, 11, 9, 11, 12], "10 11 1.100 0.0% 4/5"),
    ("higher", TIGHT, [7, 7, 7, 7, 7], "10 7 0.700 0.0% 0/5 WORSE"),
    ("lower", TIGHT, [13, 13, 13, 13, 13], "10 13 1.300 0.0% 0/5 WORSE"),
    ("higher", WIDE, [7, 9, 11, 13, 15], "10 11 1.100 40.0% 5/5 UNRESOLVED"),
    ("higher", WIDE, [15, 15, 16, 17, 20], "10 16 1.600 40.0% 5/5"),  # all beat all
    ("lower", WIDE, [1, 2, 3, 4, 5], "10 3 0.300 40.0% 5/5"),  # all beat all
    ("lower", WIDE, [5, 6, 7, 8, 9], "10 7 0.700 40.0% 5/5 UNRESOLVED"),  # 6 ties the best
    ("lower", WIDE, [14, 15, 16, 17, 18], "10 16 1.600 40.0% 0/5 WORSE UNRESOLVED"),
])
def test_metric_row(better, parent, change, row):
    metric = {"name": "m", "better": better, "bound": 0.25}
    assert metric_row(metric, parent, change).split() == ["m", *row.split()]
