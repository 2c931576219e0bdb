"""Rows for the tables that test the rules of the integer and the real
settings, `image._int_in` and `image._finite`: for one setting, each
value the rule refuses and the full message it raises."""

import numpy as np


def int_refusals(name, lo, hi=None):
    """(kind, value, message) for a bool, a float, a numpy int and a str,
    the last three equal to `lo`, and for a value just past each bound."""
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    values = [("bool", True), ("float", float(lo)), ("numpy", np.int64(lo)),
              ("str", str(lo)), ("below", lo - 1)]
    values += [] if hi is None else [("above", hi + 1)]
    return [(kind, v, f"{name} must be an int {bound}, got {v!r}")
            for kind, v in values]


def real_refusals(name, op=">"):
    """(kind, value, message) for a bool, a str and an int past the float
    range, each of which the real setting `name` refuses."""
    return [(kind, v, f"{name} must be finite and {op} 0, got {shown}")
            for kind, v, shown in [
                ("bool", True, "True"), ("str", "1", "'1'"),
                ("past_float", 10 ** 400,
                 "10000000000000000000... (401 long)")]]
