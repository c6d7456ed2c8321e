"""Golden predictions: every class prediction of the four theorems, pinned by hash.

For each theorem the digest covers, at every order 0 <= n <= 60 and every
class key from one below the range to one past it, either the prediction
(regime, repr of the bound, the extremal graphs' rows, in_class,
bound_is_attained and the notes) or the exact text of the error it raises: n = 0, a negative
key, and 2*beta_star = n + 1 or, for t12 and t13, 2*beta = n + 1 or n + 2.
Rewrite the stored digests, only after a deliberate change of prediction,
with

    PYTHONPATH=src python tests/test_prediction_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from specmatch import (
    HalfIntegral,
    matching_bound_connected,
    matching_bound_general,
    predicted_maximizer_connected,
    predicted_maximizer_general,
)

GOLDEN = Path(__file__).parent / "golden" / "predictions.json"
ORDERS = range(61)
# theorem: (public predictor, its class keys at order n)
PREDICTORS = {
    "t32": (predicted_maximizer_connected, lambda n: [HalfIntegral(d) for d in range(-1, n + 2)]),
    "t33": (predicted_maximizer_general, lambda n: [HalfIntegral(d) for d in range(-1, n + 2)]),
    "t12": (matching_bound_general, lambda n: range(-1, n // 2 + 2)),
    "t13": (matching_bound_connected, lambda n: range(-1, n // 2 + 2)),
}


def prediction_lines(theorem: str, n: int) -> str:
    predictor, keys = PREDICTORS[theorem]
    out = []
    for key in keys(n):
        try:
            p = predictor(n, key)
        except ValueError as exc:
            out.append(f"n={n} key={key}: error {exc}\n")
            continue
        rows = ";".join(str(g.rows) for g in p.extremal_graphs)
        out.append(f"n={n} key={key}: {p.regime} {p.bound!r} {rows} {p.in_class} {p.bound_is_attained} {p.notes}\n")
    return "".join(out)


def digests() -> dict[str, str]:
    return {
        theorem: hashlib.sha256("".join(prediction_lines(theorem, n) for n in ORDERS).encode()).hexdigest()
        for theorem in PREDICTORS
    }


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("theorem", list(PREDICTORS))
def test_predictions_match_golden(current, golden, theorem):
    assert current[theorem] == golden[theorem]


def test_golden_covers_every_theorem(current, golden):
    assert sorted(current) == sorted(golden)


@pytest.mark.parametrize(
    "predictor, n, key, message",
    [
        (predicted_maximizer_connected, 0, HalfIntegral(0), "n must be positive, got 0"),
        (predicted_maximizer_general, 5, HalfIntegral(-1), "2*beta_star must be non-negative"),
        (predicted_maximizer_connected, 5, HalfIntegral(6), "2*beta_star = 6 exceeds n = 5"),
        (matching_bound_general, 0, 0, "n must be positive, got 0"),
        (matching_bound_connected, 5, -1, "matching number must be non-negative"),
        (matching_bound_general, 5, 3, "2*beta = 6 exceeds n = 5"),
        (matching_bound_connected, 6, 4, "2*beta = 8 exceeds n = 6"),
    ],
)
def test_out_of_range_error_texts(predictor, n, key, message):
    with pytest.raises(ValueError) as exc:
        predictor(n, key)
    assert str(exc.value) == message


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
