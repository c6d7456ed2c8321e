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

from specmatch import HalfIntegral, predict

GOLDEN = Path(__file__).parent / "golden" / "predictions.json"
ORDERS = range(61)
# theorem: its class keys d at order n, each with the label that the digest
# prints, beta_star for t32 and t33 and beta for t12 and t13
KEYS = {
    "t32": lambda n: [(HalfIntegral(d), d) for d in range(-1, n + 2)],
    "t33": lambda n: [(HalfIntegral(d), d) for d in range(-1, n + 2)],
    "t12": lambda n: [(b, 2 * b) for b in range(-1, n // 2 + 2)],
    "t13": lambda n: [(b, 2 * b) for b in range(-1, n // 2 + 2)],
}


def prediction_lines(theorem: str, n: int) -> str:
    out = []
    for key, d in KEYS[theorem](n):
        try:
            p = predict(theorem, n, d)
        except ValueError as exc:
            out.append(f"n={n} key={key}: error {exc}\n")
            continue
        rows = ";".join(str(g.rows) for g in p.extremal_graphs)
        out.append(f"n={n} key={key}: {p.regime} {p.bound!r} {rows} {p.in_class} {p.bound_is_attained} {p.notes}\n")
    return "".join(out)


def digests() -> dict[str, str]:
    return {
        theorem: hashlib.sha256("".join(prediction_lines(theorem, n) for n in ORDERS).encode()).hexdigest()
        for theorem in KEYS
    }


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("theorem", list(KEYS))
def test_predictions_match_golden(current, golden, theorem):
    assert current[theorem] == golden[theorem]


def test_golden_covers_every_theorem(current, golden):
    assert sorted(current) == sorted(golden)


# the ids are these cases' names from when each theorem had its own predictor
# of (n, beta) or (n, beta_star); they keep the suite's test names stable
@pytest.mark.parametrize(
    "theorem, n, d, message",
    [
        ("t32", 0, 0, "n must be positive, got 0"),
        ("t33", 5, -1, "2*beta_star must be non-negative"),
        ("t32", 5, 6, "2*beta_star = 6 exceeds n = 5"),
        ("t12", 0, 0, "n must be positive, got 0"),
        ("t13", 5, -2, "matching number must be non-negative"),
        ("t12", 5, 6, "2*beta = 6 exceeds n = 5"),
        ("t13", 6, 8, "2*beta = 8 exceeds n = 6"),
    ],
    ids=[
        "predicted_maximizer_connected-0-key0-n must be positive, got 0",
        "predicted_maximizer_general-5-key1-2*beta_star must be non-negative",
        "predicted_maximizer_connected-5-key2-2*beta_star = 6 exceeds n = 5",
        "matching_bound_general-0-0-n must be positive, got 0",
        "matching_bound_connected-5--1-matching number must be non-negative",
        "matching_bound_general-5-3-2*beta = 6 exceeds n = 5",
        "matching_bound_connected-6-4-2*beta = 8 exceeds n = 6",
    ],
)
def test_out_of_range_error_texts(theorem, n, d, message):
    with pytest.raises(ValueError) as exc:
        predict(theorem, n, d)
    assert str(exc.value) == message


def test_unknown_theorem_is_a_value_error():
    with pytest.raises(ValueError) as exc:
        predict("t99", 5, 2)
    assert str(exc.value) == "unknown theorem 't99'; expected one of ('t32', 't33', 't12', 't13')"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
