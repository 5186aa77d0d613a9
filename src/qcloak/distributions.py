"""Outcome distributions over n-bit measurement strings.

Bit convention: qubit 0 is the rightmost character of an outcome string.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Distribution:
    """Map from n-bit outcome strings to probabilities or counts."""

    num_bits: int
    outcomes: dict[str, float]
    kind: str = "probability"

    def __post_init__(self):
        if self.kind not in ("probability", "counts"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.num_bits < 0:
            raise ValueError("num_bits must be nonnegative")
        for s, v in self.outcomes.items():
            if len(s) != self.num_bits or set(s) - {"0", "1"}:
                raise ValueError(f"outcome {s!r} is not a {self.num_bits}-bit string")
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"outcome {s!r} has invalid weight {v!r}")
            if self.kind == "counts" and v != int(v):
                raise ValueError(f"counts entry {s!r} is not an integer: {v!r}")
        if self.kind == "probability" and self.outcomes:
            total = sum(self.outcomes.values())
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def total(self) -> float:
        return sum(self.outcomes.values())

    def normalized(self) -> "Distribution":
        """Probability view of this distribution (counts divided by total)."""
        if self.kind == "probability":
            return self
        t = self.total
        if t == 0:
            raise ValueError("cannot normalize an empty counts distribution")
        return Distribution(
            self.num_bits, {s: v / t for s, v in self.outcomes.items()}, "probability"
        )

    def top(self) -> str:
        """Outcome with the largest weight; ties broken by string order."""
        if not self.outcomes:
            raise ValueError("empty distribution has no top outcome")
        return max(sorted(self.outcomes), key=lambda s: self.outcomes[s])


def to_json(d: Distribution) -> str:
    payload = {
        "kind": d.kind,
        "num_bits": d.num_bits,
        "outcomes": {s: d.outcomes[s] for s in sorted(d.outcomes)},
    }
    return json.dumps(payload, indent=2)


def json_int(v: object, what: str) -> int:
    """v as an int, if JSON gave an integral number; a bool is no number."""
    if (
        isinstance(v, bool)
        or not isinstance(v, (int, float))
        or (isinstance(v, float) and not v.is_integer())
    ):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return int(v)


def json_float(v: object, what: str) -> float:
    """v as a float, if JSON gave a number; a bool is no number."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be a number, got {v!r}")
    return float(v)


def json_list(v: object, what: str) -> list:
    """v itself, if JSON gave a list."""
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a list, got {v!r}")
    return v


def from_json(text: str) -> Distribution:
    """Read a distribution; a field of the wrong JSON type is a ValueError."""
    payload = json.loads(text)
    try:
        return Distribution(
            json_int(payload["num_bits"], "num_bits"),
            {str(s): json_float(v, f"outcome {s!r}") for s, v in payload["outcomes"].items()},
            str(payload["kind"]),
        )
    except KeyError as exc:
        raise ValueError(f"distribution JSON missing field {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"distribution JSON has the wrong shape: {exc}") from exc
