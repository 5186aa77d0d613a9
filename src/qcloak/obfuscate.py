"""Output and structure obfuscation: terminal X-gate keys and RX-pair injection.

The key is an n-bit flip mask (qubit i = 1 means an X gate was appended to
wire i) plus the qubits the circuit measures; decoding XORs measured outcome
strings with the mask restricted to those qubits. RX pairs are
angle-cancelling rotations placed across block boundaries so that later
block-by-block resynthesis absorbs each half into a different block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit import RX_CODE, X_CODE, Circuit, CircuitColumns, group_ranks, offsets, ranges
from .distributions import Distribution, json_float, json_int, json_list
from .partition import BlockPartition

THETA_MARGIN = 0.1


@dataclass(frozen=True)
class RxPair:
    """One cancelling rotation pair: RX(theta) ends the block with
    order_index `boundary` on `wire`; RX(-theta) starts the next block
    on that wire."""

    wire: int
    boundary: int
    theta: float


@dataclass(frozen=True)
class ObfuscationKey:
    flip_mask: str  # qubit 0 = rightmost character
    seed: int
    rx_record: tuple[RxPair, ...] = ()
    measured_qubits: tuple[int, ...] = ()  # ascending; () = every qubit, as in Circuit

    def __post_init__(self):
        if set(self.flip_mask) - {"0", "1"}:
            raise ValueError(f"flip_mask {self.flip_mask!r} is not a bitstring")
        m = self.measured_qubits
        if list(m) != sorted(set(m)) or (m and not 0 <= m[0] <= m[-1] < self.num_qubits):
            raise ValueError(f"measured_qubits {m!r} are not ascending qubits of the key")

    @property
    def num_qubits(self) -> int:
        return len(self.flip_mask)

    def flips(self, qubit: int) -> bool:
        return self.flip_mask[-1 - qubit] == "1"

    def restricted(self, qubits: tuple[int, ...]) -> "ObfuscationKey":
        """Key over a subset of qubits, for decoding partial measurements.
        The qubits must be distinct qubits of the key."""
        if len(set(qubits)) != len(qubits) or not all(
            0 <= q < self.num_qubits for q in qubits
        ):
            raise ValueError(
                f"qubits {tuple(qubits)!r} are not distinct qubits of a "
                f"{self.num_qubits}-qubit key"
            )
        mask = "".join(
            "1" if self.flips(q) else "0" for q in sorted(qubits, reverse=True)
        )
        return ObfuscationKey(mask, self.seed, self.rx_record)

    def measured(self) -> "ObfuscationKey":
        """Key over the measured qubits: the one that decodes the circuit's
        measured distribution."""
        return self.restricted(self.measured_qubits or tuple(range(self.num_qubits)))


def inject_x_end(c: Circuit, seed: int) -> tuple[Circuit, ObfuscationKey]:
    """Append an X gate to each qubit independently with probability 1/2."""
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 2, size=c.num_qubits)
    mask = "".join("1" if draws[q] else "0" for q in reversed(range(c.num_qubits)))
    flipped = np.flatnonzero(draws)
    k = len(flipped)
    x_rows = (np.full(k, X_CODE), flipped, np.full(k, -1), np.full(k, np.nan))
    cols = [np.concatenate(pair) for pair in zip(c.columns, x_rows)]
    # only a strict subset is recorded, so a fully measured circuit's key is
    # the same version 1 key as before measured_qubits existed
    measured = tuple(sorted(c.measured_qubits))
    if len(measured) == c.num_qubits:
        measured = ()
    key = ObfuscationKey(mask, seed, measured_qubits=measured)
    return Circuit.from_rows(c.num_qubits, cols, c.measured_qubits), key


def inject_rx_pairs(p: BlockPartition, seed: int) -> tuple[BlockPartition, tuple[RxPair, ...]]:
    """Insert RX(theta)/RX(-theta) across block boundaries.

    For each wire crossing from one block to the next (by wire, then block),
    RX(theta) is appended to the earlier block and RX(-theta) is prepended to
    the later block, theta ~ Uniform[0.1, 2*pi - 0.1]. Returns the partition
    with the pairs folded into their blocks, one new column set, and the
    injection record. A prepended half shares its block's first slot and an
    appended half its last, so the two halves of each pair are adjacent on
    their wire and cancel exactly: encode checks its output against the
    X-injected circuit p was formed from and no RX-injected circuit is built.
    The pairs go into the blocks, not into a new circuit, because
    re-partitioning such a circuit would put both halves of a pair in the
    earlier block (still open when the second half is scanned), where they
    cancel instead of straddling the boundary.
    """
    old_at, sizes = p.bounds, np.diff(p.bounds)
    earlier, later, wire = p.boundaries()
    rng = np.random.default_rng(seed)
    theta = rng.uniform(THETA_MARGIN, 2 * np.pi - THETA_MARGIN, len(wire))
    record = tuple(map(RxPair, wire.tolist(), p.order[earlier].tolist(), theta.tolist()))

    # each new row's source row: a block's own rows, its first row for the
    # RX(-theta) halves it now starts with, its last for the RX(theta) halves
    # it now ends with; a half takes its source row's slot
    first, n_first = group_ranks(later, len(sizes))
    last, n_last = group_ranks(earlier, len(sizes))
    at = offsets(sizes + n_first + n_last)
    first += at[later]
    last += at[earlier + 1] - n_last[earlier]
    source = np.empty(at[-1], dtype=np.int64)
    source[ranges(at[:-1] + n_first, sizes)] = np.arange(old_at[-1])
    source[first], source[last] = old_at[later], old_at[earlier + 1] - 1
    cols = CircuitColumns(*(col[source] for col in p.rows))
    halves = np.concatenate((first, last))
    cols.kind[halves], cols.q0[halves], cols.q1[halves] = RX_CODE, np.tile(wire, 2), -1
    cols.angle[halves] = np.concatenate((-theta, theta))
    rx_p = BlockPartition.from_rows(
        p.num_qubits, cols, at, p.lo, p.hi, p.order, p.slot[source], p.measured_qubits
    )
    return rx_p, record


def decode(d: Distribution, k: ObfuscationKey) -> Distribution:
    """XOR every outcome string with the key's flip mask; weights unchanged."""
    if d.num_bits != k.num_qubits:
        raise ValueError(
            f"outcome length {d.num_bits} does not match key length {k.num_qubits}"
        )
    flipped = {}
    for s, v in d.outcomes.items():
        t = "".join("1" if a != b else "0" for a, b in zip(s, k.flip_mask))
        flipped[t] = v
    return Distribution(d.num_bits, flipped, d.kind)


def key_to_json(k: ObfuscationKey) -> str:
    """Version 2 adds "measured_qubits" for a circuit that measures a strict
    subset of its qubits; any other key is written as version 1."""
    payload = {
        "version": 2 if k.measured_qubits else 1,
        "num_qubits": k.num_qubits,
        "flip_mask": k.flip_mask,
        "seed": k.seed,
        "rx_pairs": [
            {"wire": p.wire, "boundary": p.boundary, "theta": p.theta}
            for p in k.rx_record
        ],
    }
    if k.measured_qubits:
        payload["measured_qubits"] = list(k.measured_qubits)
    return json.dumps(payload, indent=2)


def key_from_json(text: str) -> ObfuscationKey:
    """Read a version 1 or 2 key. The flip mask stays full width; use
    `measured()` to decode a measured distribution. A field of the wrong
    JSON type (a bool or a non-integral number for an integer, a string for
    a list) is a ValueError."""
    payload = json.loads(text)
    try:
        version = json_int(payload["version"], "version")
        if version not in (1, 2):
            raise ValueError(f"unsupported key version {version!r}")
        pairs = tuple(
            RxPair(
                json_int(p["wire"], "wire"),
                json_int(p["boundary"], "boundary"),
                json_float(p["theta"], "theta"),
            )
            for p in json_list(payload["rx_pairs"], "rx_pairs")
        )
        measured = ()
        if version == 2:
            measured = tuple(
                json_int(q, "measured qubit")
                for q in json_list(payload["measured_qubits"], "measured_qubits")
            )
        mask = payload["flip_mask"]
        if not isinstance(mask, str):
            raise ValueError(f"flip_mask must be a string, got {mask!r}")
        key = ObfuscationKey(mask, json_int(payload["seed"], "seed"), pairs, measured)
        if key.num_qubits != json_int(payload["num_qubits"], "num_qubits"):
            raise ValueError("flip_mask length does not match num_qubits")
    except KeyError as exc:
        raise ValueError(f"key JSON missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"key JSON has the wrong shape: {exc}") from exc
    return key
