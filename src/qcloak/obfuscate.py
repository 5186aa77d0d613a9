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

from .circuit import Circuit, Gate, GateKind
from .distributions import Distribution, json_float, json_int, json_list
from .partition import Block, BlockPartition, reassemble

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
    gates = list(c.gates)
    for q in range(c.num_qubits):
        if draws[q]:
            gates.append(Gate(GateKind.X, (q,)))
    # only a strict subset is recorded, so a fully measured circuit's key is
    # the same version 1 key as before measured_qubits existed
    measured = tuple(sorted(c.measured_qubits))
    if len(measured) == c.num_qubits:
        measured = ()
    key = ObfuscationKey(mask, seed, measured_qubits=measured)
    return Circuit(c.num_qubits, tuple(gates), c.measured_qubits), key


def _boundaries(p: BlockPartition) -> list[tuple[int, int, int]]:
    """(wire, earlier order_index, later order_index) for each block-boundary
    crossing of each wire. On any one wire, blocks appear in ascending
    order_index, so consecutive entries of that wire's block list are exactly
    its boundaries."""
    per_wire: dict[int, list[int]] = {}
    for b in p.blocks:
        for q in b.qubits:
            per_wire.setdefault(q, []).append(b.order_index)
    out = []
    for w in sorted(per_wire):
        orders = sorted(per_wire[w])
        for a, b in zip(orders, orders[1:]):
            out.append((w, a, b))
    return out


def inject_rx_pairs(
    c: Circuit, p: BlockPartition, seed: int, density: float = 1.0
) -> tuple[Circuit, tuple[RxPair, ...], BlockPartition]:
    """Insert RX(theta)/RX(-theta) across block boundaries.

    For each wire crossing from one block to the next, with probability
    `density`, RX(theta) is appended to the earlier block and RX(-theta) is
    prepended to the later block, theta ~ Uniform[0.1, 2*pi - 0.1]. Returns
    the new circuit, the injection record, and the partition with the pairs
    folded into their blocks; the circuit is that partition reassembled with
    no replacements. The partition is returned rather than recomputed
    because re-partitioning the new circuit would put both halves of a pair in
    the earlier block (still open when the second half is scanned), where they
    cancel instead of straddling the boundary.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    record: list[RxPair] = []
    prepend: dict[int, list[Gate]] = {}
    append: dict[int, list[Gate]] = {}
    for wire, earlier, later in _boundaries(p):
        if density < 1.0 and rng.random() >= density:
            continue
        theta = rng.uniform(THETA_MARGIN, 2 * np.pi - THETA_MARGIN)
        record.append(RxPair(wire, earlier, theta))
        append.setdefault(earlier, []).append(Gate(GateKind.RX, (wire,), theta))
        prepend.setdefault(later, []).append(Gate(GateKind.RX, (wire,), -theta))

    new_blocks = tuple(
        Block(
            b.qubits,
            tuple(prepend.get(b.order_index, ()))
            + b.gates
            + tuple(append.get(b.order_index, ())),
            b.order_index,
        )
        for b in p.blocks
    )
    # Old slot pos of a block becomes the new positions [start, stop): its
    # first slot also takes the block's prepends and its last slot the
    # appends. On any wire the two halves of a pair end up adjacent, so the
    # circuit unitary is unchanged exactly.
    last = {b.order_index: len(b.gates) - 1 for b in p.blocks}
    size = {b.order_index: len(b.gates) for b in new_blocks}
    provenance: list[tuple[int, int]] = []
    for order, pos in p.provenance:
        shift = len(prepend.get(order, ()))
        start = 0 if pos == 0 else shift + pos
        stop = size[order] if pos == last[order] else shift + pos + 1
        provenance.extend((order, j) for j in range(start, stop))
    new_partition = BlockPartition(
        c.num_qubits, new_blocks, tuple(provenance), c.measured_qubits
    )
    return reassemble(new_partition, {}), tuple(record), new_partition


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
