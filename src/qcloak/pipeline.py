"""The four-step encoder: key injection, partitioning, RX pairs, resynthesis.

encode() is the single entry point used by the CLI and the analysis layer;
it refuses to return a circuit that fails the internal unitary equivalence
check (exact simulation-scale circuits only).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .circuit import Circuit
from .linalg import UNITARY_QUBIT_CAP, circuit_unitary, equal_up_to_global_phase
from .netlsd import DEFAULT_POINTS, DEFAULT_T_MAX, DEFAULT_T_MIN
from .obfuscate import ObfuscationKey, inject_rx_pairs, inject_x_end
from .partition import BlockPartition, form_blocks, reassemble
from .synthesis import SynthConfig, synthesize_block

EQUIV_CHECK_MAX_QUBITS = 10


class SynthesisEquivalenceError(RuntimeError):
    """The synthesized circuit does not match the injected circuit's unitary."""


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    k: int = 3
    shortlist: int = 2
    rx_density: float = 1.0
    sim_cap: int = 20
    tol: float = 1e-9
    # The NetLSD timescale grid is fixed (netlsd.default_grid), not a setting:
    # these read-only names give its bounds to code that builds it from a config.
    grid_min: ClassVar[float] = DEFAULT_T_MIN
    grid_max: ClassVar[float] = DEFAULT_T_MAX
    grid_points: ClassVar[int] = DEFAULT_POINTS

    def __post_init__(self):
        if self.k < 1 or not 1 <= self.shortlist <= self.k:
            raise ValueError("need k >= 1 and 1 <= shortlist <= k")
        if not 0.0 <= self.rx_density <= 1.0:
            raise ValueError("rx_density must lie in [0, 1]")
        if self.sim_cap < 1:
            raise ValueError("sim_cap must be positive")


@dataclass(frozen=True)
class EncodeResult:
    circuit: Circuit
    key: ObfuscationKey
    partition: BlockPartition
    x_injected: Circuit  # after step 1 only, for structural ablations


def encode(c: Circuit, cfg: PipelineConfig) -> EncodeResult:
    """Steps in order: inject terminal X gates (drawing the key), partition
    into two-qubit blocks, inject RX pairs at block boundaries, resynthesize
    each block, reassemble."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    x_circ, key = inject_x_end(c, int(seeds[0]))
    partition = form_blocks(x_circ)
    rx_circ, rx_record, partition = inject_rx_pairs(
        x_circ, partition, int(seeds[1]), cfg.rx_density
    )
    key = replace(key, rx_record=rx_record)

    synth_cfg = SynthConfig(k=cfg.k, shortlist=cfg.shortlist, seed=int(seeds[2]), tol=cfg.tol)
    fragments = {
        b.order_index: synthesize_block(b, synth_cfg) for b in partition.blocks
    }
    out = reassemble(partition, fragments)

    if c.num_qubits <= min(EQUIV_CHECK_MAX_QUBITS, UNITARY_QUBIT_CAP):
        if not equal_up_to_global_phase(
            circuit_unitary(out), circuit_unitary(rx_circ), tol=1e-7
        ):
            raise SynthesisEquivalenceError(
                "synthesized circuit deviates from the injected circuit"
            )
    return EncodeResult(circuit=out, key=key, partition=partition, x_injected=x_circ)
