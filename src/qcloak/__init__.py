"""Key-based obfuscation of quantum circuit outputs and structure.

A circuit is encoded by appending secret X gates (the key), inserting
cancelling RX pairs at two-qubit block boundaries, and resynthesizing every
block through its Cartan decomposition. The key holder decodes measured
distributions exactly; without the key both the output distribution and the
gate-graph structure diverge from the original.
"""

from .analysis import ComparisonReport, compare, dominant_percentile, make_baseline, tvd
from .circuit import Circuit, Gate, GateKind, cx, gate_counts, rx, rz, sx, x
from .dag import CircuitDag, cx_depth, to_dag
from .distributions import Distribution
from .kak import KakTerms, kak_decompose, kak_reconstruct
from .netlsd import HeatSignature, circuit_signature, netlsd_divergence, netlsd_signature
from .obfuscate import (
    ObfuscationKey,
    RxPair,
    decode,
    inject_rx_pairs,
    inject_x_end,
    key_from_json,
    key_to_json,
)
from .partition import Block, BlockPartition, form_blocks, reassemble
from .pipeline import (
    EncodeResult,
    PipelineConfig,
    SynthesisEquivalenceError,
    encode,
)
from .qasm import QasmError, parse_qasm, serialize_qasm
from .simulator import ideal_distribution, run_statevector, sample
from .synthesis import (
    generate_candidates,
    minimal_cx_count,
    select_candidate,
    synthesize_block,
    synthesize_blocks,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockPartition",
    "Circuit",
    "CircuitDag",
    "ComparisonReport",
    "Distribution",
    "EncodeResult",
    "Gate",
    "GateKind",
    "HeatSignature",
    "KakTerms",
    "ObfuscationKey",
    "PipelineConfig",
    "QasmError",
    "RxPair",
    "SynthesisEquivalenceError",
    "circuit_signature",
    "compare",
    "cx",
    "cx_depth",
    "decode",
    "dominant_percentile",
    "encode",
    "form_blocks",
    "gate_counts",
    "generate_candidates",
    "ideal_distribution",
    "inject_rx_pairs",
    "inject_x_end",
    "kak_decompose",
    "kak_reconstruct",
    "key_from_json",
    "key_to_json",
    "make_baseline",
    "minimal_cx_count",
    "netlsd_divergence",
    "netlsd_signature",
    "parse_qasm",
    "reassemble",
    "run_statevector",
    "rx",
    "rz",
    "sample",
    "select_candidate",
    "serialize_qasm",
    "synthesize_block",
    "synthesize_blocks",
    "sx",
    "to_dag",
    "tvd",
    "x",
]
