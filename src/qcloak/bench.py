"""Benchmark circuit generators and the QAOA-MaxCut iterative case study.

All generators emit only {X, SX, RZ, RX, CX}. Hadamard is realized as
RZ(pi/2) SX RZ(pi/2), RY(t) as RZ(-pi/2) RX(t) RZ(pi/2), Toffoli by the
standard six-CX T-gate network, controlled-phase and controlled-RY by
two-CX conjugations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .analysis import make_baseline
from .circuit import CX_CODE, RX_CODE, RZ_CODE, Circuit, Gate, gate_columns
from .circuit import cx, rx, rz, sx, x
from .distributions import Distribution
from .obfuscate import decode
from .pipeline import PipelineConfig, encode
from .simulator import expectation, sample

# Exact p=1 expectation optimum for the 4-cycle under this circuit convention
# (cost layer CX RZ(2*gamma) CX per edge, mixer RX(2*beta)); E[cut] = 3 and
# the two perfect cuts 0101/1010 are the joint top outcomes at 0.2656 each.
QAOA_RING4_DESK_PARAMS = (3 * np.pi / 8, np.pi / 8)
QAOA_CASE_STUDY_START = (1.0, 0.55)


def _h(q: int) -> list[Gate]:
    return [rz(np.pi / 2, q), sx(q), rz(np.pi / 2, q)]


# _h's kind codes and angles, for the circuits built as columns
_H_KIND, _, _, _H_ANGLE = (col.tolist() for col in gate_columns(_h(0)))


def _ry(theta: float, q: int) -> list[Gate]:
    return [rz(-np.pi / 2, q), rx(theta, q), rz(np.pi / 2, q)]


def _t(q: int) -> Gate:
    return rz(np.pi / 4, q)


def _tdg(q: int) -> Gate:
    return rz(-np.pi / 4, q)


def _ccx(c1: int, c2: int, tgt: int) -> list[Gate]:
    return (
        _h(tgt)
        + [
            cx(c2, tgt),
            _tdg(tgt),
            cx(c1, tgt),
            _t(tgt),
            cx(c2, tgt),
            _tdg(tgt),
            cx(c1, tgt),
            _t(c2),
            _t(tgt),
        ]
        + _h(tgt)
        + [cx(c1, c2), _t(c1), _tdg(c2), cx(c1, c2)]
    )


def gen_qft(n: int) -> Circuit:
    """Quantum Fourier transform; equals the DFT matrix up to global phase
    and output bit reversal (no terminal swap layer)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    gates: list[Gate] = []
    for i in reversed(range(n)):
        gates += _h(i)
        for j in reversed(range(i)):
            theta = np.pi / 2 ** (i - j)
            gates += [
                rz(theta / 2, j),
                rz(theta / 2, i),
                cx(j, i),
                rz(-theta / 2, i),
                cx(j, i),
            ]
    return Circuit(n, tuple(gates), tuple(range(n)))


def gen_ghz(n: int) -> Circuit:
    if n < 2:
        raise ValueError("need at least two qubits")
    gates = _h(0) + [cx(i, i + 1) for i in range(n - 1)]
    return Circuit(n, tuple(gates), tuple(range(n)))


def gen_wstate(n: int) -> Circuit:
    """Equal superposition of the n single-excitation states, built by an
    amplitude-splitting chain of controlled-RY and CX gates."""
    if n < 2:
        raise ValueError("need at least two qubits")
    gates: list[Gate] = [x(0)]
    for k in range(n - 1):
        theta = 2 * math.acos(math.sqrt(1.0 / (n - k)))
        tq = k + 1
        gates += _ry(theta / 2, tq) + [cx(k, tq)] + _ry(-theta / 2, tq) + [cx(k, tq)]
        gates.append(cx(tq, k))
    return Circuit(n, tuple(gates), tuple(range(n)))


def adder_layout(n: int) -> tuple[int, list[int], list[int], int | None]:
    """(operand width m, a wires, b wires, carry-out wire or None)."""
    if n >= 4 and n % 2 == 0:
        m, cout = (n - 2) // 2, n - 1
    elif n >= 3:
        m, cout = (n - 1) // 2, None
    else:
        raise ValueError("adder needs at least 3 qubits")
    a_wires = [1 + i for i in range(m)]
    b_wires = [1 + m + i for i in range(m)]
    return m, a_wires, b_wires, cout


def gen_adder(n: int, a: int | None = None, b: int | None = None) -> Circuit:
    """Ripple-carry adder computing |a>|b> -> |a>|(a+b) mod 2^m> on wire
    layout [carry-in, a0..a_{m-1}, b0..b_{m-1}, (carry-out)], with the
    majority/unmajority cascade. Default operands a=1, b=2^m-1 make the
    deterministic output overflow into the carry."""
    m, a_wires, b_wires, cout = adder_layout(n)
    if a is None:
        a = 1
    if b is None:
        b = 2**m - 1
    if not 0 <= a < 2**m or not 0 <= b < 2**m:
        raise ValueError(f"operands must fit in {m} bits")
    gates: list[Gate] = []
    for i in range(m):
        if (a >> i) & 1:
            gates.append(x(a_wires[i]))
        if (b >> i) & 1:
            gates.append(x(b_wires[i]))
    chain = []
    carry = 0
    for i in range(m):
        chain.append((carry, b_wires[i], a_wires[i]))
        carry = a_wires[i]
    for cw, bw, aw in chain:
        gates += [cx(aw, bw), cx(aw, cw)] + _ccx(cw, bw, aw)
    if cout is not None:
        gates.append(cx(a_wires[m - 1], cout))
    for cw, bw, aw in reversed(chain):
        gates += _ccx(cw, bw, aw) + [cx(aw, cw), cx(cw, bw)]
    return Circuit(n, tuple(gates), tuple(range(n)))


def gen_random_blocks(num_qubits: int, num_blocks: int, seed: int) -> Circuit:
    """Random two-qubit interaction blocks on random wire pairs; used for the
    structural (no-simulation) scale benchmarks."""
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    rng = np.random.default_rng(seed)
    gates: list[Gate] = []
    for _ in range(num_blocks):
        i, j = sorted(rng.choice(num_qubits, size=2, replace=False).tolist())
        gates.append(rz(rng.uniform(0.1, 6.1), i))
        if rng.random() < 0.5:
            gates.append(sx(i))
        gates.append(rz(rng.uniform(0.1, 6.1), j))
        gates.append(cx(i, j))
        gates.append(rz(rng.uniform(0.1, 6.1), j))
        if rng.random() < 0.5:
            gates.append(cx(j, i))
        if rng.random() < 0.5:
            gates.append(sx(j))
        gates.append(rz(rng.uniform(0.1, 6.1), i))
    return Circuit(num_qubits, tuple(gates), tuple(range(num_qubits)))


@dataclass(frozen=True)
class MaxCutProblem:
    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    qaoa_layers: int = 1
    parameters: tuple[float, ...] = ()

    def __post_init__(self):
        # build_qaoa_circuit builds its rows unchecked, so every rule a
        # Circuit checks holds here: nodes are integers, as qubits are
        object.__setattr__(self, "num_nodes", operator.index(self.num_nodes))
        edges = tuple((operator.index(a), operator.index(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        for a, b in self.edges:
            if a == b:
                raise ValueError("self-loop edge")
            if not (0 <= a < self.num_nodes and 0 <= b < self.num_nodes):
                raise ValueError("edge references unknown node")
        if self.qaoa_layers < 1:
            raise ValueError("need at least one layer")
        if self.parameters and len(self.parameters) != 2 * self.qaoa_layers:
            raise ValueError("need 2p parameters (gammas then betas)")
        for t in self.parameters:
            if not math.isfinite(2 * t):  # the circuit's angles are 2 gamma and 2 beta
                raise ValueError(f"parameter {t} gives a non-finite angle")


def ring_problem(
    n: int = 4, layers: int = 1, parameters: tuple[float, ...] | None = None
) -> MaxCutProblem:
    edges = tuple((i, (i + 1) % n) for i in range(n))
    if parameters is None:
        parameters = (0.0,) * (2 * layers)
    return MaxCutProblem(n, edges, layers, tuple(parameters))


def cut_values(prob: MaxCutProblem) -> dict[str, int]:
    """Cut size of every assignment, keyed by outcome string."""
    if prob.num_nodes > 20:
        raise ValueError("cut table limited to 20 nodes")
    table = {}
    for idx in range(2**prob.num_nodes):
        s = format(idx, f"0{prob.num_nodes}b")
        bits = [(idx >> q) & 1 for q in range(prob.num_nodes)]
        table[s] = sum(1 for i, j in prob.edges if bits[i] != bits[j])
    return table


def build_qaoa_circuit(prob: MaxCutProblem) -> Circuit:
    """Uniform superposition, then per layer the cost phase CX RZ(2g) CX per
    edge and the mixer RX(2b) per node. Built from rows, the gates of _h,
    cx, rz and rx, without a Gate or a check: MaxCutProblem has checked the
    nodes, edges and parameters they come from."""
    if not prob.parameters:
        raise ValueError("problem has no bound parameters")
    n, p = prob.num_nodes, prob.qaoa_layers
    gammas, betas = prob.parameters[:p], prob.parameters[p:]
    nan = math.nan
    kind = _H_KIND * n
    q0 = [q for q in range(n) for _ in _H_KIND]
    q1 = [-1] * len(kind)
    angle = _H_ANGLE * n
    for layer in range(p):
        g = float(2 * gammas[layer])
        for i, j in prob.edges:
            kind += (CX_CODE, RZ_CODE, CX_CODE)
            q0 += (i, j, i)
            q1 += (j, -1, j)
            angle += (nan, g, nan)
        kind += [RX_CODE] * n
        q0 += range(n)
        q1 += [-1] * n
        angle += [float(2 * betas[layer])] * n
    return Circuit.from_rows(n, (kind, q0, q1, angle), tuple(range(n)))


QAOA_MODES = ("baseline", "corrected", "uncorrected")


@dataclass(frozen=True)
class QaoaResult:
    mode: str
    losses: tuple[float, ...]
    final_loss: float
    final_distribution: Distribution
    parameters: tuple[float, ...]


def run_qaoa_case_study(
    prob: MaxCutProblem,
    mode: str,
    iterations: int = 100,
    seed: int = 0,
    shots: int = 8192,
) -> QaoaResult:
    """Derivative-free MaxCut optimization with per-evaluation re-encoding.

    Every circuit evaluation in corrected/uncorrected mode draws a fresh key
    and fresh RX randomness; only corrected mode decodes before computing
    loss = -E[cut]. The loss trace has one entry per circuit evaluation.
    """
    from scipy.optimize import minimize  # here, so importing qcloak does not load it

    if mode not in QAOA_MODES:
        raise ValueError(f"mode must be one of {QAOA_MODES}")
    if prob.num_nodes > 10:
        raise ValueError("case study limited to 10 nodes")
    table = cut_values(prob)
    root = np.random.SeedSequence(seed)
    trace: list[float] = []
    last_dist: Distribution | None = None

    def evaluate(params) -> float:
        nonlocal last_dist
        child = root.spawn(1)[0]
        enc_seed, samp_seed = (int(v) for v in child.generate_state(2))
        circ = build_qaoa_circuit(replace(prob, parameters=tuple(float(v) for v in params)))
        if mode == "baseline":
            dist = sample(make_baseline(circ), shots, samp_seed)
        else:
            enc = encode(circ, PipelineConfig(seed=enc_seed))
            dist = sample(enc.circuit, shots, samp_seed)
            if mode == "corrected":
                dist = decode(dist, enc.key)
        loss = -expectation(dist, table)
        trace.append(loss)
        last_dist = dist
        return loss

    x0 = np.array(prob.parameters, dtype=float)
    res = minimize(
        evaluate, x0, method="Nelder-Mead", options={"maxiter": iterations}
    )
    final_loss = evaluate(res.x)
    assert last_dist is not None
    return QaoaResult(
        mode=mode,
        losses=tuple(trace),
        final_loss=final_loss,
        final_distribution=last_dist,
        parameters=tuple(float(v) for v in res.x),
    )


def loss_trace_to_csv(result: QaoaResult) -> str:
    lines = ["iteration,loss,mode"]
    for i, loss in enumerate(result.losses):
        lines.append(f"{i},{loss:.6f},{result.mode}")
    return "\n".join(lines) + "\n"


def desk_benchmarks() -> dict[str, Circuit]:
    """The simulation-scale benchmark suite."""
    return {
        "ghz4": gen_ghz(4),
        "ghz8": gen_ghz(8),
        "ghz12": gen_ghz(12),
        "w4": gen_wstate(4),
        "w8": gen_wstate(8),
        "qft4": gen_qft(4),
        "qft8": gen_qft(8),
        "add4": gen_adder(4),
        "add9": gen_adder(9),
        "qaoa_ring4": build_qaoa_circuit(
            ring_problem(4, 1, QAOA_RING4_DESK_PARAMS)
        ),
    }


def structural_benchmarks() -> dict[str, Circuit]:
    """Large circuits exercised without simulation."""
    return {
        "qft32": gen_qft(32),
        "random128": gen_random_blocks(128, 300, seed=4057),
    }
