"""Exact statevector simulation, sampling, and expectation values.

A statevector is a one-column block run through linalg.apply_circuit, the
same fused-run kernel that runs the encoder's random-stimuli check.

Little-endian throughout: qubit q is bit q of the basis index; outcome
strings put qubit 0 rightmost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .distributions import Distribution
from .linalg import apply_circuit

SIM_QUBIT_CAP = 24
NORM_TOL = 1e-9
PRUNE_EPS = 1e-16


@dataclass(frozen=True)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def run_statevector(c: Circuit) -> Statevector:
    """c applied to |0...0> without forming any 2^n x 2^n matrix."""
    n = c.num_qubits
    if n > SIM_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceeds the simulation cap of {SIM_QUBIT_CAP}")
    psi = np.zeros((2**n, 1), dtype=complex)
    psi[0, 0] = 1.0
    flat = apply_circuit(psi, c).reshape(-1)
    norm = float(np.sum(np.abs(flat) ** 2))
    if abs(norm - 1.0) > NORM_TOL:
        raise ArithmeticError(f"statevector norm drifted to {norm!r}")
    return Statevector(n, flat)


def ideal_distribution(c: Circuit) -> Distribution:
    """|amplitude|^2 outcome probabilities, marginalized onto the measured
    qubits (all qubits when none are marked)."""
    sv = run_statevector(c)
    n = c.num_qubits
    measured = tuple(sorted(c.measured_qubits)) or tuple(range(n))
    probs = sv.probabilities().reshape((2,) * n)
    drop_axes = tuple(n - 1 - q for q in range(n) if q not in set(measured))
    if drop_axes:
        probs = probs.sum(axis=drop_axes)
    m = len(measured)
    flat = probs.reshape(-1)
    outcomes = {
        format(i, f"0{m}b"): float(p) for i, p in enumerate(flat) if p > PRUNE_EPS
    }
    total = sum(outcomes.values())
    outcomes = {s: p / total for s, p in outcomes.items()}
    return Distribution(m, outcomes, "probability")


def sample(c: Circuit, shots: int, seed: int) -> Distribution:
    """Multinomial draw from the ideal distribution; counts kind."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    ideal = ideal_distribution(c)
    keys = sorted(ideal.outcomes)
    pvals = np.array([ideal.outcomes[s] for s in keys])
    pvals = pvals / pvals.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, pvals)
    outcomes = {s: float(k) for s, k in zip(keys, draws) if k > 0}
    return Distribution(ideal.num_bits, outcomes, "counts")


def expectation(d: Distribution, observable) -> float:
    """Sum of p(s) * observable[s] over the support (counts normalized)."""
    p = d.normalized()
    total = 0.0
    for s, v in p.outcomes.items():
        try:
            total += v * float(observable[s])
        except KeyError as exc:
            raise ValueError(f"observable has no value for outcome {s!r}") from exc
    return total
