"""Independent reference formulas that tests compare the package against:
the binary entropy H(p) in closed form and multinomial outcome counts of an
exact distillation run. Neither shares code with ``cohrand``."""

import math

import numpy as np

from cohrand.distill import ExactRun


def binary_entropy(p: float) -> float:
    """H(p) in bits with the 0 log 0 = 0 convention."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def sample_exact_outcomes(run: ExactRun, shots: int, seed: int) -> np.ndarray:
    """Measured outcome counts over `shots` repetitions of the subspace
    projection."""
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, run.probabilities / run.probabilities.sum())
