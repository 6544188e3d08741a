"""Multinomial outcome counts of an exact distillation run, a reference the
tests compare the package against. It takes the package's ``ExactRun``;
the package-independent oracles live in ``perfbench/reference.py``."""

import numpy as np

from cohrand.distill import ExactRun


def sample_exact_outcomes(run: ExactRun, shots: int, seed: int) -> np.ndarray:
    """Measured outcome counts over `shots` repetitions of the subspace
    projection."""
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, run.probabilities / run.probabilities.sum())
