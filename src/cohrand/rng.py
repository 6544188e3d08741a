"""Measurement sampling and a seeded Toeplitz extractor.

Demonstrates, at desk scale, that extracting classical randomness after
measuring matches distilling the state first and measuring maximally
coherent copies directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import toeplitz_gf2
from .errors import RateOutOfRange
from .distill import distill_simulate
from .states import (
    OutcomeStream,
    PureState,
    _checked_probabilities,
    _draw_outcomes,
    shannon_entropy,
)

RATE_MARGIN = 0.02


@dataclass(frozen=True)
class ExtractionReport:
    input_length: int
    output_length: int
    target_rate: float
    monobit_z: float


@dataclass(frozen=True)
class PipelineComparison:
    path_a_bits: int
    path_b_bits: int
    path_a_monobit_z: float
    path_b_monobit_z: float
    relative_difference: float
    lengths_agree: bool  # within 5 percent
    target_rate: float
    distill_yield: float


def monobit_z(bits: np.ndarray) -> float:
    """Normalized deviation of the ones-frequency from 1/2."""
    n = len(bits)
    if n == 0:
        return 0.0
    return float((2.0 * np.sum(bits) - n) / math.sqrt(n))


def sample_measurement(psi: PureState, n: int, seed: int) -> OutcomeStream:
    """n i.i.d. draws from the Born distribution |a_i|^2 via inverse CDF."""
    if n < 1:
        raise ValueError("need n >= 1")
    symbols = _draw_outcomes(psi.probabilities(), n, seed)
    return OutcomeStream(symbols.astype(np.int64, copy=False), psi.dim, seed)


def min_entropy(p) -> float:
    """H_min = -log2 max p_i of a checked probability vector; a stricter
    alternative rate target."""
    return float(-np.log2(_checked_probabilities(p).max()))


def toeplitz_extract(stream: OutcomeStream, rate: float, seed: int):
    """Hash a binary stream through a seeded random Toeplitz matrix over
    GF(2); output length is floor(rate * input length)."""
    if stream.source_dim != 2:
        raise ValueError("extraction operates on binary streams")
    if not 0.0 < rate <= 1.0:
        raise RateOutOfRange(f"rate must be in (0, 1], got {rate}")
    symbols = stream.symbols
    in_len = len(symbols)
    if in_len == 0:
        raise ValueError("empty stream")
    # Checked before the uint8 cast, which would wrap 256 to 0.
    if symbols.min() < 0 or symbols.max() > 1:
        raise ValueError("extraction needs symbols in the binary alphabet {0, 1}")
    bits = np.ascontiguousarray(symbols, dtype=np.uint8)
    out_len = int(math.floor(in_len * rate))
    rng = np.random.default_rng(seed)
    diag = rng.integers(0, 2, size=out_len + in_len - 1, dtype=np.uint8)
    out_bits = toeplitz_gf2(diag, bits, out_len)
    report = ExtractionReport(in_len, out_len, rate, monobit_z(out_bits))
    return OutcomeStream(out_bits, 2, seed), report


def pipeline_compare(
    psi: PureState,
    n_groups: int,
    group_n: int,
    seed: int,
    entropy_mode: str = "shannon",
) -> PipelineComparison:
    """Path A: measure every copy, then hash down at (entropy - RATE_MARGIN)
    bits per copy, the entropy being Shannon's or, for "min", the min-entropy.
    Path B: distill first, then measure the maximally coherent copies.

    Both paths consume n_groups * group_n copies of psi; the comparison
    reports each path's output length in bits and its monobit statistic;
    path A's is the rate target times its input, not an epsilon-secure length.
    """
    if psi.dim != 2:
        raise ValueError("pipeline comparison is defined for qubit sources")
    p = psi.probabilities()
    if entropy_mode == "shannon":
        target = shannon_entropy(p)
    elif entropy_mode == "min":
        target = min_entropy(p)
    else:
        raise ValueError(f"unknown entropy mode {entropy_mode!r}")
    n_total = n_groups * group_n
    rate = max(target - RATE_MARGIN, 0.0)

    rng = np.random.default_rng(seed)
    seed_sample, seed_extract, seed_distill, seed_measure = rng.integers(0, 2**63, size=4)

    if rate > 0.0:
        raw = sample_measurement(psi, n_total, int(seed_sample))
        # The hash reads uint8 bits: the int64 samples are not kept through it.
        raw = OutcomeStream(raw.symbols.astype(np.uint8), 2, raw.seed)
        _, report_a = toeplitz_extract(raw, rate, int(seed_extract))
        a_bits = report_a.output_length
        z_a = report_a.monobit_z
    else:
        a_bits = 0
        z_a = 0.0

    report_b = distill_simulate(psi, group_n, n_groups, int(seed_distill))
    b_bits = report_b.r
    z_b = monobit_z(np.random.default_rng(int(seed_measure)).integers(0, 2, b_bits, np.uint8))

    denom = max(a_bits, b_bits)
    rel = abs(a_bits - b_bits) / denom if denom > 0 else 0.0
    return PipelineComparison(
        path_a_bits=a_bits,
        path_b_bits=b_bits,
        path_a_monobit_z=z_a,
        path_b_monobit_z=z_b,
        relative_difference=rel,
        lengths_agree=rel <= 0.05,
        target_rate=rate,
        distill_yield=report_b.yield_rate,
    )
