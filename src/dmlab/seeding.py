"""Deterministic seed streams and the chunked Monte-Carlo loop.

Every stochastic routine takes an explicit 64-bit seed.  Parallel work is
partitioned by index: `child_seed(master, index)` derives an independent
stream per trial, so results are reproducible for a fixed master seed
regardless of scheduling or thread count.  Monte-Carlo estimators draw their
samples in chunks of `MC_CHUNK` and reduce the chunks in order, so a fixed
seed gives bit-identical output.  Two checks are shared by the public entry
points: `_check_count`, of a count argument (an integer, not a bool, in
range), and `_check_matrix`, of a matrix argument (2-D, nonempty, finite).
"""

from __future__ import annotations

import math

import numpy as np

_U64 = np.uint64
MC_CHUNK = 4096


def child_seed(master: int, index: int) -> int:
    """Derived 64-bit seed for sub-stream `index` of stream `master`."""
    for x in (master, index):
        _check_count(x, "seeds and trial indices must be nonnegative integers", low=0)
    ss = np.random.SeedSequence([int(master), int(index)])
    return int(ss.generate_state(1, _U64)[0])


def _check_count(x, message: str, low: int = 1, high: float = math.inf) -> int:
    """`x` as an int if it is an integer in [low, high] and not a bool; else ValueError(message)."""
    if isinstance(x, bool) or not (isinstance(x, (int, np.integer)) and low <= x <= high):
        raise ValueError(message)
    return int(x)


def _check_matrix(x, name: str) -> np.ndarray:
    """`x` as a float array if it is 2-D, nonempty and finite; else ValueError naming it."""
    X = np.asarray(x, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"{name} must be nonempty and 2-D, not of shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} must be finite, with no NaN or infinity")
    return X


def mc_chunks(trials: int, draw):
    """Yield `draw(count)` for consecutive chunks of at most MC_CHUNK samples."""
    done = 0
    while done < trials:
        count = min(MC_CHUNK, trials - done)
        yield draw(count)
        done += count


def mc_mean(trials: int, draw) -> tuple[float, float]:
    """Sample mean of `trials` values drawn chunkwise, and its standard error."""
    total = total_sq = 0.0
    for vals in mc_chunks(trials, draw):
        total += vals.sum()
        total_sq += (vals**2).sum()
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean**2) / max(trials - 1, 1))
    return mean, math.sqrt(var / trials)
