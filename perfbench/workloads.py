"""The benchmark's workloads: one dmlab experiment config each.

Every workload is a config for `dmlab.runner.run_experiment`; the benchmark
only supplies the master seed.  The sizes are chosen so that one sweep at one
worker takes a few seconds on a 2-core machine and no trial fails on any seed
(see README.md for why each one is here and which layer it loads).
"""

from __future__ import annotations

import copy

import numpy as np

WORKLOADS = {
    # The paper's headline experiment: the acceptance `product` sweep with
    # 2 trials per n instead of 30.  d = floor(2 ln n), m = 2n.
    "product_linf": {
        "experimentKind": "productUniform",
        "body": {"kind": "LpBall", "p": "inf"},
        "schedule": [256, 1024, 4096],
        "dRule": {"rule": "logN", "c": 2.0},
        "mRule": {"rule": "multipleOfN", "c": 2.0},
        "trials": 2,
        "distortionMethod": {"method": "exactRowNorm", "starts": 64},
    },
    # rho < 1/2 keeps the bracket finite.  d = 2: on the circle an uncovered
    # gap needs both a missed candidate arc and a probe inside it, so the
    # probed covering radius exceeds rho with probability of order
    # probes / budget^2, and no trial fails on any seed.  At d = 3 the
    # estimate exceeds rho on about 1% of seeds even at a budget of 2e5.
    "net_certified": {
        "experimentKind": "productLogConcave",
        "body": {"kind": "LpBall", "p": "inf"},
        "schedule": [512, 1024],
        "dRule": {"rule": "fixed", "d": 2},
        "mRule": {"rule": "multipleOfN", "c": 2.0},
        "trials": 8,
        "distortionMethod": {"method": "netCertified", "rho": 0.3,
                             "candidateBudget": 400000},
    },
    # floor(theta * m) = floor(4.5) = 4, so the greedy swap search of the
    # sparse half of event A runs at k = 4 instead of the trivial k = 1.
    "event_sparse": {
        "experimentKind": "eventAFrequency",
        "body": {"kind": "LpBall", "p": 2},
        "schedule": [512],
        "dRule": {"rule": "fixed", "d": 16},
        "mRule": {"rule": "fixed", "m": 512},
        "trials": 8,
        "ensembles": {"col": "UniformIsotropic"},
        "constants": {"theta": 4.5 / 512, "delta": 0.2, "kappa1": 2.0, "restarts": 20},
    },
    "process_sandbox": {
        "experimentKind": "processSandbox",
        "schedule": [1],
        "dRule": {"rule": "fixed", "d": 1},
        "trials": 24,
        "process": {"setSize": 256, "setDim": 32, "innerTrials": 50000,
                    "supTrials": 40000},
    },
}


def round_seed(seed: int, index: int) -> int:
    """Master seed of round `index` of a run started with `--seed seed`.

    Each round of a run sweeps fresh inputs, so a run's median averages over
    several draws instead of repeating one draw's amount of work.
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def workload_config(name: str, seed: int) -> dict:
    """The config of workload `name` with master seed `seed`."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return {**copy.deepcopy(WORKLOADS[name]), "masterSeed": seed}
