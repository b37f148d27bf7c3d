"""Workload definitions: scenario parameters drawn from the workload seed,
rendered as oscidec config files.

Within one workload every scenario has the same cost: only parameters that
leave the amount of work unchanged are drawn (temperatures, couplings,
separations, signs).  Sizes (bath modes, grid length, cutoffs, basis size)
are fixed per workload.  Generated configs set physics keys only; they never
set `run.workers`, `run.seed`, `run.decompositions` or `master.dt`.

This module imports neither NumPy nor oscidec.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# Distinct scenarios generated per seed; runs cycle through them in order.
POOL_SIZE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # oscidec subcommand
    round_size: int       # scenarios per round; a run attempts whole rounds


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in [
        Workload("chain_compare", "compare", 1),
        Workload("oracle_crosscheck", "oracle", 1),
        Workload("master_dephasing", "master-eq", 2),
    ]
}

# Fixed sizes: (full, quick).  Quick mode runs every workload at the smallest
# size that still exercises the same code paths and passes the same checks.
SIZES = {
    "chain_compare": ({"bath_n": 32, "t_steps": 201},
                      {"bath_n": 4, "t_steps": 21}),
    "oracle_crosscheck": ({"dim": 16}, {"dim": 12}),
    "master_dephasing": ({"dim": 64}, {"dim": 16}),
}


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _chain(rng: random.Random, size: dict) -> dict:
    a = _u(rng, 2.0, 4.0)
    c = _u(rng, 0.15, 0.35)
    return {
        "model.kind": "caldeira_leggett",
        "model.potential": "harmonic",
        "model.m_s": 1.0,
        "model.omega_s": 1.0,
        "model.coupling_sign": rng.choice((-1, 1)),
        "bath.kind": "ohmic",
        "bath.n": size["bath_n"],
        "bath.omega_cutoff": 5.0,
        "bath.eta": _u(rng, 0.04, 0.095),
        "state.temperature": _u(rng, 5.0, 15.0),
        "state.alpha_x": a,
        "state.beta_x": -a,
        "state.cm_alpha_x": c,
        "state.cm_beta_x": -c,
        "run.t_max": 2.0,
        "run.t_steps": size["t_steps"],
    }


def _oracle(rng: random.Random, size: dict) -> dict:
    return {
        "model.kind": "two_mode",
        "model.m_s": 1.0,
        "model.m_e": 1.0,
        "model.omega": 1.0,
        "model.coupling": _u(rng, 0.15, 0.3),
        "run.t_max": 5.0,
        "run.t_steps": 26,
        "oracle.dim": size["dim"],
        "oracle.x0": _u(rng, 0.3, 0.4),
        "oracle.negativity_time": _u(rng, 0.4, 1.0),
    }


def _master(rng: random.Random, size: dict, variant: str) -> dict:
    return {
        "model.kind": "two_mode",
        "model.m_s": 1.0,
        "model.omega_s": _u(rng, 0.8, 1.2),
        "master.variant": variant,
        "master.lam": _u(rng, 0.1, 0.5),
        "master.dim": size["dim"],
        "master.t_max": 0.5,
        "master.t_steps": 11,
        "master.x0": _u(rng, 1.0, 2.0),
    }


def scenario_pool(workload: str, seed: int, quick: bool = False) -> list[dict]:
    """The POOL_SIZE scenario parameter sets of one workload and seed.

    The pool length is a multiple of the workload's round size, so cycling
    through it keeps every round identical in shape.
    """
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[workload][1 if quick else 0]
    if workload == "chain_compare":
        return [_chain(rng, size) for _ in range(POOL_SIZE)]
    if workload == "oracle_crosscheck":
        return [_oracle(rng, size) for _ in range(POOL_SIZE)]
    if workload == "master_dephasing":
        return [_master(rng, size, ("none", "harmonic")[i % 2])
                for i in range(POOL_SIZE)]
    raise KeyError(workload)


def config_text(params: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in params.items())
