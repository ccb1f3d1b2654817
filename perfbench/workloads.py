"""The benchmark's workloads: the operations one pass runs, made from
the workload seed.

Every workload is a closed loop with one client: the benchmark sends the
next ``locyc`` command only after the previous one returned.  A command
is the argv a user would type after ``locyc``.

Search cost at one prime varies several-fold between search seeds
(p = 53 takes 3 to 24 s), and one ``ladder`` pass already takes about
23 s, so ``ladder`` and ``ladder-2w`` are the fixed ROADMAP ladder at
every workload seed: search seed 1, primes in ascending order.  ``small-p``
draws its search seeds from pools of seeds of similar cost
(``make_data.py`` documents the rule), and ``verify`` orders its stored
certificates by the workload seed.  Workload seed 1 runs search seeds
1..8 on ``small-p``.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

LADDER = (5, 7, 13, 31, 41, 47, 53)
LADDER_FLAGS = ("--d-range", "100000", "--x-window", "16384")
SMALL_P = (5, 7, 11, 13, 17, 19, 23)
SMALL_P_SEEDS_PER_PRIME = 8
LADDER_2W = (41, 47)
LADDER_SEARCH_SEED = 1
# One timing of a sub-second construct varied by up to 20% between runs
# on a shared 2-core VM, so the ladder times its sub-second constructs
# five times back to back and uses the median.
LADDER_REPEATS = {5: 5, 7: 5, 13: 5, 31: 5}

NAMES = ("ladder", "small-p", "verify", "ladder-2w")


@dataclass(frozen=True)
class Op:
    """One operation: ``argv`` without the ``--out`` path of a construct."""

    kind: str  # "construct" or "verify"
    argv: tuple
    p: int
    seed: int
    workers: int = 1
    repeats: int = 1  # timed back to back; the median timing counts

    @property
    def key(self) -> str:
        """(p, seed, config) of a construct, independent of worker count:
        the key of its reference certificate digest."""
        argv = list(self.argv)
        if "--workers" in argv:
            i = argv.index("--workers")
            del argv[i : i + 2]
        return " ".join(argv)


def load_inputs() -> dict:
    with open(DATA / "inputs.json") as fh:
        return json.load(fh)


def load_stored_certificates() -> dict:
    """Stored certificate texts for the verify workload, by "p<P>-s<SEED>"."""
    with gzip.open(DATA / "verify_certs.json.gz", "rt") as fh:
        return json.load(fh)


def _construct(p: int, seed: int, flags=(), workers=None, repeats=1) -> Op:
    argv = ["construct", "--prime", str(p), "--seed", str(seed), *flags]
    if workers is not None:
        argv += ["--workers", str(workers)]
    return Op("construct", tuple(argv), p, seed, workers or 1, repeats)


def construct_ops(name: str, inputs: dict, workload_seed: int) -> list[Op]:
    """The constructs of one pass; every pass runs the same list."""
    if name in ("ladder", "ladder-2w"):
        primes, workers = (LADDER, 1) if name == "ladder" else (LADDER_2W, 2)
        return [
            _construct(p, LADDER_SEARCH_SEED, LADDER_FLAGS, workers, LADDER_REPEATS.get(p, 1))
            for p in primes
        ]
    if name == "small-p":
        ops = []
        for p in SMALL_P:
            if workload_seed == 1:
                seeds = range(1, SMALL_P_SEEDS_PER_PRIME + 1)
            else:
                rng = random.Random(f"small-p-{workload_seed}-{p}")
                seeds = rng.sample(inputs["small_p_pools"][str(p)], SMALL_P_SEEDS_PER_PRIME)
            ops += [_construct(p, s) for s in seeds]
        return ops
    raise ValueError(f"{name} is not a construct workload")


def verify_groups(inputs: dict, workload_seed: int) -> list[list[tuple[int, int]]]:
    """Passes of the verify workload: each group holds one stored
    certificate per ladder prime, and no certificate is in two groups.
    The workload seed fixes the order in which the groups run."""
    groups = [[(p, seed) for p, seed in zip(LADDER, row)] for row in inputs["verify_groups"]]
    if workload_seed != 1:
        random.Random(f"verify-{workload_seed}").shuffle(groups)
    return groups
