"""Seeded inputs for every workload.

Nothing here imports the program under test: a schedule is plain data
made from ``--seed``, so one seed gives the same inputs on any commit.
"""
from __future__ import annotations

import random
from typing import Dict, Iterator, List, NamedTuple, Tuple

#: each backend runs on the platform the paper pairs it with
BACKENDS: Dict[str, str] = {"trt-sim": "a100", "ort-sim": "xeon6330",
                            "ov-sim": "xeon6330"}

#: profile-cold: zoo models from ~150 to ~1100 nodes.  Every round
#: profiles each of them once on every backend, so the size mix, and
#: swin-small (the 1114-node case), is the same for every seed; the
#: seed picks the order, the precision and the batch of each operation.
PROFILE_POOL = ("mobilenetv2-10", "resnet50", "efficientnet-b0", "vit-tiny",
                "swin-tiny", "swin-small")
PROFILE_PRECISIONS = ("fp16", "fp32")
PROFILE_BATCHES = (1, 8)

#: warm-up requests, outside every measured key space
WARMUP_MODEL = "mobilenetv2-05"
WARMUP_BATCHES = tuple(range(64, 80))

#: service-*: request keys are model x backend x precision x batch
SERVICE_MODELS = ("resnet34", "resnet50", "mobilenetv2-10",
                  "shufflenetv2-10-mod", "efficientnet-b0")
SERVICE_PRECISIONS = ("fp16", "fp32", "int8")
#: the open-loop rate ladder, requests per second, one rung each
#: ``seconds / len(RUNG_RATES)``.  The top rungs reach past what the
#: thread tier serves of this mix on a busy 2-CPU host, so goodput can
#: move both ways and the backlog can grow; the fleet falls behind only
#: at the top rung
RUNG_RATES = (10.0, 30.0, 60.0, 120.0)
#: each rung draws from its own batch sizes, so every rung starts cold
BATCHES_PER_RUNG = 3
#: what each successive request for one model within a rung asks for: a
#: new graph (a cold profile), a sibling of the model's latest key at
#: another precision (the assemble path) or on another backend (the
#: shape and AR tiers hit), or an exact repeat of one of the model's
#: earlier keys (a result-cache hit).  A
#: fixed pattern keeps the work of a rung the same for every seed; with
#: 2 repeats in 7 the median request is a profile, not a cache hit.
REQUEST_PATTERN = ("new", "repeat", "precision", "backend", "precision",
                   "repeat", "backend")
#: Zipf exponent of key popularity among a model's keys: a repeat picks
#: the model's k-th distinct key (oldest first) with weight 1/k**ZIPF_S
ZIPF_S = 1.1

#: plan-exec: zoo CNNs whose O0 output is finite and whose O2/O3 output
#: meets O2's tolerance for most inputs, at the reduced input the plan
#: benchmarks use.  (mobilenetv2-05 misses the tolerance on every input
#: tried, so shufflenetv2-05 takes its place.)
PLAN_MODELS = ("shufflenetv2-05", "shufflenetv2-10", "efficientnet-b0")
PLAN_LEVELS = (2, 3)
PLAN_IMAGE_SIZE = 64
#: synthetic weights are part of the model, not of the input
PLAN_WEIGHT_SEED = 0
#: feed seeds the oracle screens; a run draws its feeds from the ones
#: within tolerance (``oracle/plan.json``)
PLAN_FEED_SEEDS = tuple(range(32))


class Key(NamedTuple):
    """One profiling request: what the digest oracle is keyed by."""

    model: str
    backend: str
    precision: str
    batch: int

    def __str__(self) -> str:
        return f"{self.model}|{self.backend}|{self.precision}|{self.batch}"


class Request(NamedTuple):
    """One open-loop arrival: ``due`` seconds after the schedule starts."""

    index: int
    rung: int
    due: float
    key: Key


def profile_rounds(seed: int) -> Iterator[List[Key]]:
    """Endless rounds of profile-cold operations."""
    rng = random.Random(seed)
    while True:
        ops = [Key(model, backend, rng.choice(PROFILE_PRECISIONS),
                   rng.choice(PROFILE_BATCHES))
               for model in PROFILE_POOL for backend in BACKENDS]
        rng.shuffle(ops)
        yield ops


def rung_batches(rung: int) -> Tuple[int, ...]:
    first = 1 + rung * BATCHES_PER_RUNG
    return tuple(range(first, first + BATCHES_PER_RUNG))


def _model_keys(rng: random.Random, model: str, rung: int, count: int,
                earlier: List[Key]) -> List[Key]:
    """``count`` requests for one model in one rung, following
    :data:`REQUEST_PATTERN`.  A repeat asks for one of the model's keys
    from ``earlier`` rungs, which have normally completed, so it is a
    result-cache hit rather than a timing-dependent dedup; rung 0
    repeats its own keys."""
    batches = list(rung_batches(rung))
    rng.shuffle(batches)
    keys: List[Key] = []
    latest = None
    graphs = 0
    for j in range(count):
        kind = REQUEST_PATTERN[j % len(REQUEST_PATTERN)]
        if kind == "repeat":
            distinct = earlier or list(dict.fromkeys(keys))
            weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(distinct))]
            keys.append(rng.choices(distinct, weights=weights)[0])
            continue
        if kind == "new":
            latest = Key(model, rng.choice(list(BACKENDS)),
                         rng.choice(SERVICE_PRECISIONS),
                         batches[graphs % len(batches)])
            graphs += 1
        else:
            field = "precision" if kind == "precision" else "backend"
            values = SERVICE_PRECISIONS if kind == "precision" \
                else tuple(BACKENDS)
            fresh = [latest._replace(**{field: v}) for v in values
                     if latest._replace(**{field: v}) not in keys]
            latest = rng.choice(fresh) if fresh else latest
        keys.append(latest)
    return keys


def service_schedule(seed: int, seconds: float) -> List[Request]:
    """The open-loop request schedule of both service workloads."""
    rng = random.Random(seed)
    rung_seconds = seconds / len(RUNG_RATES)
    requests: List[Request] = []
    seen: Dict[str, List[Key]] = {m: [] for m in SERVICE_MODELS}
    for rung, rate in enumerate(RUNG_RATES):
        count = max(1, round(rate * rung_seconds))
        # the multiset of keys a rung asks for is the same for every
        # seed, so every seed offers the same work; the seed draws the
        # arrival order
        fixed = random.Random(f"rung-{rung}")
        shares = {m: count // len(SERVICE_MODELS) for m in SERVICE_MODELS}
        for model in fixed.sample(SERVICE_MODELS,
                                  count % len(SERVICE_MODELS)):
            shares[model] += 1
        keys = []
        for model in SERVICE_MODELS:
            mine = _model_keys(fixed, model, rung, shares[model],
                               list(seen[model]))
            seen[model] += [k for k in dict.fromkeys(mine)
                            if k not in seen[model]]
            keys += mine
        # a key's first arrival is its cold request, later ones repeat
        rng.shuffle(keys)
        # one Poisson draw conditioned on its count (uniform arrival
        # times, so every rung offers exactly its rate), shared by all
        # seeds: the seed decides which request takes which arrival
        times = sorted(fixed.uniform(0.0, rung_seconds) for _ in range(count))
        requests.extend(Request(0, rung, rung * rung_seconds + t, key)
                        for t, key in zip(times, keys))
    return [r._replace(index=i) for i, r in enumerate(requests)]


def plan_feed_seeds(seed: int,
                    checked: Dict[str, List[int]]) -> Dict[str, int]:
    """The feed seed each plan-exec model runs with."""
    rng = random.Random(seed)
    return {model: rng.choice(checked[model]) for model in PLAN_MODELS}


def plan_rounds(seed: int) -> Iterator[List[Tuple[str, int]]]:
    """Endless rounds of plan-exec operations: every (model, level) once."""
    rng = random.Random(seed + 1)
    pairs = [(model, level) for model in PLAN_MODELS for level in PLAN_LEVELS]
    while True:
        rng.shuffle(pairs)
        yield list(pairs)


def drawable_keys() -> List[Key]:
    """Every request any workload can make, warm-ups included."""
    keys = {Key(m, b, p, n) for m in PROFILE_POOL for b in BACKENDS
            for p in PROFILE_PRECISIONS for n in PROFILE_BATCHES}
    keys |= {Key(m, b, p, n) for rung in range(len(RUNG_RATES))
             for m in SERVICE_MODELS for b in BACKENDS
             for p in SERVICE_PRECISIONS for n in rung_batches(rung)}
    keys |= {Key(WARMUP_MODEL, b, "fp16", 1) for b in BACKENDS}
    keys |= {Key(WARMUP_MODEL, "trt-sim", "fp16", n) for n in WARMUP_BATCHES}
    return sorted(keys)
