"""Seeded inputs of the benchmark's two workloads.

Every function here is a pure function of its seed (the catalogs it reads
are deterministic too), so one seed always yields the same request lists.
The program under test only ever receives the generated spec strings.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List

#: family-batch: distinct specs per batch, from the family of the deepest
#: root of the solver-heavy catalog in ``benchmarks/workloads.py`` (320
#: packages, catalog seed 7).  The catalog stays fixed: redrawing it per
#: seed moved a batch's wall time 3x and its replay latency 15x between
#: seeds, far beyond any regression bound.  14 of the family's 44 specs,
#: drawn in proportion from each stratum of :func:`family_strata`, keep the
#: batch's cost within a few percent from seed to seed, and a traced run
#: (three passes) within three minutes on a slowed host
FAMILY_SPECS = 14
#: family-batch: cache replays of the batch's first spec after each solve,
#: so they sample the whole run rather than one moment of a noisy machine.
#: At least 100 in all, so the p90 has 10 samples beyond it
REPLAYS_PER_SOLVE = 12

#: service-mixed: the seen families come from builtin roots of this closure
#: size with at least ``1 + new specs per family`` candidate specs (six
#: families qualify); unseen families from any root of this size.  Big
#: enough to need real grounding, small enough for a cold base to take
#: about two seconds
SERVICE_CLOSURE = (20, 33)
SERVICE_SEEN_FAMILIES = 5
#: seen specs per family (the root first)
SERVICE_SEEN_SPECS = 2
#: the solving client's repeats of seen specs, new specs in seen families,
#: roots of unseen families and unsatisfiable specs.  Misses come from this
#: one client: two solves at once share one interpreter lock, which doubled
#: a miss's latency whenever the clients' misses happened to overlap.  New
#: specs are three quarters of the misses, so they set the median miss
SERVICE_HITS = 40
SERVICE_NEW = 12
SERVICE_UNSEEN = 2
SERVICE_UNSAT = 2
#: the second client only repeats seen specs, while the first one solves
SERVICE_REPEATS = 200


def _flags(cls) -> List[str]:
    """Unconditional boolean variants that no ``conflicts`` directive of the
    package mentions, so flipping one cannot make a spec unsatisfiable."""
    mentioned = " ".join(
        f"{decl.spec} {decl.when or ''}" for decl in getattr(cls, "conflict_decls", ())
    )
    return sorted(
        name
        for name, decl in cls.variants.items()
        if decl.is_boolean and decl.when is None and name not in mentioned
    )


def family_strata(repo, root: str) -> List[List[str]]:
    """Distinct specs of ``root``'s family (they all share its possible-package
    set), grouped by what they constrain: root variant combinations, then
    per direct dependency its ``^dep@version``, ``^dep+variant`` and
    ``^dep~variant`` pins, or for a virtual its ``^provider`` choices.
    Deep dependencies are left out on purpose: pinning one forces dozens of
    extra optimization steps and makes the batch's cost a lottery."""
    flags = _flags(repo.get(root))
    variants = []
    for signs in itertools.product(("", "+", "~"), repeat=len(flags)):
        text = root + "".join(sign + flag for sign, flag in zip(signs, flags) if sign)
        if text != root:
            variants.append(text)
    strata = [variants]
    for dependency in sorted({decl.name for decl in repo.get(root).dependencies}):
        if repo.is_virtual(dependency):
            strata.append([f"{root} ^{p}" for p in repo.providers_for(dependency)])
            continue
        cls = repo.get(dependency)
        pins = [f"{root} ^{dependency}@{v}" for v in sorted(str(v) for v in cls.versions)]
        for flag in _flags(cls):
            pins.extend((f"{root} ^{dependency}+{flag}", f"{root} ^{dependency}~{flag}"))
        strata.append(pins)
    return [stratum for stratum in strata if stratum]


def stratified_sample(strata: List[List[str]], count: int, rng: random.Random) -> List[str]:
    """``count`` items drawn in proportion from every stratum: each stratum
    shuffled, all laid end to end, then every ``len / count``-th item from a
    random start (systematic sampling), in random order.  A stratum's share
    differs from proportional by less than one item, so strata of costly
    specs weigh the same in every draw."""
    ordered = [item for stratum in strata for item in rng.sample(stratum, len(stratum))]
    if count > len(ordered):
        raise ValueError(f"cannot draw {count} of {len(ordered)} items")
    step = len(ordered) / count
    start = rng.random() * step
    chosen = [ordered[int(start + index * step)] for index in range(count)]
    rng.shuffle(chosen)
    return chosen


def family_batch(seed: int) -> Dict[str, object]:
    """Specs of one family-batch run: the solver-heavy root, then a seeded
    stratified draw from its family."""
    from benchmarks.workloads import SOLVER_HEAVY_ROOT, solver_heavy_repo

    root = SOLVER_HEAVY_ROOT
    strata = family_strata(solver_heavy_repo(), root)
    specs = [root] + stratified_sample(strata, FAMILY_SPECS - 1, random.Random(seed))
    return {"catalog": "solver-heavy", "root": root, "specs": specs}


def _by_closure(repo, low: int, high: int) -> List[str]:
    return [
        name
        for name in repo.all_package_names()
        if low <= len(repo.possible_dependencies(name)) <= high
    ]


def _families(repo, names: List[str], rng: random.Random, count: int, taken: set) -> List[str]:
    """``count`` roots drawn from ``names`` whose possible-package sets differ
    from each other and from ``taken`` (roots on one dependency cycle, such
    as python, gettext and libxml2, share a family and so a grounded base)."""
    chosen: List[str] = []
    for name in rng.sample(names, len(names)):
        family = frozenset(repo.possible_dependencies(name))
        if family not in taken:
            taken.add(family)
            chosen.append(name)
            if len(chosen) == count:
                return chosen
    raise ValueError(f"fewer than {count} distinct families among {len(names)} roots")


def batch_requests(specs: List[str]) -> List[str]:
    """Each spec in turn, every one followed by ``REPLAYS_PER_SOLVE``
    replays of the first spec; only a spec's first request solves."""
    requests: List[str] = []
    for spec in specs:
        requests.append(spec)
        requests.extend([specs[0]] * REPLAYS_PER_SOLVE)
    return requests


def service_candidates(repo, root: str) -> List[str]:
    """New specs in ``root``'s family: explicit versions and single
    variant flips of the root.  A flip that turns on a dependency leading
    back to the root (``libxml2+python``: python needs gettext, which needs
    libxml2) would be unsatisfiable, so it is left out."""
    cls = repo.get(root)
    candidates = [f"{root}@{v}" for v in sorted(str(v) for v in cls.versions)]
    for flag in _flags(cls):
        default = cls.variants[flag].default
        flip = f"{'~' if default in (True, 'true') else '+'}{flag}"
        cycle = any(
            decl.when is not None
            and flip in str(decl.when)
            and not repo.is_virtual(decl.name)
            and root in repo.possible_dependencies(decl.name)
            for decl in cls.dependencies
        )
        if not cycle:
            candidates.append(root + flip)
    return candidates


def service_mixed(seed: int) -> Dict[str, object]:
    """Seen specs and per-client request lists of one service-mixed run.

    Each request is ``{"spec", "kind"}`` with kind ``hit`` (a seen spec,
    answered from the cache), ``new`` (a new spec in a seen family:
    snapshot attach, solve, write), ``unseen`` (the root of a family
    nothing has grounded: cold base) or ``unsat`` (422 with a conflict
    core).  Only the first client sends specs that miss, so which request
    misses never depends on how the clients interleave."""
    from repro.spack.repo import builtin_repository

    repo = builtin_repository()
    rng = random.Random(seed)
    new_per_family = -(-SERVICE_NEW // SERVICE_SEEN_FAMILIES)
    wanted = SERVICE_SEEN_SPECS - 1 + new_per_family
    roots = _by_closure(repo, *SERVICE_CLOSURE)
    pool = [root for root in roots if len(service_candidates(repo, root)) >= wanted]
    taken: set = set()
    seen_families = _families(repo, pool, rng, SERVICE_SEEN_FAMILIES, taken)
    unseen = _families(repo, roots, rng, SERVICE_UNSEEN, taken)
    seen: List[str] = []
    fresh: List[str] = []
    for root in seen_families:
        drawn = rng.sample(service_candidates(repo, root), wanted)
        seen.append(root)
        seen.extend(drawn[: SERVICE_SEEN_SPECS - 1])
        fresh.extend(drawn[SERVICE_SEEN_SPECS - 1 :])
    solving = [{"spec": rng.choice(seen), "kind": "hit"} for _ in range(SERVICE_HITS)]
    solving += [{"spec": spec, "kind": "new"} for spec in rng.sample(fresh, SERVICE_NEW)]
    solving += [{"spec": root, "kind": "unseen"} for root in unseen]
    solving += [
        {"spec": f"{seen_families[k % len(seen_families)]}@0.0.{k + 1}", "kind": "unsat"}
        for k in range(SERVICE_UNSAT)
    ]
    rng.shuffle(solving)
    repeating = [{"spec": rng.choice(seen), "kind": "hit"} for _ in range(SERVICE_REPEATS)]
    return {
        "catalog": "builtin",
        "seen": seen,
        "clients": [solving, repeating],
        "unseen_families": len(unseen),
    }
