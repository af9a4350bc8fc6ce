"""Property-based tests for the synthetic repository generator (hypothesis).

The generator is the substrate of every scaling benchmark and of the unsat
scenario harness, so its structural guarantees are load-bearing:

* **determinism** — one seed, one catalog: two fresh builders with the same
  parameters produce byte-identical repositories (content hash) and the
  same planted ground truth;
* **acyclicity** — dependencies only ever point to strictly lower layers,
  so the dependency graph is a DAG by construction;
* **RNG-free planting** — turning unsat injection on (or omitting a planted
  member) never perturbs the regular catalog;
* **sharded == monolithic** — partitioning a generated catalog into shards
  concretizes element-wise identically to the flat repository.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.spack.concretize import ConcretizationSession, Concretizer, SessionConfig
from repro.spack.concretize.session import clear_shared_bases
from repro.spack.generator import SyntheticRepoBuilder, generate_repository
from repro.spack.repo import RepositoryShard, ShardedRepository

# small catalogs keep each example fast; structure does not depend on size
builder_params = st.fixed_dictionaries(
    {
        "num_packages": st.integers(min_value=4, max_value=60),
        "max_dependencies": st.integers(min_value=0, max_value=5),
        "layers": st.integers(min_value=2, max_value=6),
        "mpi_fraction": st.floats(min_value=0.0, max_value=1.0),
        "conditional_fraction": st.floats(min_value=0.0, max_value=1.0),
        "num_providers": st.integers(min_value=1, max_value=3),
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
    }
)


def package_signature(cls):
    """Everything the encoder reads from one package class."""
    return (
        cls.name,
        tuple(sorted(str(v) for v in cls.versions)),
        tuple(sorted(cls.variants)),
        tuple(sorted((d.name, str(d.spec), str(d.when)) for d in cls.dependencies)),
        tuple(sorted(str(c.spec) for c in cls.conflict_decls)),
        tuple(sorted(p.name for p in cls.provided)),
    )


def repo_signature(repo):
    return tuple(package_signature(repo.get(name)) for name in repo.all_package_names())


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(builder_params)
def test_same_seed_same_catalog(params):
    """Two *fresh* builders (the RNG is consumed by build) agree exactly."""
    first = SyntheticRepoBuilder(**params)
    second = SyntheticRepoBuilder(**params)
    assert first.build().content_hash() == second.build().content_hash()


@settings(max_examples=25, deadline=None)
@given(builder_params, st.integers(min_value=1, max_value=3))
def test_planting_is_rng_free(params, unsat_packages):
    """Unsat injection must not consume RNG draws: the regular catalog is
    identical with the knob on or off, and planted ground truth is itself
    deterministic per seed."""
    plain = SyntheticRepoBuilder(**params).build()
    poisoned_builder = SyntheticRepoBuilder(
        **params, unsat_packages=unsat_packages, unsat_conflicts=3
    )
    poisoned = poisoned_builder.build()

    assert len(poisoned_builder.planted) == unsat_packages
    regular = [n for n in poisoned.all_package_names() if not n.startswith("synth-unsat-")]
    assert regular == list(plain.all_package_names())
    for name in regular:
        assert package_signature(poisoned.get(name)) == package_signature(plain.get(name))

    replay = SyntheticRepoBuilder(**params, unsat_packages=unsat_packages, unsat_conflicts=3)
    assert replay.build().content_hash() == poisoned.content_hash()
    assert replay.planted == poisoned_builder.planted


@settings(max_examples=15, deadline=None)
@given(builder_params)
def test_omission_touches_only_the_targeted_directive(params):
    full_builder = SyntheticRepoBuilder(**params, unsat_packages=1, unsat_conflicts=3)
    full = full_builder.build()
    planted = full_builder.planted["synth-unsat-0000"]
    omitted_spec = planted.conflict_specs[1]
    relaxed_builder = SyntheticRepoBuilder(
        **params,
        unsat_packages=1,
        unsat_conflicts=3,
        omit_planted=[("synth-unsat-0000", omitted_spec)],
    )
    relaxed = relaxed_builder.build()

    for name in full.all_package_names():
        if name == "synth-unsat-0000":
            continue
        assert package_signature(relaxed.get(name)) == package_signature(full.get(name))
    remaining = {str(c.spec) for c in relaxed.get("synth-unsat-0000").conflict_decls}
    assert remaining == set(planted.conflict_specs) - {omitted_spec}
    assert relaxed_builder.planted["synth-unsat-0000"].conflict_specs == tuple(
        s for s in planted.conflict_specs if s != omitted_spec
    )


# ---------------------------------------------------------------------------
# DAG structure
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(builder_params)
def test_dependencies_point_to_strictly_lower_layers(params):
    """Layered generation is what makes the catalog a DAG; verify the
    invariant directly and, as a corollary, acyclicity via topological
    ordering by layer."""
    builder = SyntheticRepoBuilder(**params)
    repo = builder.build()

    def layer_of(name: str) -> int:
        index = int(name.rsplit("-", 1)[1])
        return index * builder.layers // max(1, builder.num_packages)

    for name in repo.all_package_names():
        if not name.startswith("synth-0") and not name.startswith("synth-1"):
            if name.startswith("synth-mpi-") or name.startswith("synth-unsat-"):
                continue
        layer = layer_of(name)
        for dependency in repo.get(name).dependencies:
            if dependency.name == "mpi":
                # virtual edges resolve to the layer-0 providers
                assert layer >= builder.layers // 2
                continue
            assert layer_of(dependency.name) < layer, (name, dependency.name)


@settings(max_examples=25, deadline=None)
@given(builder_params)
def test_layer_zero_has_no_concrete_dependencies(params):
    builder = SyntheticRepoBuilder(**params)
    repo = builder.build()
    first_layer = [
        name
        for name in repo.all_package_names()
        if name.startswith("synth-")
        and not name.startswith(("synth-mpi-", "synth-unsat-"))
        and int(name.rsplit("-", 1)[1]) * builder.layers // max(1, builder.num_packages) == 0
    ]
    for name in first_layer:
        assert [d for d in repo.get(name).dependencies if d.name != "mpi"] == []


# ---------------------------------------------------------------------------
# Sharded == monolithic oracle
# ---------------------------------------------------------------------------


def result_signature(result):
    return (
        str(result.spec),
        sorted(str(s) for s in result.specs.values()),
        sorted(result.built),
    )


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=4))
def test_sharded_partition_matches_monolithic(seed, shard_count):
    """Any contiguous partition of a generated catalog into shards solves
    element-wise identically to the flat repository."""
    flat = generate_repository(num_packages=24, max_dependencies=3, layers=4, seed=seed)
    names = list(flat.all_package_names())
    by_name = {name: flat.get(name) for name in names}
    chunk = max(1, len(names) // shard_count)
    shards = [
        RepositoryShard(f"part{i}", [by_name[n] for n in names[start : start + chunk]])
        for i, start in enumerate(range(0, len(names), chunk))
    ]
    sharded = ShardedRepository(name="synthetic", shards=shards)
    provider_names = [n for n in names if n.startswith("synth-mpi-")]
    sharded.set_provider_preference("mpi", provider_names)

    # the top-layer packages exercise the deepest dependency closures
    probes = [n for n in names if n.startswith("synth-0")][-3:]
    clear_shared_bases()
    session = ConcretizationSession(
        repo=sharded, session_config=SessionConfig(share_ground_cache=False)
    )
    for spec, result in zip(probes, session.solve(probes)):
        sequential = Concretizer(repo=flat).solve([spec])
        assert result_signature(result) == result_signature(sequential), spec
