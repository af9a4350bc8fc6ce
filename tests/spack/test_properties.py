"""Property-based tests for the Spack layer (hypothesis)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.spack.errors import SpecSyntaxError
from repro.spack.spec import Spec
from repro.spack.spec_parser import parse_spec
from repro.spack.version import Version, VersionRange, parse_version_constraint

# ---------------------------------------------------------------------------
# Versions
# ---------------------------------------------------------------------------

version_strings = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=4
).map(lambda parts: ".".join(str(p) for p in parts))


@given(version_strings, version_strings)
def test_version_ordering_is_total_and_antisymmetric(a, b):
    va, vb = Version(a), Version(b)
    assert (va < vb) + (vb < va) + (va == vb) == 1


@given(st.lists(version_strings, min_size=1, max_size=8))
def test_version_sorting_is_consistent(strings):
    versions = sorted(Version(s) for s in strings)
    for earlier, later in zip(versions, versions[1:]):
        assert earlier <= later
        assert not later < earlier


@given(version_strings)
def test_version_equals_itself_and_roundtrips(text):
    version = Version(text)
    assert Version(str(version)) == version
    assert version.satisfies(version)


@given(version_strings, version_strings)
def test_range_includes_its_endpoints(low, high):
    vlow, vhigh = sorted((Version(low), Version(high)))
    version_range = VersionRange(vlow, vhigh)
    assert version_range.includes(vlow)
    assert version_range.includes(vhigh)


@given(version_strings, version_strings)
def test_open_ranges_partition_versions(pivot, probe):
    at_least = parse_version_constraint(f"{pivot}:")
    at_most = parse_version_constraint(f":{pivot}")
    version = Version(probe)
    # every version satisfies at least one side of the split
    assert at_least.includes(version) or at_most.includes(version)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

package_names = st.sampled_from(["hdf5", "zlib", "mpich", "petsc", "kokkos"])
variant_names = st.sampled_from(["mpi", "shared", "cuda", "openmp", "hl"])
compiler_names = st.sampled_from(["gcc", "clang", "intel"])


@st.composite
def abstract_specs(draw):
    spec = Spec(name=draw(package_names))
    if draw(st.booleans()):
        spec.versions = parse_version_constraint(draw(version_strings))
    for variant in draw(st.lists(variant_names, max_size=3, unique=True)):
        spec.variants[variant] = "true" if draw(st.booleans()) else "false"
    if draw(st.booleans()):
        spec.compiler = draw(compiler_names)
    if draw(st.booleans()):
        spec.target = draw(st.sampled_from(["skylake", "haswell", "x86_64", "power9le"]))
    if draw(st.booleans()):
        spec.os = draw(st.sampled_from(["rhel7", "rhel8", "ubuntu20.04"]))
    return spec


@settings(max_examples=80, deadline=None)
@given(abstract_specs())
def test_spec_string_roundtrip(spec):
    assert parse_spec(str(spec)) == spec


@settings(max_examples=80, deadline=None)
@given(abstract_specs())
def test_spec_satisfies_is_reflexive_enough(spec):
    # a spec always satisfies its own fully-specified constraints when they
    # are concrete; at minimum it must satisfy the anonymous empty constraint
    assert spec.satisfies(Spec())
    clone = spec.copy()
    assert clone == spec
    assert hash(clone) == hash(spec)


@settings(max_examples=60, deadline=None)
@given(abstract_specs(), abstract_specs())
def test_constrain_result_satisfies_nothing_weaker(a, b):
    """If constrain succeeds, the result intersects both inputs; if satisfies
    held before, it still holds after."""
    merged = a.copy()
    try:
        merged.constrain(b.copy())
    except Exception:
        return  # incompatible constraints are allowed to fail
    if a.name == b.name:
        assert merged.name == a.name
    for variant, value in b.variants.items():
        assert merged.variants[variant] == value


@settings(max_examples=60, deadline=None)
@given(abstract_specs())
def test_dag_hash_is_deterministic(spec):
    concrete = spec.copy()
    if concrete.versions.is_any:
        concrete.versions = parse_version_constraint("1.0")
    concrete.mark_concrete()
    duplicate = concrete.copy().mark_concrete()
    assert concrete.dag_hash() == duplicate.dag_hash()


# ---------------------------------------------------------------------------
# Parser robustness (the service boundary: clean errors, never a crash)
# ---------------------------------------------------------------------------

# the full sigil alphabet plus whitespace and junk — everything a client
# might paste into a concretize request
spec_soup = st.text(
    alphabet="abz019._-@%+~^=:, \t{}$!",
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(spec_soup)
@example("0@0^0")  # a spec depending on itself
def test_parse_spec_returns_a_spec_or_raises_spec_syntax_error(text):
    """The property HTTP 400 mapping rests on: any string either parses into
    a Spec or raises SpecSyntaxError — no other exception type ever escapes
    (a bare VersionError or KeyError would crash a service worker)."""
    try:
        spec = parse_spec(text)
    except SpecSyntaxError:
        return
    assert isinstance(spec, Spec)
    # and whatever parsed renders back to something that re-parses equal
    assert parse_spec(str(spec)) == spec


@settings(max_examples=80, deadline=None)
@given(abstract_specs(), st.data())
def test_duplicate_variant_assignment_always_rejected(spec, data):
    """Appending a second assignment of any existing variant (either sigil
    form) to a spec's rendering is always a syntax error."""
    if not spec.variants:
        spec.variants["mpi"] = "true"
    variant = data.draw(st.sampled_from(sorted(spec.variants)))
    # whitespace-separated so the sigil starts a new token (an unspaced
    # '+x' after 'os=rhel7' would be swallowed by the greedy value lexeme)
    form = data.draw(st.sampled_from([f" +{variant}", f" ~{variant}", f" {variant}=off"]))
    with pytest.raises(SpecSyntaxError):
        parse_spec(str(spec) + form)


@settings(max_examples=80, deadline=None)
@given(abstract_specs())
def test_roundtrip_survives_trailing_and_leading_whitespace(spec):
    assert parse_spec(f"  {spec}  \t") == spec
