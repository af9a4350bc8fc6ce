"""Spec sigil syntax (Table I of the paper)."""

import pytest

from repro.spack.errors import SpecSyntaxError
from repro.spack.spec_parser import parse_spec, parse_specs
from repro.spack.version import Version


class TestTable1Sigils:
    """One test per row of Table I."""

    def test_compiler_sigil(self):
        spec = parse_spec("hdf5%gcc")
        assert spec.name == "hdf5"
        assert spec.compiler == "gcc"

    def test_version_sigil(self):
        spec = parse_spec("hdf5@1.10.2")
        assert spec.versions.concrete == Version("1.10.2")

    def test_compiler_version_sigil(self):
        spec = parse_spec("hdf5%gcc@10.3.1")
        assert spec.compiler == "gcc"
        assert spec.compiler_versions.concrete == Version("10.3.1")

    def test_enable_variant(self):
        assert parse_spec("hdf5+mpi").variants["mpi"] == "true"

    def test_disable_variant(self):
        assert parse_spec("hdf5~mpi").variants["mpi"] == "false"

    def test_keyvalue_variant(self):
        assert parse_spec("hdf5 mpi=true").variants["mpi"] == "true"
        assert parse_spec("hdf5 api=default").variants["api"] == "default"

    def test_target_keyvalue(self):
        assert parse_spec("hdf5 target=skylake").target == "skylake"

    def test_os_keyvalue(self):
        assert parse_spec("hdf5 os=rhel7").os == "rhel7"


class TestDependencies:
    def test_paper_example_spec(self):
        spec = parse_spec("hdf5@1.10.2 ^zlib%gcc ^cmake target=aarch64")
        assert spec.name == "hdf5"
        assert spec.versions.concrete == Version("1.10.2")
        assert set(spec.dependencies) == {"zlib", "cmake"}
        assert spec.dependencies["zlib"].compiler == "gcc"
        assert spec.dependencies["cmake"].target == "aarch64"

    def test_dependency_constraints_merge(self):
        spec = parse_spec("hdf5 ^zlib@1.2: ^zlib+pic")
        assert spec.dependencies["zlib"].variants["pic"] == "true"
        assert not spec.dependencies["zlib"].versions.is_any

    def test_dangling_caret_is_error(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("^zlib")

    @pytest.mark.parametrize("text", ["zlib ^zlib", "0@0^0", "hdf5 ^zlib ^hdf5@1.10"])
    def test_dependency_on_the_root_itself_is_error(self, text):
        with pytest.raises(SpecSyntaxError, match="cannot depend on itself"):
            parse_spec(text)

    def test_sigils_after_dependency_bind_to_it(self):
        spec = parse_spec("example@1.0.0 ^zlib@1.2.11")
        assert spec.versions.concrete == Version("1.0.0")
        assert spec.dependencies["zlib"].versions.concrete == Version("1.2.11")


class TestAnonymousSpecs:
    def test_variant_only(self):
        spec = parse_spec("+mpi")
        assert spec.name is None
        assert spec.variants["mpi"] == "true"

    def test_version_only(self):
        spec = parse_spec("@1.1.0:")
        assert spec.name is None
        assert not spec.versions.is_any

    def test_compiler_only(self):
        assert parse_spec("%intel").compiler == "intel"

    def test_target_range(self):
        assert parse_spec("target=aarch64:").target == "aarch64:"

    def test_combined_condition(self):
        spec = parse_spec("+openmp ^openblas")
        assert spec.variants["openmp"] == "true"
        assert "openblas" in spec.dependencies


class TestMultipleSpecs:
    def test_parse_specs_splits_on_names(self):
        specs = parse_specs("hdf5+mpi zlib@1.2.11")
        assert [s.name for s in specs] == ["hdf5", "zlib"]

    def test_dependencies_attach_to_current_root(self):
        specs = parse_specs("hdf5 ^zlib  cmake ^openssl")
        assert "zlib" in specs[0].dependencies
        assert "openssl" in specs[1].dependencies
        assert "openssl" not in specs[0].dependencies

    def test_whitespace_between_sigils_is_allowed(self):
        spec = parse_spec("hdf5 @1.10.2 +mpi %gcc")
        assert spec.versions.concrete == Version("1.10.2")
        assert spec.variants["mpi"] == "true"
        assert spec.compiler == "gcc"


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("hdf5 !bang")

    def test_two_compilers(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("hdf5%gcc%intel")

    def test_missing_version_after_at(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("hdf5@ +mpi")

    def test_arch_triple(self):
        spec = parse_spec("hdf5 arch=linux-rhel7-skylake")
        assert spec.os == "rhel7"
        assert spec.target == "skylake"

    def test_bad_arch_triple(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("hdf5 arch=linux-rhel7")


class TestServiceBoundaryEdgeCases:
    """Inputs a concretization service receives from untrusted clients: all
    must raise a clean SpecSyntaxError (mapped to HTTP 400), never crash."""

    def test_empty_spec_is_a_clean_error(self):
        with pytest.raises(SpecSyntaxError, match="empty spec"):
            parse_spec("")

    def test_whitespace_only_spec_is_a_clean_error(self):
        with pytest.raises(SpecSyntaxError, match="empty spec"):
            parse_spec("   \t ")

    def test_trailing_whitespace_is_fine(self):
        spec = parse_spec("hdf5+mpi   ")
        assert spec.name == "hdf5"
        assert spec.variants["mpi"] == "true"

    def test_leading_whitespace_is_fine(self):
        assert parse_spec("  hdf5@1.10.2").name == "hdf5"

    def test_duplicate_boolean_variant_is_rejected(self):
        with pytest.raises(SpecSyntaxError, match="assigned twice"):
            parse_spec("hdf5+mpi+mpi")

    def test_contradictory_boolean_variant_is_rejected(self):
        with pytest.raises(SpecSyntaxError, match="assigned twice"):
            parse_spec("hdf5+mpi~mpi")

    def test_duplicate_keyvalue_variant_is_rejected(self):
        with pytest.raises(SpecSyntaxError, match="assigned twice"):
            parse_spec("miniblas threads=none threads=openmp")

    def test_boolean_then_keyvalue_duplicate_is_rejected(self):
        with pytest.raises(SpecSyntaxError, match="assigned twice"):
            parse_spec("hdf5+shared shared=false")

    def test_duplicate_target_is_rejected(self):
        with pytest.raises(SpecSyntaxError, match="'target' assigned twice"):
            parse_spec("hdf5 target=skylake target=haswell")

    def test_duplicate_os_is_rejected(self):
        with pytest.raises(SpecSyntaxError, match="'os' assigned twice"):
            parse_spec("hdf5 os=rhel7 os=rhel8")

    def test_arch_conflicting_with_os_is_rejected(self):
        with pytest.raises(SpecSyntaxError, match="conflicts with an earlier"):
            parse_spec("hdf5 os=rhel7 arch=linux-rhel8-skylake")

    def test_duplicates_on_distinct_nodes_are_fine(self):
        spec = parse_spec("hdf5+mpi ^zlib+mpi")
        assert spec.variants["mpi"] == "true"
        assert spec.dependencies["zlib"].variants["mpi"] == "true"

    def test_malformed_version_is_a_parse_error_not_a_version_error(self):
        # ':' alone parses as the any-range; a double-colon range is nonsense
        # and must surface as SpecSyntaxError (the 400 class), not the
        # internal VersionError
        with pytest.raises(SpecSyntaxError, match="bad version constraint"):
            parse_spec("hdf5@1.0::2.0")

    def test_malformed_compiler_version_is_a_parse_error(self):
        with pytest.raises(SpecSyntaxError, match="bad version constraint"):
            parse_spec("hdf5%gcc@1.0::2.0")

    def test_empty_parse_specs_returns_no_roots(self):
        assert parse_specs("") == []
        assert parse_specs("  \t ") == []
