"""Tests for the FTL registry and FTLSpec parsing."""

import pytest

from repro.api import FTLSpec, ftl_names, get_ftl_factory, register_ftl
from repro.api.registry import resolve_ftl_name
from repro.core.gecko_ftl import GeckoFTL
from repro.flash.config import simulation_configuration
from repro.flash.device import FlashDevice
from repro.ftl.dftl import DFTL
from repro.ftl.mu_ftl import MuFTL


def small_device():
    return FlashDevice(simulation_configuration(num_blocks=64,
                                                pages_per_block=8,
                                                page_size=256))


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(ftl_names()) == {"DFTL", "LazyFTL", "uFTL", "IB-FTL",
                                    "GeckoFTL"}

    def test_factories_resolve_to_the_classes(self):
        assert get_ftl_factory("DFTL") is DFTL
        assert get_ftl_factory("GeckoFTL") is GeckoFTL

    def test_aliases_and_case_insensitivity(self):
        assert resolve_ftl_name("geckoftl") == "GeckoFTL"
        assert resolve_ftl_name("MuFTL") == "uFTL"
        assert get_ftl_factory("ibftl").name == "IB-FTL"
        assert get_ftl_factory("µ-FTL") is MuFTL

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown FTL 'NopeFTL'"):
            resolve_ftl_name("NopeFTL")

    def test_register_custom_ftl(self):
        @register_ftl("TestOnlyFTL", "test-only")
        class TestOnlyFTL(DFTL):
            name = "TestOnlyFTL"

        try:
            assert "TestOnlyFTL" in ftl_names()
            spec = FTLSpec.parse("test-only(cache_capacity=32)")
            assert spec.name == "TestOnlyFTL"
            ftl = spec.build(small_device())
            assert isinstance(ftl, TestOnlyFTL)
            assert ftl.cache.capacity == 32
        finally:
            from repro.api import registry
            registry._FACTORIES.pop("TestOnlyFTL", None)
            registry._ALIASES.pop("testonlyftl", None)
            registry._ALIASES.pop("test-only", None)

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_ftl("DFTL")(MuFTL)


class TestFTLSpec:
    def test_bare_name(self):
        spec = FTLSpec.parse("GeckoFTL")
        assert spec.name == "GeckoFTL"
        assert spec.kwargs == {}
        assert str(spec) == "GeckoFTL"

    def test_name_with_kwargs(self):
        spec = FTLSpec.parse(
            "GeckoFTL(cache_capacity=2048, multiway_merge=True)")
        assert spec.kwargs == {"cache_capacity": 2048,
                               "multiway_merge": True}
        assert str(spec) == "GeckoFTL(cache_capacity=2048, multiway_merge=True)"

    def test_parse_normalizes_aliases(self):
        assert FTLSpec.parse("muftl").name == "uFTL"

    def test_of_accepts_spec_string_and_spec(self):
        spec = FTLSpec("DFTL")
        assert FTLSpec.of(spec) is spec
        assert FTLSpec.of("DFTL") == spec
        with pytest.raises(TypeError):
            FTLSpec.of(42)

    def test_build_applies_defaults_under_spec_kwargs(self):
        spec = FTLSpec.parse("DFTL(cache_capacity=32)")
        ftl = spec.build(small_device(), cache_capacity=512)
        assert ftl.cache.capacity == 32
        bare = FTLSpec.parse("DFTL").build(small_device(), cache_capacity=512)
        assert bare.cache.capacity == 512

    def test_with_defaults(self):
        spec = FTLSpec.parse("DFTL(cache_capacity=32)")
        merged = spec.with_defaults(cache_capacity=512, free_block_threshold=8)
        assert merged.kwargs == {"cache_capacity": 32,
                                 "free_block_threshold": 8}

    def test_parse_rejects_malformed_specs(self):
        with pytest.raises(ValueError, match="missing closing parenthesis"):
            FTLSpec.parse("GeckoFTL(cache_capacity=2048")
        with pytest.raises(ValueError, match="missing FTL name"):
            FTLSpec.parse("(cache_capacity=2048)")
        with pytest.raises(ValueError, match="keyword arguments only"):
            FTLSpec.parse("GeckoFTL(2048)")
        with pytest.raises(ValueError, match="malformed FTL argument"):
            FTLSpec.parse("GeckoFTL(cache_capacity=)")
        with pytest.raises(ValueError, match="must be a Python literal"):
            FTLSpec.parse("GeckoFTL(cache_capacity=__import__('os'))")

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown FTL"):
            FTLSpec("NopeFTL")

    def test_specs_are_hashable(self):
        specs = {FTLSpec("DFTL"), FTLSpec("dftl"),
                 FTLSpec("DFTL", {"cache_capacity": 64})}
        assert len(specs) == 2
        assert FTLSpec("DFTL") in specs

    def test_kwargs_may_hold_non_literal_values(self):
        from repro.ftl.garbage_collector import VictimPolicy
        spec = FTLSpec("DFTL", {"victim_policy": VictimPolicy.GREEDY})
        ftl = spec.build(small_device(), cache_capacity=64)
        assert ftl.garbage_collector.policy is VictimPolicy.GREEDY
