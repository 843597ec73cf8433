"""Tests for the stable ``repro.api`` surface and its calling conventions.

Two contracts:

* ``repro.api`` exposes exactly its curated ``__all__`` — no internal
  module is reachable through it, checked both statically (an AST walk
  over the source: nothing but ``from X import name``) and at runtime
  (no attribute is a module object);
* configuration arguments across the surface are keyword-only, so a
  stray positional is Python's own :class:`TypeError` — not a silent
  mis-bind.
"""

from __future__ import annotations

import ast
import inspect
import types

import pytest

import repro.api as api
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams


class TestSurface:
    def test_source_contains_only_from_imports(self):
        tree = ast.parse(inspect.getsource(api))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Import), (
                f"plain 'import {node.names[0].name}' would bind a module "
                "object on repro.api; use 'from ... import name'"
            )
            if isinstance(node, ast.ImportFrom):
                assert node.names[0].name != "*", "star imports hide the surface"

    def test_no_module_objects_leak(self):
        leaked = [
            name
            for name in dir(api)
            if not name.startswith("__")
            and isinstance(getattr(api, name), types.ModuleType)
        ]
        assert leaked == [], f"internal modules reachable via repro.api: {leaked}"

    def test_all_is_exact_and_sorted_within_groups(self):
        public = {name for name in dir(api) if not name.startswith("_")}
        assert public == set(api.__all__)

    def test_internal_modules_are_attribute_errors(self):
        for name in ("sweep", "simulation", "backends", "pool", "cli"):
            with pytest.raises(AttributeError):
                getattr(api, name)

    def test_top_level_package_re_exports_fabric_entry_points(self):
        import repro

        for name in ("FabricError", "shard_grid", "merge_checkpoints", "run_pool"):
            assert getattr(repro, name) is getattr(api, name)


def make_protocol():
    return ElectLeader(ProtocolParams(n=8, r=2))


class TestKeywordOnlySurface:
    """``f(x, 8)`` must not silently bind 8 to whatever comes next: the
    configuration arguments are keyword-only, so Python raises its own
    TypeError for a stray positional."""

    def test_simulation_rejects_positional_config(self):
        protocol = make_protocol()
        with pytest.raises(TypeError):
            api.Simulation(protocol, [protocol.initial_state() for _ in range(8)])
        with pytest.raises(TypeError):
            api.Simulation(protocol, None, 8)

    def test_make_simulation_rejects_positional_init(self):
        with pytest.raises(TypeError):
            api.make_simulation(make_protocol(), None)

    def test_resolve_backend_rejects_positional_extras(self):
        with pytest.raises(TypeError):
            api.resolve_backend("object", "array")

    def test_run_until_rejects_positional_budget(self):
        with pytest.raises(TypeError):
            api.run_until(make_protocol(), lambda config: True, 100)

    def test_run_trials_rejects_positional_counts(self):
        with pytest.raises(TypeError):
            api.run_trials(
                make_protocol(), lambda config: True, 8,
                n=8, trials=1, max_interactions=10,
            )

    def test_run_trial_specs_rejects_positional_workers(self):
        with pytest.raises(TypeError):
            api.run_trial_specs([], 4)

    def test_stream_ordered_rejects_positional_workers_eagerly(self):
        # The error comes when stream_ordered is called, not at the first
        # next(): it is a plain function that hands off to the generator.
        with pytest.raises(TypeError):
            api.stream_ordered([], str, 4)
        with pytest.raises(TypeError):
            api.stream_ordered([], str, 4, 16)

    def test_run_trial_specs_streaming_rejects_positional_workers(self):
        with pytest.raises(TypeError):
            api.run_trial_specs_streaming([], 4)

    def test_error_message_counts_strays(self):
        with pytest.raises(TypeError, match="takes 1 positional argument but 3 were given"):
            api.run_trial_specs([], 4, 16)

    def test_signatures_are_keyword_only_without_catch_alls(self):
        # The leading positionals of each entry point; every other
        # parameter configures the call and must be keyword-only.
        positional = {
            "Simulation": ("protocol",),
            "make_simulation": ("protocol",),
            "resolve_backend": ("backend",),
            "run_until": ("protocol", "predicate"),
            "run_trials": ("protocol", "predicate"),
            "run_trial_specs": ("specs",),
            "stream_ordered": ("items", "fn"),
            "run_trial_specs_streaming": ("specs",),
        }
        for name, leading in positional.items():
            parameters = inspect.signature(getattr(api, name)).parameters.values()
            kinds = {parameter.kind for parameter in parameters}
            assert inspect.Parameter.VAR_POSITIONAL not in kinds, name
            assert inspect.Parameter.VAR_KEYWORD not in kinds, name
            for parameter in parameters:
                expected = (
                    inspect.Parameter.POSITIONAL_OR_KEYWORD
                    if parameter.name in leading
                    else inspect.Parameter.KEYWORD_ONLY
                )
                assert parameter.kind is expected, (name, parameter.name)

    def test_keyword_calls_still_work(self):
        protocol = make_protocol()
        sim = api.Simulation(protocol, n=8, seed=1)
        result = sim.run_until(
            protocol.is_safe_configuration, max_interactions=500_000, check_interval=500
        )
        assert result.converged
        assert api.run_trial_specs([], workers=1) == []
