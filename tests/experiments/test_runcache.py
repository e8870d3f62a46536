"""Property-style tests for the content-addressed run cache.

The spec hash is the identity on which sweep resume and cross-sweep
caching rest: it must be invariant under every spelling of the *same*
scenario (dict key order, shorthand vs expanded components, display
names, omitted defaults) and must change whenever any resolved leaf
changes — including the ``faults`` section.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import runcache
from repro.experiments.runcache import (
    CACHE_VERSION,
    RunCache,
    canonical_spec,
    spec_hash,
)
from repro.experiments import scenario as scenario_module
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import expand_grid


def base_spec(**extra):
    spec = {
        "name": "hash-probe",
        "num_workers": 6,
        "seed": 0,
        "data": {
            "name": "synthetic-mnist",
            "params": {"num_train": 120, "num_test": 60, "image_size": 8},
            "flatten": True,
        },
        "model": {"name": "lr", "params": {"input_dim": 64, "hidden": 8, "num_classes": 10}},
        "timing": {"base_local_time": 2.0},
        "training": {"max_rounds": 3, "max_eval_samples": 60},
    }
    spec.update(extra)
    return spec


def reorder(node, rng):
    """Recursively rebuild mappings with shuffled key insertion order."""
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {key: reorder(node[key], rng) for key in keys}
    if isinstance(node, list):
        return [reorder(value, rng) for value in node]
    return node


class TestSpecHashInvariance:
    def test_key_order_does_not_matter(self):
        spec = base_spec()
        flipped = json.loads(json.dumps(reorder(spec, __import__("random").Random(7))))
        assert spec_hash(spec) == spec_hash(flipped)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_key_order_hashes_identically(self, seed):
        import random

        spec = base_spec()
        shuffled = reorder(spec, random.Random(seed))
        assert spec_hash(spec) == spec_hash(shuffled)

    def test_shorthand_and_expanded_components_hash_equal(self):
        shorthand = base_spec(mechanism="air_fedga", partition="label-skew")
        expanded = base_spec(
            mechanism={"name": "air_fedga", "params": {}},
            partition={"name": "label-skew", "params": {}},
        )
        assert spec_hash(shorthand) == spec_hash(expanded)

    def test_faults_shorthand_hashes_like_expanded(self):
        shorthand = base_spec(faults="bernoulli")
        expanded = base_spec(
            faults={"clientstate": {"name": "bernoulli", "params": {}}}
        )
        assert spec_hash(shorthand) == spec_hash(expanded)

    def test_omitted_sections_hash_like_explicit_defaults(self):
        bare = base_spec()
        explicit = base_spec(
            faults={"clientstate": {"name": "always-on", "params": {}}},
        )
        assert spec_hash(bare) == spec_hash(explicit)

    def test_name_is_not_part_of_the_identity(self):
        assert spec_hash(base_spec(name="a")) == spec_hash(base_spec(name="grid#3"))
        assert "name" not in canonical_spec(base_spec())

    def test_scenario_object_and_mapping_hash_equal(self):
        spec = base_spec()
        assert spec_hash(Scenario.from_dict(spec)) == spec_hash(spec)

    def test_json_round_trip_is_stable(self):
        spec = base_spec()
        assert spec_hash(spec) == spec_hash(json.loads(json.dumps(spec)))


LEAF_MUTATIONS = [
    {"seed": 1},
    {"num_workers": 7},
    {"data": {"name": "synthetic-mnist", "params": {"num_train": 121, "num_test": 60, "image_size": 8}, "flatten": True}},
    {"data": {"name": "synthetic-mnist", "params": {"num_train": 120, "num_test": 60, "image_size": 8}, "flatten": False}},
    {"model": {"name": "lr", "params": {"input_dim": 64, "hidden": 9, "num_classes": 10}}},
    {"timing": {"base_local_time": 2.5}},
    {"timing": {"base_local_time": 2.0, "kappa_max": 9.0}},
    {"training": {"max_rounds": 4, "max_eval_samples": 60}},
    {"training": {"max_rounds": 3, "max_eval_samples": 60, "learning_rate": 0.05}},
    {"algorithm": {"grouping": {"xi": 0.7}}},
    {"partition": {"name": "dirichlet", "params": {}}},
    {"channel": {"name": "static", "params": {}}},
    {"mechanism": {"name": "air_fedavg", "params": {}}},
    {"faults": {"clientstate": {"name": "bernoulli", "params": {}}}},
    {"faults": {"quorum_fraction": 0.75}},
    {"faults": {"max_retries": 3}},
]


class TestSpecHashSensitivity:
    @pytest.mark.parametrize("mutation", LEAF_MUTATIONS, ids=lambda m: next(iter(m)))
    def test_changing_any_resolved_leaf_changes_the_hash(self, mutation):
        assert spec_hash(base_spec()) != spec_hash(base_spec(**mutation))

    def test_version_salt_changes_the_hash(self, monkeypatch):
        before = spec_hash(base_spec())
        monkeypatch.setattr(runcache, "CACHE_VERSION", CACHE_VERSION + "-bumped")
        assert spec_hash(base_spec()) != before

    def test_grid_addresses_survive_parsing_each_class_once(self):
        """A grid with nested sections and faults resolves each dataclass's type
        hints once, not once per nested parse, and keeps the content addresses
        pinned before that cache existed.  Catches: hints parsed per call, or a
        cache keyed wrongly (a class resolved with another's hints)."""
        spec = base_spec(
            mechanism={"name": ["fedavg", "air_fedga", "fedasync"], "params": {}},
            faults={"clientstate": {"name": "dropout-rejoin",
                                    "params": {"dropout_prob": 0.2, "rejoin_after": 2}}},
            seed=[0, 1],
        )  # fmt: skip
        scenario_module._type_hints.cache_clear()
        hashes = [spec_hash(point) for point in expand_grid(spec)]
        parsed = scenario_module._type_hints.cache_info()
        assert parsed.hits and parsed.misses == parsed.currsize
        joined = "\n".join(hashes).encode("utf-8")
        assert hashlib.sha256(joined).hexdigest() == GRID_PIN


#: SHA-256 of the grid's newline-joined point hashes, computed with the
#: type-hint cache bypassed.
GRID_PIN = "326d8dd3bdc06fe7f7ad8ba2f10da14d8b505441ff33acb3aaadb11b4bc47ad6"


def success_row(hash_):
    return {
        "index": 3,
        "scenario": "grid#3",
        "spec_hash": hash_,
        "overrides": {"seed": 3},
        "cpu_count": 4,
        "attempts": 1,
        "cache_hit": False,
        "mechanism": "air_fedga",
        "summary": {"rounds": 3.0, "final_accuracy": 0.5},
        "faults": {"workers_dropped": 0},
    }


class TestRunCache:
    def test_put_get_round_trip_strips_grid_position(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        hash_ = spec_hash(base_spec())
        path = cache.put(hash_, success_row(hash_))
        assert path.exists() and hash_ in cache and len(cache) == 1
        row = cache.get(hash_)
        assert row["summary"] == {"rounds": 3.0, "final_accuracy": 0.5}
        # Grid-position keys are rebuilt by the hitting sweep, not cached.
        for key in ("index", "scenario", "overrides", "attempts", "cache_hit"):
            assert key not in row

    def test_error_rows_are_not_cacheable(self, tmp_path):
        cache = RunCache(tmp_path)
        row = success_row("h")
        del row["summary"]
        row["error"] = "RuntimeError: boom"
        with pytest.raises(ValueError, match="successful"):
            cache.put("h", row)

    def test_missing_and_corrupt_entries_read_as_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        hash_ = spec_hash(base_spec())
        assert cache.get(hash_) is None and hash_ not in cache
        path = cache.path_for(hash_)
        path.parent.mkdir(parents=True)
        path.write_text("{ torn json")
        assert cache.get(hash_) is None

    def test_version_skewed_entry_reads_as_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        hash_ = spec_hash(base_spec())
        cache.put(hash_, success_row(hash_))
        entry = json.loads(cache.path_for(hash_).read_text())
        entry["cache_version"] = "sweep-cache-v0"
        cache.path_for(hash_).write_text(json.dumps(entry))
        assert cache.get(hash_) is None

    def test_hash_mismatch_reads_as_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        hash_ = spec_hash(base_spec())
        cache.put(hash_, success_row(hash_))
        other = spec_hash(base_spec(seed=9))
        other_path = cache.path_for(other)
        other_path.parent.mkdir(parents=True, exist_ok=True)
        other_path.write_text(cache.path_for(hash_).read_text())
        assert cache.get(other) is None

    def test_empty_cache_has_length_zero(self, tmp_path):
        assert len(RunCache(tmp_path / "nowhere")) == 0
