"""OrderingConfig: one normalised name for a permutation.

The config is the memo key of the runner cache and the serve store, so
the same (ordering, seed, params) must give one config — and one key —
whichever entry point it comes from.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import _ordering_config, build_parser
from repro.errors import InvalidParameterError, UnknownOrderingError
from repro.graph import generators
from repro.ordering import OrderingConfig, compute_ordering
from repro.perf import OrderingCache, get_profile
from repro.serve.protocol import OrderRequest, RunRequest
from repro.serve.store import OrderingStore


class TestNormalisation:
    def test_undeclared_params_dropped(self):
        config = OrderingConfig("gorder", 0, {"workers": 2, "window": 3})
        assert config.params == (("window", 3),)
        assert config == OrderingConfig("gorder", 0, {"window": 3})

    def test_params_sorted_from_mapping_or_pairs(self):
        a = OrderingConfig("gorder", 1, {"window": 3, "hub_threshold": 4})
        b = OrderingConfig(
            "gorder", 1, (("hub_threshold", 4), ("window", 3))
        )
        assert a == b
        assert a.params == (("hub_threshold", 4), ("window", 3))

    def test_none_is_the_default(self):
        assert OrderingConfig("gorder", 0, {"hub_threshold": None}) == (
            OrderingConfig("gorder", 0)
        )
        assert OrderingConfig("gorder", 0, None).params == ()

    def test_registry_name(self):
        assert OrderingConfig("Gorder").ordering == "gorder"

    def test_unknown_ordering(self):
        with pytest.raises(UnknownOrderingError):
            OrderingConfig("gorder-lazy")

    def test_key_and_json(self):
        config = OrderingConfig("ldg", 5, {"bin_size": 32})
        assert config.key() == ("ldg", 5, (("bin_size", 32),))
        assert hash(config.key()) == hash(
            OrderingConfig("ldg", 5, {"bin_size": 32}).key()
        )
        assert config.as_json() == {
            "ordering": "ldg", "seed": 5, "params": [["bin_size", 32]],
        }

    def test_compute_matches_compute_ordering(self):
        graph = generators.social_graph(60, edges_per_node=4, seed=3)
        config = OrderingConfig("gorder", 0, {"window": 2})
        assert np.array_equal(
            config.compute(graph),
            compute_ordering("gorder", graph, window=2),
        )


class TestStrict:
    def test_undeclared_param_names_the_accepted(self):
        with pytest.raises(
            InvalidParameterError,
            match="does not accept parameter\\(s\\) workers; "
                  "accepted: hub_threshold, window",
        ):
            OrderingConfig.strict("gorder", 0, {"workers": 2})

    def test_parameterless_ordering(self):
        with pytest.raises(InvalidParameterError, match="accepted: none"):
            OrderingConfig.strict("rcm", 0, {"window": 3})

    @pytest.mark.parametrize(
        "value, kind",
        [([1, 2], "list"), ("abc", "str"), (True, "bool"), (2.5, "float")],
    )
    def test_wrong_type_names_the_field(self, value, kind):
        with pytest.raises(
            InvalidParameterError,
            match=f"parameter 'window' must be int, got {kind}",
        ):
            OrderingConfig.strict("gorder", 0, {"window": value})

    def test_int_is_a_float(self):
        config = OrderingConfig.strict("auto", 0, {"query_volume": 5000})
        assert config.params == (("query_volume", 5000),)

    def test_bool_is_not_a_float(self):
        with pytest.raises(InvalidParameterError, match="query_volume"):
            OrderingConfig.strict("auto", 0, {"query_volume": False})

    def test_str_param(self):
        config = OrderingConfig.strict("auto", 0, {"dataset": "wiki"})
        assert config.params == (("dataset", "wiki"),)
        with pytest.raises(InvalidParameterError, match="must be str"):
            OrderingConfig.strict("auto", 0, {"dataset": 3})

    def test_valid_input_equals_lenient(self):
        params = {"num_parts": 3, "workers": 2}
        assert OrderingConfig.strict("gorder-part", 4, params) == (
            OrderingConfig("gorder-part", 4, params)
        )


class TestOneKeyPerPermutation:
    """CLI args, a Profile sweep cell and a serve payload name the
    same permutation with equal configs, memo keys and store keys."""

    @pytest.fixture
    def configs(self):
        args = build_parser().parse_args(
            ["order", "--ordering", "gorder-part", "--workers", "1",
             "--seed", "7"]
        )
        profile = replace(
            get_profile("quick"),
            ordering_params=(("query_volume", 9.0), ("workers", 1)),
        )
        payload = {
            "dataset": "epinion",
            "ordering": "gorder-part",
            "seed": 7,
            "ordering_params": {"workers": 1},
        }
        return {
            "cli": _ordering_config(args, args.seed),
            "profile": profile.ordering_config("gorder-part", 7),
            "order": OrderRequest.from_payload(payload).config,
            "run": RunRequest.from_payload(
                {**payload, "algorithm": "pr"}
            ).config,
        }

    def test_equal_configs(self, configs):
        expected = OrderingConfig("gorder-part", 7, {"workers": 1})
        assert set(configs.values()) == {expected}

    def test_one_memo_entry(self, configs):
        graph = generators.social_graph(60, edges_per_node=4, seed=3)
        cache = OrderingCache()
        perms = [cache.get(graph, config)[0] for config in configs.values()]
        assert len(cache) == 1
        assert all(perm is perms[0] for perm in perms)

    def test_one_store_entry(self, configs, tmp_path):
        store = OrderingStore(root=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return np.arange(4, dtype=np.int64)

        sources = [
            store.get_or_compute("epinion", config, compute).source
            for config in configs.values()
        ]
        assert calls == [1]
        assert sources == ["computed", "memory", "memory", "memory"]
        assert len(
            {store.spill_path("epinion", c) for c in configs.values()}
        ) == 1
