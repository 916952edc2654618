"""Request validation and error shaping of the wire protocol."""

from __future__ import annotations

import pytest

from repro.ordering import OrderingConfig
from repro.serve.protocol import (
    BadRequestError,
    DeadlineExceededError,
    DrainingError,
    OrderRequest,
    QueueFullError,
    RunRequest,
    ServeError,
    error_payload,
)


class TestOrderRequest:
    def test_minimal(self):
        request = OrderRequest.from_payload({"dataset": "epinion"})
        assert request.dataset == "epinion"
        assert request.config == OrderingConfig("gorder", 0)
        assert request.deadline_seconds is None
        assert not request.include_permutation

    def test_full(self):
        request = OrderRequest.from_payload(
            {
                "dataset": "pokec",
                "ordering": "ldg",
                "seed": 3,
                "ordering_params": {"bin_size": 32},
                "include_permutation": True,
                "deadline_seconds": 2.5,
            }
        )
        assert request.config == OrderingConfig("ldg", 3, {"bin_size": 32})
        assert request.include_permutation
        assert request.deadline_seconds == 2.5

    def test_auto_is_a_valid_ordering(self):
        """The adaptive selector is addressable over the wire; its
        knobs travel as ordering_params and reach the store key."""
        request = OrderRequest.from_payload(
            {
                "dataset": "epinion",
                "ordering": "auto",
                "ordering_params": {"query_volume": 5000},
            }
        )
        assert request.config == OrderingConfig(
            "auto", 0, {"query_volume": 5000}
        )

    def test_undeclared_ordering_params_rejected(self):
        """A knob the ordering does not declare would be dropped by
        the registry filter and mint a second store key for the same
        permutation; the error names the accepted parameters."""
        with pytest.raises(BadRequestError) as excinfo:
            OrderRequest.from_payload(
                {
                    "dataset": "epinion",
                    "ordering": "gorder",
                    "ordering_params": {"backend": "loop"},
                }
            )
        message = str(excinfo.value)
        assert "backend" in message
        assert "hub_threshold, window" in message

    def test_parameterless_ordering_accepts_none(self):
        with pytest.raises(BadRequestError, match="accepted: none"):
            OrderRequest.from_payload(
                {
                    "dataset": "epinion",
                    "ordering": "rcm",
                    "ordering_params": {"window": 3},
                }
            )

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "dataset=epinion",
            {},
            {"dataset": 7},
            {"dataset": "epinion", "ordering": "nope"},
            {"dataset": "epinion", "seed": "zero"},
            {"dataset": "epinion", "seed": True},
            {"dataset": "epinion", "deadline_seconds": 0},
            {"dataset": "epinion", "deadline_seconds": -1},
            {"dataset": "epinion", "deadline_seconds": "fast"},
            {"dataset": "epinion", "ordering_params": [1]},
            {"dataset": "epinion", "include_permutation": "yes"},
            # auto's removed knobs: a module constant, a library-only
            # argument, and the graph's own name.
            {"dataset": "epinion", "ordering": "auto",
             "ordering_params": {"clock_hz": 1e9}},
            {"dataset": "epinion", "ordering": "auto",
             "ordering_params": {"candidates": ["dbg"]}},
            {"dataset": "epinion", "ordering": "auto",
             "ordering_params": {"dataset": "wiki"}},
        ],
    )
    def test_rejects(self, payload):
        with pytest.raises(BadRequestError):
            OrderRequest.from_payload(payload)


class TestRunRequest:
    def test_minimal(self):
        request = RunRequest.from_payload(
            {"dataset": "epinion", "algorithm": "pr"}
        )
        assert request.algorithm == "pr"
        assert request.profile == "quick"
        # An omitted seed is the profile's, resolved at parse time.
        assert request.config == OrderingConfig("gorder", 7)

    def test_algorithm_required(self):
        with pytest.raises(BadRequestError):
            RunRequest.from_payload({"dataset": "epinion"})

    def test_undeclared_ordering_params_rejected(self):
        with pytest.raises(BadRequestError, match="workers"):
            RunRequest.from_payload(
                {
                    "dataset": "epinion",
                    "algorithm": "pr",
                    "ordering": "boba",
                    "ordering_params": {"workers": 2},
                }
            )

    def test_declared_ordering_params_kept(self):
        request = RunRequest.from_payload(
            {
                "dataset": "epinion",
                "algorithm": "pr",
                "ordering": "gorder-part",
                "ordering_params": {"workers": 2, "num_parts": 3},
            }
        )
        assert request.config.params == (
            ("num_parts", 3), ("workers", 2)
        )

    def test_bad_cache_backend(self):
        with pytest.raises(BadRequestError):
            RunRequest.from_payload(
                {
                    "dataset": "epinion",
                    "algorithm": "pr",
                    "cache_backend": "magic",
                }
            )

    def test_bad_algo_backend(self):
        with pytest.raises(BadRequestError):
            RunRequest.from_payload(
                {
                    "dataset": "epinion",
                    "algorithm": "pr",
                    "algo_backend": "vector",
                }
            )


class TestUnknownFields:
    """Top-level fields an endpoint does not declare are a 400 that
    names the accepted fields, never silently ignored."""

    def test_run_rejects_retired_cache_backend(self):
        with pytest.raises(BadRequestError) as excinfo:
            RunRequest.from_payload(
                {
                    "dataset": "epinion",
                    "algorithm": "pr",
                    "cache_backend": "step",
                }
            )
        message = str(excinfo.value)
        assert "'cache_backend'" in message
        assert "accepted: " in message
        for name in ("algorithm", "dataset", "ordering_params",
                     "profile"):
            assert name in message.split("accepted: ")[1]

    def test_order_rejects_unknown_field(self):
        with pytest.raises(
            BadRequestError, match="'window'.*accepted: .*ordering"
        ):
            OrderRequest.from_payload(
                {"dataset": "epinion", "window": 5}
            )

    def test_auto_rejects_backend_ordering_params(self):
        with pytest.raises(BadRequestError, match="cache_backend"):
            OrderRequest.from_payload(
                {
                    "dataset": "epinion",
                    "ordering": "auto",
                    "ordering_params": {"cache_backend": "step"},
                }
            )

    def test_every_declared_field_accepted(self):
        request = RunRequest.from_payload(
            {
                "dataset": "epinion",
                "algorithm": "pr",
                "ordering": "gorder",
                "seed": 3,
                "ordering_params": {"window": 4},
                "profile": "quick",
                "deadline_seconds": 5,
            }
        )
        assert request.config == OrderingConfig("gorder", 3, {"window": 4})
        order = OrderRequest.from_payload(
            {
                "dataset": "epinion",
                "ordering": "gorder",
                "seed": 3,
                "ordering_params": {"window": 4},
                "include_permutation": True,
                "deadline_seconds": 5,
            }
        )
        assert order.include_permutation


class TestErrorShaping:
    def test_status_codes(self):
        assert BadRequestError("x").status == 400
        assert QueueFullError("x").status == 429
        assert DrainingError("x").status == 503
        assert DeadlineExceededError("x").status == 504
        assert ServeError("x").status == 500

    def test_queue_full_payload_carries_retry_after(self):
        payload = error_payload(
            QueueFullError("full", retry_after=2.0), "r9"
        )
        assert payload["error"] == "queue_full"
        assert payload["retry_after"] == 2.0
        assert payload["request_id"] == "r9"

    def test_deadline_payload_carries_phase(self):
        payload = error_payload(
            DeadlineExceededError("late", phase="ordered")
        )
        assert payload["error"] == "deadline_exceeded"
        assert payload["phase"] == "ordered"
