"""Per-rule fixtures: each REP rule fires on the bad spelling and
stays quiet on the sanctioned one."""

import textwrap

from repro.analysis import Severity, analyze_source


def rule_ids(source, path="fixture.py"):
    """Rule ids found in a dedented source snippet."""
    findings = analyze_source(textwrap.dedent(source), path=path)
    return [finding.rule for finding in findings]


class TestRep001UnseededRandom:
    def test_legacy_numpy_random_fires(self):
        assert rule_ids(
            """
            import numpy as np

            x = np.random.rand(3)
            """
        ) == ["REP001"]

    def test_unseeded_default_rng_fires(self):
        assert rule_ids(
            """
            from numpy.random import default_rng

            rng = default_rng()
            """
        ) == ["REP001"]

    def test_seeded_default_rng_is_clean(self):
        assert rule_ids(
            """
            import numpy as np

            rng = np.random.default_rng(42)
            """
        ) == []

    def test_stdlib_module_level_random_fires(self):
        assert rule_ids(
            """
            import random

            x = random.random()
            """
        ) == ["REP001"]

    def test_unseeded_stdlib_random_instance_fires(self):
        assert rule_ids(
            """
            import random

            rng = random.Random()
            """
        ) == ["REP001"]

    def test_seeded_stdlib_random_instance_is_clean(self):
        assert rule_ids(
            """
            import random

            rng = random.Random(7)
            """
        ) == []

    def test_generator_method_calls_are_clean(self):
        assert rule_ids(
            """
            import numpy as np

            rng = np.random.default_rng(0)
            x = rng.integers(0, 10, size=4)
            """
        ) == []


class TestRep002NonAtomicWrite:
    def test_truncating_open_fires(self):
        assert rule_ids(
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """
        ) == ["REP002"]

    def test_path_write_text_fires(self):
        assert rule_ids(
            """
            from pathlib import Path

            def save(path):
                Path(path).write_text("x")
            """
        ) == ["REP002"]

    def test_numpy_save_fires(self):
        assert rule_ids(
            """
            import numpy as np

            def save(path, array):
                np.save(path, array)
            """
        ) == ["REP002"]

    def test_append_mode_is_exempt(self):
        assert rule_ids(
            """
            def journal(path, line):
                with open(path, "a") as handle:
                    handle.write(line)
            """
        ) == []

    def test_read_mode_is_exempt(self):
        assert rule_ids(
            """
            def load(path):
                with open(path, "r") as handle:
                    return handle.read()
            """
        ) == []

    def test_tmp_plus_os_replace_scope_is_atomic(self):
        assert rule_ids(
            """
            import os

            def save(path, text):
                tmp = str(path) + ".tmp"
                with open(tmp, "w") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            """
        ) == []

    def test_atomic_helper_scope_is_clean(self):
        assert rule_ids(
            """
            from repro.ioutil import atomic_open

            def save(path, text):
                with atomic_open(path, "w") as handle:
                    handle.write(text)
            """
        ) == []

    def test_other_scopes_do_not_leak_atomicity(self):
        # os.replace in one function must not bless writes in another.
        assert rule_ids(
            """
            import os

            def atomic(path, tmp):
                os.replace(tmp, path)

            def sloppy(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """
        ) == ["REP002"]


class TestRep003SwallowedException:
    def test_bare_except_pass_fires(self):
        assert rule_ids(
            """
            def run(step):
                try:
                    step()
                except:
                    pass
            """
        ) == ["REP003"]

    def test_broad_except_fires(self):
        assert rule_ids(
            """
            def run(step):
                try:
                    step()
                except Exception:
                    result = None
            """
        ) == ["REP003"]

    def test_broad_tuple_fires(self):
        assert rule_ids(
            """
            def run(step):
                try:
                    step()
                except (ValueError, Exception):
                    pass
            """
        ) == ["REP003"]

    def test_reraise_is_clean(self):
        assert rule_ids(
            """
            def run(step):
                try:
                    step()
                except Exception:
                    raise
            """
        ) == []

    def test_narrow_handler_is_clean(self):
        assert rule_ids(
            """
            def run(step):
                try:
                    step()
                except ValueError:
                    pass
            """
        ) == []

    def test_telemetry_event_is_clean(self):
        assert rule_ids(
            """
            from repro import obs

            def run(step):
                try:
                    step()
                except Exception as exc:
                    obs.event("run.error", error=type(exc).__name__)
            """
        ) == []

    def test_structured_failure_record_is_clean(self):
        assert rule_ids(
            """
            def run(step, failures):
                try:
                    step()
                except Exception as exc:
                    failures.append(CellFailure(error=str(exc)))
            """
        ) == []

    def test_logger_exception_is_clean(self):
        assert rule_ids(
            """
            import logging

            def run(step):
                try:
                    step()
                except Exception:
                    logging.getLogger(__name__).exception("boom")
            """
        ) == []


class TestRep004NarrowDtype:
    def test_narrow_reduction_dtype_fires(self):
        assert rule_ids(
            """
            import numpy as np

            def count(x):
                return x.sum(dtype=np.int32)
            """
        ) == ["REP004"]

    def test_string_dtype_spelling_fires(self):
        assert rule_ids(
            """
            def count(x):
                return x.cumsum(dtype="uint16")
            """
        ) == ["REP004"]

    def test_narrow_accumulator_buffer_fires(self):
        assert rule_ids(
            """
            import numpy as np

            total_cycles = np.zeros(8, dtype=np.int32)
            """
        ) == ["REP004"]

    def test_wide_accumulator_is_clean(self):
        assert rule_ids(
            """
            import numpy as np

            total_cycles = np.zeros(8, dtype=np.int64)
            """
        ) == []

    def test_non_accumulator_name_is_clean(self):
        # Narrow dtypes are fine for bounded payloads; only names that
        # look like running totals are held to int64.
        assert rule_ids(
            """
            import numpy as np

            node_ids = np.zeros(8, dtype=np.int32)
            """
        ) == []

    def test_reduction_without_dtype_is_clean(self):
        assert rule_ids(
            """
            def count(x):
                return x.sum()
            """
        ) == []

    def test_severity_is_warning(self):
        findings = analyze_source(
            "import numpy as np\n"
            "total = np.zeros(4, dtype=np.int32)\n"
        )
        assert [f.severity for f in findings] == [Severity.WARNING]


class TestRep005TelemetryDiscipline:
    def test_unmanaged_span_fires(self):
        assert rule_ids(
            """
            from repro import obs

            def work():
                span = obs.span("work")
                span.close()
            """
        ) == ["REP005"]

    def test_with_span_is_clean(self):
        assert rule_ids(
            """
            from repro import obs

            def work():
                with obs.span("work"):
                    pass
            """
        ) == []

    def test_returned_span_is_clean(self):
        # Wrappers may forward a span for the caller to enter.
        assert rule_ids(
            """
            from repro import obs

            def timed(name):
                return obs.span(name)
            """
        ) == []

    def test_second_registry_fires(self):
        assert rule_ids(
            """
            from repro.obs import Telemetry

            REGISTRY = Telemetry()
            """
        ) == ["REP005"]

    def test_fully_dynamic_counter_name_fires(self):
        assert rule_ids(
            """
            from repro import obs

            def bump(name):
                obs.inc(name)
            """
        ) == ["REP005"]

    def test_literal_counter_name_is_clean(self):
        assert rule_ids(
            """
            from repro import obs

            def bump():
                obs.inc("cache.hits")
            """
        ) == []

    def test_fstring_with_literal_segment_is_clean(self):
        assert rule_ids(
            """
            from repro import obs

            def bump(level):
                obs.inc(f"cache.{level}.hits")
            """
        ) == []

    def test_obs_package_itself_is_exempt(self):
        source = """
        def span(name):
            span = make_span(name)
            return span
        """
        assert rule_ids(source, path="src/repro/obs/core.py") == []

    def test_unmanaged_profile_fires(self):
        assert rule_ids(
            """
            from repro import obs

            def work():
                phase = obs.profile("gorder.phase")
                phase.close()
            """
        ) == ["REP005"]

    def test_with_profile_is_clean(self):
        assert rule_ids(
            """
            from repro import obs

            def work():
                with obs.profile("gorder.phase", n=5):
                    pass
            """
        ) == []

    def test_returned_profile_is_clean(self):
        assert rule_ids(
            """
            from repro import obs

            def timed(n):
                return obs.profile("gorder.phase", n=n)
            """
        ) == []

    def test_fully_dynamic_profile_name_fires(self):
        assert rule_ids(
            """
            from repro import obs

            def work(name):
                with obs.profile(name):
                    pass
            """
        ) == ["REP005"]

    def test_profile_fstring_literal_segment_is_clean(self):
        assert rule_ids(
            """
            from repro import obs

            def work(part):
                with obs.profile(f"gorder.part.{part}"):
                    pass
            """
        ) == []


class TestRep006ForeignException:
    def test_builtin_raise_fires(self):
        assert rule_ids(
            """
            def check(n):
                if n < 0:
                    raise ValueError(f"negative: {n}")
            """
        ) == ["REP006"]

    def test_bare_builtin_class_fires(self):
        assert rule_ids(
            """
            def nope():
                raise RuntimeError
            """
        ) == ["REP006"]

    def test_repro_error_is_clean(self):
        assert rule_ids(
            """
            from repro.errors import InvalidParameterError

            def check(n):
                if n < 0:
                    raise InvalidParameterError(f"negative: {n}")
            """
        ) == []

    def test_allowed_builtins_are_clean(self):
        assert rule_ids(
            """
            def protocol():
                raise NotImplementedError

            def generator():
                raise StopIteration
            """
        ) == []

    def test_plain_reraise_is_clean(self):
        assert rule_ids(
            """
            def run(step):
                try:
                    step()
                except ValueError:
                    raise
            """
        ) == []


class TestNoqaSuppression:
    def test_bare_noqa_suppresses_everything_on_the_line(self):
        assert rule_ids(
            """
            import numpy as np

            x = np.random.rand(3)  # repro: noqa
            """
        ) == []

    def test_targeted_noqa_suppresses_only_named_rules(self):
        assert rule_ids(
            """
            import numpy as np

            x = np.random.rand(3)  # repro: noqa[REP001]
            """
        ) == []

    def test_wrong_rule_id_does_not_suppress(self):
        assert rule_ids(
            """
            import numpy as np

            x = np.random.rand(3)  # repro: noqa[REP002]
            """
        ) == ["REP001"]

    def test_noqa_is_case_insensitive(self):
        assert rule_ids(
            """
            import numpy as np

            x = np.random.rand(3)  # REPRO: NOQA[rep001]
            """
        ) == []

    def test_noqa_only_covers_its_own_line(self):
        assert rule_ids(
            """
            import numpy as np

            # repro: noqa[REP001]
            x = np.random.rand(3)
            """
        ) == ["REP001"]
