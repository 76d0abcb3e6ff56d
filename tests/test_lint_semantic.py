"""Tests for the whole-program semantic passes in repro.lint.

Covers the two flow-aware families — unit-dimension inference
(UD1xx) and determinism taint tracking (DT2xx) — each with
true-positive *and* false-positive fixtures, the
interprocedural link (dimensions and taint resolved across function
and module boundaries), and the engine growth around them: the
incremental cache (warm runs must be bit-identical to cold ones — a
hypothesis property), parallel analysis, severity tiers, SARIF
export, and baseline migration for the new rule ids.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.lint import (
    Baseline,
    LintCache,
    all_rules,
    analyze_file,
    config_hash,
    file_fingerprint,
    get_rule,
    lint_paths,
    lint_source,
    load_baseline,
    report_to_sarif,
    write_baseline,
)

#: Path handed to lint_source so fixtures count as in-package modules.
FAKE = "src/repro/fake_module.py"


def rule_ids(source: str, path: str = FAKE) -> list:
    return sorted({v.rule_id for v in lint_source(source, path=path)})


def hits(source: str, rule_id: str, path: str = FAKE) -> int:
    return sum(1 for v in lint_source(source, path=path)
               if v.rule_id == rule_id)


# --------------------------------------------------------------------------
# UD1xx: unit-dimension inference
# --------------------------------------------------------------------------


class TestDimensionInference:
    def test_mixed_scale_addition_fires(self):
        assert hits("def f(stall_seconds: float, frame_ms: float)"
                    " -> float:\n"
                    "    return stall_seconds + frame_ms\n",
                    "UD101") == 1

    def test_same_scale_addition_clean(self):
        assert hits("def f(a_seconds: float, b_seconds: float) -> float:\n"
                    "    return a_seconds + b_seconds\n", "UD101") == 0

    def test_mixed_kind_addition_fires(self):
        assert hits("def f(total_energy: float, stall_seconds: float)"
                    " -> float:\n"
                    "    return total_energy + stall_seconds\n",
                    "UD101") == 1

    def test_comparison_across_scales_fires(self):
        assert hits("def f(stall_seconds: float, budget_ms: float)"
                    " -> bool:\n"
                    "    return stall_seconds > budget_ms\n",
                    "UD101") == 1

    def test_double_conversion_fires(self):
        # to_mj expects canonical joules; feeding it a _mj value
        # double-converts.
        assert hits("from repro.units import to_mj\n"
                    "def f(energy_mj: float) -> float:\n"
                    "    return to_mj(energy_mj)\n", "UD101") == 1

    def test_correct_conversion_clean(self):
        assert hits("from repro.units import to_mj\n"
                    "def f(total_energy: float) -> float:\n"
                    "    return to_mj(total_energy)\n", "UD101") == 0

    def test_unit_constant_conversion_understood(self):
        # x_ms * MS is the canonical idiom: milli -> canonical.
        assert rule_ids("from repro.units import MS\n"
                        "def f(delay_ms: float, stall_seconds: float)"
                        " -> float:\n"
                        "    return delay_ms * MS + stall_seconds\n"
                        ) == []

    def test_power_times_time_is_energy(self):
        assert hits("def f(avg_power: float, active_seconds: float,\n"
                    "      total_energy: float) -> float:\n"
                    "    return total_energy + avg_power * "
                    "active_seconds\n", "UD101") == 0

    def test_division_by_count_preserves_dimension(self):
        assert hits("def f(total_energy: float, n_frames: int,\n"
                    "      budget_energy: float) -> float:\n"
                    "    return budget_energy + total_energy / "
                    "n_frames\n", "UD101") == 0

    def test_store_against_name_claim_fires(self):
        assert hits("def f(stall_seconds: float) -> None:\n"
                    "    stall_ms = stall_seconds\n"
                    "    print(stall_ms)\n", "UD102") == 1

    def test_store_with_conversion_clean(self):
        assert hits("from repro.units import to_ms\n"
                    "def f(stall_seconds: float) -> None:\n"
                    "    stall_ms = to_ms(stall_seconds)\n"
                    "    print(stall_ms)\n", "UD102") == 0

    def test_return_against_function_name_fires(self):
        assert hits("def total_ms(elapsed_seconds: float) -> float:\n"
                    "    return elapsed_seconds\n", "UD102") == 1

    def test_return_with_conversion_clean(self):
        assert hits("from repro.units import to_ms\n"
                    "def total_ms(elapsed_seconds: float) -> float:\n"
                    "    return to_ms(elapsed_seconds)\n", "UD102") == 0

    def test_interprocedural_return_dim_resolved(self):
        # g() mixes canonical joules with per_frame_mj()'s milli return
        # — only decidable through the call graph.
        source = ("def per_frame_mj(x: float) -> float:\n"
                  "    frame_mj = 2.0 * x\n"
                  "    return frame_mj\n"
                  "def g(total_joules: float, x: float) -> float:\n"
                  "    return total_joules + per_frame_mj(x)\n")
        assert hits(source, "UD101") == 1

    def test_interprocedural_matching_dim_clean(self):
        source = ("def per_frame_mj(x: float) -> float:\n"
                  "    frame_mj = 2.0 * x\n"
                  "    return frame_mj\n"
                  "def g(total_mj: float, x: float) -> float:\n"
                  "    return total_mj + per_frame_mj(x)\n")
        assert hits(source, "UD101") == 0

    def test_ambiguous_public_parameter_fires(self):
        assert hits("def schedule(power: float) -> float:\n"
                    "    return power\n", "UD103") == 1

    def test_docstring_unit_mention_satisfies_ud103(self):
        assert hits('def schedule(power: float) -> float:\n'
                    '    """Plan against ``power`` in watts."""\n'
                    '    return power\n', "UD103") == 0

    def test_private_function_exempt_from_ud103(self):
        assert hits("def _schedule(power: float) -> float:\n"
                    "    return power\n", "UD103") == 0

    def test_scale_suffixed_parameter_not_ambiguous(self):
        assert hits("def schedule(power_mw: float) -> float:\n"
                    "    return power_mw\n", "UD103") == 0

    def test_unknown_dimensions_stay_silent(self):
        # No claims anywhere: inference must not guess.
        assert rule_ids("def f(a: float, b: float) -> float:\n"
                        "    return a + b\n") == []


# --------------------------------------------------------------------------
# DT2xx: determinism taint tracking
# --------------------------------------------------------------------------

_SINK_CLASS = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class FooResult:\n"
    "    started: float = 0.0\n"
    "    def to_jsonable(self) -> dict:\n"
    "        return {'started': self.started}\n"
    "    @classmethod\n"
    "    def from_jsonable(cls, data: dict) -> 'FooResult':\n"
    "        return cls(started=data['started'])\n")


_DECORATED_SINK = (
    "from dataclasses import dataclass\n"
    "from repro.jsonable import Jsonable, jsonable\n"
    "@jsonable\n"
    "@dataclass\n"
    "class FooResult(Jsonable):\n"
    "    started: float = 0.0\n")


class TestTaintTracking:
    def test_direct_source_into_result_fires(self):
        source = ("import time\n" + _SINK_CLASS
                  + "def f() -> FooResult:\n"
                    "    return FooResult(started=time.time())\n")
        assert hits(source, "DT201") == 1

    def test_clean_value_into_result_clean(self):
        source = (_SINK_CLASS
                  + "def f(elapsed: float) -> FooResult:\n"
                    "    return FooResult(started=elapsed)\n")
        assert hits(source, "DT201") == 0

    def test_taint_through_call_chain_fires(self):
        # The source hides two calls away from the sink write.
        source = ("import time\n" + _SINK_CLASS
                  + "def now() -> float:\n"
                    "    return time.time()\n"
                    "def stamp() -> float:\n"
                    "    return now() + 1.0\n"
                    "def f() -> FooResult:\n"
                    "    return FooResult(started=stamp())\n")
        assert hits(source, "DT201") == 1

    def test_taint_into_non_sink_class_clean(self):
        # No to_jsonable — not a serialized result, DT201 stays quiet
        # (D002 still fires on the wall-clock call itself).
        source = ("import time\n"
                  "from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Scratch:\n"
                  "    started: float = 0.0\n"
                  "def f() -> Scratch:\n"
                  "    return Scratch(started=time.time())\n")
        assert hits(source, "DT201") == 0

    def test_environ_read_is_a_source(self):
        source = ("import os\n" + _SINK_CLASS
                  + "def f() -> FooResult:\n"
                    "    return FooResult(started=float("
                    "os.getenv('T', '0')))\n")
        assert hits(source, "DT201") == 1

    def test_set_iteration_float_accumulation_fires(self):
        assert hits("def f(values: list) -> float:\n"
                    "    total = 0.0\n"
                    "    for v in set(values):\n"
                    "        total += v * 2.0\n"
                    "    return total\n", "DT202") == 1

    def test_sorted_set_iteration_clean(self):
        assert hits("def f(values: list) -> float:\n"
                    "    total = 0.0\n"
                    "    for v in sorted(set(values)):\n"
                    "        total += v * 2.0\n"
                    "    return total\n", "DT202") == 0

    def test_int_accumulation_over_set_clean(self):
        # Integer accumulation is exact in any order.
        assert hits("def f(values: list) -> int:\n"
                    "    total = 0\n"
                    "    for v in set(values):\n"
                    "        total += int(v)\n"
                    "    return total\n", "DT202") == 0

    def test_sum_over_set_comprehension_fires(self):
        assert hits("def f(values: list) -> float:\n"
                    "    return sum({v * 0.5 for v in values})\n",
                    "DT202") == 1

    def test_float_merge_accumulation_fires(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Agg:\n"
                  "    total: float = 0.0\n"
                  "    def merge(self, other: 'Agg') -> None:\n"
                  "        self.total += other.total\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {'total': self.total}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Agg':\n"
                  "        return cls(total=d['total'])\n")
        assert hits(source, "DT203") == 1

    def test_int_quantized_merge_clean(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Agg:\n"
                  "    q_total: int = 0\n"
                  "    def merge(self, other: 'Agg') -> None:\n"
                  "        self.q_total += other.q_total\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {'q_total': self.q_total}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Agg':\n"
                  "        return cls(q_total=d['q_total'])\n")
        assert hits(source, "DT203") == 0

    def test_decorated_result_is_a_sink(self):
        # @jsonable classes carry no literal to_jsonable; the decorator
        # alone marks them as serialized.
        source = ("import time\n" + _DECORATED_SINK
                  + "def f() -> FooResult:\n"
                    "    return FooResult(started=time.time())\n")
        assert hits(source, "DT201") == 1

    def test_decorated_sink_clean_value_clean(self):
        source = (_DECORATED_SINK
                  + "def f(elapsed: float) -> FooResult:\n"
                    "    return FooResult(started=elapsed)\n")
        assert hits(source, "DT201") == 0

    def test_decorated_float_merge_accumulation_fires(self):
        source = ("from dataclasses import dataclass\n"
                  "from repro import jsonable\n"
                  "@jsonable.jsonable\n"
                  "@dataclass\n"
                  "class Agg(jsonable.Jsonable):\n"
                  "    total: float = 0.0\n"
                  "    def merge(self, other: 'Agg') -> None:\n"
                  "        self.total += other.total\n")
        assert hits(source, "DT203") == 1

    def test_suppression_applies_to_project_rules(self):
        source = ("import time\n" + _SINK_CLASS
                  + "def f() -> FooResult:\n"
                    "    return FooResult(started=time.time())"
                    "  # repro-lint: disable=DT201 display-only stamp\n")
        assert hits(source, "DT201") == 0

    def test_no_merge_method_is_not_an_aggregate(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Tally:\n"
                  "    total: float = 0.0\n"
                  "    def add(self, x: float) -> None:\n"
                  "        self.total += x\n")
        assert hits(source, "DT203") == 0


# --------------------------------------------------------------------------
# Engine growth: registry scopes/severities, SARIF, cache, parallel
# --------------------------------------------------------------------------


class TestRegistryGrowth:
    def test_new_rule_ids_registered(self):
        ids = {rule.id for rule in all_rules()}
        assert {"UD101", "UD102", "UD103",
                "DT201", "DT202", "DT203"} <= ids

    def test_scopes(self):
        assert get_rule("D001").scope == "file"
        assert get_rule("UD101").scope == "project"
        assert get_rule("DT201").scope == "project"

    def test_severity_tiers(self):
        assert get_rule("UD101").severity == "error"
        assert get_rule("UD103").severity == "warning"

    def test_every_rule_has_valid_severity(self):
        assert all(rule.severity in ("error", "warning")
                   for rule in all_rules())


class TestSarifExport:
    def _report(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n"
                       "rng = np.random.default_rng()\n")
        return lint_paths([str(bad)])

    def test_sarif_shape(self, tmp_path):
        sarif = report_to_sarif(self._report(tmp_path))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_index = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert "UD101" in rule_index and "D001" in rule_index
        assert rule_index["UD103"]["defaultConfiguration"]["level"] \
            == "warning"
        result = run["results"][0]
        assert result["ruleId"] == "D001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2

    def test_cli_sarif_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        out = tmp_path / "report.sarif"
        code = main(["lint", str(bad), "--sarif", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["runs"][0]["results"][0]["ruleId"] == "D002"

    def test_cli_format_sarif(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("X = 1\n")
        assert main(["lint", str(good), "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"


def _violation_key(violation):
    return (violation.path, violation.line, violation.col,
            violation.rule_id, violation.message, violation.context)


class TestIncrementalCache:
    def _tree(self, tmp_path, files):
        root = tmp_path / "proj"
        root.mkdir(exist_ok=True)
        for name, text in files.items():
            (root / name).write_text(text)
        return root

    def test_warm_run_identical_and_cached(self, tmp_path):
        root = self._tree(tmp_path, {
            "a.py": "import time\nt = time.time()\n",
            "b.py": "def total_ms(elapsed_seconds: float) -> float:\n"
                    "    return elapsed_seconds\n",
        })
        cache = tmp_path / "cache.json"
        cold = lint_paths([str(root)], cache_path=str(cache))
        warm = lint_paths([str(root)], cache_path=str(cache))
        assert cold.cache_misses == 2 and cold.cache_hits == 0
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert [_violation_key(v) for v in cold.violations] \
            == [_violation_key(v) for v in warm.violations]
        assert len(cold.violations) == 2  # D002 + UD102

    def test_edit_invalidates_only_that_file(self, tmp_path):
        root = self._tree(tmp_path, {"a.py": "X = 1\n", "b.py": "Y = 2\n"})
        cache = tmp_path / "cache.json"
        lint_paths([str(root)], cache_path=str(cache))
        (root / "a.py").write_text("import time\nt = time.time()\n")
        report = lint_paths([str(root)], cache_path=str(cache))
        assert report.cache_hits == 1 and report.cache_misses == 1
        assert [v.rule_id for v in report.violations] == ["D002"]

    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path):
        root = self._tree(tmp_path, {"a.py": "X = 1\n"})
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        report = lint_paths([str(root)], cache_path=str(cache))
        assert report.ok and report.cache_misses == 1

    def test_cache_is_select_independent(self, tmp_path):
        # A run with --select must not poison the cache for a full run.
        root = self._tree(tmp_path, {
            "a.py": "import time\nt = time.time()\n"
                    "def total_ms(elapsed_seconds: float) -> float:\n"
                    "    return elapsed_seconds\n"})
        cache = tmp_path / "cache.json"
        narrow = lint_paths([str(root)], select=["D002"],
                            cache_path=str(cache))
        assert [v.rule_id for v in narrow.violations] == ["D002"]
        full = lint_paths([str(root)], cache_path=str(cache))
        assert full.cache_hits == 1
        assert sorted(v.rule_id for v in full.violations) \
            == ["D002", "UD102"]

    def test_config_hash_invalidation(self, tmp_path):
        root = self._tree(tmp_path, {"a.py": "X = 1\n"})
        cache_file = tmp_path / "cache.json"
        lint_paths([str(root)], cache_path=str(cache_file))
        payload = json.loads(cache_file.read_text())
        assert payload["config"] == config_hash()
        payload["config"] = "stale"
        cache_file.write_text(json.dumps(payload))
        report = lint_paths([str(root)], cache_path=str(cache_file))
        assert report.cache_misses == 1  # stale config = cold run

    def test_parallel_jobs_identical_findings(self, tmp_path):
        root = self._tree(tmp_path, {
            "a.py": "import time\nt = time.time()\n",
            "b.py": "def total_ms(elapsed_seconds: float) -> float:\n"
                    "    return elapsed_seconds\n",
            "c.py": "X = 1\n",
        })
        serial = lint_paths([str(root)])
        parallel = lint_paths([str(root)], jobs=2)
        assert [_violation_key(v) for v in serial.violations] \
            == [_violation_key(v) for v in parallel.violations]

    def test_timing_line_present(self, tmp_path):
        root = self._tree(tmp_path, {"a.py": "X = 1\n"})
        report = lint_paths([str(root)])
        assert report.elapsed_seconds > 0.0
        assert "analysis time:" in report.render_text()

    def test_report_jsonable_round_trip(self, tmp_path):
        from repro.lint import LintReport

        root = self._tree(tmp_path, {
            "a.py": "import time\nt = time.time()\n"})
        cache = tmp_path / "cache.json"
        report = lint_paths([str(root)], cache_path=str(cache))
        clone = LintReport.from_jsonable(
            json.loads(json.dumps(report.to_jsonable())))
        assert clone.files_checked == report.files_checked
        assert clone.elapsed_seconds == report.elapsed_seconds
        assert clone.cache_hits == report.cache_hits
        assert clone.cache_misses == report.cache_misses
        assert [_violation_key(v) for v in clone.violations] \
            == [_violation_key(v) for v in report.violations]


#: Statement templates for the hypothesis property: a mix of clean and
#: violating module bodies exercising file *and* project rules.
_SNIPPETS = [
    "X = 1\n",
    "import time\nt = time.time()\n",
    "import numpy as np\nrng = np.random.default_rng()\n",
    "import numpy as np\nrng = np.random.default_rng(7)\n",
    "def total_ms(elapsed_seconds: float) -> float:\n"
    "    return elapsed_seconds\n",
    "from repro.units import to_ms\n"
    "def span_ms(elapsed_seconds: float) -> float:\n"
    "    return to_ms(elapsed_seconds)\n",
    "def f(values: list) -> float:\n"
    "    total = 0.0\n"
    "    for v in set(values):\n"
    "        total += v * 2.0\n"
    "    return total\n",
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class Thing:\n"
    "    a: float = 0.0\n"
    "    b: float = 0.0\n"
    "    def to_jsonable(self) -> dict:\n"
    "        return {'a': self.a}\n"
    "    @classmethod\n"
    "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
    "        return cls(a=d['a'])\n",
]


class TestIncrementalProperty:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.sampled_from(range(len(_SNIPPETS))),
                    min_size=1, max_size=4),
           st.lists(st.sampled_from(range(len(_SNIPPETS))),
                    min_size=0, max_size=4))
    def test_incremental_equals_cold(self, tmp_path_factory,
                                     first, second):
        """Cold run == warm run == warm run after edits, always."""
        tmp_path = tmp_path_factory.mktemp("lintprop")
        root = tmp_path / "proj"
        root.mkdir()
        for index, pick in enumerate(first):
            (root / f"m{index}.py").write_text(_SNIPPETS[pick])
        cache = tmp_path / "cache.json"

        cold = lint_paths([str(root)])
        warm_first = lint_paths([str(root)], cache_path=str(cache))
        warm_again = lint_paths([str(root)], cache_path=str(cache))
        expected = [_violation_key(v) for v in cold.violations]
        assert [_violation_key(v) for v in warm_first.violations] \
            == expected
        assert [_violation_key(v) for v in warm_again.violations] \
            == expected
        assert warm_again.cache_hits == len(first)

        # Mutate some files, then demand the warm run still matches a
        # from-scratch run exactly.
        for index, pick in enumerate(second):
            (root / f"m{index}.py").write_text(_SNIPPETS[pick])
        cold_after = lint_paths([str(root)])
        warm_after = lint_paths([str(root)], cache_path=str(cache))
        assert [_violation_key(v) for v in warm_after.violations] \
            == [_violation_key(v) for v in cold_after.violations]


# --------------------------------------------------------------------------
# Baseline migration for the new rule ids
# --------------------------------------------------------------------------


class TestBaselineMigration:
    def test_baseline_absorbs_project_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def total_ms(elapsed_seconds: float) -> float:\n"
                       "    return elapsed_seconds\n")
        first = lint_paths([str(bad)])
        assert [v.rule_id for v in first.violations] == ["UD102"]
        baseline = Baseline.from_violations(first.violations)
        again = lint_paths([str(bad)], baseline=baseline)
        assert again.ok and again.baselined == 1

    def test_baseline_round_trip_with_new_ids(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n"
                       "def total_ms(elapsed_seconds: float) -> float:\n"
                       "    t = time.time()\n"
                       "    return elapsed_seconds + t\n")
        report = lint_paths([str(bad)])
        ids = sorted(v.rule_id for v in report.violations)
        assert "UD102" in ids and "D002" in ids
        path = tmp_path / "baseline.json"
        write_baseline(Baseline.from_violations(report.violations),
                       str(path))
        reloaded = load_baseline(str(path))
        assert lint_paths([str(bad)], baseline=reloaded).ok

    def test_baseline_dies_with_the_code(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def total_ms(elapsed_seconds: float) -> float:\n"
                       "    return elapsed_seconds\n")
        baseline = Baseline.from_violations(
            lint_paths([str(bad)]).violations)
        bad.write_text("from repro.units import to_ms\n"
                       "def total_ms(elapsed_seconds: float) -> float:\n"
                       "    return to_ms(elapsed_seconds)\n")
        report = lint_paths([str(bad)], baseline=baseline)
        assert report.ok and report.baselined == 0  # nothing to absorb

    def test_fingerprints_of_new_rules_are_stable(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def total_ms(elapsed_seconds: float) -> float:\n"
                       "    return elapsed_seconds\n")
        violation = lint_paths([str(bad)]).violations[0]
        path, rule_id, context = violation.fingerprint()
        assert rule_id == "UD102"
        assert context == "return elapsed_seconds"


class TestAnalyzeFileApi:
    def test_entry_is_json_serializable(self):
        entry = analyze_file("import time\nt = time.time()\n", FAKE)
        clone = json.loads(json.dumps(entry))
        assert clone["summary"]["module"] == "repro.fake_module"
        assert clone["violations"][0]["rule"] == "D002"

    def test_fingerprint_is_content_keyed(self):
        assert file_fingerprint("a = 1\n") != file_fingerprint("a = 2\n")
        assert file_fingerprint("a = 1\n") == file_fingerprint("a = 1\n")

    def test_cache_round_trip(self, tmp_path):
        cache = LintCache()
        cache.put("x.py", "fp", {"violations": [], "suppressed": 0,
                                 "summary": {}, "suppressions": {}})
        target = tmp_path / "cache.json"
        cache.save(str(target))
        loaded = LintCache.load(str(target))
        assert loaded.get("x.py", "fp") is not None
        assert loaded.get("x.py", "other") is None
