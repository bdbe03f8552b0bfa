"""Checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_bench.py
"""

import json

import run
import workloads as wl
from spans import layer_metrics


def test_same_seed_gives_identical_verify_jobs():
    assert wl.verify_specs(7) == wl.verify_specs(7)
    assert wl.verify_specs(7) != wl.verify_specs(8)


def test_verify_jobs_cover_every_stratum_once():
    specs = wl.verify_specs(3)
    assert len(specs) == len(wl.GRID_GROUPS) * len(wl.GRID_SITES) * len(wl.GRID_MATTER) * len(wl.GRID_TWISTS)
    for s in specs:
        assert len(s["edges"]) <= wl.MAX_LINKS
        assert s["sites"] + (s["twist"] == "dangling") <= max(wl.GRID_SITES)
        if s.get("vacuum") == "staggered":
            assert s["sites"] % 2 == 0


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_layer_self_time_excludes_child_spans():
    spans = [["counting.count", 0.0, 10.0, -1, "a", None],
             ["matter.characters", 1.0, 3.0, 0, "a", {"matter.distinct_site_chars": 2}],
             ["counting.count", 4.0, 9.0, 0, "a", {"counting.ring_order_max": 5}],
             ["counting.count", 0.0, 1.0, -1, "b", {"counting.ring_order_max": 3}]]
    out = layer_metrics(spans)
    assert out["metrics"]["counting.count_s"] == 3.0 + 5.0 + 1.0
    assert out["metrics"]["matter.characters_s"] == 2.0
    assert out["metrics"]["counting.ring_order_max"] == 5
    assert out["counting_per_job"] == {"a": 8.0, "b": 1.0}
