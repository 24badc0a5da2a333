"""Tests of the benchmark itself (not of the library):

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from one_pass import run_items
from run import END_TO_END
from tracer import LAYER_METRICS, Tracer, unit
from workloads import GOLDEN, WORKLOADS, Item, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_wrong_expected_value_counts_as_failure():
    from siegelforms.cohom import trace_T_Sjk
    from siegelforms.g2data import published_lambdas

    lam3 = published_lambdas()[(6, 8)][3]

    def item(expected):
        return Item("S_6,8 p=3", lambda: trace_T_Sjk(6, 8, 3).result, lambda got: got == expected)

    assert run_items([item(lam3)])[0] == 0
    assert run_items([item(lam3 + 1)])[0] == 1


def test_raising_item_is_one_failure_and_the_rest_still_run():
    def boom():
        raise ZeroDivisionError

    items = [Item("raises", boom, lambda got: True), Item("fine", lambda: 1, lambda got: got == 1)]
    assert run_items(items)[0] == 1


def test_seed_permutes_order_but_not_the_inputs(tmp_path):
    labels = {
        seed: [item.label for item in WORKLOADS["expansions"](tmp_path).ordered(seed)]
        for seed in (1, 2)
    }
    assert labels[1] != labels[2] and sorted(labels[1]) == sorted(labels[2])
    final = Item("final", lambda: 0, lambda got: True)
    items = [Item(str(i), lambda: i, lambda got: True) for i in range(5)]
    assert Workload(items, [final]).ordered(3)[-1] is final


def test_self_times_partition_nested_spans():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.02))
    outer = tracer.span("outer", lambda: (time.sleep(0.01), inner()))
    leaf = tracer.leaf("leaf", "leaf_calls", lambda x: x)
    gen = tracer.generator("step", lambda n: (inner() or i for i in range(n)), lambda *a: None)

    tracer.start_pass()
    outer()
    assert [leaf(i) for i in range(3)] == [0, 1, 2]
    assert list(gen(2)) == [0, 1]

    self_s = tracer.self_s
    assert self_s["inner"] >= 0.06 and 0.01 <= self_s["outer"] < 0.02
    assert self_s["step"] < 0.01 and tracer.counts["leaf_calls"] == 3
    assert sum(self_s.values()) == pytest.approx(tracer.spanned_s(), abs=1e-9)


def test_missing_binding_is_reported_absent():
    tracer = Tracer()
    tracer.install(types.ModuleType("siegelforms.census"), "_g2_pass", lambda fn: fn)
    assert tracer.absent == ["census._g2_pass"]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit(name)) for name in LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_golden_copies_equal_the_census_cache():
    cache = ROOT / ".census_cache"
    shared = [p.name for p in GOLDEN.glob("*.json") if (cache / p.name).is_file()]
    if not shared:
        pytest.skip("no golden census files in .census_cache")
    for name in shared:
        assert (GOLDEN / name).read_bytes() == (cache / name).read_bytes(), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "expansions",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
