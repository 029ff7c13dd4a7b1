"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from shiftperm import analysis, poly2  # noqa: E402
from shiftperm.gammaspan import kappa  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    gen = workloads.WORKLOADS[name].generate
    a, b, c = gen(7), gen(7), gen(8)
    assert a == b
    assert workloads.digest_key(a) == workloads.digest_key(b)
    assert workloads.digest_key(a) != workloads.digest_key(c)


CLASS_OF = {
    "cli-cold": lambda q: (q.get("verb", ""), q["code"]),
    "euclid-large": lambda q: (q["op"], q["n"]),
    "factor-xi": lambda q: q["op"],
    "table-scan": lambda q: (q["op"] in workloads.CHEAP_OPS, q["n"]),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cycles_keep_their_composition(name):
    """Every seed meets the same query classes in the same proportions."""
    def classes(seed):
        return sorted(map(CLASS_OF[name], workloads.WORKLOADS[name].generate(seed)))

    assert classes(1) == classes(2)


def _answers(name, queries):
    wl = workloads.WORKLOADS[name]
    check = wl.make_checker()
    for q in queries:
        out = wl.run(q)
        assert check(q, out) is None, q
        yield q, out, check


def test_euclid_checks_reject_wrong_answers():
    queries = [
        {"op": "inverse", "n": 1001, "f": 0b111},
        {"op": "inverse", "n": 1002, "f": 0b1111},  # 1 + X divides it: no unit
        {"op": "is_permutation", "n": 1002, "f": 0b1111},
        {"op": "compose", "n": 1000, "f": 0b1011, "g": 0b111},
    ]
    results = list(_answers("euclid-large", queries))
    (q0, inv, check), (q1, raised, _), (q2, perm, _), (q3, comp, _) = results
    assert isinstance(raised, workloads.Raised) and raised.witness == 0b11
    assert check(q0, inv ^ (1 << 5)) is not None
    assert check(q1, workloads.Raised("NonUnitError", "", 0b111)) is not None
    assert check(q1, 0b1) is not None
    assert check(q2, (True, 1)) is not None
    assert check(q3, comp ^ 1) is not None


def test_factor_checks_reject_wrong_answers():
    f = oracle.clmul(0b111, 0b1011)  # (1+X+X^2)(1+X+X^3): orders 3 and 7
    queries = [
        {"op": "xi", "f": f},
        {"op": "order", "f": f},
        {"op": "unit_group_order", "n": 12},
        {"op": "xi_upper_bound", "f": f},
        {"op": "realize_xi", "targets": [6, 14]},
        {"op": "inv_membership", "f": f, "n": 6},
    ]
    results = list(_answers("factor-xi", queries))
    check = results[0][2]
    assert results[0][1] == {6, 14} and results[1][1] == 21
    assert check(queries[0], frozenset({6})) is not None
    assert check(queries[1], 42) is not None  # not minimal
    assert check(queries[1], 7) is not None  # does not annihilate
    assert check(queries[2], results[2][1] + 2) is not None
    assert check(queries[3], frozenset({6})) is not None
    assert check(queries[4], analysis.realize_xi([6])) is not None
    assert check(queries[5], True) is not None


def test_factor_check_rejects_a_bad_factorization(monkeypatch):
    check = workloads.FactorChecker()
    monkeypatch.setattr(poly2, "factor", lambda f: [(poly2.BinPoly(0b1111), 1)])
    assert check({"op": "xi", "f": 0b1111}, frozenset({2})) is not None


def test_table_checks_reject_wrong_answers():
    queries = [
        {"op": "differential_uniformity", "n": 8, "f": 0b111},
        {"op": "compose_oracle", "n": 9, "f": 0b101, "g": 0b11},
        {"op": "is_permutation_bruteforce", "n": 12, "f": 0b111},
        {"op": "algebraic_degree", "n": 10, "f": 0b111},
        {"op": "analyze", "n": 8, "f": 0b111},
    ]
    results = list(_answers("table-scan", queries))
    check = results[0][2]
    assert results[2][1] is False  # 6 divides 12: kappa is no permutation
    assert check(queries[0], results[0][1] + 1) is not None  # odd DU
    table = results[1][1].copy()
    table[3] ^= np.uint64(1)
    assert check(queries[1], table) is not None
    assert check(queries[2], True) is not None
    assert check(queries[3], results[3][1] + 1) is not None
    report = results[4][1]
    report.differential_uniformity += 1
    assert check(queries[4], report) is not None


def test_anf_oracle_matches_known_degrees():
    # chi has degree 2 and kappa degree 3 on n >= 5
    assert workloads.anf_degree_oracle(0b11, 9) == 2
    assert workloads.anf_degree_oracle(0b111, 9) == 3


def test_cli_checks_reject_wrong_answers():
    ok_query = {"verb": "xi", "kind": "f", "text": "g0+g2", "code": 0}
    expected = json.dumps(workloads.cli_expected(ok_query))
    good = workloads.CliOutcome(0, expected, "")
    assert workloads.cli_verify(ok_query, good) is None
    assert workloads.cli_verify(ok_query, workloads.CliOutcome(0, expected.replace('"xi": [2]', '"xi": [6]'), "")) is not None
    assert workloads.cli_verify(ok_query, workloads.CliOutcome(1, "", "")) is not None
    assert workloads.cli_verify({"argv": ["xi"], "code": 2}, workloads.CliOutcome(0, "", "")) is not None


def test_cli_query_end_to_end():
    q = {"verb": "invert", "n": 8, "kind": "poly", "text": "111", "code": 0}
    out = workloads.cli_run(q, workloads.cli_command(False), run.child_env(os.path.join(ROOT, "src")))
    assert workloads.cli_verify(q, out) is None


def test_clear_caches_reaches_through_the_tracer():
    poly2.irreducible_polys(5)
    t = tracing.Tracer()
    t.install()
    try:
        assert poly2.irreducible_polys is not poly2.irreducible_polys.__wrapped__
        workloads.clear_caches()
        assert poly2.irreducible_polys.__wrapped__.cache_info().currsize == 0
    finally:
        t.uninstall()


def test_worker_runs_passes_from_cold_caches_and_keeps_each_querys_median_run(monkeypatch, capsys):
    import worker

    cold = []

    def run_query(q):
        cold.append(poly2.irreducible_polys.cache_info().currsize == 0)
        poly2.irreducible_polys(4)
        return q

    fake = workloads.Workload("fake", lambda seed: [1, 2, 3], run_query, lambda: lambda q, out: None)
    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake)
    assert worker.main(["--workload", "fake", "--seed", "1", "--seconds", "0.05"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    lats = [r["lat"] for r in records if "lat" in r]
    done = records[-1]
    assert done["attempted"] == len(lats) > 3 and done["failed"] == 0
    assert done["median_s"] == [statistics.median(lats[i::3]) for i in range(3)]
    assert len(done["median_ref"]) == 3 and done["ref_s"] > 0
    assert done["runs_per_query"] == [len(lats) // 3, (len(lats) + 2) // 3]
    assert cold[::3] == [True] * len(cold[::3]) and not any(cold[1::3])


def test_worker_fails_repeats_that_change_their_answer(monkeypatch, capsys):
    import worker

    counter = iter(range(10**9))
    fake = workloads.Workload("fake", lambda seed: [1, 2], lambda q: next(counter), lambda: lambda q, out: None)
    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake)
    worker.main(["--workload", "fake", "--seed", "1", "--seconds", "0.05"])
    done = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert done["attempted"] > 2 and done["failed"] == done["attempted"] - 2


def test_runs_are_measured_in_the_references_around_them():
    import worker

    refs = [(0.0, 0.001), (0.5, 0.002), (3.0, 0.004), (10.0, 0.001)]
    runs = [(0.4, 0.5), (3.1, 3.3), (6.0, 6.5)]  # the last has no reference within 0.5 s
    assert worker.in_refs(runs, refs) == pytest.approx([0.1 / 0.0015, 0.2 / 0.004, 0.5 / 0.004])


def test_self_time_arithmetic():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 10.0, 12.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t.query_id = 3
    t.open("a")  # 0
    t.open("b")  # 1
    t.open("c")  # 2
    t.close()  # c: 2..4, no children
    t.close()  # b: 1..5, 2 s of it in c
    t.open("b")  # 9
    t.close()  # b: 9..10
    t.close()  # a: 0..12, 5 s of it in children
    by_name = {(s[3], s[4]): s for s in t.spans}
    c, b1, b2, a = by_name[("c", 2.0)], by_name[("b", 4.0)], by_name[("b", 1.0)], by_name[("a", 12.0)]
    assert c[5] == 2.0 and b1[5] == 2.0 and b2[5] == 1.0 and a[5] == 7.0
    assert c[1] == b1[0] and b1[1] == a[0] and b2[1] == a[0] and a[1] is None
    assert {s[2] for s in t.spans} == {3}
    agg = t.aggregate()["spans"]
    assert agg["b"] == [2, 5.0, 3.0] and agg["a"] == [1, 12.0, 7.0]
    assert sum(v[2] for v in agg.values()) == 12.0  # self times tile the root


def test_tracer_patches_names_bound_elsewhere_and_restores_them():
    t = tracing.Tracer()
    original = analysis.ring_inverse
    t.install()
    try:
        assert analysis.ring_inverse is not original
        t.run_query(0, analysis.inverse, kappa(8))
    finally:
        t.uninstall()
    assert analysis.ring_inverse is original
    names = {s[0]: s for s in t.spans}
    ext = next(s for s in t.spans if s[3] == "poly2.ext_gcd")
    chain = []
    while ext is not None:
        chain.append(ext[3])
        ext = names.get(ext[1])
    assert chain == ["poly2.ext_gcd", "ring.ring_inverse", "analysis.inverse", tracing.QUERY]
    metrics = tracing.layer_metrics(t.aggregate())
    assert metrics["trace.layers_self_s"] <= metrics["trace.query_s"]


def test_absent_traced_function_is_reported_not_fatal():
    fake = types.ModuleType("shiftperm.poly2")
    fake.gcd = lambda a, b: a
    t = tracing.Tracer()
    t.install(modules={"shiftperm.poly2": fake})
    assert "poly2.divrem" in t.absent and "analysis.analyze" in t.absent
    assert "poly2.gcd" not in t.absent
    assert fake.gcd(1, 2) == 1 and t.spans[0][3] == "poly2.gcd"
    t.uninstall()
    metrics = tracing.layer_metrics(t.aggregate())
    assert metrics["poly2.factor.s"] == 0 and metrics["poly2.factor.calls"] == 0


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |     250000 |   numpy\n"
        "import time:        80 |     400000 | shiftperm\n"
        "not ours\n"
    )
    assert tracing.parse_importtime(text) == {"numpy": 0.25, "shiftperm": 0.4}


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = set(tracing.layer_metrics({"spans": {}, "counts": {}, "absent": []}))
    layer |= {f"import.{m}_s" for m in tracing.IMPORTS} | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)
    # cli-cold runs on demand only: see "Limits of this harness" in README.md
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) - {"cli-cold"}
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_oracle_unit_counts_agree():
    for n in range(1, 17):
        assert oracle.unit_count_formula(n) == oracle.unit_count_exhaustive(n)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0 and p.stdout == ""


def test_a_run_over_budget_is_killed_and_reported_with_partial_counts(tmp_path, monkeypatch):
    stuck = tmp_path / "stuck_worker.py"
    stuck.write_text(
        "import json, time\n"
        "print(json.dumps({'ready': time.perf_counter()}), flush=True)\n"
        "print(json.dumps({'lat': 0.01}), flush=True)\n"
        "time.sleep(60)\n"
    )
    monkeypatch.setattr(run, "WORKER", str(stuck))
    monkeypatch.setattr(run, "BUDGET_MARGIN_S", 1.0)
    start = time.monotonic()
    w = run.launch(os.path.join(ROOT, "src"), "table-scan", 1, 1)
    assert time.monotonic() - start < 30
    assert w.timed_out and not w.correct
    assert w.lats == [0.01] and w.attempted == 2 and w.failed == 2
