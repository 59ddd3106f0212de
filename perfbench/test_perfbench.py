"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

from surfbraid import klein  # noqa: E402
from surfbraid.words import Word, commutator  # noqa: E402


def _words(queries):
    return [(q.get("n"), q.get("kind"), q["word"], q["trivial"])
            for q in queries]


class TestSeeding:
    def test_same_seed_same_queries(self):
        assert _words(inputs.wordproblem_block(7, 3)) == \
            _words(inputs.wordproblem_block(7, 3))
        assert _words(inputs.towers_cheap(7, 1)) == \
            _words(inputs.towers_cheap(7, 1))
        assert inputs.verify_order(7) == inputs.verify_order(7)

    def test_other_seed_other_queries(self):
        assert _words(inputs.wordproblem_block(7, 0)) != \
            _words(inputs.wordproblem_block(8, 0))
        assert _words(inputs.towers_cheap(7, 0)) != \
            _words(inputs.towers_cheap(8, 0))

    def test_block_is_stratified(self):
        block = inputs.wordproblem_block(3, 0)
        random_words = [q for q in block if not q["trivial"]]
        for n in inputs.WORDPROBLEM_NS:
            assert sorted(len(q["word"]) for q in random_words
                          if q["n"] == n) == list(inputs.WORDPROBLEM_LENGTHS)
        assert sum(1 for q in block if q["trivial"]) == \
            len(inputs.WORDPROBLEM_NS) * len(inputs.TRIVIAL_KINDS)

    def test_verify_runs_every_suite(self):
        assert sorted(inputs.verify_order(1)) == sorted(inputs.SUITES)


class TestNegativeControls:
    def test_trivial_label_catches_nontrivial_answer(self):
        q = next(q for q in inputs.wordproblem_block(1, 0) if q["trivial"])
        assert workloads.check_normal_form(q, klein.normal_form(q["word"],
                                                                q["n"])) is None
        wrong = klein.normal_form(Word.from_syms(klein.base_generators(q["n"])[0]),
                                  q["n"])
        assert workloads.check_normal_form(q, wrong) is not None

    def test_wrong_normal_form_is_caught(self):
        block = inputs.wordproblem_block(1, 0)
        qs = [q for q in block if not q["trivial"] and q["n"] == 3]
        right = klein.normal_form(qs[0]["word"], 3)
        assert workloads.check_normal_form(qs[0], right) is None
        other = klein.normal_form(qs[1]["word"], 3)
        assert workloads.check_normal_form(qs[0], other) is not None

    def test_corrupted_frozen_order_is_caught(self, monkeypatch):
        monkeypatch.setitem(workloads.TOWER_ORDERS, "F3", [1, 8, 513])
        res = workloads.Result()
        workloads._towers_pass(0, inputs.towers_cheap(0, 0), res, None)
        assert res.failed == 1
        assert "tower-F3" in res.failures[0]

    def test_corrupted_cheap_answer_is_caught(self, monkeypatch):
        real = workloads._cheap_answer

        def flipped(st, q):
            out = real(st, q)
            return (not out) if q["kind"] == "kernel" else out
        monkeypatch.setattr(workloads, "_cheap_answer", flipped)
        res = workloads.Result()
        cheap = inputs.towers_cheap(0, 0)
        workloads._towers_pass(0, cheap, res, None)
        assert res.failed == sum(1 for q in cheap if q["kind"] == "kernel")

    def test_failed_verify_report_is_caught(self):
        ok = json.dumps({"claims": [{"id": "a", "verdict": "PASS"}]})
        bad = json.dumps({"claims": [{"id": "a", "verdict": "PASS"},
                                     {"id": "b", "verdict": "INDETERMINATE"}]})
        assert workloads.check_report(ok, 0) is None
        assert workloads.check_report(ok, 1) is not None
        assert workloads.check_report(bad, 0) is not None
        assert workloads.check_report("not json", 0) is not None


class TestTracer:
    def test_spans_self_time_and_restore(self):
        original = klein.normal_form
        tracer = Tracer()
        tracer.install()
        try:
            g = Word.from_syms(klein.base_generators(3)[0])
            central = commutator(klein.center_witness(3), g)
            assert klein.normal_form(central, 3).is_identity()
        finally:
            tracer.uninstall()
        assert klein.normal_form is original
        metrics = tracer.layer_metrics()
        # base_generators, center_witness, normal_form, is_identity
        assert metrics["klein.calls"] == 4
        normal_form_id = tracer.names.index("klein.normal_form")
        assert list(tracer.span_name).count(normal_form_id) == 1
        assert metrics["words.calls"] > 0
        assert metrics["klein.fiber_letters"] == 0
        assert all(metrics[f"{layer}.self_s"] > 0 for layer in LAYERS)
        # self times partition the time of the outermost spans
        roots = sum(tracer.span_end[i] - tracer.span_start[i]
                    for i in range(len(tracer.span_start))
                    if tracer.span_parent[i] == -1)
        assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) == \
            pytest.approx(roots)

    def test_errors_are_counted(self):
        tracer = Tracer()
        tracer.install()
        try:
            with pytest.raises(klein.BadLevel):
                klein.normal_form(Word(), 9)
        finally:
            tracer.uninstall()
        assert tracer.layer_metrics()["klein.errors"] == 1


class TestSmoke:
    def _run(self, cwd, *args):
        return subprocess.run([sys.executable, "perfbench/run.py", *args],
                              cwd=cwd, capture_output=True, text=True,
                              timeout=170)

    @pytest.mark.parametrize("workload", ["wordproblem", "towers"])
    @pytest.mark.parametrize("trace", ["0", "1"])
    def test_tiny_run(self, workload, trace):
        proc = self._run(ROOT, "--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        kind = "per_layer" if trace == "1" else "end_to_end"
        assert set(last["metrics"]) == {m["name"] for m in spec[kind]}

    @pytest.mark.parametrize("traced", [False, True])
    def test_tiny_verify_pass(self, traced):
        res = workloads.Result()
        parts = []
        times = workloads._verify_pass(["torus-derived", "center"], res,
                                       traced, parts)
        assert res.attempted == 2 and res.failed == 0, res.failures
        assert set(times) == {"torus-derived", "center"}
        assert all(raw > 0 and scale > 0 for raw, scale in times.values())
        if traced:
            assert len(parts) == 2
            assert sum(p["cli.calls"] for p in parts) == 2

    def test_fails_without_sources(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = self._run(tmp_path, "--workload", "towers", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
