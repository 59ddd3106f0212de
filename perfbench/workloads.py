"""The three benchmark workloads. Each runs one client in a closed loop (the
next query is sent when the previous one has returned), times every query,
and checks every answer outside the timed call.

A run returns a ``Result``: per-query latencies, per-block throughputs, the
attempted and failed counts, the properties of the generated inputs and,
for traced runs, the layer metrics.

The 2-core VM this benchmark was built on switches every few seconds between
a fast and a slow phase, the slow one about 1.45 times slower, which would
swamp any change in the program. So every timed segment (a wordproblem
block, one towers build, the cheap towers queries of a pass, one verify
suite, one set-up probe) is bracketed by a fixed calibration loop, and its
times are scaled to the speed at which that loop takes CALIBRATION_REF_S.
The raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import inputs
from probe import ROOT, SRC, setup_workload
from tracer import Tracer, fiber_letters, merge_metrics

from surfbraid import finite, klein, series
from surfbraid.presentations import Presentation, catalog
from surfbraid.words import Word

OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# A run does a fixed amount of work for its --seconds, so that two versions
# of the program solve the same queries: these are the seconds one
# wordproblem block, towers pass or verify round takes on a 2-core x86 VM.
BLOCK_SECONDS = {"wordproblem": 0.25, "towers": 3.3, "verify": 30.0}
# Verify suites that run longer than this run a second time.
RERUN_SUITE_S = 3.0
# Round-trip a non-trivial normal form only when it is this small: building
# the canonical word of a long fiber and solving it again costs up to
# hundreds of times the query itself.
ROUNDTRIP_MAX_FIBER = 48
ROUNDTRIP_MAX_LETTERS = 96
MAX_FAILURE_NOTES = 20
# Seconds the calibration loop takes on the reference VM in its fast phase.
CALIBRATION_REF_S = 0.006
_CALIBRATION_SYMS = tuple(("x", i) for i in range(8))


def _calibration_loop() -> float:
    """Integer arithmetic, then the tuple, list and dict traffic of a free
    reduction: over a block set repeated for four minutes, scaling by this
    pair left a coefficient of variation of 0.05 on 3-second passes (0.19
    raw), against 0.08 for the integer loop alone."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    out: List[Tuple[str, int]] = []
    seen: Dict[Tuple, int] = {}
    for i in range(8_000):
        letter = (_CALIBRATION_SYMS[i * 7 % 8], 1 if i * 13 % 5 else -1)
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
        seen[letter] = seen.get(letter, 0) + 1
    return time.perf_counter() - t0


class SpeedGauge:
    """The machine's current speed, read with the calibration loop (best of
    two) before and after each timed segment."""

    def __init__(self):
        self._last = self._read()

    @staticmethod
    def _read() -> float:
        return min(_calibration_loop(), _calibration_loop())

    def scale(self) -> float:
        """Factor taking the segment that just ended to reference speed."""
        now = self._read()
        factor = 2 * CALIBRATION_REF_S / (self._last + now)
        self._last = now
        return factor


@dataclass
class Result:
    latencies: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    block_rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    properties: Dict = field(default_factory=dict)
    layer_metrics: Optional[Dict[str, float]] = None

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(note)

    def add(self, raw: List[float], scale: float) -> None:
        """Latencies of one timed segment, and the segment's speed scale."""
        self.raw_latencies.extend(raw)
        self.latencies.extend(x * scale for x in raw)
        self.scales.append(scale)

    def close_block(self, start: int, queries: Optional[int] = None) -> None:
        """Throughput of the latencies added since index ``start``, each one
        query unless ``queries`` says how many they cover together."""
        if queries is None:
            queries = len(self.latencies) - start
        self.block_rates.append(queries / sum(self.latencies[start:]))

    def absorb(self, other: "Result") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (self.failures + other.failures)[:MAX_FAILURE_NOTES]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload: str) -> float:
    """Median over fresh processes of the workload's set-up time: package
    import plus lazy tables, or for verify interpreter start plus import."""
    samples = []
    gauge = SpeedGauge()
    for _ in range(SETUP_PROBES):
        if workload == "verify":
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import surfbraid.cli"],
                           env=_child_env(), cwd=ROOT, check=True,
                           timeout=CHILD_TIMEOUT_S)
            sample = time.perf_counter() - t0
        else:
            out = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("probe.py")),
                 "setup", workload],
                env=_child_env(), cwd=ROOT, check=True, capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S)
            sample = float(out.stdout.strip().splitlines()[-1])
        samples.append(sample * gauge.scale())
    return statistics.median(samples)


def work_blocks(workload: str, seconds: float) -> int:
    """Blocks (wordproblem), passes (towers) or rounds (verify) for a run
    length."""
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- wordproblem --------------------------------------------------------------

def _forget_last_strand(w: Word, n: int) -> Word:
    return Word([(s, e) for s, e in w.letters if max(s.indices) < n])


def check_normal_form(q: Dict, e) -> Optional[str]:
    """None when the normal form is right, else what is wrong with it."""
    w, n = q["word"], q["n"]
    if q["trivial"]:
        return None if e.is_identity() else f"{q['trivial']} word not trivial"
    # the base of the splitting is the image under forgetting strand n
    if klein.normal_form(_forget_last_strand(w, n), n - 1) != e.base:
        return "base part disagrees with the forgetful projection"
    if not e.is_identity() and fiber_letters(e) <= ROUNDTRIP_MAX_FIBER:
        canonical = e.to_word()
        if len(canonical) <= ROUNDTRIP_MAX_LETTERS and \
                klein.normal_form(canonical, n) != e:
            return "canonical word does not round-trip"
    return None


def _wordproblem_pass(blocks: List[List[Dict]], res: Result,
                      answers: List[int], check: bool,
                      tracer: Optional[Tracer] = None) -> None:
    """Solve every query of the blocks. With ``check`` each answer is
    verified and its hash kept in ``answers``; otherwise each answer must
    hash as the checked one did."""
    gauge = SpeedGauge()
    for block in blocks:
        start = len(res.latencies)
        raw = []
        for q in block:
            i = res.attempted
            if tracer is not None:
                tracer.request = i
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                e = klein.normal_form(q["word"], q["n"])
            except Exception as exc:  # count and go on: a failed query
                res.fail(f"query {i}: {type(exc).__name__}: {exc}")
                e = None
            raw.append(time.perf_counter() - t0)
            if check:
                answers.append(hash(e))
                problem = check_normal_form(q, e) if e is not None else None
                if problem:
                    res.fail(f"query {i} (n={q['n']}): {problem}")
            elif e is not None and hash(e) != answers[i]:
                res.fail(f"query {i}: traced answer differs")
        res.add(raw, gauge.scale())
        res.close_block(start)


def wordproblem_properties(blocks: List[List[Dict]]) -> Dict:
    qs = [q for b in blocks for q in b]
    lengths = Counter(len(q["word"]) for q in qs)
    return {
        "queries": len(qs),
        "blocks": len(blocks),
        "n_mix": dict(sorted(Counter(q["n"] for q in qs).items())),
        "length_histogram": dict(sorted(lengths.items())),
        "trivial_share": sum(1 for q in qs if q["trivial"]) / len(qs),
        "trivial_kinds": dict(Counter(q["trivial"] for q in qs
                                      if q["trivial"])),
        f"share_length_ge_{inputs.LONG_WORD}":
            sum(1 for q in qs if len(q["word"]) >= inputs.LONG_WORD) / len(qs),
    }


def run_wordproblem(seed: int, seconds: float, trace: bool) -> Result:
    """A traced run times half the blocks untraced, then the same blocks
    traced."""
    setup_workload("wordproblem")
    res = Result()
    count = work_blocks("wordproblem", seconds / 2 if trace else seconds)
    blocks = [inputs.wordproblem_block(seed, b) for b in range(count)]
    answers: List[int] = []
    _wordproblem_pass(blocks, res, answers, check=True)
    res.properties = wordproblem_properties(blocks)
    if trace:
        untraced_query_s = sum(res.latencies)
        traced = Result()
        tracer = Tracer()
        tracer.install()
        try:
            _wordproblem_pass(blocks, traced, answers, check=False,
                              tracer=tracer)
        finally:
            tracer.uninstall()
        res.absorb(traced)
        res.layer_metrics = _with_overhead(
            tracer, sum(traced.latencies), untraced_query_s,
            f"wordproblem-seed{seed}")
    return res


def _with_overhead(tracer: Tracer, traced_s: float, untraced_s: float,
                   tag: str) -> Dict[str, float]:
    metrics = tracer.layer_metrics()
    metrics["tracing.overhead_s"] = traced_s - untraced_s
    metrics["tracing.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics["tracing.spans"] = tracer.spans_seen
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(str(OUT_DIR / f"spans-{tag}.npz"))
    return metrics


# -- towers -------------------------------------------------------------------

TOWER_GROUPS = {"P2K": (lambda: catalog("P2K_reduced", 2), 4),
                "P3K": (lambda: catalog("PnK", 3), 3),
                "F3": (inputs.towers_fiber, 3)}
# Frozen answers (stage orders, counts, image sizes) of the builds.
TOWER_ORDERS = {"P2K": [1, 16, 512, 65536], "P3K": [1, 64, 32768],
                "F3": [1, 8, 512]}
COSET_ROUTE_ORDERS = (16, 512)
HOM_COUNTS = {"P2K_reduced": 1704, "BnK": 360}
GAMMA2_IMAGE_POINTS = {2: 4096, 3: 128}


def _build_tower(group: str):
    def run(st):
        make, depth = TOWER_GROUPS[group]
        st[group] = finite.two_quotient_tower(make(), depth)
        return [m.npoints for m in st[group]]
    return f"tower-{group}", run, TOWER_ORDERS[group]


def _coset_route(step: int):
    """Stage orders of P2K by the coset-enumeration route: adjoin squares
    and generator-commutators of the previous kernel, then re-enumerate."""
    def run(st):
        p = catalog("P2K_reduced", 2)
        if step == 0:
            trivial = Presentation(
                p.label, list(p.generators),
                list(p.relators) + [Word.from_syms(g) for g in p.generators])
            st["tc"] = finite.todd_coxeter(trivial, [], max_cosets=200000)
        grown = finite.adjoin_kernel_relators(p, st["tc"])
        st["tc"] = finite.todd_coxeter(grown, [], max_cosets=200000)
        return st["tc"].index
    return f"coset-route-{step + 2}", run, COSET_ROUTE_ORDERS[step]


def _hom_count(family: str, n: int):
    def run(st):
        return len(finite.hom_search(catalog(family, n), 4))
    return f"hom-search-{family}", run, HOM_COUNTS[family]


def _compare_gamma(n: int):
    def run(st):
        p = catalog("P2K_reduced", 2)
        return series.compare_descriptions(
            series.gamma_p2k_claimed(n), series.lower_central_description(p, n),
            st["P2K"][3])
    return f"compare-gamma-{n}", run, series.EQUAL


def _gamma2_image(n: int):
    def run(st):
        img = finite.subgroup_image(st["P2K"][3], series.gamma2_p2k_claimed(n))
        st.setdefault("kernel", {})[n] = finite.tower_kernel_image(
            st["P2K"], n, 4)
        st.setdefault("gamma2", {})[n] = img
        return len(img), img == st["kernel"][n]
    return f"gamma2-image-{n}", run, (GAMMA2_IMAGE_POINTS[n], True)


def towers_builds() -> List[Tuple[str, Callable, object]]:
    """The table-building queries of one pass, in dependency order, with
    their frozen answers."""
    return [_build_tower("P2K"), _build_tower("P3K"), _build_tower("F3"),
            _coset_route(0), _coset_route(1),
            _hom_count("P2K_reduced", 2), _hom_count("BnK", 3),
            _compare_gamma(2), _compare_gamma(3),
            _gamma2_image(2), _gamma2_image(3)]


def _first_separating_stage(models, w: Word) -> Optional[int]:
    for stage, m in enumerate(models[1:], start=2):
        if m.apply_word(w, 0) != 0:
            return stage
    return None


def _cheap_answer(st, q):
    if q["kind"] == "kernel":
        return st["kernel"][q["k"]].contains_word(q["word"])
    if q["kind"] == "gamma2":
        return st["gamma2"][q["k"]].contains_word(q["word"])
    return _first_separating_stage(st[q["group"]], q["word"])


def _parity_pivots(vectors: List[int]) -> Dict[int, int]:
    """Row echelon form over F2 of bitmask vectors, keyed by leading bit."""
    pivots: Dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = v
                break
            v ^= pivots[lead]
    return pivots


def _parity_vector(w: Word, gens) -> int:
    vec = 0
    for i, g in enumerate(gens):
        if sum(e for s, e in w.letters if s == g) % 2:
            vec |= 1 << i
    return vec


def expected_cheap(st, q) -> object:
    """The answer to a cheap query by another route: the stage-k image of
    the word (kernel and gamma2 membership), or for separation the stage
    images checked against the tower's layout (each stage projects onto the
    previous one by dropping its new bits) and against the mod-2
    abelianization, which is stage 2."""
    w = q["word"]
    if q["kind"] in ("kernel", "gamma2"):
        member = st["P2K"][q["k"] - 1].apply_word(w, 0) == 0
        return True if q["trivial"] else member
    models = st[q["group"]]
    points = [m.apply_word(w, 0) for m in models]
    for i in range(1, len(models)):
        shift = (models[i].npoints // models[i - 1].npoints).bit_length() - 1
        if points[i] >> shift != points[i - 1]:
            return "layout-mismatch"
    gens = list(models[0].generators)
    rel = [_parity_vector(r, gens) for r in st["relators"][q["group"]]]
    pivots = _parity_pivots(rel)
    v = _parity_vector(w, gens)
    while v and (v.bit_length() - 1) in pivots:
        v ^= pivots[v.bit_length() - 1]
    if (v != 0) != (points[1] != 0):
        return "parity-mismatch"
    if q["trivial"]:
        return None
    return next((i + 1 for i in range(1, len(points)) if points[i]), None)


def _towers_pass(pass_no: int, cheap: List[Dict], res: Result,
                 answers: Optional[List], tracer: Optional[Tracer] = None
                 ) -> List:
    """One pass: the builds, then the cheap queries against what they built,
    back to back; the answers are checked after the pass. With ``answers``
    None each answer is checked against its frozen or independently computed
    value; otherwise it must equal the one recorded in ``answers``. Returns
    the pass's answers."""
    st: Dict = {"relators": {g: make().relators
                             for g, (make, _) in TOWER_GROUPS.items()}}
    queries = [(name, run, lambda st, frozen=frozen: frozen)
               for name, run, frozen in towers_builds()]
    builds = len(queries)
    queries += [(f"{q['kind']}-{q['group']}",
                 lambda st, q=q: _cheap_answer(st, q),
                 lambda st, q=q: expected_cheap(st, q)) for q in cheap]
    gauge = SpeedGauge()
    start = len(res.latencies)
    cheap_raw = []
    record = []
    for i, (name, run, _) in enumerate(queries):
        if tracer is not None:
            tracer.request = pass_no * len(queries) + i
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run(st)
        except Exception as exc:  # count and go on: a failed query
            out = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        # each build is a segment of its own; the cheap queries are one
        if i < builds:
            res.add([dt], gauge.scale())
        else:
            cheap_raw.append(dt)
        record.append(out)
    res.add(cheap_raw, gauge.scale())
    res.close_block(start)
    for i, ((name, _, expected), out) in enumerate(zip(queries, record)):
        want = expected(st) if answers is None else answers[pass_no][i]
        if out != want:
            res.fail(f"pass {pass_no} query {i} {name}: got {out!r}, "
                     f"want {want!r}")
    return record


def towers_properties(passes: List[List[Dict]]) -> Dict:
    qs = [q for p in passes for q in p]
    return {
        "passes": len(passes),
        "builds_per_pass": len(towers_builds()),
        "cheap_per_pass": inputs.TOWERS_CHEAP_PER_PASS,
        "cheap_kinds": dict(Counter(f"{q['kind']}-{q['group']}" for q in qs)),
        "length_histogram": dict(sorted(Counter(len(q["word"])
                                                for q in qs).items())),
        "trivial_share": sum(1 for q in qs if q["trivial"]) / len(qs),
    }


def run_towers(seed: int, seconds: float, trace: bool) -> Result:
    """A traced run times half the passes untraced, then the same passes
    traced."""
    setup_workload("towers")
    res = Result()
    count = work_blocks("towers", seconds / 2 if trace else seconds)
    passes = [inputs.towers_cheap(seed, p) for p in range(count)]
    answers = [_towers_pass(pass_no, cheap, res, None)
               for pass_no, cheap in enumerate(passes)]
    res.properties = towers_properties(passes)
    if trace:
        untraced_query_s = sum(res.latencies)
        traced = Result()
        tracer = Tracer()
        tracer.install()
        try:
            for pass_no, cheap in enumerate(passes):
                _towers_pass(pass_no, cheap, traced, answers, tracer)
        finally:
            tracer.uninstall()
        res.absorb(traced)
        res.layer_metrics = _with_overhead(
            tracer, sum(traced.latencies), untraced_query_s,
            f"towers-seed{seed}")
    return res


# -- verify -------------------------------------------------------------------

def check_report(stdout: str, code: int) -> Optional[str]:
    """None when a verify run passed (exit code 0 and every claim PASS, so
    an INDETERMINATE claim fails it), else what went wrong."""
    try:
        verdicts = [c["verdict"] for c in json.loads(stdout)["claims"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    bad = [v for v in verdicts if v != "PASS"]
    if code != 0 or bad or not verdicts:
        return f"exit {code}, {len(bad)} of {len(verdicts)} claims not PASS"
    return None


def _verify_pass(order: List[str], res: Result, traced: bool,
                 parts: List[Dict]) -> Dict[str, Tuple[float, float]]:
    """Run each suite once, in a fresh process, and check its report; with
    ``traced`` the child runs under the tracer and its layer metrics are
    appended to ``parts``. Returns each suite's (raw seconds, speed
    scale)."""
    OUT_DIR.mkdir(exist_ok=True)
    gauge = SpeedGauge()
    times = {}
    for suite in order:
        prefix = str(OUT_DIR / f"verify-{suite}")
        if traced:
            argv = [sys.executable, str(Path(__file__).with_name("probe.py")),
                    "trace-verify", suite, prefix]
        else:
            argv = [sys.executable, "-m", "surfbraid.cli", "verify", suite]
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=_child_env(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            stdout, code = proc.stdout, proc.returncode
        except subprocess.TimeoutExpired:
            stdout, code = "", -1
        times[suite] = (time.perf_counter() - t0, gauge.scale())
        problem = check_report(stdout, code)
        if traced and not problem:
            with open(prefix + ".json") as fh:
                parts.append(json.load(fh)["metrics"])
        if problem:
            res.fail(f"verify {suite}: {problem}")
    return times


def _scaled_total(times: Dict[str, Tuple[float, float]]) -> float:
    return sum(raw * scale for raw, scale in times.values())


def run_verify(seed: int, seconds: float, trace: bool) -> Result:
    """Each round runs the suites in the seeded order, then runs again, in
    reverse order, every suite that took longer than RERUN_SUITE_S; such a
    suite counts with the faster of its two runs. One of them runs for up to
    8 s, long enough for the machine to change phase mid-run, which the
    calibration before and after it cannot see. The round's latency is the
    sum over the twelve suites, one sample per round: the suites differ in
    length forty-fold, so a median over twelve of them jumps between
    neighbouring suites from run to run. A traced run times one pass
    untraced and the same pass traced."""
    res = Result()
    order = inputs.verify_order(seed)
    best: Dict[str, Tuple[float, float]] = {}
    if not trace:
        for _ in range(work_blocks("verify", seconds)):
            best = _verify_pass(order, res, False, [])
            long = [s for s in reversed(order) if best[s][0] > RERUN_SUITE_S]
            for suite, again in _verify_pass(long, res, False, []).items():
                best[suite] = min(best[suite], again, key=lambda t: t[0] * t[1])
            start = len(res.latencies)
            raw = sum(r for r, _ in best.values())
            res.add([raw], _scaled_total(best) / raw)
            res.close_block(start, queries=len(order))
    else:
        best = _verify_pass(order, res, False, [])
        parts: List[Dict] = []
        traced = _verify_pass(order, res, True, parts)
        raw = sum(r for r, _ in best.values())
        res.add([raw], _scaled_total(best) / raw)
        metrics = merge_metrics(parts)
        overhead = _scaled_total(traced) - _scaled_total(best)
        metrics["tracing.overhead_s"] = overhead
        metrics["tracing.overhead_frac"] = overhead / _scaled_total(best)
        res.layer_metrics = metrics
    res.properties = {"suites": order, "bounds": "defaults",
                      "suite_runs": res.attempted,
                      "suite_seconds": {suite: raw * scale for suite,
                                        (raw, scale) in best.items()}}
    return res


WORKLOADS = {"wordproblem": run_wordproblem, "towers": run_towers,
             "verify": run_verify}
