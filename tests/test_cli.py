import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import surfbraid
from surfbraid import cli, words
from surfbraid.cli import SUITES, main
from surfbraid.presentations import Presentation, catalog
from surfbraid.words import Overflow, Sym, Word, left_normed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSingleShot:
    def test_abelianize(self, capsys):
        code, out, _ = run(capsys, "abelianize", "BnK", "3")
        assert code == 0
        assert out.strip() == "free_rank=1 torsion=[2,2]"

    def test_abelianize_genus(self, capsys):
        code, out, _ = run(capsys, "abelianize", "BnNg", "3", "3")
        assert code == 0
        assert out.strip() == "free_rank=2 torsion=[2,2]"

    def test_catalog(self, capsys):
        code, out, _ = run(capsys, "catalog", "Pi1K", "1")
        assert code == 0
        assert "generators: a[1] b[1]" in out
        assert "relator:" in out

    def test_nq(self, capsys):
        code, out, _ = run(capsys, "nq", "BnK", "3", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "layer1: free_rank=1 torsion=[2,2]"
        assert lines[1] == "layer2: free_rank=0 torsion=[]"

    def test_tower(self, capsys):
        code, out, _ = run(capsys, "tower", "P2K_reduced", "2", "3")
        assert code == 0
        assert out.strip() == "orders=[1, 16, 512]"

    def test_solve_trivial(self, capsys):
        code, out, _ = run(capsys, "solve", "2", "a1*a2*a1^-1*a2^-1")
        assert code == 0
        assert out.strip() == "trivial"

    def test_solve_nontrivial(self, capsys):
        code, out, _ = run(capsys, "solve", "2", "a2*b2")
        assert code == 0
        assert out.strip() != "trivial"

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "abelianize", "Nope", "2")
        assert code == 2
        assert "error:" in err

    def test_bad_word_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "2", "a1*")
        assert code == 2

    def test_word_syntax_error_names_the_token(self, capsys):
        code, out, err = run(capsys, "solve", "2", "a1 a2")
        assert code == 2
        assert out == ""
        assert err == "error: expected '*', got 'a2'\n"
        assert "Sym(" not in err

    def test_huge_exponent_is_usage_error(self, capsys):
        # refused before the 10^9 letters are built
        code, out, err = run(capsys, "solve", "1", "a1^1000000000")
        assert code == 2
        assert out == ""
        assert err == "error: word has more than 100000 letters\n"

    @pytest.mark.parametrize("argv", [("0", ""), ("-1", "1")])
    def test_solve_bad_level_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, "solve", *argv)
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2

    def test_tower_point_bound_exits_one(self, capsys):
        # stage 3 of the tower of B_1(N_6) would need 2^26 points: the bound
        # stops it
        code, out, err = run(capsys, "tower", "BnNg", "1", "3", "6")
        assert code == 1
        assert out == ""
        assert err == "error: stage 3 would need 67108864 points\n"

    @pytest.mark.parametrize("argv", [("tower", "BnNg", "2", "3"),
                                      ("abelianize", "BnNg", "2")])
    def test_missing_genus_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: BnNg needs a genus argument g >= 3\n"

    def test_tower_row_bound_exits_one(self):
        # stage 5 of the P2K_reduced tower has 196,609 Schreier generators:
        # its dense F2 rows would take about 19 GB, so the row bound stops it
        # before they are built. The child's address space is capped, so a
        # tower without the bound ends in MemoryError, not in a full machine.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = _child("-m", "surfbraid.cli", "tower", "P2K_reduced", "2", "5",
                      preexec_fn=cap)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: stage 5 would need ")
        assert len(proc.stderr.splitlines()) == 1
        assert "MemoryError" not in proc.stderr

    @pytest.mark.parametrize("family", ["PnK", "PnT"])
    def test_nq_sift_bound_exits_one(self, capsys, family):
        # both closures pass MAX_SIFTS within about a second; unbounded,
        # PnK's closure and PnT's layer 4 run for minutes
        code, out, err = run(capsys, "nq", family, "3", "4")
        assert code == 1
        assert out == ""
        assert err == "error: normal closure passed 10000 sifts at class 4\n"

    def test_smith_bound_exits_one(self, capsys, monkeypatch):
        # B_3(K) has 4 distinct nonzero exponent rows: the first pass
        # searches their 7 entries and rewrites 8 (three rows and the pivot
        # row, 2 each), and the second pass's search of 4 takes it to 19
        monkeypatch.setattr("surfbraid.presentations.MAX_SMITH_ENTRIES", 18)
        code, out, err = run(capsys, "abelianize", "BnK", "3")
        assert code == 1
        assert out == ""
        assert err == "error: Smith form of 4 rows passed 18 entries\n"

    @pytest.mark.parametrize("argv, message", [
        (("tower", "BnK", "99999999999", "2"), "n must be <= 20, got 99999999999"),
        (("abelianize", "BnNg", "2", "99999"), "genus must be <= 20, got 99999"),
        (("catalog", "PnK", "100"), "n must be <= 20, got 100")],
        ids=["tower-n", "abelianize-genus", "catalog-n"])
    def test_catalog_bounds_are_usage_errors(self, capsys, argv, message):
        # refused before any presentation is built: unbounded, the first
        # two ran for over a minute and the third for over two
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_solve_fiber_bound_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("surfbraid.klein.MAX_FIBER_LETTERS", 10_000)
        # (a4*b3*C[2,4])^4 conjugating a5 peaks at 138,617 fiber letters
        word = "*".join(["a4*b3*C[2,4]"] * 4 + ["a5"]
                        + ["C[2,4]^-1*b3^-1*a4^-1"] * 4)
        code, out, err = run(capsys, "solve", "5", word)
        assert code == 1
        assert out == ""
        assert err == "error: level-5 fiber passed 10000 letters\n"

    def test_memory_error_exits_one(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("surfbraid.finite.two_quotient_tower", exhausted)
        code, _, err = run(capsys, "tower", "PnK", "3", "4")
        assert code == 1
        assert err == "error: MemoryError\n"


class TestVerify:
    def _report(self, capsys, suite, *extra):
        code, out, _ = run(capsys, "verify", suite, *extra)
        return code, json.loads(out)

    def test_schema(self, capsys):
        code, rep = self._report(capsys, "section")
        assert code == 0
        assert rep["suite"] == "section"
        assert set(rep["bounds"]) == {"class", "depth", "hom_degree"}
        for claim in rep["claims"]:
            assert {"id", "verdict", "ms"} <= set(claim)
            assert claim["verdict"] in ("PASS", "FAIL", "INDETERMINATE")

    def test_claims_sorted(self, capsys):
        _, rep = self._report(capsys, "center")
        ids = [c["id"] for c in rep["claims"]]
        assert ids == sorted(ids)

    def test_colchete_eight_claims(self, capsys):
        code, rep = self._report(capsys, "colchete")
        assert code == 0
        assert len(rep["claims"]) == 8
        assert all(c["verdict"] == "PASS" for c in rep["claims"])

    def test_colchete_fails_without_a_factor(self, capsys, monkeypatch):
        # drop the last factor [x^(2^(n-1)), y]^2 of the expansion
        def short_rhs(x, y, n):
            last = left_normed([x ** (2 ** (n - 1)), y]) ** 2
            return words.colchete_rhs(x, y, n) * ~last
        monkeypatch.setattr(cli, "colchete_rhs", short_rhs)
        code, rep = self._report(capsys, "colchete")
        assert code == 1
        assert len(rep["claims"]) == 8
        for c in rep["claims"]:
            assert c["verdict"] == "FAIL"
            assert "differ in F(u, v)" in c["witness"]

    def test_torus_derived_names_a_failing_relator(self, capsys, monkeypatch):
        # a relator a of B_n(T), which the metabelian quotient does not
        # kill; the quotient comes through catalog too, so it keeps its own
        def with_a(family, n, g=None):
            p = catalog(family, n, g)
            if family != "BnT":
                return p
            a = Word.from_syms(Sym("a"))
            return Presentation(p.label, list(p.generators), list(p.relators) + [a])
        monkeypatch.setattr("surfbraid.presentations.catalog", with_a)
        code, rep = self._report(capsys, "torus-derived")
        assert code == 1
        claim = {c["id"]: c for c in rep["claims"]}["torus-derived-B5T-relators"]
        assert claim["verdict"] == "FAIL"
        assert claim["witness"] == "relator a acts nontrivially"

    @pytest.mark.parametrize("suite", ["action", "gammaP2", "gamma2P2",
                                       "torus-derived", "klein-derived",
                                       "bnT1-instances", "separation"])
    def test_fast_suites_pass(self, capsys, suite):
        code, rep = self._report(capsys, suite)
        assert code == 0
        assert all(c["verdict"] == "PASS" for c in rep["claims"])

    def test_json_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, rep = self._report(capsys, "section", "--json", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == rep

    def test_unwritable_json_path_is_usage_error(self, capsys, monkeypatch,
                                                 tmp_path):
        def no_work(result, args):
            raise AssertionError("suite ran before the report file opened")

        monkeypatch.setitem(cli._SUITE_IMPL, "section", no_work)
        path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "verify", "section", "--json", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("stop", ["usage", "overflow"])
    def test_stopped_suite_keeps_an_earlier_report(self, capsys, monkeypatch,
                                                   tmp_path, stop):
        # the file is truncated and written only once the suite has returned:
        # --depth 1 is a usage error raised inside the suite (exit 2), and an
        # Overflow stops it as the stage-5 bound of --depth 5 does (exit 1)
        path = tmp_path / "report.json"
        path.write_bytes(b'{"suite": "earlier"}\n')
        if stop == "overflow":
            def overflow(result, args):
                raise Overflow("stage 5 would need too many points")
            monkeypatch.setitem(cli._SUITE_IMPL, "gammaP2", overflow)
        argv = ["--depth", "1"] if stop == "usage" else []
        code, _, _ = run(capsys, "verify", "gammaP2", *argv, "--json", str(path))
        assert code == (2 if stop == "usage" else 1)
        assert path.read_bytes() == b'{"suite": "earlier"}\n'
        # a suite that returns replaces the earlier report in full
        code, rep = self._report(capsys, "section", "--json", str(path))
        assert json.loads(path.read_text()) == rep

    @pytest.mark.parametrize("stop", ["usage", "overflow"])
    def test_stopped_suite_leaves_no_new_report(self, capsys, monkeypatch,
                                                tmp_path, stop):
        # a path that did not exist is not left behind as an empty file,
        # while an empty file that was there before stays
        if stop == "overflow":
            def overflow(result, args):
                raise Overflow("stage 5 would need too many points")
            monkeypatch.setitem(cli._SUITE_IMPL, "gammaP2", overflow)
        argv = ["--depth", "1"] if stop == "usage" else []
        new, empty = tmp_path / "new.json", tmp_path / "empty.json"
        empty.write_bytes(b"")
        for path in (new, empty):
            code, _, _ = run(capsys, "verify", "gammaP2", *argv,
                             "--json", str(path))
            assert code == (2 if stop == "usage" else 1)
        assert not new.exists()
        assert empty.read_bytes() == b""

    @pytest.mark.parametrize("suite", ["gammaP2", "gamma2P2"])
    def test_depth_below_suite_claims_is_usage_error(self, capsys, monkeypatch,
                                                     suite):
        def no_work(*args, **kwargs):
            raise AssertionError("tower built before the depth was checked")

        monkeypatch.setattr("surfbraid.finite.two_quotient_tower", no_work)
        code, out, err = run(capsys, "verify", suite, "--depth", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: suite {suite} needs --depth >= 2, got 1\n"

    @pytest.mark.parametrize("degree", ["6", "7", "-1"])
    def test_hom_degree_out_of_range_is_usage_error(self, capsys, monkeypatch,
                                                    degree):
        def no_work(*args, **kwargs):
            raise AssertionError("suite ran before the degree was checked")

        monkeypatch.setattr("surfbraid.nilpotent.nilpotent_quotient", no_work)
        monkeypatch.setattr("surfbraid.finite.hom_search", no_work)
        code, out, err = run(capsys, "verify", "klein-collapse",
                             "--hom-degree", degree)
        assert code == 2
        assert out == ""
        assert err == f"error: --hom-degree must be 0..5, got {degree}\n"

    @pytest.mark.parametrize("bound", ["0", "5", "9", "-1"])
    def test_class_out_of_range_is_usage_error(self, capsys, monkeypatch,
                                               bound):
        def no_work(*args, **kwargs):
            raise AssertionError("suite ran before the class was checked")

        monkeypatch.setattr("surfbraid.klein.action_table", no_work)
        code, out, err = run(capsys, "verify", "klein-derived",
                             "--class", bound)
        assert code == 2
        assert out == ""
        assert err == f"error: --class must be 1..4, got {bound}\n"

    def test_exhausted_separation_is_indeterminate(self, capsys):
        code, rep = self._report(capsys, "separation", "--depth", "2")
        assert code == 1
        verdicts = {c["id"]: c["verdict"] for c in rep["claims"]}
        exhausted = {c["id"] for c in rep["claims"]
                     if "NotSeparatedWithinDepth" in c.get("witness", "")}
        assert exhausted
        assert all(verdicts[cid] == "INDETERMINATE" for cid in exhausted)
        assert "FAIL" not in verdicts.values()

    @pytest.mark.parametrize("bound, value, message", [
        ("MAX_SIFTS", 5, "normal closure passed 5 sifts at class 2"),
        ("MAX_CLASS", 1, "class bound 2 unsupported (use 1..1)")],
        ids=["overflow", "class-unsupported"])
    def test_stopped_check_is_indeterminate(self, capsys, monkeypatch, bound,
                                            value, message):
        # the nq claim stops and says why; the suite's other claims are
        # still made and reported
        monkeypatch.setattr(f"surfbraid.nilpotent.{bound}", value)
        code, rep = self._report(capsys, "nonorientable")
        assert code == 1
        claims = {c["id"]: c for c in rep["claims"]}
        stopped = claims.pop("nonorientable-nq-B3N3-layer2-trivial")
        assert (stopped["verdict"], stopped["witness"]) == ("INDETERMINATE",
                                                            message)
        assert sorted(claims) == [f"nonorientable-ab-B{n}N{g}"
                                  for n in (2, 3) for g in (3, 4)]
        assert all(c["verdict"] == "PASS" for c in claims.values())

    def test_suite_names_complete(self):
        assert len(SUITES) == 12


def _child(*argv, **kwargs):
    """Run a fresh interpreter with the arguments `argv`; it imports the
    same surfbraid as this process. `kwargs` go to `subprocess.run`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(surfbraid.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300,
                          **kwargs)


class TestWithoutNumpy:
    """numpy is imported only inside `hom_search` and the coset
    enumeration, so the mod-2 tower, its subgroup images and every verify
    suite but klein-collapse run without it."""

    def test_import_leaves_numpy_out(self):
        proc = _child("-c", "import sys, surfbraid.cli, surfbraid.series, "
                      "surfbraid.nilpotent, surfbraid.presentations; "
                      "print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_finite_import_leaves_numpy_out(self):
        proc = _child("-c", "import sys, surfbraid.finite; "
                      "print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_commands_run_without_numpy(self):
        argvs = [["verify", suite] for suite in
                 ("colchete", "section", "action", "center", "torus-derived",
                  "bnT1-instances", "nonorientable", "gammaP2", "gamma2P2",
                  "klein-derived", "separation")]
        argvs += [["solve", "2", "a1*a2"], ["catalog", "BnK", "3"],
                  ["abelianize", "BnK", "3"], ["nq", "BnK", "2", "2"],
                  ["tower", "P2K_reduced", "2", "4"], ["tower", "Pi1K", "1", "9"]]
        # numpy set to None in sys.modules makes any import of it fail
        proc = _child(
            "-c",
            "import contextlib, io, sys\n"
            "sys.modules['numpy'] = None\n"
            "from surfbraid import cli\n"
            "codes = []\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            "print(codes)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([0] * len(argvs))

    def test_tower_usage_error_leaves_finite_out(self):
        # a depth below 1 is refused before the catalog presentation is
        # built and before the finite layer (and numpy) is imported
        proc = _child(
            "-c",
            "import sys\n"
            "from surfbraid import cli\n"
            "code = cli.main(['tower', 'P2K_reduced', '2', '0'])\n"
            "print(code, 'surfbraid.finite' in sys.modules, 'numpy' in sys.modules)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2 False False"
        assert proc.stderr == "error: depth must be >= 1, got 0\n"


# the package modules a fresh process loads: each module imports at its top
# only what its own module-level code needs, and each command the layers it
# runs, so a process compiles no layer it does not use
_IMPORTS = [
    ("import surfbraid.cli", "cli words"),
    ("import surfbraid.klein", "klein words"),
    ("from surfbraid import finite, nilpotent, series",
     "finite nilpotent presentations series words"),
    (["verify", "colchete"], "cli words"),
    (["verify", "center"], "cli klein words"),
    (["solve", "2", "a1*a2"], "cli klein words"),
    (["verify", "section"], "cli klein presentations words"),
    (["verify", "action"], "cli klein presentations words"),
    (["verify", "torus-derived"], "cli nilpotent presentations words"),
    (["verify", "bnT1-instances"], "cli nilpotent presentations words"),
    (["verify", "nonorientable"], "cli nilpotent presentations words"),
    (["nq", "BnK", "2", "2"], "cli nilpotent presentations words"),
    (["verify", "klein-collapse"],
     "cli finite nilpotent presentations words"),
    (["verify", "gammaP2"], "cli finite nilpotent presentations series words"),
    (["verify", "gamma2P2"],
     "cli finite nilpotent presentations series words"),
    (["verify", "separation"], "cli finite klein presentations series words"),
    (["verify", "klein-derived"],
     "cli finite klein nilpotent presentations series words"),
    (["catalog", "BnK", "3"], "cli presentations words"),
    (["abelianize", "BnK", "3"], "cli presentations words"),
    (["tower", "P2K_reduced", "2", "4"], "cli finite presentations words"),
]


@pytest.mark.parametrize(
    "run_, loaded", _IMPORTS,
    ids=[r if isinstance(r, str) else " ".join(r) for r, _ in _IMPORTS])
def test_fresh_process_loads_only_the_layers_it_runs(run_, loaded):
    if isinstance(run_, str):
        stmt = run_ + "\ncode = 0\n"
    else:
        stmt = ("from surfbraid import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main({run_!r})\n")
    proc = _child(
        "-c",
        "import contextlib, io, sys\n" + stmt +
        "print(code, *sorted(m.split('.', 1)[1] for m in sys.modules\n"
        "                    if m.startswith('surfbraid.')))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", *loaded.split()]


def test_deterministic_reports(capsys):
    code1, out1, _ = run(capsys, "verify", "center")
    code2, out2, _ = run(capsys, "verify", "center")
    r1, r2 = json.loads(out1), json.loads(out2)
    strip = lambda r: [(c["id"], c["verdict"]) for c in r["claims"]]
    assert strip(r1) == strip(r2)


FROZEN_REPORTS = Path(__file__).with_name("verify_reports.json")


def suite_claims():
    """Each suite's claims at default bounds, as [id, verdict, witness]
    lists (witness None when a passing claim has none)."""
    claims = {}
    for suite in SUITES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["verify", suite])
        claims[suite] = [[c["id"], c["verdict"], c.get("witness")]
                         for c in json.loads(out.getvalue())["claims"]]
    return claims


def test_reports_match_frozen():
    # regenerate with: PYTHONPATH=src python tests/test_cli.py
    assert suite_claims() == json.loads(FROZEN_REPORTS.read_text())


if __name__ == "__main__":
    # one claim a line, so a change to the file reads as a change of claims
    FROZEN_REPORTS.write_text("{\n" + ",\n".join(
        f" {json.dumps(suite)}: [\n"
        + ",\n".join(f"  {json.dumps(claim)}" for claim in claims) + "\n ]"
        for suite, claims in suite_claims().items()) + "\n}\n")
