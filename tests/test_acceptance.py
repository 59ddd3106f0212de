"""Acceptance gate: the thirteen headline checks, each with its stated
runtime budget. Criteria that double as CLI verification suites run the
suite implementation directly and assert every claim passes."""

import argparse
import time

import pytest

from surfbraid import cli
from surfbraid.finite import (hom_search, subgroup_image, todd_coxeter,
                              tower_kernel_image, two_quotient_tower)
from surfbraid.klein import (center_witness, normal_form, verify_action,
                             verify_central, verify_section)
from surfbraid.nilpotent import nilpotent_quotient
from surfbraid.presentations import Presentation, abelianization, catalog
from surfbraid.series import (EQUAL, compare_descriptions, gamma2_p2k_claimed,
                              gamma_p2k_claimed, lower_central_description)
from surfbraid.words import Sym, Word, colchete_rhs, commutator, substitute


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"exceeded runtime budget: {self.elapsed:.2f}s "
                f">= {self.budget}s")


def _suite_args(**overrides):
    defaults = dict(class_bound=3, depth=4, hom_degree=4, json=None)
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


def _run_suite(name, **overrides):
    result = cli.SuiteResult(name, {})
    cli._SUITE_IMPL[name](result, _suite_args(**overrides))
    failing = [c for c in result.claims if c["verdict"] != "PASS"]
    assert not failing, f"failing claims: {failing}"
    return result


def _reduced_words(max_len):
    x, y = Sym("x"), Sym("y")
    out, frontier = [], [Word([])]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for sym in (x, y):
                for e in (1, -1):
                    v = w * Word([(sym, e)])
                    if len(v.letters) == len(w.letters) + 1:
                        nxt.append(v)
        frontier = nxt
        out.extend(nxt)
    return out


def test_01_commutator_expansion_identity():
    u, v = Sym("u"), Sym("v")
    words = _reduced_words(3)
    with _Timer(1.0):
        for n in (1, 2, 3, 4):
            lhs_u = commutator(Word.from_syms(u) ** (2 ** n),
                               Word.from_syms(v))
            rhs_u = colchete_rhs(Word.from_syms(u), Word.from_syms(v), n)
            for x in words:
                for y in words:
                    m = {u: x, v: y}
                    assert substitute(lhs_u, m) == substitute(rhs_u, m)
                    if len(x.letters) + len(y.letters) <= 2:
                        assert (commutator(x ** (2 ** n), y)
                                == colchete_rhs(x, y, n))


def test_02_abelianizations():
    with _Timer(1.0):
        for n in (2, 3, 4, 5):
            inv = abelianization(catalog("BnT", n))
            assert (inv.free_rank, inv.torsion) == (2, (2,))
            inv = abelianization(catalog("BnK", n))
            assert (inv.free_rank, inv.torsion) == (1, (2, 2))
        for n in (2, 3):
            for g in (3, 4):
                inv = abelianization(catalog("BnNg", n, g=g))
                assert (inv.free_rank, inv.torsion) == (g - 1, (2, 2))


def test_03_section():
    with _Timer(30.0):
        for n in (1, 2, 3):
            assert all(ok for _, ok in verify_section(n))
        assert any(not ok for _, ok in verify_section(2, corrupted=True))


def test_04_action_well_defined():
    with _Timer(30.0):
        for n in (1, 2, 3):
            assert all(ok for _, ok in verify_action(n))


def test_05_centre():
    with _Timer(10.0):
        for n in (1, 2, 3):
            assert all(ok for _, ok in verify_central(n))
            z = center_witness(n)
            for g in catalog("PnK", n).generators:
                w = commutator(z, Word.from_syms(g))
                assert normal_form(w, n=n).is_identity()
        a2 = Word.from_syms(Sym("a", (2,)))
        b2 = Word.from_syms(Sym("b", (2,)))
        assert not normal_form(commutator(b2 ** 2, a2), n=2).is_identity()


def test_06_lower_central_closed_forms():
    with _Timer(300.0):
        p = catalog("P2K_reduced", 2)
        tower = two_quotient_tower(p, 4)
        for n in (2, 3):
            claimed = gamma_p2k_claimed(n)
            recursion = lower_central_description(p, n)
            for d in range(2, 5):  # depth 4 >= stage n+1 for both n
                v = compare_descriptions(claimed, recursion, tower[d - 1])
                assert v == EQUAL, f"n={n} stage={d}: {v}"


def test_07_mod_two_closed_forms():
    with _Timer(300.0):
        p = catalog("P2K_reduced", 2)
        tower = two_quotient_tower(p, 4)
        assert tower[1].npoints == 16
        for n in (2, 3):
            claimed = gamma2_p2k_claimed(n)
            for d in range(max(n, 2), 5):
                img = subgroup_image(tower[d - 1], claimed)
                assert img == tower_kernel_image(tower, n, d), (
                    f"n={n} stage={d}")


def test_08_klein_collapse():
    with _Timer(300.0):
        _run_suite("klein-collapse")


def test_09_torus_derived_collapse():
    with _Timer(10.0):
        n = 5
        quotient, images = cli._torus_quotient(n)
        s = Word.from_syms(Sym("s"))
        for k in range(1, 2 * n):
            assert not quotient.contains_word(s ** k)
        assert quotient.contains_word(s ** (2 * n))
        p = catalog("BnT", n)
        for r in p.relators:
            assert quotient.contains_word(substitute(r, images))


def test_10_torus_derived_relation_instances():
    with _Timer(120.0):
        _run_suite("bnT1-instances")


def test_11_higher_genus_collapse():
    with _Timer(120.0):
        layer2 = nilpotent_quotient(catalog("BnNg", 3, g=3), 3)[1]
        assert layer2.free_rank == 0 and not layer2.torsion


def test_12_separation_evidence():
    with _Timer(300.0):
        _run_suite("separation")


def test_13_infrastructure():
    with _Timer(60.0):
        p = catalog("BnK", 3)
        s1 = Word.from_syms(Sym("s", (1,)))
        s2 = Word.from_syms(Sym("s", (2,)))
        q = Presentation("B3K/N", list(p.generators),
                         list(p.relators) + [Word.from_syms(Sym("a")),
                                             Word.from_syms(Sym("b")),
                                             s1 ** 2, s2 ** 2])
        assert todd_coxeter(q, []).index == 6
        assert len(hom_search(catalog("Pi1K", 1), 3)) == 18
        layers = [(lay.free_rank, lay.torsion) for lay in nilpotent_quotient(
            Presentation("F2", [Sym("x"), Sym("y")], []), 3)]
        assert layers == [(2, ()), (1, ()), (2, ())]
