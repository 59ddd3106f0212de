"""Command-line front end: catalog dumping, single-shot computations, and
named verification suites emitting JSON reports.

Only `words` is imported at the top: each command and suite imports the
layers it runs, so a fresh process loads (and compiles) no other."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from typing import (TYPE_CHECKING, Callable, Dict, List, NoReturn, Optional,
                    Tuple)

from .words import (MAX_CLASS, ClassUnsupported, ImageTable, Overflow, Sym,
                    Word, colchete_rhs, commutator, parse_word, print_word,
                    substitute)

if TYPE_CHECKING:
    from .nilpotent import NilpotentImage

PASS = "PASS"
FAIL = "FAIL"
INDETERMINATE = "INDETERMINATE"


def _fmt_invariants(inv) -> str:
    return (f"free_rank={inv.free_rank} "
            f"torsion=[{','.join(str(d) for d in inv.torsion)}]")


_SHORTHAND = re.compile(r"^([A-Za-z]+?)(\d+)$")


def _parse_cli_word(text: str) -> Word:
    """Word syntax plus the shorthand a1 for a[1] on index-free symbols."""
    w = parse_word(text)
    out = []
    for sym, exp in w.letters:
        if not sym.indices:
            m = _SHORTHAND.match(sym.name)
            if m:
                sym = Sym(m.group(1), (int(m.group(2)),))
        out.append((sym, exp))
    return Word(out)


class SuiteResult:
    """Outcome of one named verification suite: per-claim verdicts with
    timings and, for failures, a witness."""

    def __init__(self, suite: str, bounds: Dict):
        self.suite = suite
        self.bounds = bounds
        self.claims: List[Dict] = []

    def run(self, cid: str,
            check: Callable[[], Tuple[Optional[bool], Optional[str]]]) -> None:
        """Record one claim; `check` returns (ok, witness), where ok None
        means its search ended without an answer."""
        t0 = time.monotonic()
        try:
            ok, witness = check()
            verdict = INDETERMINATE if ok is None else PASS if ok else FAIL
        except (Overflow, ClassUnsupported) as e:
            verdict, witness = INDETERMINATE, str(e)
        ms = int((time.monotonic() - t0) * 1000)
        claim = {"id": cid, "verdict": verdict, "ms": ms}
        if verdict != PASS:
            claim["witness"] = witness or "(no witness)"
        elif witness:
            claim["witness"] = witness
        self.claims.append(claim)

    def to_json(self) -> Dict:
        return {"suite": self.suite, "bounds": self.bounds,
                "claims": sorted(self.claims, key=lambda c: c["id"])}

    @property
    def exit_code(self) -> int:
        return 0 if all(c["verdict"] == PASS for c in self.claims) else 1


# -- verification suites ----------------------------------------------------

def _suite_colchete(result: SuiteResult, args) -> None:
    """[x^(2^n), y] equals the product `colchete_rhs(x, y, n)`, n = 1..4.

    Both sides are built once per n in the free group F(u, v) and compared
    as words; words are freely reduced, so that comparison is equality in
    F(u, v). An identity in F(u, v) holds for every x, y in every group:
    u -> x, v -> y extends to a homomorphism, which carries each side built
    from u, v onto the same side built from x, y. So it implies the per-pair
    comparison this suite used to make, of both sides substituted with each
    of the 2,704 pairs of reduced words in x, y of length 1..3. Both claims
    of each n rest on that identity; `xlen3` keeps the id of the sweep's
    pairs with x of length 3, and `xshort` also evaluates both sides
    directly at the pairs with len(x) + len(y) <= 2, the pairs of single
    letters."""
    letters = [Word(((s, e),)) for s in (Sym("x"), Sym("y")) for e in (1, -1)]
    pairs = [(x, y) for x in letters for y in letters]
    u, v = Word.from_syms(Sym("u")), Word.from_syms(Sym("v"))
    for n in (1, 2, 3, 4):
        lhs_u = commutator(u ** (2 ** n), v)
        rhs_u = colchete_rhs(u, v, n)
        for tag, direct in (("xshort", pairs), ("xlen3", [])):
            def check(n=n, lhs_u=lhs_u, rhs_u=rhs_u, direct=direct):
                if lhs_u != rhs_u:
                    return False, (f"n={n}: [u^(2^n), v] and colchete_rhs(u, v, n) "
                                   f"differ in F(u, v)")
                for x, y in direct:
                    if commutator(x ** (2 ** n), y) != colchete_rhs(x, y, n):
                        return False, (f"direct evaluation differs at "
                                       f"n={n} x={print_word(x)} y={print_word(y)}")
                return True, None
            result.run(f"colchete-n{n}-{tag}", check)


def _all_pass(report: List[Tuple[str, bool]]) -> Tuple[bool, Optional[str]]:
    bad = [name for name, ok in report if not ok]
    return (not bad), (f"failing: {bad}" if bad else None)


def _suite_section(result: SuiteResult, args) -> None:
    from . import klein
    for n in (1, 2, 3):
        result.run(f"section-n{n}", lambda n=n: _all_pass(klein.verify_section(n)))
    def control():
        report = klein.verify_section(2, corrupted=True)
        ok = any(not good for _, good in report)
        return ok, None if ok else "corrupted section passed every relator"
    result.run("section-negative-control", control)


def _suite_action(result: SuiteResult, args) -> None:
    from . import klein
    for n in (1, 2, 3):
        result.run(f"action-n{n}", lambda n=n: _all_pass(klein.verify_action(n)))


def _suite_center(result: SuiteResult, args) -> None:
    from . import klein
    for n in (1, 2, 3):
        result.run(f"center-n{n}", lambda n=n: _all_pass(klein.verify_central(n)))
    def control():
        b2 = Word.from_syms(Sym("b", (2,)))
        a2 = Word.from_syms(Sym("a", (2,)))
        e = klein.normal_form(commutator(b2 * b2, a2), n=2)
        return (not e.is_identity()), "[b2^2, a2] collapsed to the identity"
    result.run("center-negative-control", control)


def _need_depth(args, least: int) -> None:
    from .series import DepthUnsupported
    if args.depth < least:
        raise DepthUnsupported(
            f"suite {args.suite} needs --depth >= {least}, got {args.depth}")


def _suite_gammaP2(result: SuiteResult, args) -> None:
    from . import series
    from .finite import two_quotient_tower
    from .presentations import catalog
    _need_depth(args, 2)
    p = catalog("P2K_reduced", 2)
    tower = two_quotient_tower(p, args.depth)
    for n in (2, 3):
        claimed = series.gamma_p2k_claimed(n)
        brute = series.lower_central_description(p, n)
        for d in range(2, args.depth + 1):
            def check(claimed=claimed, brute=brute, d=d):
                v = series.compare_descriptions(claimed, brute, tower[d - 1])
                return v == series.EQUAL, f"verdict {v} at stage {d}"
            result.run(f"gammaP2-n{n}-stage{d}", check)


def _suite_gamma2P2(result: SuiteResult, args) -> None:
    from . import series
    from .finite import subgroup_image, tower_kernel_image, two_quotient_tower
    from .presentations import catalog
    _need_depth(args, 2)
    p = catalog("P2K_reduced", 2)
    tower = two_quotient_tower(p, args.depth)
    result.run("gamma2P2-stage2-order",
               lambda: (tower[1].npoints == 16,
                        f"stage-2 order {tower[1].npoints}, expected 16"))
    for n in (2, 3):
        claimed = series.gamma2_p2k_claimed(n)
        for d in range(max(n, 2), args.depth + 1):
            def check(claimed=claimed, n=n, d=d):
                img = subgroup_image(tower[d - 1], claimed)
                kern = tower_kernel_image(tower, n, d)
                return img == kern, (f"claimed image has {len(img)} points, "
                                     f"stage-{n} kernel has {len(kern)}")
            result.run(f"gamma2P2-n{n}-stage{d}", check)


def _suite_klein_collapse(result: SuiteResult, args) -> None:
    from .finite import hom_search
    from .nilpotent import NilpotentImage, nilpotent_quotient
    from .presentations import Presentation, catalog
    for n in (3, 4):
        def check(n=n):
            lay = nilpotent_quotient(catalog("BnK", n), 2)[1]
            ok = lay.free_rank == 0 and not lay.torsion
            return ok, f"layer 2 of B{n}K: {_fmt_invariants(lay)}"
        result.run(f"klein-collapse-nq-B{n}K-layer2-trivial", check)

    def nontrivial2():
        lay = nilpotent_quotient(catalog("BnK", 2), 2)[1]
        ok = lay.free_rank > 0 or bool(lay.torsion)
        return ok, f"layer 2 of B2K: {_fmt_invariants(lay)}"
    result.run("klein-collapse-nq-B2K-layer2-nontrivial", nontrivial2)

    p3 = catalog("BnK", 3)
    s1 = Word.from_syms(Sym("s", (1,)))
    s2 = Word.from_syms(Sym("s", (2,)))
    a = Word.from_syms(Sym("a"))
    b = Word.from_syms(Sym("b"))

    def sigma_ab():
        img = NilpotentImage.of(p3, 1)
        w = ~s2 * s1
        return img.contains_word(w), "s2^-1*s1 is nonzero in the abelianization"
    result.run("klein-collapse-sigma-abelianized", sigma_ab)

    q = Presentation("B3K+(s1=s2)", list(p3.generators),
                     list(p3.relators) + [s1 * ~s2])
    battery = [("s1-s2", commutator(s1, s2)), ("a-s1", commutator(a, s1)),
               ("b-s1", commutator(b, s1)), ("b-a", commutator(b, a))]
    img1 = NilpotentImage.of(q, 1)
    img3 = NilpotentImage.of(q, 3)
    models = []
    for deg in range(1, args.hom_degree + 1):
        models.extend(hom_search(q, deg))
    for tag, w in battery:
        def check(w=w):
            if not img1.contains_word(w):
                return False, "nonzero abelianized image"
            if not img3.contains_word(w):
                return False, "nontrivial in the class-3 nilpotent quotient"
            for m in models:
                if any(m.apply_word(w, pt) != pt for pt in range(m.npoints)):
                    return False, f"nontrivial in a degree-{m.npoints} image"
            return True, f"checked against {len(models)} finite images"
        result.run(f"klein-collapse-battery-[{tag}]", check)


def _suite_klein_derived(result: SuiteResult, args) -> None:
    from . import klein, series
    from .finite import subgroup_image, two_quotient_tower
    from .presentations import Presentation, SubgroupDescription
    at = klein.action_table(1)
    a2 = Word.from_syms(Sym("a", (2,)))
    b2 = Word.from_syms(Sym("b", (2,)))
    K2, L2, V2 = series.serie_generators(at, series.pi1k_base_lcs, 2)
    K3, L3, V3 = series.serie_generators(at, series.pi1k_base_lcs, 3)
    amb = L2.ambient
    c = args.class_bound

    def cmp(d1, d2, expect):
        v = series.compare_descriptions(d1, d2, c)
        return v == expect, f"verdict {v}, expected {expect}"

    result.run("klein-derived-L2-closed-form",
               lambda: cmp(L2, SubgroupDescription(
                   amb, [a2 ** 2, commutator(a2, b2)]), series.EQUAL))
    result.run("klein-derived-K3-closed-form",
               lambda: cmp(K3, SubgroupDescription(amb, [a2 ** 4]), series.EQUAL))
    result.run("klein-derived-W3-strictly-in-W2",
               lambda: cmp(series.wn_tilde(3), series.wn_tilde(2), series.A_IN_B))

    def negative():
        img = series._nilpotent_image(series.wn_tilde(2), c)
        ok = not img.contains_word(b2 ** 2)
        return ok, "b2^2 landed inside the Wtilde_2 closure"
    result.run("klein-derived-b2sq-outside-W2", negative)

    basis = klein.fiber_basis(3)
    free3 = Presentation("F3", basis, [])
    ftower = two_quotient_tower(free3, 3)
    at2 = klein.action_table(2)

    def p2k_lcs(i):
        if i == 1:
            return [Word.from_syms(s) for s in klein.base_generators(2)]
        return list(series.gamma_p2k_claimed(i).normal_generators)

    for m in (2, 3):
        def check(m=m):
            _, _, V = series.serie_generators(at2, p2k_lcs, m)
            img = subgroup_image(ftower[2], series.ztilde(2, m))
            bad = [print_word(w) for w in V.normal_generators
                   if not img.contains_word(w)]
            return not bad, f"escaping generators: {bad[:3]}" if bad else None
        result.run(f"klein-derived-V{m}-in-Ztilde{m}", check)

    def pi1_context():
        a1, b1 = Sym("a", (1,)), Sym("b", (1,))
        inv = {a1: ~Word.from_syms(a1)}
        at1 = klein.ActionTable(1, {b1: inv}, {b1: inv})
        def lcs(i):
            return [Word.from_syms(b1)] if i == 1 else []
        _, L3s, _ = series.serie_generators(
            at1, lcs, 3, ambient=Presentation("fiberPi1", [a1], []))
        exp = SubgroupDescription(L3s.ambient, [Word.from_syms(a1) ** 4])
        v = series.compare_descriptions(L3s, exp, c)
        return v == series.EQUAL, f"verdict {v}"
    result.run("klein-derived-pi1-L3", pi1_context)


def _torus_quotient(n: int) -> Tuple[NilpotentImage, Dict[Sym, Word]]:
    """The metabelian quotient G of B_n(T), the catalog's TorusMetabelian
    group <s, a, b : [a,s] = [b,s] = s^(2n) = 1, [b,a] = s^-2>, as its
    class-2 nilpotent image, with the images a -> a, b -> b, s[i] -> s of
    the generators of B_n(T).

    Class 2 is exact. s is central, and so is [b,a] = s^-2, so G is
    nilpotent of class 2: gamma_3(G) = 1. Then gamma_3(F) lies in N, the
    normal closure of the relators in the free group F on s, a, b, and
    `contains_word` at class 2, which decides w in N gamma_3(F), decides
    w in N, which is w = 1 in G."""
    from .nilpotent import NilpotentImage
    from .presentations import catalog
    quotient = NilpotentImage.of(catalog("TorusMetabelian", n), 2)
    a, b, s = Sym("a"), Sym("b"), Word.from_syms(Sym("s"))
    images = {a: Word.from_syms(a), b: Word.from_syms(b)}
    for i in range(1, n):
        images[Sym("s", (i,))] = s
    return quotient, images


def _suite_torus_derived(result: SuiteResult, args) -> None:
    from .presentations import catalog, check_homomorphism
    n = 5
    s = Word.from_syms(Sym("s"))
    quotient, images = _torus_quotient(n)

    def order():
        for k in range(1, 2 * n):
            if quotient.contains_word(s ** k):
                return False, f"sigma^{k} is already trivial"
        ok = quotient.contains_word(s ** (2 * n))
        return ok, None if ok else f"sigma^{2 * n} is not trivial"
    result.run("torus-derived-sigma-order-10", order)

    p = catalog("BnT", n)

    def relators():
        bad = check_homomorphism(p, images, quotient.contains_word)
        if bad:
            return False, f"relator {print_word(bad[0])} acts nontrivially"
        return True, f"{len(p.relators)} relators"
    result.run("torus-derived-B5T-relators", relators)


def _suite_bnt1(result: SuiteResult, args) -> None:
    from .nilpotent import NilpotentImage
    from .presentations import catalog, derived_relation_instances
    n = 5
    p = catalog("BnT", n)
    rng = range(-1, 2)
    instances = derived_relation_instances(n, rng, rng)
    quotient, images = _torus_quotient(n)
    table = ImageTable(images)

    def abelianized():
        img = NilpotentImage.of(p, 1)
        bad = [print_word(w)[:60] for w in instances if not img.contains_word(w)]
        return not bad, f"{len(bad)} instances with nonzero image" if bad else f"{len(instances)} instances"
    result.run("bnT1-instances-abelianized", abelianized)

    def metabelian():
        bad = [print_word(w)[:60] for w in instances
               if not quotient.contains_word(substitute(w, table))]
        return not bad, f"{len(bad)} nontrivial images" if bad else f"{len(instances)} instances"
    result.run("bnT1-instances-metabelian", metabelian)

    def class2():
        img = NilpotentImage.of(p, 2)
        bad = [print_word(w)[:60] for w in instances if not img.contains_word(w)]
        return not bad, f"{len(bad)} escaping instances" if bad else f"{len(instances)} instances"
    result.run("bnT1-instances-class2", class2)


def _suite_nonorientable(result: SuiteResult, args) -> None:
    from .nilpotent import nilpotent_quotient
    from .presentations import abelianization, catalog

    def nq33():
        lay = nilpotent_quotient(catalog("BnNg", 3, g=3), 2)[1]
        ok = lay.free_rank == 0 and not lay.torsion
        return ok, f"layer 2: {_fmt_invariants(lay)}"
    result.run("nonorientable-nq-B3N3-layer2-trivial", nq33)
    for n in (2, 3):
        for g in (3, 4):
            def check(n=n, g=g):
                inv = abelianization(catalog("BnNg", n, g=g))
                ok = inv.free_rank == g - 1 and inv.torsion == (2, 2)
                return ok, f"{_fmt_invariants(inv)}, expected free_rank={g - 1} torsion=[2,2]"
            result.run(f"nonorientable-ab-B{n}N{g}", check)


def _suite_separation(result: SuiteResult, args) -> None:
    from . import series
    from .finite import tower_kernel_image, two_quotient_tower
    from .klein import fiber_basis
    from .presentations import Presentation, catalog
    p = catalog("P2K_reduced", 2)
    a2 = Word.from_syms(Sym("a", (2,)))
    b2 = Word.from_syms(Sym("b", (2,)))
    elements = [("a2", a2), ("b2sq", b2 ** 2), ("comm-a2-b2", commutator(a2, b2)),
                ("a2b2a2inv-b2", a2 * b2 * ~a2 * b2)]
    reports = series.residual_separation(p, [w for _, w in elements],
                                         args.depth)
    for (tag, _), rep in zip(elements, reports):
        def check(rep=rep):
            if rep["verdict"] == "NotSeparatedWithinDepth":
                return None, f"{rep}"
            return rep["verdict"] == "Separated", f"{rep}"
        result.run(f"separation-[{tag}]", check)

    basis = fiber_basis(3)
    ftower = two_quotient_tower(Presentation("F3", basis, []), 3)
    for m in (2, 3, 4, 5):
        def check(m=m):
            Zt = series.ztilde(2, m)
            k = (m + 1) // 2
            img = tower_kernel_image(ftower, k, 3)
            bad = [print_word(w)[:50] for w in Zt.normal_generators
                   if not img.contains_word(w)]
            return not bad, (f"generators outside gamma2_{k}: {bad[:3]}"
                             if bad else f"{len(Zt.normal_generators)} generators")
        result.run(f"separation-acima-m{m}", check)


_SUITE_IMPL = {
    "colchete": _suite_colchete,
    "section": _suite_section,
    "action": _suite_action,
    "center": _suite_center,
    "gammaP2": _suite_gammaP2,
    "gamma2P2": _suite_gamma2P2,
    "klein-collapse": _suite_klein_collapse,
    "klein-derived": _suite_klein_derived,
    "torus-derived": _suite_torus_derived,
    "bnT1-instances": _suite_bnt1,
    "nonorientable": _suite_nonorientable,
    "separation": _suite_separation,
}

SUITES = tuple(_SUITE_IMPL)


# -- subcommands ------------------------------------------------------------

def _cmd_catalog(args) -> int:
    from .presentations import catalog
    p = catalog(args.family, args.n, args.g)
    print(f"{p.label}")
    print("generators:", " ".join(str(g) for g in p.generators))
    for r in p.relators:
        print("relator:", print_word(r))
    return 0


def _cmd_abelianize(args) -> int:
    from .presentations import abelianization, catalog
    print(_fmt_invariants(abelianization(catalog(args.family, args.n, args.g))))
    return 0


def _cmd_nq(args) -> int:
    from .nilpotent import nilpotent_quotient
    from .presentations import catalog
    layers = nilpotent_quotient(catalog(args.family, args.n, args.g), args.c)
    for k, lay in enumerate(layers, start=1):
        print(f"layer{k}: {_fmt_invariants(lay)}")
    return 0


def _cmd_tower(args) -> int:
    from .presentations import BadParameters, catalog
    # usage errors come before the finite layer is loaded
    if args.depth < 1:
        raise BadParameters(f"depth must be >= 1, got {args.depth}")
    p = catalog(args.family, args.n, args.g)
    from .finite import two_quotient_tower
    stages = two_quotient_tower(p, args.depth)
    print("orders=" + str([m.npoints for m in stages]))
    return 0


def _cmd_solve(args) -> int:
    from .klein import normal_form
    w = _parse_cli_word(args.word)
    e = normal_form(w, n=args.n)
    if e.is_identity():
        print("trivial")
    else:
        print(repr(e))
    return 0


def _usage_error(message: str) -> NoReturn:
    """Raise BadParameters; presentations, which defines it, is loaded only
    on this error path."""
    from .presentations import BadParameters
    raise BadParameters(message) from None


def _cmd_verify(args) -> int:
    if not 0 <= args.hom_degree <= 5:
        _usage_error(f"--hom-degree must be 0..5, got {args.hom_degree}")
    if not 1 <= args.class_bound <= MAX_CLASS:
        _usage_error(f"--class must be 1..{MAX_CLASS}, got {args.class_bound}")
    # open the report file before the suite runs, so that a path that
    # cannot be written is a usage error and costs no computation; it opens
    # to append, so a suite that stops leaves an earlier report as it was,
    # and removes the empty file only if this open created it
    created = bool(args.json) and not os.path.exists(args.json)
    try:
        fh = open(args.json, "a") if args.json else contextlib.nullcontext()
    except OSError as e:
        _usage_error(f"cannot write --json file: {e}")
    bounds = {"class": args.class_bound, "depth": args.depth,
              "hom_degree": args.hom_degree}
    result = SuiteResult(args.suite, bounds)
    try:
        with fh:
            _SUITE_IMPL[args.suite](result, args)
            payload = json.dumps(result.to_json(), indent=2)
            print(payload)
            if args.json:
                fh.truncate(0)
                fh.write(payload + "\n")
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                if os.path.getsize(args.json) == 0:
                    os.remove(args.json)
        raise
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="surfbraid",
                                 description="surface braid group toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def family_args(sp):
        sp.add_argument("family")
        sp.add_argument("n", type=int)
        sp.add_argument("g", type=int, nargs="?", default=None)

    sp = sub.add_parser("catalog", help="print a presentation")
    family_args(sp)
    sp.set_defaults(fn=_cmd_catalog)

    sp = sub.add_parser("abelianize", help="print abelian invariants")
    family_args(sp)
    sp.set_defaults(fn=_cmd_abelianize)

    sp = sub.add_parser("nq", help="print nilpotent quotient layers")
    sp.add_argument("family")
    sp.add_argument("n", type=int)
    sp.add_argument("c", type=int)
    sp.add_argument("g", type=int, nargs="?", default=None)
    sp.set_defaults(fn=_cmd_nq)

    sp = sub.add_parser("tower", help="print two-quotient tower stage orders")
    sp.add_argument("family")
    sp.add_argument("n", type=int)
    sp.add_argument("depth", type=int)
    sp.add_argument("g", type=int, nargs="?", default=None)
    sp.set_defaults(fn=_cmd_tower)

    sp = sub.add_parser("solve", help="normal form in the n-strand Klein group")
    sp.add_argument("n", type=int)
    sp.add_argument("word")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=SUITES)
    sp.add_argument("--class", dest="class_bound", type=int, default=3)
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--json", default=None)
    sp.add_argument("--hom-degree", type=int, default=4)
    sp.set_defaults(fn=_cmd_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        # BadParameters, WordSyntaxError, BadLevel, DepthUnsupported and
        # ClassUnsupported are all ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (Overflow, MemoryError) as e:
        # a computation stopped at a bound or ran out of memory: the answer
        # is unknown, as with an INDETERMINATE verdict
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
