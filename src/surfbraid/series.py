"""Filtration subgroups of semidirect products of surface braid groups:
generator recursions for the induced series on the fiber, candidate
closed-form families (among them the fiber family Zt_m), comparison of
normal-closure descriptions at finite or nilpotent resolution, and the
search for the first stage of the mod-2 lower central tower that separates
an element from the identity."""

from __future__ import annotations

import itertools
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from .presentations import (BadParameters, Presentation, SubgroupDescription,
                            catalog)
from .words import Sym, Word, commutator, left_normed

# klein, nilpotent and finite are imported in the functions that use them,
# so a process that compares in one of them loads none of the others
if TYPE_CHECKING:
    from .finite import FiniteModel
    from .klein import ActionTable
    from .nilpotent import NilpotentImage

EQUAL = "EqualInOracle"
A_IN_B = "AStrictlyInB"
B_IN_A = "BStrictlyInA"
INCOMPARABLE = "Incomparable"


class DepthUnsupported(ValueError):
    pass


class OracleMismatch(ValueError):
    pass


# -- the generator recursion for Gamma_n(H x| G) = L_n x| Gamma_n(G) ------

def _fiber_words(action: ActionTable) -> List[Word]:
    # any one table maps the fiber basis, in order: each letter's code, then
    # its inverse's
    table = next(iter(action.tables.values()))
    return [Word.from_syms(Sym.from_code(code)) for code in table if not code & 1]


def _dedupe(words: Sequence[Word]) -> List[Word]:
    out: List[Word] = []
    seen = set()
    for w in words:
        if w.is_identity() or w in seen:
            continue
        seen.add(w)
        out.append(w)
    return out


def serie_generators(action: ActionTable,
                     base_lcs: Callable[[int], Sequence[Word]],
                     n: int,
                     ambient: Optional[Presentation] = None
                     ) -> Tuple[SubgroupDescription, SubgroupDescription,
                                SubgroupDescription]:
    """Generating sets (K_n, L_n, V_n) of the subgroups the n-th lower
    central term of a semidirect product H x| G induces on the free fiber H:

        K_n = << phi(g)(h) h^-1 : g generating Gamma_{n-1}(G), h in H >>
        L_1 = H,  L_n = << K_n, H_n, [H, L_{n-1}] >> with
        H_n = << phi(g)(w) w^-1 : g a generator of G, w a generator of L_{n-1} >>

    and V_n the variant of L_n that drops the K-part (H_n computed over
    V_{n-1} instead), so Gamma_n(H x| G) = L_n x| Gamma_n(G).

    `base_lcs(i)` must yield base words generating Gamma_i(G); the words are
    read through the action table, one base letter at a time."""
    if n < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    fiber = _fiber_words(action)
    if ambient is None:
        ambient = Presentation("fiber", [Sym.from_code(w.codes[0]) for w in fiber],
                               [])
    base_gens = list(base_lcs(1))

    def step(prev: List[Word]) -> List[Word]:
        """The H-part over the previous term, then its commutators with the
        fiber."""
        return ([action.apply_base_word(g, w) * ~w
                 for g in base_gens for w in prev]
                + [commutator(h, w) for h in fiber for w in prev])

    K, L, V = fiber, fiber, fiber
    for m in range(2, n + 1):
        K = [action.apply_base_word(g, h) * ~h
             for g in base_lcs(m - 1) for h in fiber]
        L = _dedupe(K + step(L))
        V = _dedupe(step(V))
    K = _dedupe(K)
    return (SubgroupDescription(ambient, K, label=f"K_{n}"),
            SubgroupDescription(ambient, L, label=f"L_{n}"),
            SubgroupDescription(ambient, V, label=f"V_{n}"))


def pi1k_base_lcs(i: int) -> List[Word]:
    """Base words generating Gamma_i of the one-strand group used as the
    base of the two-strand splitting: generated by a_1, b_1 with
    b_1^-1 a_1 b_1 = a_1^-1, so Gamma_i = < a_1^(2^(i-1)) > for i >= 2."""
    if i < 1:
        raise BadParameters(f"need i >= 1, got {i}")
    a1 = Word.from_syms(Sym("a", (1,)))
    if i == 1:
        return [a1, Word.from_syms(Sym("b", (1,)))]
    return [a1 ** (2 ** (i - 1))]


# -- closed-form candidate families ---------------------------------------

def _p2k_fiber() -> Tuple[Word, Word]:
    return (Word.from_syms(Sym("a", (2,))), Word.from_syms(Sym("b", (2,))))


def wn_tilde(n: int) -> SubgroupDescription:
    """The candidate closed form for the fiber part of Gamma_n of the
    two-strand group: a_2^(2^(n-1)) together with every basic commutator
    of weight i in the rank-two fiber raised to the 2^(n-i)-th power,
    2 <= i <= n."""
    from .nilpotent import hall_basis, hall_word
    if n < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    a2, b2 = _p2k_fiber()
    fiber_syms = [Sym.from_code(w.codes[0]) for w in (a2, b2)]
    gens = [a2 ** (2 ** (n - 1))]
    if n >= 2:
        basis = hall_basis(2, n)
        for pos, elem in enumerate(basis):
            if 2 <= elem.weight <= n:
                w = hall_word(2, n, pos, fiber_syms)
                gens.append(w ** (2 ** (n - elem.weight)))
    ambient = Presentation("fiberP2K", fiber_syms, [])
    return SubgroupDescription(ambient, _dedupe(gens), label=f"Wtilde_{n}")


def gamma_p2k_claimed(n: int) -> SubgroupDescription:
    """The claimed closed form of Gamma_n of the two-strand group: the
    fiber part Wtilde_n together with the base part (a_1 a_2)^(2^(n-1))."""
    if n < 2:
        raise BadParameters(f"need n >= 2, got {n}")
    p = catalog("P2K_reduced", 2)
    a1 = Word.from_syms(Sym("a", (1,)))
    a2, _ = _p2k_fiber()
    fiber = list(wn_tilde(n).normal_generators)
    base = [(a1 * a2) ** (2 ** (n - 1))]
    return SubgroupDescription(p, fiber + base, label=f"Gamma_{n}(P2K)")


def gamma2_p2k_claimed(n: int) -> SubgroupDescription:
    """The claimed closed form of the n-th term of the mod-two lower
    central series of the two-strand group."""
    if n < 2:
        raise BadParameters(f"need n >= 2, got {n}")
    p = catalog("P2K_reduced", 2)
    a1 = Word.from_syms(Sym("a", (1,)))
    b1 = Word.from_syms(Sym("b", (1,)))
    a2, b2 = _p2k_fiber()
    e = 2 ** (n - 1)
    fiber = list(wn_tilde(n).normal_generators) + [b2 ** e]
    base = [(a1 * a2) ** e, (b2 * b1) ** e]
    return SubgroupDescription(p, fiber + base, label=f"gamma2_{n}(P2K)")


def elm_generators(l: int, m: int,
                   gens: Sequence[Word],
                   a_words: Optional[Sequence[Word]] = None,
                   ambient: Optional[Presentation] = None
                   ) -> SubgroupDescription:
    """The two-parameter family E_{l,m}: left-normed brackets
    [x_1, ..., x_i]^(2^(m-i-k)) with l <= i <= m, where k of the entries
    come from `a_words` (k = 0 when none are supplied) and the rest from
    `gens`, 0 <= k <= m - i."""
    if not 1 <= l <= m:
        raise BadParameters(f"need 1 <= l <= m, got l={l}, m={m}")
    plain = [(w, 0) for w in gens]
    special = [(w, 1) for w in (a_words or [])]
    out: List[Word] = []
    for i in range(l, m + 1):
        for combo in itertools.product(plain + special, repeat=i):
            k = sum(tag for _, tag in combo)
            if k > m - i:
                continue
            entries = [w for w, _ in combo]
            w = entries[0] if i == 1 else left_normed(entries)
            out.append(w ** (2 ** (m - i - k)))
    if ambient is None:
        # each symbol once, in order of first appearance
        codes = dict.fromkeys(c & ~1 for w in [*gens, *(a_words or [])]
                              for c in w.codes)
        ambient = Presentation("fiber", [Sym.from_code(c) for c in codes], [])
    tag = f"E[{l},{m}]" if a_words else f"Etilde[{l},{m}]"
    return SubgroupDescription(ambient, _dedupe(out), label=tag)


def ztilde(n: int, m: int) -> SubgroupDescription:
    """The family Zt_m inside the free fiber H of the (n+1)-strand
    splitting, at stage m >= 2: the 2^(m-2)-th powers of the A-letters
    together with the brackets [x_1..x_i]^(2^(m-i-k)) having k A-entries,
    2 <= i <= m and 0 <= k <= m - i (those of `elm_generators(2, m, ...)`)."""
    from .klein import _top_d_expansion, fiber_basis
    if n < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    if m < 2:
        raise BadParameters(f"need m >= 2, got {m}")
    level = n + 1
    basis = fiber_basis(level)
    ambient = Presentation(f"fiberP{level}K", basis, [])
    h_words = [Word.from_syms(s) for s in basis]
    a_words = [Word.from_syms(Sym("D", (j, level))) for j in range(1, n)]
    a_words.append(_top_d_expansion(level))
    a_pow = [w ** (2 ** (m - 2)) for w in a_words]
    brackets = elm_generators(2, m, h_words, a_words, ambient).normal_generators
    return SubgroupDescription(ambient, _dedupe(a_pow + list(brackets)),
                               label=f"Ztilde_{m}")


def lower_central_description(p: Presentation, n: int) -> SubgroupDescription:
    """Word-level generators of the n-th lower central term, built by the
    commutator recursion alone: Gamma_1 is generated by the presentation's
    generators and Gamma_n by the brackets [w, g] over the generators of
    Gamma_{n-1}. Serves as the independent route the closed forms are
    compared against."""
    if n < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    gen_words = [Word.from_syms(g) for g in p.generators]
    stage = gen_words
    for _ in range(n - 1):
        stage = _dedupe([commutator(w, g) for w in stage for g in gen_words])
    return SubgroupDescription(p, stage, label=f"Gamma_{n} (recursion)")


# -- comparison oracles ----------------------------------------------------

# a finite model or a nilpotency class bound
Oracle = Union["FiniteModel", int]


def _same_ambient(a: SubgroupDescription, b: SubgroupDescription) -> None:
    pa, pb = a.ambient, b.ambient
    if pa is pb:
        return
    if list(pa.generators) != list(pb.generators):
        raise OracleMismatch(
            f"descriptions live over different generator alphabets: "
            f"{pa.generators} vs {pb.generators}")


def _nilpotent_image(desc: SubgroupDescription, c: int) -> NilpotentImage:
    from .nilpotent import NilpotentImage
    return NilpotentImage.of(desc.ambient, c, desc.normal_generators)


def _oracle_image(desc: SubgroupDescription, oracle: Oracle):
    """The normal closure of the description at the oracle's resolution."""
    if isinstance(oracle, int):
        return _nilpotent_image(desc, oracle)
    from .finite import FiniteModel, subgroup_image
    if isinstance(oracle, FiniteModel):
        return subgroup_image(oracle, desc)
    raise OracleMismatch(f"unsupported oracle {oracle!r}")


def _contains(container, desc: SubgroupDescription) -> bool:
    return all(container.contains_word(w) for w in desc.normal_generators)


def compare_descriptions(a: SubgroupDescription, b: SubgroupDescription,
                         oracle: Oracle) -> str:
    """Compare the normal closures of two descriptions at the resolution of
    an oracle: either a finite permutation model of the shared ambient
    group, or an integer nilpotency class bound (the comparison then happens
    in the ambient group modulo the (c+1)-st lower central term)."""
    _same_ambient(a, b)
    a_in_b = _contains(_oracle_image(b, oracle), a)
    b_in_a = _contains(_oracle_image(a, oracle), b)
    if a_in_b and b_in_a:
        return EQUAL
    if a_in_b:
        return A_IN_B
    if b_in_a:
        return B_IN_A
    return INCOMPARABLE


# -- residual separation ---------------------------------------------------

def residual_separation(p: Presentation, elements: Sequence[Word],
                        depth: int) -> List[Dict]:
    """For each element, search the first stage of the mod-2 lower central
    series of the group presented by p whose quotient separates it from the
    identity, among the stages of `two_quotient_tower(p, depth)`. The
    verdicts are evidence at the explored depth, not residuality proofs:
    'NotSeparatedWithinDepth' only says the search was exhausted."""
    if depth < 1:
        raise DepthUnsupported(f"need depth >= 1, got {depth}")
    from .finite import two_quotient_tower
    tower = two_quotient_tower(p, depth)
    reports: List[Dict] = []
    for w in elements:
        stage = None
        for idx in range(1, len(tower)):
            if tower[idx].apply_word(w, 0) != 0:
                stage = idx + 1
                break
        reports.append(_separation_report(w, stage, depth))
    return reports


def _separation_report(w: Word, stage: Optional[int], depth: int) -> Dict:
    if w.is_identity():
        return {"element": str(w), "verdict": "Trivial", "stage": None}
    if stage is None:
        return {"element": str(w), "verdict": "NotSeparatedWithinDepth",
                "stage": None, "depth": depth}
    return {"element": str(w), "verdict": "Separated", "stage": stage}
