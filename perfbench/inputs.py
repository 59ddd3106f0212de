"""Seeded inputs for the three workloads. Everything here is a pure function
of the seed (and a block or pass number), so the same seed gives the same
queries; the program under test only ever sees the generated words."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from surfbraid import klein
from surfbraid.cli import SUITES
from surfbraid.presentations import Presentation, catalog
from surfbraid.words import Sym, Word, commutator, substitute

WORDPROBLEM_NS = (2, 3, 4, 5)
# Random words per level and block: one of each length. Fiber length grows
# exponentially with word length, so the long end is the latency tail.
WORDPROBLEM_LENGTHS = tuple(range(6, 17))
# Known-trivial words per level and block: two relator conjugates, one
# section image, one commutator with the centre witness (16 of 60 queries).
TRIVIAL_KINDS = ("relator-conjugate", "relator-conjugate", "section-image",
                 "center-commutator")
LONG_WORD = 14

TOWERS_CHEAP_PER_PASS = 480
TOWERS_LENGTHS = tuple(range(6, 19))

def random_reduced_word(rng: random.Random, gens: Sequence[Sym],
                        length: int) -> Word:
    letters: List[Tuple[Sym, int]] = []
    while len(letters) < length:
        sym, exp = rng.choice(gens), rng.choice((1, -1))
        if letters and letters[-1] == (sym, -exp):
            continue
        letters.append((sym, exp))
    return Word(letters)


def _conjugate(rng: random.Random, r: Word, gens: Sequence[Sym],
               max_len: int) -> Word:
    u = random_reduced_word(rng, gens, rng.randint(1, max_len))
    return u * (r if rng.random() < 0.5 else ~r) * ~u


def _trivial_word(rng: random.Random, kind: str, n: int) -> Word:
    gens = klein.base_generators(n)
    if kind == "relator-conjugate":
        return _conjugate(rng, rng.choice(catalog("PnK", n).relators), gens, 4)
    if kind == "section-image":
        r = rng.choice(catalog("PnK", n - 1).relators)
        return substitute(r, klein.section_images(n - 1))
    g = random_reduced_word(rng, gens, rng.randint(1, 3))
    return commutator(klein.center_witness(n), g)


def wordproblem_block(seed: int, block: int) -> List[Dict]:
    """One stratified block of normal-form queries: for each n, one random
    reduced word of every length in WORDPROBLEM_LENGTHS and the four
    known-trivial words of TRIVIAL_KINDS, shuffled."""
    rng = random.Random(f"wordproblem:{seed}:{block}")
    queries = []
    for n in WORDPROBLEM_NS:
        gens = klein.base_generators(n)
        for length in WORDPROBLEM_LENGTHS:
            queries.append({"n": n, "word": random_reduced_word(rng, gens, length),
                            "trivial": None})
        for kind in TRIVIAL_KINDS:
            queries.append({"n": n, "word": _trivial_word(rng, kind, n),
                            "trivial": kind})
    rng.shuffle(queries)
    return queries


def towers_fiber() -> Presentation:
    """The free fiber F3 of the three-strand splitting."""
    return Presentation("F3", klein.fiber_basis(3), [])


def towers_cheap(seed: int, pass_no: int) -> List[Dict]:
    """Membership and separation queries against the models one towers pass
    builds. The words are, a quarter each, relator conjugates (trivial in
    every quotient; F3 has none and takes random words instead), random
    reduced words, squares and commutators."""
    rng = random.Random(f"towers:{seed}:{pass_no}")
    groups = {"P2K": catalog("P2K_reduced", 2), "P3K": catalog("PnK", 3),
              "F3": towers_fiber()}
    kinds = (("kernel", "P2K", 2), ("kernel", "P2K", 3), ("gamma2", "P2K", 2),
             ("gamma2", "P2K", 3), ("separate", "P2K", None),
             ("separate", "P3K", None), ("separate", "F3", None))
    queries = []
    for i in range(TOWERS_CHEAP_PER_PASS):
        kind, group, k = kinds[i % len(kinds)]
        p = groups[group]
        gens = p.generators
        trivial = False
        pick = rng.random()
        if p.relators and pick < 0.25:
            word = _conjugate(rng, rng.choice(p.relators), gens, 4)
            trivial = True
        elif pick < 0.5:
            word = random_reduced_word(rng, gens, rng.choice(TOWERS_LENGTHS))
        elif pick < 0.75:
            # squares and commutators vanish in stage 2, so separating them
            # takes the deeper stages
            word = random_reduced_word(rng, gens, rng.randint(3, 9)) ** 2
        else:
            word = commutator(random_reduced_word(rng, gens, rng.randint(2, 5)),
                              random_reduced_word(rng, gens, rng.randint(2, 5)))
        queries.append({"kind": kind, "group": group, "k": k, "word": word,
                        "trivial": trivial})
    rng.shuffle(queries)
    return queries


def verify_order(seed: int) -> List[str]:
    """The twelve suites in a seeded order; suites run at default bounds."""
    order = list(SUITES)
    random.Random(f"verify:{seed}").shuffle(order)
    return order
