"""Finite quotient machinery: coset enumeration, Reidemeister-Schreier
rewriting for finite-index subgroups, exhaustive homomorphism search into
small symmetric groups, and the mod-2 lower central tower realized as
finite 2-group models."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .presentations import Presentation, SubgroupDescription
from .words import Overflow, Sym, Word


def _trace(columns: Sequence[np.ndarray], path: Sequence[int], start):
    """The point the column path leads to from `start`, which may be one
    point or an array of points."""
    for col in path:
        start = columns[col][start]
    return start


# -- Todd-Coxeter coset enumeration --------------------------------------

class CosetTable:
    """Complete table of cosets of a subgroup; columns[2g][c] is the coset
    generator g sends c to, columns[2g+1] the action of its inverse. Coset 0
    is the subgroup itself. A table `todd_coxeter` returns also reports its
    work: `defined`, the cosets it defined, dead ones included (what
    `max_cosets` bounds), and `scanned`, the relator letters of the cosets
    it scanned (what `MAX_SCAN_LETTERS` bounds); both are 0 for a table
    read off a model."""

    __slots__ = ("presentation", "columns", "index", "defined", "scanned")

    def __init__(self, presentation: Presentation, columns: Sequence[np.ndarray],
                 index: int, defined: int = 0, scanned: int = 0):
        self.presentation = presentation
        self.columns = list(columns)
        self.index = index
        self.defined = defined
        self.scanned = scanned

    def scan_closes(self) -> bool:
        """Every relator traces back to its starting coset from every coset."""
        p = self.presentation
        start = np.arange(self.index)
        return all(np.array_equal(_trace(self.columns, p.codes(r), start), start)
                   for r in p.relators)


# Bound on the relator letters one `todd_coxeter` call scans, counted as the
# relators' total length once per live coset scanned. The largest count the
# tests or the benchmark make is the 512-coset step of the P2K_reduced coset
# route, 567,216 letters (202 cosets of 2,808); the bound is 7.4 times that.
# The PnK 3 route's step to 32,768 cosets scans 79,456 letters per coset,
# so it ends in `Overflow` at its 53rd coset, after about 1 s on a 2-core
# x86 VM; with no bound it ran for 289 s.
MAX_SCAN_LETTERS = 1 << 22


def todd_coxeter(p: Presentation, subgroup: Sequence[Word],
                 max_cosets: int = 10000) -> CosetTable:
    """HLT coset enumeration (Holt-Eick-O'Brien, Handbook of Computational
    Group Theory, 2005, ch. 5): scan every relator at each live coset in
    turn, defining cosets to fill gaps, then define that coset's columns
    still empty. Coincidences are processed as in the Handbook's
    COINCIDENCE routine, which removes a dead coset's back-references, so
    live rows only ever point at live cosets. `max_cosets` bounds the
    cosets defined, dead ones included, and `MAX_SCAN_LETTERS` the relator
    letters scanned; past either it raises `Overflow`.

    The enumeration stops at the first complete table that closes: once no
    live row has an empty entry, and again after each coincidence that
    leaves none, it checks the compacted table with numpy, and returns it
    if every relator closes at every coset and every subgroup word fixes
    coset 0. Each entry of the table is a fact about the cosets, so such a
    table maps onto the cosets of the subgroup, and the action it defines
    gives the inverse map: it is the coset table. A check that fails leaves
    a relator open at a coset not yet scanned, so the scan there ends in a
    coincidence before the table can change again.

    The table returned is standard: cosets are numbered in the order a
    breadth-first search from coset 0 over (coset, column) meets them. A
    complete standard table depends only on the presentation, the subgroup
    and the generator order, not on how the enumeration ran.

    Only the tests and the benchmark call it: with `adjoin_kernel_relators`
    it is the independent coset route to the mod-2 tower that the tests
    check `two_quotient_tower` against."""
    width = 2 * len(p.generators)
    rel_paths = [p.codes(r) for r in p.relators if r.codes]
    rel_letters = sum(map(len, rel_paths))
    sub_paths = [p.codes(w) for w in subgroup]

    table: List[List[Optional[int]]] = [[None] * width]
    parent = [0]  # union-find over coincidences; live cosets are roots
    # empty entries of live rows, and whether the complete table has failed
    # the closing check with no coincidence since
    empty = width
    failed = False
    scanned = 0

    def rep(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c: int, col: int) -> None:
        nonlocal empty
        if len(table) >= max_cosets:
            raise Overflow(f"exceeded {max_cosets} cosets")
        d = len(table)
        table.append([None] * width)
        parent.append(d)
        table[c][col] = d
        table[d][col ^ 1] = c
        empty += width - 2

    def coincidence(a: int, b: int) -> None:
        nonlocal empty, failed
        failed = False
        dead: List[int] = []

        def merge(x: int, y: int) -> None:
            nonlocal empty
            x, y = rep(x), rep(y)
            if x != y:
                x, y = min(x, y), max(x, y)
                parent[y] = x
                dead.append(y)
                empty -= table[y].count(None)

        merge(a, b)
        for e in dead:  # grows as merges kill more cosets
            row = table[e]
            for col in range(width):
                f = row[col]
                if f is None:
                    continue
                table[f][col ^ 1] = None
                if parent[f] == f:
                    empty += 1
                x, y = rep(e), rep(f)
                if table[x][col] is not None:
                    merge(y, table[x][col])
                elif table[y][col ^ 1] is not None:
                    merge(x, table[y][col ^ 1])
                else:
                    table[x][col] = y
                    table[y][col ^ 1] = x
                    empty -= 2

    def scan_and_fill(c: int, path: Sequence[int]) -> None:
        nonlocal empty
        f, b = c, c
        i, j = 0, len(path) - 1
        while True:
            # scan forward as far as possible
            while i <= j:
                nxt = table[f][path[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            # scan backward as far as possible
            while j >= i:
                prv = table[b][path[j] ^ 1]
                if prv is None:
                    break
                b = prv
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                # single gap: deduction
                table[f][path[i]] = b
                table[b][path[i] ^ 1] = f
                empty -= 2
                return
            # fill the forward gap with a new coset and continue
            define(f, path[i])

    def closed_table() -> Optional[CosetTable]:
        """The complete table compacted over live cosets and renumbered in
        breadth-first order, if it closes; None if it does not."""
        live = [c for c in range(len(table)) if parent[c] == c]
        renum = np.zeros(len(table), dtype=np.int64)
        renum[live] = np.arange(len(live))
        rows = renum[np.array([table[c] for c in live], dtype=np.int64)
                     .reshape(len(live), width)]
        order = _schreier_tree(list(rows.T), len(live))[2]
        standard = np.empty_like(order)
        standard[order] = np.arange(len(live))
        columns = [standard[col[order]] for col in rows.T]
        out = CosetTable(p, columns, len(live), len(table), scanned)
        if out.scan_closes() and all(_trace(columns, path, 0) == 0
                                     for path in sub_paths):
            return out
        return None

    for path in sub_paths:
        scan_and_fill(0, path)
    c = 0
    while True:
        if empty == 0 and not failed:
            out = closed_table()
            if out is not None:
                return out
            failed = True
        if c == len(table):
            raise AssertionError("coset table closed but a relator scan fails")
        if parent[c] == c:
            scanned += rel_letters
            if scanned > MAX_SCAN_LETTERS:
                raise Overflow(f"exceeded {MAX_SCAN_LETTERS} relator letters "
                               "scanned")
            for path in rel_paths:
                scan_and_fill(c, path)
                if parent[c] != c:
                    break
            else:  # c is still live: define its columns still empty
                for col in range(width):
                    if table[c][col] is None:
                        define(c, col)
        c += 1


# -- Reidemeister-Schreier ------------------------------------------------

def _schreier_tree(columns: Sequence[np.ndarray], n: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS spanning tree over cosets 0..n-1, where columns[j][c] is the coset
    column j leads to from c: parent coset and entering column for each
    coset, and the cosets in the order they are discovered. Runs one level at
    a time; within a level cosets are discovered in (coset, column) order, as
    a one-coset-at-a-time queue would."""
    width = len(columns)
    parent = np.full(n, -1, dtype=np.int64)
    letter = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    # first[t]: the least (frontier, column) position of a level that reaches
    # the new point t. Every point written is marked seen below and never
    # written again, so the array needs no reset between levels.
    first = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    levels = []
    while frontier.size:
        levels.append(frontier)
        targets = np.empty((frontier.size, width), dtype=np.int64)
        for j, col in enumerate(columns):
            targets[:, j] = col[frontier]
        targets = targets.ravel()
        fresh = np.flatnonzero(~seen[targets])
        hit = targets[fresh]
        np.minimum.at(first, hit, fresh)
        # positions in increasing order, one per new point
        found = fresh[first[hit] == fresh]
        reached = targets[found]
        parent[reached] = frontier[found // width]
        letter[reached] = found % width
        seen[reached] = True
        frontier = reached
    if not seen.all():
        raise ValueError("the action is not transitive")
    return parent, letter, np.concatenate(levels)


def _tree_path(parent: np.ndarray, letter: np.ndarray, c: int) -> List[int]:
    """Columns along the tree path from coset 0 to coset c."""
    path = []
    while c != 0:
        path.append(int(letter[c]))
        c = int(parent[c])
    path.reverse()
    return path


def _edge_bits(columns: Sequence[np.ndarray],
               tree: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> List[List[int]]:
    """The Schreier generators as edge bits over the BFS tree of the
    action: the edge (c, g) has the bit 1 << (c * ngens + g), or 0 if it is
    a tree edge, so the nonzero bits are the Schreier generators in (coset,
    generator) order. Returns the bit each column move crosses: bits[2g][c]
    is that of (c, g), and bits[2g+1][c] that of (d, g), which the inverse
    move from c to d walks backwards."""
    parent, letter, _ = tree
    ngens = len(columns) // 2
    edge = [1 << i for i in range(len(parent) * ngens)]
    for c, a, col in zip(range(1, len(parent)), parent[1:].tolist(),
                         letter[1:].tolist()):
        # an inverse column enters c along the edge (c, g) backwards
        edge[(c if col & 1 else a) * ngens + (col >> 1)] = 0
    bits: List[List[int]] = []
    for g in range(ngens):
        bits.append(edge[g::ngens])
        bits.append([edge[d * ngens + g] for d in columns[2 * g + 1].tolist()])
    return bits


def reidemeister_schreier(t: CosetTable) -> Presentation:
    """Presentation of the subgroup on its Schreier generators. Only the
    tests call it: its presentations are how they check a coset table
    independently, by known subgroup abelianizations (A3 in S3) and by
    equal dumps across a `model_table` round trip."""
    p = t.presentation
    ngens = len(p.generators)
    bits = _edge_bits(t.columns, _schreier_tree(t.columns, t.index))
    # the Schreier generators' symbols by edge bit, in bit order
    ys = {bits[2 * g][c]: Sym("y", (c, g))
          for c, g in itertools.product(range(t.index), range(ngens))
          if bits[2 * g][c]}

    relators = []
    for r in p.relators:
        path = p.codes(r)
        for c in range(t.index):
            met, cur = [], c
            for col in path:
                if bits[col][cur]:
                    met.append((ys[bits[col][cur]], -1 if col & 1 else 1))
                cur = int(t.columns[col][cur])
            if cur != c:
                raise ValueError("rewriting a non-closed path")
            w = Word(met)
            if not w.is_identity():
                relators.append(w)
    return Presentation(f"{p.label}_sub{t.index}", list(ys.values()), relators)


def schreier_generator_words(t: CosetTable) -> List[Word]:
    """The Schreier generators of the subgroup, written as words in the
    ambient generators (transversal-in, edge, transversal-out). Nothing in
    the package calls it outside this module: with `todd_coxeter` and
    `adjoin_kernel_relators` it makes the independent coset route to the
    mod-2 tower that the tests check `two_quotient_tower` against."""
    gens = t.presentation.generators
    parent, letter, _ = tree = _schreier_tree(t.columns, t.index)
    bits = _edge_bits(t.columns, tree)
    words = []
    for c, g in itertools.product(range(t.index), range(len(gens))):
        if bits[2 * g][c]:
            # u_c . x_g . u_d^-1, with d the coset the edge enters
            d = int(t.columns[2 * g][c])
            path = (_tree_path(parent, letter, c) + [2 * g]
                    + [x ^ 1 for x in reversed(_tree_path(parent, letter, d))])
            words.append(Word([(gens[x >> 1], -1 if x & 1 else 1) for x in path]))
    return words


def adjoin_kernel_relators(p: Presentation, t: CosetTable) -> Presentation:
    """Presentation of the quotient by squares and generator-commutators of
    the subgroup the table enumerates (its next mod-2 central layer). Only
    the tests and the benchmark call it: it is a step of the independent
    coset route to the mod-2 tower, which the tests check
    `two_quotient_tower` against."""
    extra: List[Word] = []
    for s in schreier_generator_words(t):
        extra.append(s * s)
        for g in p.generators:
            gw = Word(((g, 1),))
            extra.append(s * gw * ~s * ~gw)
    return Presentation(f"{p.label}+kernel2", p.generators,
                        list(p.relators) + extra)


# -- finite permutation models --------------------------------------------

class FiniteModel:
    """Images of the presentation's generators as permutations of
    {0..npoints-1}, stored as coset-table columns: columns[2g] is generator
    g, columns[2g+1] its inverse, so a letter code is a column."""

    __slots__ = ("presentation", "columns", "npoints", "regular", "_tree")

    def __init__(self, p: Presentation, perms: Sequence[Sequence[int]],
                 npoints: int, regular: bool = False):
        self.presentation = p
        self.npoints = npoints
        self.regular = regular
        self.columns: List[np.ndarray] = []
        for perm in perms:
            perm = np.asarray(perm, dtype=np.int64)
            inv = np.empty_like(perm)
            inv[perm] = np.arange(npoints)
            self.columns += [perm, inv]
        self._tree = None

    @classmethod
    def _of_columns(cls, p: Presentation, columns: List[np.ndarray],
                    npoints: int) -> "FiniteModel":
        """A model on columns already laid out as above, which it may share
        with other models."""
        model = cls(p, [], npoints)
        model.columns = columns
        return model

    @property
    def generators(self) -> Tuple[Sym, ...]:
        return self.presentation.generators

    def apply_word(self, w: Word, point: int) -> int:
        return int(_trace(self.columns, self.presentation.codes(w), point))

    def _spanning_tree(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The `_schreier_tree` of the points, built once; building it
        certifies that the action is transitive."""
        if self._tree is None:
            self._tree = _schreier_tree(self.columns, self.npoints)
        return self._tree

    def _path(self, point: int) -> List[int]:
        """Column codes tracing the base point to `point` along the BFS tree
        (regular models: a word for every group element)."""
        return _tree_path(*self._spanning_tree()[:2], point)

    def point_mul(self, a: int, b: int) -> int:
        """Product of the group elements with base-point images a and b
        (regular models only: the point set is the group). One tree walk per
        call: it serves the small conjugation closure of `subgroup_image` and
        the brute-force checks in the tests, not bulk enumeration."""
        return int(_trace(self.columns, self._path(b), a))

    def point_inv(self, a: int) -> int:
        """Inverse of the group element with base-point image a (regular
        models only); a tree walk. Only the tests call it: their brute-force
        normal closure is the independent route `subgroup_image` is checked
        against."""
        return int(_trace(self.columns, [x ^ 1 for x in reversed(self._path(a))], 0))


def coset_action(t: CosetTable, regular: bool = False) -> FiniteModel:
    """The permutation action of the group on the cosets of the table.
    Only the tests call it: it turns coset tables into the models on which
    they check relators, Schreier generators and point arithmetic."""
    return FiniteModel(t.presentation, t.columns[::2], t.index, regular=regular)


def model_table(model: FiniteModel, p: Presentation) -> CosetTable:
    """A coset table over `p` whose cosets are the model's points (regular
    models: the table of the kernel of the presented group onto the model).
    Only the tests call it: the round trip through `coset_action` checks
    the column layout that coset tables and models share."""
    if tuple(p.generators) != tuple(model.generators):
        raise ValueError("model generators do not match the presentation")
    out = CosetTable(p, model.columns, model.npoints)
    if not out.scan_closes():
        raise ValueError("model does not satisfy the presentation relators")
    return out


# -- homomorphism search --------------------------------------------------

# Bound on the candidate rows one `hom_search` call examines; a candidate is
# an assignment of generators 0..i that extends a survivor of 0..i-1 by one
# permutation. The largest call the package makes, P2K_reduced at degree 5,
# examines 12.2 M rows (0.4 s on a 2-core x86 VM); the bound is 2.75 times
# that.
MAX_HOM_CANDIDATES = 1 << 25
# Candidate rows traced at once (at least one parent row's worth): each
# block holds a few integer arrays of this length, whatever the degree.
_HOM_CHUNK_ROWS = 1 << 14


def hom_search(p: Presentation, degree: int) -> List[FiniteModel]:
    """All homomorphisms into the symmetric group on `degree` points, in the
    lexicographic order of the generators' permutation codes (the sorted
    order of the permutations).

    The search runs level by level: the assignments of generators 0..i-1
    that satisfy every relator in them are kept as rows of codes, each row
    is extended by every permutation of generator i at once, and the
    relators whose last generator is i are traced over the whole block, one
    product-table gather per letter, dropping the rows a relator rejects.
    Raises `Overflow` before the candidates examined would pass
    `MAX_HOM_CANDIDATES`."""
    if degree < 1 or degree > 6:
        raise ValueError(f"degree must be 1..6, got {degree}")
    ngens = len(p.generators)
    # a relator is traced once all its generators are assigned
    checks: List[List[List[int]]] = [[] for _ in range(ngens)]
    for r in p.relators:
        path = p.codes(r)
        if path:
            checks[max(path) >> 1].append(path)

    # permutations are numbered by their place in sorted order, so code 0 is
    # the identity; mul[k*a + b] is the code of "apply b, then a", found by
    # reading each product's images as a base-`degree` number (its image j
    # is perms[:, perms[:, j]][a, b])
    perms = np.array(sorted(itertools.permutations(range(degree))), dtype=np.int64)
    k = len(perms)
    weights = degree ** np.arange(degree - 1, -1, -1)
    keys = perms @ weights
    mul = np.searchsorted(keys, sum(perms[:, perms[:, j]] * w
                                    for j, w in enumerate(weights))).ravel()
    inv = np.searchsorted(keys, np.argsort(perms, axis=1) @ weights)
    # left factors k*a of a letter of the new generator, by its code
    lefts = (k * np.arange(k), k * inv)

    rows = np.zeros((1, 0), dtype=np.int16)
    examined = 0
    per_block = max(1, _HOM_CHUNK_ROWS // k)
    for i in range(ngens):
        examined += len(rows) * k
        blocks, kept = [], 0
        for s in range(0, len(rows), per_block):
            parents = rows[s:s + per_block]
            # left factors of the parents' letters, by column code
            table = k * np.stack([parents, inv[parents]], axis=2).reshape(len(parents), -1)
            # row-major expansion: parent order first, then code order
            par = np.repeat(np.arange(len(parents)), k)
            new = np.tile(np.arange(k), len(parents))
            for path in checks[i]:
                cur = np.zeros(len(par), dtype=np.intp)
                for col in path:
                    if col >> 1 == i:
                        cur = mul[lefts[col & 1][new] + cur]
                    else:
                        cur = mul[table[par, col] + cur]
                keep = cur == 0
                par, new = par[keep], new[keep]
            block = np.empty((len(par), i + 1), dtype=np.int16)
            block[:, :i] = parents[par]
            block[:, i] = new
            blocks.append(block)
            # the next level examines k candidates per row kept: stop as soon
            # as they would pass the bound, before this level is all stored
            kept += len(par)
            if i + 1 < ngens and examined + kept * k > MAX_HOM_CANDIDATES:
                raise Overflow(f"hom_search into S{degree} would examine more "
                               f"than {MAX_HOM_CANDIDATES} candidates")
        rows = np.concatenate(blocks) if blocks else np.zeros((0, i + 1), np.int16)

    # every model reads one shared (permutation, inverse) column pair per
    # code; the arrays are read-only, so no model can change another's
    perms.setflags(write=False)
    inverses = perms[inv]
    inverses.setflags(write=False)
    pairs = list(zip(perms, inverses))
    return [FiniteModel._of_columns(p, [col for c in row for col in pairs[c]], degree)
            for row in rows.tolist()]


# -- the mod-2 lower central tower ----------------------------------------

# Bound on one layer's F2 rows, counted in bits before elimination: about
# 512 MB of dense rows. Stage 4 of the P2K_reduced tower needs 9.5e6 bits,
# stage 5 1.5e11.
MAX_LAYER_BITS = 1 << 32
# Bound on the points of one tower stage.
MAX_POINTS = 1 << 20


def _f2_eliminate(rows: List[int]) -> Dict[int, int]:
    """Gaussian elimination over F2 on bitmask rows; returns the pivot-column
    -> row map."""
    pivots: Dict[int, int] = {}
    for row in rows:
        r = row
        while r:
            lead = r.bit_length() - 1
            if lead in pivots:
                r ^= pivots[lead]
            else:
                pivots[lead] = r
                break
    return pivots


def _f2_project(vec: int, pivots: Dict[int, int], free_pos: Dict[int, int]) -> int:
    r = vec
    out = 0
    while r:
        lead = r.bit_length() - 1
        if lead in pivots:
            r ^= pivots[lead]
        else:
            r ^= 1 << lead
            out |= 1 << free_pos[lead]
    return out


def two_quotient_tower(p: Presentation, depth: int) -> List[FiniteModel]:
    """Models of the quotients by the mod-2 lower central terms: stage 1 is
    trivial, stage i+1 extends stage i by the elementary abelian layer
    generated by squares and generator-commutators of the stage-i kernel.

    The layer is V/R, where K is the kernel of the free group F onto stage
    i, V = K/K^2 over F2 has the Schreier generators as basis, and R is
    spanned by the conjugation-difference rows and by each relator traced
    from the base point only. Tracing a relator r from every coset gives
    nothing more. With I the augmentation ideal of F2[F] acting on V, the
    conjugation differences (h - 1)s span [K, F]K^2/K^2 = I.V, because
    (hg - 1)v = (h - 1)(gv) + (g - 1)v and (h^-1 - 1)v = (h - 1)(h^-1 v).
    The row of r traced from coset c is the class of u_c r u_c^-1, which is
    r + (u_c - 1)r and so lies in r + I.V. The row space is therefore the
    same; its leading bits, so the pivot and free columns, depend only on
    the row space, and each `_f2_project` value is the unique vector of the
    coset supported on the free columns. Every stage permutation is the
    one the per-coset rows give.

    Each Schreier generator is its edge bit (`_edge_bits`). The bits keep
    the (coset, generator) order, and tree edges have none, so the leading
    bits, the free columns and every `_f2_project` value are those of the
    generators numbered 0, 1, ... in that order. The row of s = u_c x_g
    u_d^-1 and h is the parity of h s h^-1 plus s. Walked from the base
    point, the letters h and h^-1 cross the same edge and cancel. In
    between, u_c walked from P[0] = h.0 ends at P[c] with parity T[c]; for
    the tree parent a of c, both follow from P[a] and T[a] by the tree
    letter into c. The stage acts regularly, so u_c x_g and u_d walked
    from P[0] both end at P[d], and the row is T[c] + (the bit of
    (P[c], g)) + T[d] + s."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    ngens = len(p.generators)
    rel_paths = [p.codes(r) for r in p.relators]

    stages = [FiniteModel(p, [[0]] * ngens, 1, regular=True)]
    for stage_no in range(2, depth + 1):
        model = stages[-1]
        n = model.npoints
        # one Schreier generator per edge off the tree's n - 1 edges
        width = n * (ngens - 1) + 1
        nrows = len(rel_paths) + width * ngens
        if width * nrows > MAX_LAYER_BITS:
            raise Overflow(f"stage {stage_no} would need {nrows} F2 rows "
                           f"of {width} bits")
        tree = model._spanning_tree()
        bits = _edge_bits(model.columns, tree)
        parent, letter, order = (a.tolist() for a in tree)
        cols = [col.tolist() for col in model.columns]

        rows: List[int] = []
        # relators at the base point; the conjugation differences below
        # supply their conjugates (see the docstring)
        for path in rel_paths:
            vec = x = 0
            for col in path:
                vec ^= bits[col][x]
                x = cols[col][x]
            if x != 0:
                raise AssertionError("relator does not fix the base point")
            rows.append(vec)
        # conjugation differences: for each Schreier generator s and ambient
        # generator h, the class of (h s h^-1) s^-1, by the tree recurrence
        walks = []
        for h in range(ngens):
            P, T = [cols[2 * h][0]] * n, [0] * n
            for c in order[1:]:
                a, col = parent[c], letter[c]
                T[c] = T[a] ^ bits[col][P[a]]
                P[c] = cols[col][P[a]]
            walks.append((P, T))
        for c, g in itertools.product(range(n), range(ngens)):
            s = bits[2 * g][c]
            if s:
                d = cols[2 * g][c]
                rows += [T[c] ^ bits[2 * g][P[c]] ^ T[d] ^ s for P, T in walks]
        pivots = _f2_eliminate(rows)
        # the edge bits off the tree that are not pivots
        free = [i for i in range(n * ngens)
                if bits[2 * (i % ngens)][i // ngens] and i not in pivots]
        d = len(free)
        free_pos = {c: i for i, c in enumerate(free)}
        if n << d > MAX_POINTS:
            raise Overflow(f"stage {stage_no} would need {n << d} points")
        # cocycle of a single generator move from each coset
        cocycle = np.array([[_f2_project(bits[2 * g][c], pivots, free_pos)
                             for g in range(ngens)] for c in range(n)], dtype=np.int64)
        # point (c << d) | v moves to (target of c << d) | (v ^ cocycle)
        layer = np.arange(1 << d)
        perms = [((model.columns[2 * g] << d)[:, None]
                  | (layer ^ cocycle[:, g, None])).ravel() for g in range(ngens)]
        new_model = FiniteModel(p, perms, n << d, regular=True)
        # sanity: relators act trivially (regular action: base point suffices)
        for r in p.relators:
            if new_model.apply_word(r, 0) != 0:
                raise AssertionError("relator acts nontrivially on the tower stage")
        new_model._spanning_tree()  # certifies transitivity; the next stage reads it
        stages.append(new_model)
    return stages


def tower_kernel_image(stages: Sequence[FiniteModel], n: int,
                       d: int) -> "SubgroupImage":
    """The image in tower stage d of the kernel of the quotient map onto
    stage n. Stage points are built as (previous stage point << bits) | layer,
    so the kernel is exactly the initial block of points."""
    if not 1 <= n <= d <= len(stages):
        raise ValueError(f"need 1 <= n <= d <= {len(stages)}, got n={n}, d={d}")
    big, small = stages[d - 1].npoints, stages[n - 1].npoints
    if big % small or (big // small) & (big // small - 1):
        raise ValueError("stages are not nested power-of-two extensions")
    return SubgroupImage(stages[d - 1], set(range(big // small)))


# -- subgroup images -------------------------------------------------------

class SubgroupImage:
    """The image of a normal closure in a finite model, as a set of points
    of the regular action (each point is one group element)."""

    __slots__ = ("model", "points")

    def __init__(self, model: FiniteModel, points: Set[int]):
        self.model = model
        self.points = points

    def __len__(self) -> int:
        return len(self.points)

    def contains_word(self, w: Word) -> bool:
        return self.model.apply_word(w, 0) in self.points

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupImage) and self.model is other.model
                and self.points == other.points)


def subgroup_image(model: FiniteModel, desc: SubgroupDescription) -> SubgroupImage:
    """Normal closure of the images of the description's generators: close
    the generating set under conjugation, then enumerate the subgroup."""
    if not model.regular:
        raise ValueError("subgroup images are computed in regular models")
    if tuple(desc.ambient.generators) != tuple(model.generators):
        raise ValueError("description ambient does not match the model")
    conj = [(int(inv[0]), col) for col, inv in zip(model.columns[::2],
                                                     model.columns[1::2])]

    seeds = {model.apply_word(w, 0) for w in desc.normal_generators}
    seeds.discard(0)
    # conjugation closure of the generating set under x -> g^-1 x g alone:
    # in a finite group that map is a permutation, so its orbits are cycles
    # and the closure is closed under x -> g x g^-1 as well
    closure = set(seeds)
    frontier = list(seeds)
    while frontier:
        x = frontier.pop()
        for gip, col in conj:
            y = int(col[model.point_mul(gip, x)])
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    # subgroup generated by the conjugation-closed set: the orbit of point 0
    # under right multiplication by its elements, one frontier at a time.
    # Right multiplication permutes the points, so each path's images of a
    # frontier are distinct, and marking them before the next path keeps the
    # new frontier free of repeats.
    paths = [model._path(t) for t in closure]
    seen = np.zeros(model.npoints, dtype=bool)
    seen[0] = True
    level = np.zeros(1, dtype=np.int64)
    while level.size:
        reached = [level[:0]]  # an empty closure reaches nothing
        for path in paths:
            nxt = _trace(model.columns, path, level)
            nxt = nxt[~seen[nxt]]
            seen[nxt] = True
            reached.append(nxt)
        level = np.concatenate(reached)
    return SubgroupImage(model, set(np.flatnonzero(seen).tolist()))
