"""Finite quotient machinery: coset enumeration, Reidemeister-Schreier
rewriting for finite-index subgroups, exhaustive homomorphism search into
small symmetric groups, and the mod-2 lower central tower realized as
finite 2-group models."""

from __future__ import annotations

import itertools
from array import array
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from .presentations import Presentation, SubgroupDescription
from .words import Overflow, Sym, Word


def _trace(columns: Sequence[Sequence[int]], path: Sequence[int], start):
    """The point the column path leads to from `start`, which may be one
    point or, with numpy columns, an array of points."""
    for col in path:
        start = columns[col][start]
    return start


# -- Todd-Coxeter coset enumeration --------------------------------------

class CosetTable:
    """Complete table of cosets of a subgroup; columns[2g][c] is the coset
    generator g sends c to, columns[2g+1] the action of its inverse. Coset 0
    is the subgroup itself. The table also reports the work of the
    `todd_coxeter` call that returned it: `defined`, the cosets it defined,
    dead ones included (what `max_cosets` bounds), `scanned`, the relator
    letters of the cosets it scanned (what `MAX_SCAN_LETTERS` bounds), and
    `open_scans`, the relator scans that did not close on the bulk trace
    and so went to the letter-by-letter scan."""

    __slots__ = ("presentation", "columns", "index", "defined", "scanned",
                 "open_scans")

    def __init__(self, presentation: Presentation, columns: Sequence[Sequence[int]],
                 index: int, defined: int, scanned: int, open_scans: int):
        self.presentation = presentation
        self.columns = list(columns)
        self.index = index
        self.defined = defined
        self.scanned = scanned
        self.open_scans = open_scans

    def scan_closes(self) -> bool:
        """Every relator traces back to its starting coset from every coset."""
        import numpy as np
        start = np.arange(self.index)
        return all(np.array_equal(_trace(self.columns, path, start), start)
                   for path in self.presentation.paths)


# Bound on the relator letters one `todd_coxeter` call scans, counted as the
# relators' total length once per live coset scanned. The largest count the
# tests or the benchmark make is the 512-coset step of the P2K_reduced coset
# route, 383,600 letters (175 cosets of 2,192); the bound is 10.9 times that.
# The PnK 3 route's step to 32,768 cosets scans 68,896 letters per coset,
# so it ends in `Overflow` at its 61st coset, after about 0.4 s on a 2-core
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

    Before the scans at a coset c, numpy traces every relator from c at
    once, and only the relators that do not lead back to c are scanned,
    letter by letter and in their order. This keeps HLT's order exactly: a
    relator that closes at c makes a scan that changes nothing, and it
    still closes when its turn comes, because the table only gains entries
    and a coincidence maps a closed path at a live coset onto a closed
    path at its representative. `scanned` still counts every relator's
    letters at each live coset.

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
    import numpy as np
    width = 2 * len(p.generators)
    stride = width + 1
    rel_paths = [path for path in p.paths if path]
    rel_letters = sum(map(len, rel_paths))
    sub_paths = [p.codes(w) for w in subgroup]
    # steps[k] holds every relator's k-th letter, or the parent column
    steps = np.full((max(map(len, rel_paths), default=0), len(rel_paths)),
                    width, dtype=np.int64)
    for k, path in enumerate(rel_paths):
        steps[:len(path), k] = path

    # One flat table of rows of width + 1 entries, read by the scans in
    # Python and by the bulk trace through `np.frombuffer` with no copy; each
    # view lives only inside the call that reads it, since an array with an
    # exported buffer cannot grow. Row 0 is a sentinel of zeros and coset k
    # is row k + 1. An entry holds the offset of the row it leads to, so 0
    # is empty and a trace that meets a gap stays on the sentinel. The last
    # entry of a row is its union-find parent over coincidences: a live row
    # points at itself, so that entry pads the shorter relators.
    blank = array("q", bytes(8 * stride))
    table = blank * 2  # the sentinel row and coset 0, at offset stride
    table[stride + width] = stride
    limit = (max_cosets + 1) * stride
    # empty entries of live rows, and whether the complete table has failed
    # the closing check with no coincidence since
    empty = width
    failed = False
    scanned = open_scans = 0

    def rep(c: int) -> int:
        root = c
        while table[root + width] != root:
            root = table[root + width]
        while table[c + width] != root:
            table[c + width], c = root, table[c + width]
        return root

    def define(c: int, col: int) -> None:
        nonlocal empty
        if len(table) >= limit:
            raise Overflow(f"exceeded {max_cosets} cosets")
        d = len(table)
        table.extend(blank)
        table[d + width] = d
        table[c + col] = d
        table[d + (col ^ 1)] = c
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
                table[y + width] = x
                dead.append(y)
                empty -= table[y:y + width].count(0)

        merge(a, b)
        for e in dead:  # grows as merges kill more cosets
            for col in range(width):
                f = table[e + col]
                if not f:
                    continue
                table[f + (col ^ 1)] = 0
                if table[f + width] == f:
                    empty += 1
                x, y = rep(e), rep(f)
                if table[x + col]:
                    merge(y, table[x + col])
                elif table[y + (col ^ 1)]:
                    merge(x, table[y + (col ^ 1)])
                else:
                    table[x + col] = y
                    table[y + (col ^ 1)] = x
                    empty -= 2

    def scan_and_fill(c: int, path: Sequence[int]) -> None:
        nonlocal empty
        f, b = c, c
        i, j = 0, len(path) - 1
        while True:
            # scan forward as far as possible
            while i <= j:
                nxt = table[f + path[i]]
                if not nxt:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            # scan backward as far as possible
            while j >= i:
                prv = table[b + (path[j] ^ 1)]
                if not prv:
                    break
                b = prv
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                # single gap: deduction
                table[f + path[i]] = b
                table[b + (path[i] ^ 1)] = f
                empty -= 2
                return
            # fill the forward gap with a new coset and continue
            define(f, path[i])

    def open_relators(c: int) -> List[int]:
        """The relators that do not trace back to the live row c."""
        flat = np.frombuffer(table, dtype=np.int64)
        at = c
        for step in steps:
            at = flat[at + step]
        return np.flatnonzero(at != c).tolist()

    def closed_table() -> Optional[CosetTable]:
        """The complete table compacted over live cosets and renumbered in
        breadth-first order, if it closes; None if it does not."""
        rows = np.frombuffer(table, dtype=np.int64).reshape(-1, stride)
        live = np.flatnonzero(rows[:, width] == np.arange(0, len(table), stride))
        live = live[1:]  # the sentinel row
        renum = np.zeros(len(rows), dtype=np.int64)
        renum[live] = np.arange(len(live))
        compact = renum[rows[live, :width] // stride]
        order = _schreier_tree(compact.T.tolist(), len(live))[2]
        standard = np.argsort(order)  # the inverse permutation
        columns = [standard[col[order]] for col in compact.T]
        out = CosetTable(p, columns, len(live), len(rows) - 1, scanned,
                         open_scans)
        if out.scan_closes() and all(_trace(columns, path, 0) == 0
                                     for path in sub_paths):
            return out
        return None

    c = stride
    for path in sub_paths:
        scan_and_fill(c, path)
    while True:
        if empty == 0 and not failed:
            out = closed_table()
            if out is not None:
                return out
            failed = True
        if c == len(table):
            raise AssertionError("coset table closed but a relator scan fails")
        if table[c + width] == c:
            scanned += rel_letters
            if scanned > MAX_SCAN_LETTERS:
                raise Overflow(f"exceeded {MAX_SCAN_LETTERS} relator letters "
                               "scanned")
            for k in open_relators(c):
                open_scans += 1
                scan_and_fill(c, rel_paths[k])
                if table[c + width] != c:
                    break
            else:  # c is still live: define its columns still empty
                for col in range(width):
                    if not table[c + col]:
                        define(c, col)
        c += stride


# -- Reidemeister-Schreier ------------------------------------------------

def _schreier_tree(cols: Sequence[List[int]], n: int
                   ) -> Tuple[List[int], List[int], List[int]]:
    """BFS spanning tree over cosets 0..n-1, where cols[j][c] is the coset
    column j leads to from c, the columns given as lists: parent coset and
    entering column for each coset, and the cosets in the order a queue
    meets them, in (coset, column) order."""
    parent, letter = [-1] * n, [-1] * n
    seen = [False] * n
    seen[0] = True
    order = [0]
    for c in order:  # grows as cosets are met
        for j, col in enumerate(cols):
            d = col[c]
            if not seen[d]:
                seen[d] = True
                parent[d], letter[d] = c, j
                order.append(d)
    if len(order) != n:
        raise ValueError("the action is not transitive")
    return parent, letter, order


def _tree_path(parent: Sequence[int], letter: Sequence[int], c: int
               ) -> List[int]:
    """Columns along the tree path from coset 0 to coset c."""
    path = []
    while c != 0:
        path.append(letter[c])
        c = parent[c]
    path.reverse()
    return path


def _generator_path(columns: Sequence[Sequence[int]], parent: Sequence[int],
                    letter: Sequence[int], c: int, g: int) -> List[int]:
    """Columns of the Schreier generator u_c . x_g . u_d^-1 of the edge
    (c, g) off the tree, where u_c is the tree path to c and d is the coset
    the edge enters."""
    d = int(columns[2 * g][c])
    return (_tree_path(parent, letter, c) + [2 * g]
            + [x ^ 1 for x in reversed(_tree_path(parent, letter, d))])


def _edge_bits(columns: Sequence[List[int]],
               tree: Tuple[List[int], List[int], List[int]]
               ) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """The Schreier generators as edge bits over the BFS tree of the
    action: the k-th edge (c, g) off the tree in (coset, generator) order
    has the bit 1 << k, and a tree edge has 0. Returns the bit each column
    move crosses, and the edges off the tree in bit order: bits[2g][c] is
    the bit of (c, g), and bits[2g+1][c] that of (d, g), which the inverse
    move from c to d walks backwards."""
    parent, letter, _ = tree
    ngens = len(columns) // 2
    off = [True] * (len(parent) * ngens)
    for c, a, col in zip(range(1, len(parent)), parent[1:], letter[1:]):
        # an inverse column enters c along the edge (c, g) backwards
        off[(c if col & 1 else a) * ngens + (col >> 1)] = False
    # the running count of edges off the tree numbers them from 1
    edge = [1 << (k - 1) if o else 0
            for o, k in zip(off, itertools.accumulate(off))]
    bits: List[List[int]] = []
    for g in range(ngens):
        bits.append(edge[g::ngens])
        bits.append([edge[d * ngens + g] for d in columns[2 * g + 1]])
    return bits, [divmod(i, ngens) for i, o in enumerate(off) if o]


def reidemeister_schreier(t: CosetTable) -> Presentation:
    """Presentation of the subgroup on its Schreier generators. Only the
    tests call it: its presentations are how they check a coset table
    independently, by known subgroup abelianizations (A3 in S3)."""
    p = t.presentation
    cols = [col.tolist() for col in t.columns]
    bits, edges = _edge_bits(cols, _schreier_tree(cols, t.index))
    # the Schreier generators' symbols by edge bit, in bit order
    ys = {bits[2 * g][c]: Sym("y", (c, g)) for c, g in edges}

    relators = []
    for path in p.paths:
        for c in range(t.index):
            met, cur = [], c
            for col in path:
                if bits[col][cur]:
                    met.append((ys[bits[col][cur]], -1 if col & 1 else 1))
                cur = cols[col][cur]
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
    cols = [col.tolist() for col in t.columns]
    parent, letter, _ = tree = _schreier_tree(cols, t.index)
    words = []
    for c, g in _edge_bits(cols, tree)[1]:
        path = _generator_path(cols, parent, letter, c, g)
        words.append(Word([(gens[x >> 1], -1 if x & 1 else 1) for x in path]))
    return words


def adjoin_kernel_relators(p: Presentation, t: CosetTable) -> Presentation:
    """Presentation of the quotient by squares and generator-commutators of
    the subgroup the table enumerates (its next mod-2 central layer). Only
    the tests and the benchmark call it: it is a step of the independent
    coset route to the mod-2 tower, which the tests check
    `two_quotient_tower` against.

    Identity words are dropped, and of the relators with one cyclic
    reduction only the first is kept: a cyclic conjugate of a relator is in
    its normal closure, so the quotient, and the standard table of any
    enumeration over it, stay the same. Each kept word is the one built, not
    its cyclic reduction: on the 512-coset step of the P2K_reduced route the
    reduced words lead HLT to scan 405,790 letters, the built ones 383,600."""
    relators: List[Word] = []
    seen: Set[Tuple[int, ...]] = set()

    def adjoin(w: Word) -> None:
        codes = w.codes
        i, j = 0, len(codes)
        while j - i > 1 and codes[i] ^ codes[j - 1] == 1:
            i, j = i + 1, j - 1
        key = codes[i:j]
        if key and key not in seen:
            seen.add(key)
            relators.append(w)

    for r in p.relators:
        adjoin(r)
    for s in schreier_generator_words(t):
        adjoin(s * s)
        for g in p.generators:
            gw = Word(((g, 1),))
            adjoin(s * gw * ~s * ~gw)
    return Presentation(f"{p.label}+kernel2", p.generators, relators)


# -- finite permutation models --------------------------------------------

class FiniteModel:
    """Images of the presentation's generators as permutations of
    {0..npoints-1}, given as coset-table columns, lists or numpy arrays
    that other models may share: columns[2g] is generator g, columns[2g+1]
    its inverse, so a letter code is a column.

    A tower stage above the first is held through the stage below it
    (`two_quotient_tower`): it links that stage, its layer width d and one
    flip list per column over the stage below's points, and its point
    x = (c << d) | v moves by column col to
    (below.columns[col][c] << d) | (v ^ flips[col][c]). Its own columns
    are None until the tower extends the stage and writes them out as
    lists (`_write_columns`). It multiplies through the stage below."""

    __slots__ = ("presentation", "columns", "npoints", "_tree", "_below",
                 "_layer_bits", "_flips")

    def __init__(self, p: Presentation,
                 columns: Optional[Sequence[Sequence[int]]], npoints: int):
        self.presentation = p
        self.columns = None if columns is None else list(columns)
        self.npoints = npoints
        self._tree = None
        self._below: Optional[FiniteModel] = None
        self._layer_bits = 0
        self._flips: List[List[int]] = []

    @property
    def generators(self) -> Tuple[Sym, ...]:
        return self.presentation.generators

    def apply_word(self, w: Word, point: int) -> int:
        return self._walk(self.presentation.codes(w), point)

    def _walk(self, path: Sequence[int], point: int) -> int:
        """The point the column path leads to from `point`: through the
        columns, or for a tower stage not written out, as a block of the
        stage below and its layer bits."""
        if self.columns is not None:
            return int(_trace(self.columns, path, point))
        d = self._layer_bits
        cols, flips = self._below.columns, self._flips
        c, v = point >> d, point & ((1 << d) - 1)
        for col in path:
            v ^= flips[col][c]
            c = cols[col][c]
        return (c << d) | v

    def _write_columns(self) -> List[List[int]]:
        """The columns, for a tower stage written out as lists from the
        stage below on first use; the tower asks for them only when it
        extends the stage."""
        if self.columns is None:
            d = self._layer_bits
            span = range(1 << d)
            self.columns = [[(c << d) | (v ^ f) for c, f in zip(col, flip)
                             for v in span]
                            for col, flip in zip(self._below.columns,
                                                 self._flips)]
        return self.columns

    def _spanning_tree(self) -> Tuple[List[int], List[int], List[int]]:
        """The `_schreier_tree` of the points, built once from the list
        columns of a stage the tower has extended; building it certifies
        that the action is transitive."""
        if self._tree is None:
            self._tree = _schreier_tree(self.columns, self.npoints)
        return self._tree

    def _check_stage(self) -> None:
        """Products need a tower stage above the first, which links the
        stage below it, or a one-point model, whose point is the identity."""
        if self._below is None and self.npoints > 1:
            raise ValueError("products are taken only in the stages of a "
                             "two-quotient tower")

    def _mul_route(self, b: int) -> Tuple[List[int], int]:
        """Right multiplication by the group element with base-point image b,
        as a pair (path, bits): a point x times b is x ^ bits walked along
        the column path. A tower stage above the first takes the tree path
        of the stage below to b's block b >> d and b's layer bits
        (`two_quotient_tower` proves it); in a one-point model the route is
        empty."""
        self._check_stage()
        if self._below is None:
            return [], 0
        d = self._layer_bits
        parent, letter, _ = self._below._spanning_tree()
        return _tree_path(parent, letter, b >> d), b & ((1 << d) - 1)


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
    import numpy as np
    if degree < 1 or degree > 6:
        raise ValueError(f"degree must be 1..6, got {degree}")
    ngens = len(p.generators)
    # a relator is traced once all its generators are assigned
    checks: List[List[Sequence[int]]] = [[] for _ in range(ngens)]
    for path in p.paths:
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
    return [FiniteModel(p, [col for c in row for col in pairs[c]], degree)
            for row in rows.tolist()]


# -- the mod-2 lower central tower ----------------------------------------

# Bound on one layer's F2 rows, counted in bits before elimination: about
# 512 MB of dense rows. Stage 4 of the P2K_reduced tower needs 9.5e6 bits,
# stage 5 1.5e11.
MAX_LAYER_BITS = 1 << 32
# Bound on the points of one tower stage.
MAX_POINTS = 1 << 20


class _F2Layer(NamedTuple):
    """What `_f2_layer` returns: the free columns in increasing order, the
    projection of every column (bit i stands for free[i]), and the work:
    the rows reduced in full, the rows certified zero by their projection,
    and the XORs of a row with a pivot."""
    free: List[int]
    projection: List[int]
    reduced: int
    certified: int
    xors: int


def _f2_insert(row: int, pivots: Dict[int, int]) -> int:
    """Reduce a bitmask row over F2 by the pivots of its leading bits and
    keep what is left, if anything, as the pivot of its leading bit;
    returns the XORs made."""
    xors = 0
    while row:
        lead = row.bit_length() - 1
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            break
        row ^= pivot
        xors += 1
    return xors


def _f2_image(vec: int, images: Sequence[int]) -> int:
    """The sum over F2 of images[i] over the bits i of vec."""
    out = 0
    while vec:
        low = vec & -vec
        out ^= images[low.bit_length() - 1]
        vec ^= low
    return out


def _f2_coordinates(pivots: Dict[int, int], ncols: int
                    ) -> Tuple[List[int], List[int]]:
    """The columns below `ncols` that lead no pivot, in increasing order,
    and the coordinate of every column over them: the unique vector
    supported on those columns that differs from the unit column by an
    element of the pivots' span, bit i standing for the i-th open column.
    Columns are taken from low to high: an open column is its own
    coordinate, and a pivot's column is the sum of the coordinates of the
    pivot's other bits, which all lie below it."""
    open_cols: List[int] = []
    coords: List[int] = []
    for j in range(ncols):
        pivot = pivots.get(j)
        if pivot is None:
            coords.append(1 << len(open_cols))
            open_cols.append(j)
        else:
            coords.append(_f2_image(pivot ^ (1 << j), coords))
    return open_cols, coords


def _f2_layer(rows: List[int], ncols: int,
              project: Callable[[List[int]], List[int]]) -> _F2Layer:
    """The free columns of the row space R of `rows` over F2 (bitmasks of
    `ncols` columns), those that lead no vector of R, and the projection
    of every column: the unique vector supported on the free columns that
    differs from the unit column by a vector of R.

    `project(coords)` returns the image of every row under the linear map
    that sends column j to coords[j]. A caller that builds its rows by a
    linear recurrence gets those images from the same recurrence, and no
    row's bits are walked.

    - Sparse prefix. The rows are reduced in full one popcount class at a
      time, sparsest first, up to and including the first class of
      popcount >= 1 in which at least half the rows reduce to zero. Let S
      be the span of the prefix's pivots.
    - Reduced coordinates. `_f2_coordinates` gives every column a
      coordinate over the m columns the prefix leaves open.
    - The rest in the small space. Every row is projected to its
      coordinate. A row that projects to zero lies in S and is never
      reduced. The nonzero projections are reduced in F2^m, where bit i is
      the i-th open column, so leading bits keep the column order.

    Both answers depend only on R. Taking coordinates is a linear map onto
    the vectors supported on the open columns, with kernel S, and it maps R
    onto the span R' of the projections. A vector of R whose leading
    column leads no pivot of S keeps that lead when it is reduced by S,
    which only clears lower bits; the reduced vector is its coordinate,
    which lies in R'. So the leads of R are those of S together with those
    of R', and the free columns are the open columns that lead nothing in
    R'. A column's projection is the projection of its coordinate modulo
    R', which `_f2_coordinates` gives again in the small space."""
    pivots: Dict[int, int] = {}
    reduced = xors = 0
    for weight, group in itertools.groupby(sorted(rows, key=int.bit_count),
                                           key=int.bit_count):
        group = list(group)
        reduced += len(group)
        if not weight:
            continue
        rank = len(pivots)
        for row in group:
            xors += _f2_insert(row, pivots)
        if 2 * (len(group) - (len(pivots) - rank)) >= len(group):
            break
    open_cols, coords = _f2_coordinates(pivots, ncols)
    small: Dict[int, int] = {}
    zeros = 0
    for v in project(coords):
        if v:
            xors += _f2_insert(v, small)
        else:
            zeros += 1
    kept, free_coords = _f2_coordinates(small, len(open_cols))
    # every row of the prefix projects to zero
    return _F2Layer([open_cols[i] for i in kept],
                    [_f2_image(v, free_coords) for v in coords],
                    reduced, zeros - reduced, xors)


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
    same; the free columns, and the projection of each column onto them,
    depend only on the row space (`_f2_layer`). Every stage permutation is
    the one the per-coset rows give.

    Each Schreier generator is its edge bit (`_edge_bits`). The bits keep
    the (coset, generator) order, and tree edges have none, so the free
    columns and every projection are those of the generators numbered 0,
    1, ... in that order. The row of s = u_c x_g u_d^-1 and h is the parity
    of h s h^-1 plus s. Walked from the base point, the letters h and h^-1
    cross the same edge and cancel. In between, u_c walked from P[0] = h.0
    ends at P[c] with parity T[c]; for the tree parent a of c, both follow
    from P[a] and T[a] by the tree letter into c. The stage acts regularly,
    so u_c x_g and u_d walked from P[0] both end at P[d], and the row is
    T[c] + (the bit of (P[c], g)) + T[d] + s.

    Projection by the recurrence. `_f2_layer` asks for the image of every
    row under the linear map that sends each column to a coordinate. The
    recurrence and the relator walks only add edge bits, so run with each
    bit's coordinate in place of the bit (tau in place of T) they give
    exactly those images, and no row's bits are walked.

    Transitivity. Stage i is transitive: its BFS tree, which numbers the
    edge bits, exists. With d free columns, generator g sends the point
    (c << d) | v to (c' << d) | (v ^ cocycle[c, g]), where c' is the image
    of c in stage i. So a word that leads c to c' in stage i sends (c, v)
    to (c', v ^ a), with a the sum of the cocycle along its path from c,
    the same for every v. The Schreier generator of the k-th free column
    leads coset 0 back to 0 and crosses no edge off the tree but its own,
    so its sum is the projection of that column, 1 << k, and it translates
    block 0 by 1 << k. The stage checks that this word, walked from point
    0, ends at point 1 << k. These translations reach all of block 0 from
    point 0, and the tree path u_c of stage i sends block 0 onto block c,
    so every point is reached. The new stage needs no BFS tree of its own,
    nor columns: it walks (block, layer bits) through stage i by its flip
    lists (`FiniteModel`), and builds its tree and writes its columns out
    only when the next stage extends it.

    Products through the stage below. Each new stage links stage i and its
    layer width d.
    The tree edges of stage i carry cocycle 0, so its tree path u_c, walked
    in stage i+1, takes (0, w) to (c, w): the point (c << d) | v is the
    element z_v u_c, where z_v, the element of point v in block 0, is
    central (the layer is central). For any point x = (c_x << d) | v_x,
    x z_v = z_v x is the point v walked along a word of x. By the above,
    that word sends (0, w) to (c_x, w ^ a) with one a for every w, and
    a = v_x because it sends 0 to x; so it ends at x ^ v.
    Right multiplication by (c << d) | v therefore walks u_c from x ^ v,
    and `FiniteModel._mul_route` reads u_c off the tree of stage i, which
    the tower builds anyway, never a tree of stage i+1."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    ngens = len(p.generators)

    stages = [FiniteModel(p, [[0]] * (2 * ngens), 1)]
    for stage_no in range(2, depth + 1):
        model = stages[-1]
        n = model.npoints
        # one Schreier generator per edge off the tree's n - 1 edges
        width = n * (ngens - 1) + 1
        nrows = len(p.paths) + width * ngens
        if width * nrows > MAX_LAYER_BITS:
            raise Overflow(f"stage {stage_no} would need {nrows} F2 rows "
                           f"of {width} bits")
        cols = model._write_columns()
        parent, letter, order = tree = model._spanning_tree()
        bits, edges = _edge_bits(cols, tree)
        # for each generator h, the point P[c] that u_c leads to from h.0
        starts = []
        for h in range(ngens):
            P = [cols[2 * h][0]] * n
            for c in order[1:]:
                P[c] = cols[letter[c]][P[parent[c]]]
            starts.append(P)

        def layer_rows(edge: List[List[int]]) -> List[int]:
            """The layer's rows with edge[col][x] in place of the edge bit
            the move by column col from x crosses."""
            rows: List[int] = []
            # relators at the base point; the conjugation differences below
            # supply their conjugates (see the docstring)
            for path in p.paths:
                vec = x = 0
                for col in path:
                    vec ^= edge[col][x]
                    x = cols[col][x]
                if x != 0:
                    raise AssertionError("relator does not fix the base point")
                rows.append(vec)
            # conjugation differences: for each Schreier generator s and
            # ambient generator h, the class of (h s h^-1) s^-1, by the tree
            # recurrence
            walks = []
            for P in starts:
                T = [0] * n
                for c in order[1:]:
                    a = parent[c]
                    T[c] = T[a] ^ edge[letter[c]][P[a]]
                walks.append((P, T))
            for c, g in edges:
                d = cols[2 * g][c]
                s = edge[2 * g][c]
                rows += [T[c] ^ edge[2 * g][P[c]] ^ T[d] ^ s for P, T in walks]
            return rows

        layer = _f2_layer(layer_rows(bits), width, lambda coords: layer_rows(
            [[coords[b.bit_length() - 1] if b else 0 for b in row] for row in bits]))
        d = len(layer.free)
        if n << d > MAX_POINTS:
            raise Overflow(f"stage {stage_no} would need {n << d} points")
        # cocycle of a single generator move from each coset
        cocycle = [0] * (n * ngens)
        for (c, g), v in zip(edges, layer.projection):
            cocycle[c * ngens + g] = v
        # generator g moves the point (c << d) | v to (c' << d) | (v ^
        # cocycle[c, g]), c' its target in the stage below; its inverse moves
        # (c' << d) | w to (c << d) | (w ^ cocycle[c, g]), c = back[c']
        flips = []
        for g in range(ngens):
            flip = cocycle[g::ngens]
            flips += [flip, [flip[c] for c in cols[2 * g + 1]]]
        new_model = FiniteModel(p, None, n << d)
        new_model._below, new_model._layer_bits = model, d
        new_model._flips = flips
        # sanity: relators act trivially (regular action: base point suffices)
        for path in p.paths:
            if new_model._walk(path, 0) != 0:
                raise AssertionError("relator acts nontrivially on the tower stage")
        # certifies transitivity (see the docstring)
        for k, i in enumerate(layer.free):
            path = _generator_path(cols, parent, letter, *edges[i])
            if new_model._walk(path, 0) != 1 << k:
                raise AssertionError("the tower stage is not transitive")
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
    of the regular action (each point is one group element), with the work
    of the `subgroup_image` call that built it: `kept`, the generators that
    grew the subgroup, and `walks`, the route walks it made."""

    __slots__ = ("model", "points", "kept", "walks")

    def __init__(self, model: FiniteModel, points: Set[int], kept: int = 0,
                 walks: int = 0):
        self.model = model
        self.points = points
        self.kept = kept
        self.walks = walks

    def __len__(self) -> int:
        return len(self.points)

    def contains_word(self, w: Word) -> bool:
        return self.model.apply_word(w, 0) in self.points

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupImage) and self.model is other.model
                and self.points == other.points)


def subgroup_image(model: FiniteModel, desc: SubgroupDescription) -> SubgroupImage:
    """Normal closure of the images of the description's generators, built
    by membership over the blocks of the stage below. The model must be a
    stage of `two_quotient_tower` (`FiniteModel._check_stage`).

    With layer width d, H is held as `reps`, the layer bits of one lift of
    each block (point of the stage below) that H meets, and the F2 span N
    of the layer bits w of H's elements z_w in block 0, H's intersection
    with the layer. The layer is central and x z_w = x ^ w, so H is the
    points (c << d) | (r ^ w) for (c, r) in reps and w in N.

    H is generated from the kept generators by a breadth-first search over
    blocks: each block reached gets its first lift as its transversal
    element t_c, and a product t_c y that lands in a block reached already,
    at the point t_c' ^ w, adds w to N. Those w are the Schreier generators
    t_c y t_c'^-1 = z_w of H's intersection with the layer, which generate
    it (Schreier's lemma; Holt-Eick-O'Brien, Handbook of Computational
    Group Theory, 2005).

    Each seed, and each conjugate g^-1 y g of a kept generator y by an
    ambient generator g, is popped in turn, and kept, with H generated
    again, only if it is not yet in H. At the end H holds the seeds and is
    mapped into itself by conjugation by every g, so in a finite group onto
    itself: it is the normal closure. A kept generator lies outside the
    subgroup before it, so each at least doubles |H|, and at most
    log2(npoints) are kept."""
    model._check_stage()
    if tuple(desc.ambient.generators) != tuple(model.generators):
        raise ValueError("description ambient does not match the model")
    pending = [model.apply_word(w, 0) for w in desc.normal_generators]
    if model._below is None:  # a one-point model
        return SubgroupImage(model, {0})
    d = model._layer_bits
    mask = (1 << d) - 1
    # each ambient generator g as the point of g^-1, with its column
    conj = [(model._walk([2 * g + 1], 0), 2 * g)
            for g in range(len(model.generators))]
    reps: Dict[int, int] = {0: 0}
    span: Dict[int, int] = {}
    routes: List[Tuple[List[int], int]] = []
    walks = 0

    def member(x: int) -> bool:
        r = reps.get(x >> d)
        if r is None:
            return False
        v = (x & mask) ^ r
        while v:
            pivot = span.get(v.bit_length() - 1)
            if pivot is None:
                return False
            v ^= pivot
        return True

    while pending:
        y = pending.pop()
        if member(y):
            continue
        routes.append(model._mul_route(y))
        if 1 << len(routes) > model.npoints:
            raise AssertionError("a kept generator did not grow the subgroup")
        reps, span = {0: 0}, {}
        level = [0]
        for x in level:  # grows as blocks are reached
            for path, bits in routes:
                z = model._walk(path, x ^ bits)
                r = reps.get(z >> d)
                if r is None:
                    reps[z >> d] = z & mask
                    level.append(z)
                else:
                    _f2_insert(r ^ (z & mask), span)
        walks += len(level) * len(routes)
        path, bits = routes[-1]
        pending += [model._walk(path + [col], gip ^ bits) for gip, col in conj]
        walks += len(conj)
    layer = [0]
    for pivot in span.values():
        layer += [w ^ pivot for w in layer]
    points = {(c << d) | (r ^ w) for c, r in reps.items() for w in layer}
    return SubgroupImage(model, points, len(routes), walks)
