"""Finite quotient machinery: coset enumeration, Reidemeister-Schreier
rewriting for finite-index subgroups, exhaustive homomorphism search into
small symmetric groups, and the mod-2 lower central tower realized as
finite 2-group models."""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .presentations import Presentation
from .words import Sym, Word, free_reduce


class Overflow(RuntimeError):
    pass


class IncompleteTable(RuntimeError):
    pass


def _word_letters(w: Word, index: Mapping[Sym, int]) -> List[Tuple[int, int]]:
    return [(index[sym], exp) for sym, exp in w.letters]


# -- Todd-Coxeter coset enumeration --------------------------------------

class CosetTable:
    """Table of cosets of a subgroup; column 2g is the action of generator
    g, column 2g+1 of its inverse. Coset 0 is the subgroup itself."""

    __slots__ = ("presentation", "subgroup", "table", "complete")

    def __init__(self, presentation: Presentation, subgroup: Sequence[Word],
                 table: List[List[Optional[int]]], complete: bool):
        self.presentation = presentation
        self.subgroup = tuple(subgroup)
        self.table = table
        self.complete = complete

    @property
    def index(self) -> int:
        return len(self.table)

    def scan_closes(self) -> bool:
        """Every relator traces back to its starting coset from every coset."""
        idx = {g: i for i, g in enumerate(self.presentation.generators)}
        for r in self.presentation.relators:
            letters = _word_letters(r, idx)
            for c in range(len(self.table)):
                cur = c
                for g, e in letters:
                    nxt = self.table[cur][2 * g if e == 1 else 2 * g + 1]
                    if nxt is None:
                        return False
                    cur = nxt
                if cur != c:
                    return False
        return True


def todd_coxeter(p: Presentation, subgroup: Sequence[Word],
                 max_cosets: int = 10000) -> CosetTable:
    """HLT-style coset enumeration with deterministic first-free numbering."""
    gens = list(p.generators)
    ngens = len(gens)
    idx = {g: i for i, g in enumerate(gens)}
    rel_letters = [_word_letters(r, idx) for r in p.relators if r.letters]
    sub_letters = [_word_letters(free_reduce(w), idx) for w in subgroup]

    table: List[List[Optional[int]]] = [[None] * (2 * ngens)]
    parent = [0]  # union-find for coincidences
    merge_queue: List[Tuple[int, int]] = []

    def rep(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c: int, col: int) -> int:
        if len(table) >= max_cosets:
            raise Overflow(f"exceeded {max_cosets} cosets")
        d = len(table)
        table.append([None] * (2 * ngens))
        parent.append(d)
        table[c][col] = d
        table[d][col ^ 1] = c
        return d

    def join(a: int, b: int) -> None:
        merge_queue.append((a, b))
        while merge_queue:
            x, y = merge_queue.pop()
            x, y = rep(x), rep(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            for col in range(2 * ngens):
                t = table[y][col]
                if t is None:
                    continue
                t = rep(t)
                u = table[x][col]
                if u is None:
                    table[x][col] = t
                    table[t][col ^ 1] = x
                else:
                    merge_queue.append((rep(u), t))

    def scan_and_fill(c: int, letters: Sequence[Tuple[int, int]],
                      fill: bool = True) -> None:
        c = rep(c)
        f, b = c, c
        i, j = 0, len(letters) - 1
        while True:
            # scan forward as far as possible
            while i <= j:
                g, e = letters[i]
                nxt = table[f][2 * g if e == 1 else 2 * g + 1]
                if nxt is None:
                    break
                f = rep(nxt)
                i += 1
            if i > j:
                if f != b:
                    join(f, b)
                return
            # scan backward as far as possible
            while j >= i:
                g, e = letters[j]
                prv = table[b][2 * g + 1 if e == 1 else 2 * g]
                if prv is None:
                    break
                b = rep(prv)
                j -= 1
            if j < i:
                if b != f:
                    join(b, f)
                return
            if j == i:
                # single gap: deduction
                g, e = letters[i]
                col = 2 * g if e == 1 else 2 * g + 1
                table[f][col] = b
                table[b][col ^ 1] = f
                return
            if not fill:
                return
            # fill the forward gap with a new coset and continue
            g, e = letters[i]
            define(f, 2 * g if e == 1 else 2 * g + 1)

    def lookahead() -> None:
        # scan-only pass: harvest deductions and coincidences without
        # defining new cosets, so collapses propagate before growth resumes
        progress = True
        while progress:
            progress = False
            before = sum(1 for c in range(len(table)) if rep(c) == c)
            for c in range(len(table)):
                if rep(c) != c:
                    continue
                for letters in rel_letters:
                    if rep(c) != c:
                        break
                    scan_and_fill(c, letters, fill=False)
            after = sum(1 for c in range(len(table)) if rep(c) == c)
            if after < before:
                progress = True

    for letters in sub_letters:
        scan_and_fill(0, letters)
    # scan every relator at every live coset, defining cosets to fill gaps;
    # columns untouched by any relator get defined in a final sweep
    lookahead_at = 1000
    stable = False
    while not stable:
        stable = True
        c = 0
        while c < len(table):
            if rep(c) != c:
                c += 1
                continue
            for letters in rel_letters:
                if rep(c) != c:
                    break
                scan_and_fill(c, letters)
            if len(table) >= lookahead_at:
                lookahead()
                lookahead_at = max(len(table) * 2, lookahead_at)
            c += 1
        c = 0
        while c < len(table):
            if rep(c) == c:
                for col in range(2 * ngens):
                    if rep(c) != c:
                        break
                    if table[c][col] is None:
                        define(c, col)
                        stable = False
            c += 1

    # compact the table over live cosets, renumbered in discovery order
    live = [c for c in range(len(table)) if rep(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    compact = [[renum[rep(table[c][col])] if table[c][col] is not None else None
                for col in range(2 * ngens)] for c in live]
    complete = all(x is not None for row in compact for x in row)
    out = CosetTable(p, subgroup, compact, complete)
    if complete and not out.scan_closes():
        raise AssertionError("coset table closed but a relator scan fails")
    return out


# -- Reidemeister-Schreier ------------------------------------------------

def _schreier_tree(columns: Sequence[np.ndarray], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """BFS spanning tree over cosets 0..n-1, where columns[j][c] is the coset
    column j leads to from c: parent coset and entering column for each
    coset. Runs one level at a time; within a level cosets are discovered in
    (coset, column) order, as a one-coset-at-a-time queue would."""
    width = len(columns)
    parent = np.full(n, -1, dtype=np.int64)
    letter = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        targets = np.empty((frontier.size, width), dtype=np.int64)
        for j, col in enumerate(columns):
            targets[:, j] = col[frontier]
        targets = targets.ravel()
        fresh = np.flatnonzero(~seen[targets])
        _, first = np.unique(targets[fresh], return_index=True)
        found = np.sort(fresh[first])
        reached = targets[found]
        parent[reached] = frontier[found // width]
        letter[reached] = found % width
        seen[reached] = True
        frontier = reached
    if not seen.all():
        raise IncompleteTable("coset graph is not connected")
    return parent, letter


def _tree_path(parent: np.ndarray, letter: np.ndarray, c: int) -> List[int]:
    """Columns along the tree path from coset 0 to coset c."""
    path = []
    while c != 0:
        path.append(int(letter[c]))
        c = int(parent[c])
    path.reverse()
    return path


class _SchreierGenerators:
    """The Schreier generators of the subgroup a complete coset table
    enumerates: one for each (coset, generator) edge off the spanning tree,
    numbered in (coset, generator) order."""

    __slots__ = ("table", "parent", "letter", "index")

    def __init__(self, table: Sequence[Sequence[int]], ngens: int,
                 tree: Tuple[np.ndarray, np.ndarray]):
        self.table = table
        self.parent, self.letter = tree
        tree_edges: Set[Tuple[int, int]] = set()
        for c in range(1, len(table)):
            col, src = int(self.letter[c]), int(self.parent[c])
            tree_edges.add((src, col // 2) if col % 2 == 0 else (table[src][col], col // 2))
        self.index: Dict[Tuple[int, int], int] = {}
        for c in range(len(table)):
            for g in range(ngens):
                if (c, g) not in tree_edges:
                    self.index[(c, g)] = len(self.index)

    def rewrite(self, letters: Sequence[Tuple[int, int]],
                start: int) -> Tuple[List[Tuple[int, int]], int]:
        """The Schreier generators, as (number, exponent), met along the
        path the letters trace from coset `start`, and the end coset."""
        out: List[Tuple[int, int]] = []
        cur = start
        for g, e in letters:
            if e == 1:
                if (cur, g) in self.index:
                    out.append((self.index[(cur, g)], 1))
                cur = self.table[cur][2 * g]
            else:
                cur = self.table[cur][2 * g + 1]
                if (cur, g) in self.index:
                    out.append((self.index[(cur, g)], -1))
        return out, cur

    def generator_letters(self, c: int, g: int) -> List[Tuple[int, int]]:
        """The generator of edge (c, g) as letters u_c . x_g . u_d^-1, with
        u the tree transversal and d the coset the edge enters."""
        d = self.table[c][2 * g]
        out = [(col // 2, 1 if col % 2 == 0 else -1)
               for col in _tree_path(self.parent, self.letter, c)]
        out.append((g, 1))
        out.extend((col // 2, -1 if col % 2 == 0 else 1)
                   for col in reversed(_tree_path(self.parent, self.letter, d)))
        return out


def reidemeister_schreier(t: CosetTable) -> Presentation:
    """Presentation of the subgroup on its Schreier generators."""
    if not t.complete:
        raise IncompleteTable("need a complete coset table")
    p = t.presentation
    tree = _schreier_tree(np.asarray(t.table).T, t.index)
    sch = _SchreierGenerators(t.table, len(p.generators), tree)
    sgen_syms = [Sym("y", key) for key in sch.index]

    idx = {g: i for i, g in enumerate(p.generators)}
    relators = []
    for r in p.relators:
        letters = _word_letters(r, idx)
        for c in range(t.index):
            met, end = sch.rewrite(letters, c)
            if end != c:
                raise ValueError("rewriting a non-closed path")
            w = free_reduce(Word([(sgen_syms[i], e) for i, e in met]))
            if not w.is_identity():
                relators.append(w)
    return Presentation(f"{p.label}_sub{t.index}", sgen_syms, relators)


def schreier_generator_words(t: CosetTable) -> List[Word]:
    """The Schreier generators of the subgroup, written as words in the
    ambient generators (transversal-in, edge, transversal-out)."""
    if not t.complete:
        raise IncompleteTable("need a complete coset table")
    p = t.presentation
    tree = _schreier_tree(np.asarray(t.table).T, t.index)
    sch = _SchreierGenerators(t.table, len(p.generators), tree)
    return [free_reduce(Word([(p.generators[h], e)
                              for h, e in sch.generator_letters(c, g)]))
            for c, g in sch.index]


def adjoin_kernel_relators(p: Presentation, t: CosetTable) -> Presentation:
    """Presentation of the quotient by squares and generator-commutators of
    the subgroup the table enumerates (its next mod-2 central layer)."""
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
    """Generator images as permutations of {0..npoints-1}."""

    __slots__ = ("label", "generators", "perms", "npoints", "regular",
                 "_inv", "_order", "_tree")

    def __init__(self, label: str, generators: Sequence[Sym],
                 perms: Mapping[Sym, Sequence[int]], npoints: int,
                 regular: bool = False):
        self.label = label
        self.generators = tuple(generators)
        self.perms = {g: np.asarray(perms[g], dtype=np.int64) for g in generators}
        self.npoints = npoints
        self.regular = regular
        self._inv: Dict[Sym, np.ndarray] = {}
        self._order = None
        self._tree = None

    def inverse_perm(self, g: Sym) -> np.ndarray:
        if g not in self._inv:
            self._inv[g] = np.argsort(self.perms[g], kind="stable")
        return self._inv[g]

    def apply_word(self, w: Word, point: int) -> int:
        cur = point
        for sym, exp in w.letters:
            arr = self.perms[sym] if exp == 1 else self.inverse_perm(sym)
            cur = int(arr[cur])
        return cur

    @property
    def order(self) -> int:
        if self._order is None:
            if self.regular:
                self._order = self.npoints
            else:
                seen = {tuple(range(self.npoints))}
                frontier = [tuple(range(self.npoints))]
                arrs = [tuple(self.perms[g].tolist()) for g in self.generators]
                while frontier:
                    cur = frontier.pop()
                    for arr in arrs:
                        nxt = tuple(arr[i] for i in cur)
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
                self._order = len(seen)
        return self._order

    def _columns(self) -> List[np.ndarray]:
        """Coset-table columns: column 2g is generator g, 2g+1 its inverse."""
        cols = []
        for g in self.generators:
            cols += [self.perms[g], self.inverse_perm(g)]
        return cols

    def _rows(self) -> List[List[int]]:
        """The model as coset-table rows, one per point."""
        cols = [col.tolist() for col in self._columns()]
        return [[col[c] for col in cols] for c in range(self.npoints)]

    def _point_tree(self) -> Tuple[np.ndarray, np.ndarray]:
        """BFS tree over points along generator/inverse moves (regular models:
        a word from the base point to every group element)."""
        if self._tree is None:
            try:
                self._tree = _schreier_tree(self._columns(), self.npoints)
            except IncompleteTable:
                raise ValueError("model is not transitive; no point tree") from None
        return self._tree

    def point_word_letters(self, point: int) -> List[int]:
        """Column codes tracing the base point to `point` (regular models)."""
        return _tree_path(*self._point_tree(), point)

    def point_mul(self, a: int, b: int) -> int:
        """Product of the group elements with base-point images a and b
        (regular models only: the point set is the group)."""
        cur = a
        inv = None
        for code in self.point_word_letters(b):
            gi, back = divmod(code, 2)
            g = self.generators[gi]
            arr = self.inverse_perm(g) if back else self.perms[g]
            cur = int(arr[cur])
        return cur

    def point_inv(self, a: int) -> int:
        cur = 0
        for code in reversed(self.point_word_letters(a)):
            gi, back = divmod(code, 2)
            g = self.generators[gi]
            arr = self.perms[g] if back else self.inverse_perm(g)
            cur = int(arr[cur])
        return cur


def coset_action(t: CosetTable, regular: bool = False) -> FiniteModel:
    """The permutation action of the group on the cosets of the table."""
    if not t.complete:
        raise IncompleteTable("need a complete coset table")
    p = t.presentation
    perms = {g: [t.table[c][2 * i] for c in range(t.index)]
             for i, g in enumerate(p.generators)}
    return FiniteModel(f"{p.label}@cosets{t.index}", p.generators, perms,
                       t.index, regular=regular)


def model_table(model: FiniteModel, p: Presentation) -> CosetTable:
    """A coset table over `p` whose cosets are the model's points (regular
    models: the table of the kernel of the presented group onto the model)."""
    if tuple(p.generators) != tuple(model.generators):
        raise ValueError("model generators do not match the presentation")
    out = CosetTable(p, (), model._rows(), True)
    if not out.scan_closes():
        raise ValueError("model does not satisfy the presentation relators")
    return out


# -- homomorphism search --------------------------------------------------

def hom_search(p: Presentation, degree: int) -> List[FiniteModel]:
    """All homomorphisms into the symmetric group on `degree` points, by
    exhaustive backtracking with partial relator pruning."""
    if degree < 1 or degree > 6:
        raise ValueError(f"degree must be 1..6, got {degree}")
    gens = list(p.generators)
    perms = sorted(itertools.permutations(range(degree)))
    idx = {g: i for i, g in enumerate(gens)}
    # relator becomes checkable once all its symbols are assigned
    checkpoint: Dict[int, List[List[Tuple[int, int]]]] = {i: [] for i in range(len(gens))}
    for r in p.relators:
        letters = _word_letters(r, idx)
        if letters:
            last = max(g for g, _ in letters)
            checkpoint[last].append(letters)

    inv_cache = {q: tuple(np.argsort(q).tolist()) for q in perms}
    found: List[FiniteModel] = []
    assignment: List[Tuple[int, ...]] = []

    def ok(letters: Sequence[Tuple[int, int]]) -> bool:
        cur = tuple(range(degree))
        for g, e in letters:
            q = assignment[g] if e == 1 else inv_cache[assignment[g]]
            cur = tuple(q[i] for i in cur)
        return cur == tuple(range(degree))

    def backtrack(i: int) -> None:
        if i == len(gens):
            found.append(FiniteModel(
                f"{p.label}@S{degree}#{len(found)}", gens,
                {g: assignment[j] for j, g in enumerate(gens)}, degree))
            return
        for q in perms:
            assignment.append(q)
            if all(ok(l) for l in checkpoint[i]):
                backtrack(i + 1)
            assignment.pop()

    backtrack(0)
    return found


# -- the mod-2 lower central tower ----------------------------------------

def _f2_eliminate(rows: List[int], width: int) -> Tuple[Dict[int, int], List[int]]:
    """Gaussian elimination over F2 on bitmask rows; returns pivot-column ->
    row map and the sorted list of free columns."""
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
    free = [c for c in range(width) if c not in pivots]
    return pivots, free


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


def two_quotient_tower(p: Presentation, depth: int,
                       max_points: int = 1 << 20) -> List[FiniteModel]:
    """Models of the quotients by the mod-2 lower central terms: stage 1 is
    trivial, stage i+1 extends stage i by the elementary abelian layer
    generated by squares and generator-commutators of the stage-i kernel."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    gens = list(p.generators)
    ngens = len(gens)
    idx = {g: i for i, g in enumerate(gens)}
    rel_letters = [_word_letters(r, idx) for r in p.relators]

    stages = [FiniteModel(f"{p.label}/stage1", gens,
                          {g: [0] for g in gens}, 1, regular=True)]
    for stage_no in range(2, depth + 1):
        model = stages[-1]
        n = model.npoints
        table = model._rows()
        sch = _SchreierGenerators(table, ngens, model._point_tree())
        width = len(sch.index)

        def rewrite_parity(letters: Sequence[Tuple[int, int]], start: int) -> Tuple[int, int]:
            """(parity bitmask over Schreier generators, end coset)."""
            met, end = sch.rewrite(letters, start)
            vec = 0
            for i, _ in met:
                vec ^= 1 << i
            return vec, end

        rows: List[int] = []
        # relator conjugates: the kernel's defining relations
        for letters in rel_letters:
            for c in range(n):
                vec, end = rewrite_parity(letters, c)
                if end != c:
                    raise AssertionError("relator does not fix a coset")
                if vec:
                    rows.append(vec)
        # conjugation differences: for each Schreier generator s and ambient
        # generator g, the class of (g s g^-1) s^-1
        for (c, g), sbit in sch.index.items():
            s_letters = sch.generator_letters(c, g)
            for h in range(ngens):
                conj = [(h, 1)] + s_letters + [(h, -1)]
                vec, end = rewrite_parity(conj, 0)
                if end != 0:
                    raise AssertionError("kernel conjugate left the kernel")
                vec ^= 1 << sbit
                if vec:
                    rows.append(vec)
        pivots, free = _f2_eliminate(rows, width)
        d = len(free)
        free_pos = {c: i for i, c in enumerate(free)}
        if n << d > max_points:
            raise Overflow(f"stage {stage_no} would need {n << d} points")
        # cocycle of a single generator move from each coset
        cocycle = [[0] * ngens for _ in range(n)]
        for c in range(n):
            for g in range(ngens):
                vec, _ = rewrite_parity([(g, 1)], c)
                cocycle[c][g] = _f2_project(vec, pivots, free_pos)
        m = n << d
        perms = {}
        for g in range(ngens):
            arr = np.empty(m, dtype=np.int64)
            for c in range(n):
                tgt = table[c][2 * g]
                for v in range(1 << d):
                    arr[(c << d) | v] = (tgt << d) | (v ^ cocycle[c][g])
            perms[gens[g]] = arr
        new_model = FiniteModel(f"{p.label}/stage{stage_no}", gens, perms, m,
                                regular=True)
        # sanity: relators act trivially (regular action: base point suffices)
        for r in p.relators:
            if new_model.apply_word(r, 0) != 0:
                raise AssertionError("relator acts nontrivially on the tower stage")
        new_model._point_tree()  # also certifies transitivity
        stages.append(new_model)
    return stages


def tower_kernel_image(stages: Sequence[FiniteModel], n: int,
                       d: Optional[int] = None) -> "SubgroupImage":
    """The image in tower stage d of the kernel of the quotient map onto
    stage n. Stage points are built as (previous stage point << bits) | layer,
    so the kernel is exactly the initial block of points."""
    if d is None:
        d = len(stages)
    if not 1 <= n <= d <= len(stages):
        raise ValueError(f"need 1 <= n <= d <= {len(stages)}, got n={n}, d={d}")
    big, small = stages[d - 1].npoints, stages[n - 1].npoints
    if big % small or (big // small) & (big // small - 1):
        raise ValueError("stages are not nested power-of-two extensions")
    return SubgroupImage(stages[d - 1], set(range(big // small)))


# -- subgroup images -------------------------------------------------------

class SubgroupDescription:
    __slots__ = ("ambient", "normal_generators", "label", "split")

    def __init__(self, ambient: Presentation, normal_generators: Sequence[Word],
                 label: str = "",
                 split: Optional[Tuple[Sequence[Word], Sequence[Word]]] = None):
        self.ambient = ambient
        self.normal_generators = tuple(normal_generators)
        self.label = label
        self.split = ((tuple(split[0]), tuple(split[1]))
                      if split is not None else None)

    def __repr__(self) -> str:
        return (f"SubgroupDescription({self.label or self.ambient.label}, "
                f"{len(self.normal_generators)} normal generators)")


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

    def contains_point(self, pt: int) -> bool:
        return pt in self.points

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
    gen_pts = []
    for g in model.generators:
        gen_pts.append(int(model.perms[g][0]))
    gen_inv_pts = [model.point_inv(pt) for pt in gen_pts]

    seeds = {model.apply_word(w, 0) for w in desc.normal_generators}
    seeds.discard(0)
    # conjugation closure of the generating set
    closure = set(seeds)
    frontier = list(seeds)
    while frontier:
        x = frontier.pop()
        for gp, gip in zip(gen_pts, gen_inv_pts):
            y = model.point_mul(model.point_mul(gip, x), gp)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
            z = model.point_mul(model.point_mul(gp, x), gip)
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    # subgroup generated by the conjugation-closed set
    elements = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for t in closure:
            y = model.point_mul(x, t)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    return SubgroupImage(model, elements)
