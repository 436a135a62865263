"""Finite generalized and idealized Boolean algebras and their equivalences.

A generalized Boolean algebra (gBa) is a distributive lattice with bottom in
which every pair a, b has a unique relative complement c = a \\ b satisfying
c v b = a v b and c ^ b = bottom.  An idealized Boolean algebra (iBa) is a
Boolean algebra with a designated maximal ideal.  The functors implemented
here (idealize, forget, stone, clopen) realize the equivalences between
finite gBas, iBas and pointed Boolean spaces.

Every algebra here, like every FiniteFrame, is a Lattice: a label tuple with
integer join and meet tables, whose top is the join of every element.  A
finite gBa is a Boolean algebra, so a BooleanAlgebra is a gBa with its
complements read off the diff table as top \\ x.  Labels appear only at
the boundary: the label-table constructor from_tables, the label accessors,
and the witnesses of reports.  In a table, None marks a missing entry and
-1 a value outside the carrier; only from_tables and an unclosed from_sets
family leave them.
"""

import itertools
from functools import cached_property

from .errors import StructureError
from .rat import label_repr, sort_key, sorted_labels
from .records import field, record
from .spaces import PointedBooleanSpace


@record(frozen=True)
class Primed:
    """Tag wrapper for the formal complements adjoined by idealize()."""

    base: object

    def __repr__(self):
        return label_repr(self.base) + "'"


@record
class Violation:
    law: str
    witness: tuple

    def __repr__(self):
        return f"{self.law} at {label_repr(self.witness)}"


@record
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, law, *witness):
        self.violations.append(Violation(law, witness))

    def __repr__(self):
        return "valid" if self.ok else f"invalid: {self.violations}"


def transitive_closure(pairs):
    """The least transitive relation containing a set of (x, y) pairs."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
        succ.setdefault(b, set())
    for k in succ:  # Warshall: admit k as an intermediate step
        for after in succ.values():
            if k in after:
                after |= succ[k]
    return {(a, b) for a, after in succ.items() for b in after}


def order_lattice(labels, leq_pairs):
    """(violations in label order, (labels, up-sets, join, meet) or None).

    Labels are numbered in sorted_labels order, with up- and down-sets as
    bitmasks; a and b have a join iff some u has up[u] == up[a] & up[b], and
    a meet likewise on down-sets.  The order laws come first, then every
    pair without a unique join or meet.  An empty order has no least
    element; a nonempty finite lattice has one.  Pairs naming other labels
    are ignored.
    """
    labels = sorted_labels(dict.fromkeys(labels))
    if not labels:
        return [Violation("no least element", ())], None
    index = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    up, down = [0] * n, [0] * n
    for x, y in leq_pairs:
        if x in index and y in index:
            up[index[x]] |= 1 << index[y]
            down[index[y]] |= 1 << index[x]
    out = [Violation("order not reflexive", (x,))
           for i, x in enumerate(labels) if not up[i] >> i & 1]
    out += [Violation("order not antisymmetric", (labels[i], labels[j]))
            for i in range(n) if up[i] & down[i] != 1 << i
            for j in range(n) if i != j and (up[i] & down[i]) >> j & 1]
    out += [Violation("order not transitive", (labels[i], labels[j], labels[k]))
            for i in range(n) for j in range(n) if up[i] >> j & 1 and up[j] & ~up[i]
            for k in range(n) if (up[j] & ~up[i]) >> k & 1]
    if out:
        return out, None
    by_up = {m: i for i, m in enumerate(up)}
    by_down = {m: i for i, m in enumerate(down)}
    join = [[by_up.get(ua & ub) for ub in up] for ua in up]
    meet = [[by_down.get(da & db) for db in down] for da in down]
    out = [Violation(f"no unique {law}", (labels[a], labels[b]))
           for a in range(n) for b in range(n)
           for law, table in (("join", join), ("meet", meet)) if table[a][b] is None]
    return out, None if out else (labels, up, join, meet)


def _up_sets(join):
    """Bit b of up[a] is set iff a <= b, that is iff a v b = b."""
    return [sum(1 << b for b, x in enumerate(row) if x == b) for row in join]


def _down_sets(join):
    """Bit a of down[b] is set iff a <= b."""
    return [sum(1 << a for a, x in enumerate(col) if x == b) for b, col in enumerate(zip(*join))]


def _join_irreducibles(down):
    """Bitmask of the join-irreducibles, given each element's down-set: j is
    one iff the elements strictly below j are the down-set of one element."""
    downs = set(down)
    return sum(1 << j for j, d in enumerate(down) if d ^ 1 << j in downs)


def _set_tables(family):
    """(labels, masks, join, meet) of a set family under union and intersection.
    Each point is keyed once (rat.sort_key) and given one bit, and a set's key
    ("frozenset", its points' keys sorted) is its sort_key; unions and
    intersections are looked up by mask, -1 where one lies outside the family."""
    family = {frozenset(s) for s in family}
    keys = {p: sort_key(p) for p in frozenset().union(*family)}
    bits = {p: 1 << i for i, p in enumerate(keys)}
    labels = sorted(family, key=lambda s: ("frozenset", tuple(sorted(map(keys.get, s)))))
    masks = [sum(map(bits.get, s)) for s in labels]
    at = {m: i for i, m in enumerate(masks)}
    return (labels, masks, [[at.get(a | b, -1) for b in masks] for a in masks],
            [[at.get(a & b, -1) for b in masks] for a in masks])


def _restricted(keep, *tables):
    """Each table's rows and columns at the ascending indices keep, renumbered
    in that order; KeyError when an entry lies outside keep."""
    at = {k: i for i, k in enumerate(keep)}
    return [[[at[t[i][j]] for j in keep] for i in keep] for t in tables]


def _distributive_lattice(J, M, bot):
    """Whether total integer tables J, M pass every law of _law_sweep, in
    O(n^2) bitmask work.  Let a <= b iff J[a][b] == b, keep up- and down-sets
    as bitmasks, and let D(x) be the join-irreducibles below x and E(x) the
    other irreducibles (_join_irreducibles).  It requires
    (1) up[a] & down[a] == {a}: <= is reflexive and antisymmetric;
    (2) up[bot] holds every element; (3) up[J[a][b]] == up[a] & up[b]: J is
    the least upper bound and, where J[a][b] == b, <= is transitive;
    (4) down[M[a][b]] == down[a] & down[b]; (5) E(J[a][b]) == E(a) & E(b).
    Passing gives the laws: by (1)-(4) J, M are the join and meet of a lattice
    with least element bot where up-sets tell elements apart, so every law
    but distributivity holds; D preserves meets, joins by (5), and x is the
    join of D(x), so D embeds the lattice in a powerset.  The laws give
    passing: they make a distributive lattice ordered by a v b = b with bot
    least, so (1)-(4) hold, and an irreducible j <= a v b is
    j = (j ^ a) v (j ^ b), so j <= a or j <= b: (5).
    """
    up, down = _up_sets(J), _down_sets(J)
    if up[bot] != (1 << len(J)) - 1 or any(u & d != 1 << a for a, (u, d) in
                                           enumerate(zip(up, down))):
        return False
    irreducible = _join_irreducibles(down)
    return all(masks[t] == ma & mb for table, masks in
               ((J, up), (M, down), (J, [irreducible & ~d for d in down]))
               for ma, row in zip(masks, table) for t, mb in zip(row, masks))


def _law_sweep(report, elems, J, M, bot):
    """Add each lattice-law violation of J, M to report, witnesses as labels."""
    n = len(elems)
    for a in range(n):
        Ja, Ma = J[a], M[a]
        if Ja[a] != a:
            report.add("join idempotence", elems[a])
        if Ma[a] != a:
            report.add("meet idempotence", elems[a])
        if Ja[bot] != a:
            report.add("bottom not least", elems[a])
        if Ma[bot] != bot:
            report.add("bottom meet law", elems[a])
        for b in range(n):
            Jb, Mb = J[b], M[b]
            jab, mab = Ja[b], Ma[b]
            if jab != Jb[a]:
                report.add("join commutativity", elems[a], elems[b])
            if mab != Mb[a]:
                report.add("meet commutativity", elems[a], elems[b])
            if Ja[mab] != a:
                report.add("absorption", elems[a], elems[b])
            if Ma[jab] != a:
                report.add("absorption", elems[a], elems[b])
            # Rows over c: (a v b) v c, a v (b v c), (a ^ b) ^ c,
            # a ^ (b ^ c), a ^ (b v c), (a ^ b) v (a ^ c).
            ab_c = J[jab]
            a_bc = list(map(Ja.__getitem__, Jb))
            mab_c = M[mab]
            a_mbc = list(map(Ma.__getitem__, Mb))
            dist_l = list(map(Ma.__getitem__, Jb))
            dist_r = list(map(J[mab].__getitem__, Ma))
            if ab_c == a_bc and mab_c == a_mbc and dist_l == dist_r:
                continue
            for c in range(n):
                if ab_c[c] != a_bc[c]:
                    report.add("join associativity", elems[a], elems[b], elems[c])
                if mab_c[c] != a_mbc[c]:
                    report.add("meet associativity", elems[a], elems[b], elems[c])
                if dist_l[c] != dist_r[c]:
                    report.add("distributivity", elems[a], elems[b], elems[c])


def _rows(index, triples):
    """Integer rows of a table given as (x, y, z) label triples: None where no
    triple names (x, y), -1 where z lies outside the carrier.  A later triple
    overrides an earlier one, and one naming another x or y is ignored."""
    rows = [[None] * len(index) for _ in index]
    for x, y, z in triples:
        if x in index and y in index:
            rows[index[x]][index[y]] = index.get(z, -1)
    return rows


def _table_gaps(labels, join, meet, bottom, bot):
    """(law, *witness) for each missing entry and value outside the carrier of
    join and meet, table by table and row by row, then for bot None."""
    return [(f"{name} table not total" if x is None else f"{name} not closed",
             labels[a], labels[b])
            for name, rows in (("join", join), ("meet", meet)) for a, row in enumerate(rows)
            for b, x in enumerate(row) if x is None or x < 0] + [
        ("bottom not in carrier", bottom)] * (bot is None)


def _unpreserved(fr, f, laws):
    """The first (law, x, y) where f, listed by the indices of fr, fails
    f(x op y) = f(x) op f(y); laws lists (law, op table of fr, op table of
    the target) in the order they are tried on each pair.  A row of pairs
    is compared whole and scanned only when it differs."""
    for i, fx in enumerate(f):
        rows = [([f[k] for k in table[i]], list(map(target[fx].__getitem__, f)))
                for _, table, target in laws]
        if any(got != want for got, want in rows):
            return next((law, fr.labels[i], fr.labels[j]) for j in range(len(f))
                        for (law, _, _), (got, want) in zip(laws, rows) if got[j] != want[j])
    return None


def _require_valid(x, needs):
    """StructureError(needs: the report) unless x validates."""
    report = x.validate()
    if not report.ok:
        raise StructureError(f"{needs}: {report}")


class Lattice:
    """A finite lattice kept as integer tables over the label tuple labels:
    _join[i][j] is the index of labels[i] v labels[j], and _meet[i][j] that of
    their meet, with _bot the bottom's index.  index numbers the labels, and
    join, meet and leq take and give labels.  Equal lattices are numbered alike."""

    @cached_property
    def index(self):
        return {x: i for i, x in enumerate(self.labels)}

    @cached_property
    def points(self):
        """The join-irreducibles as ascending indices: in a distributive lattice
        the join-primes (their up-sets are the completely prime filters)."""
        irreducible = _join_irreducibles(_down_sets(self._join))
        return tuple(j for j in range(len(self)) if irreducible >> j & 1)

    @cached_property
    def _top(self):
        """The join of every element: the top of a finite lattice."""
        return self._join_of(range(len(self)))

    @property
    def bottom(self):
        return self.labels[self._bot]

    @cached_property
    def top(self):
        return self.labels[self._top]

    def _join_of(self, ks):
        """Index of the join of the indices ks."""
        join, acc = self._join, self._bot
        for k in ks:
            acc = join[acc][k]
        return acc

    def join(self, x, y):
        return self.labels[self._join[self.index[x]][self.index[y]]]

    def meet(self, x, y):
        return self.labels[self._meet[self.index[x]][self.index[y]]]

    def leq(self, x, y):
        j = self.index[y]
        return self._join[self.index[x]][j] == j

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (type(other) is type(self) and self.labels == other.labels
                and self._join == other._join and self._meet == other._meet
                and self._bot == other._bot)

    def __hash__(self):
        return hash(self.labels)


class GeneralizedBooleanAlgebra(Lattice):
    """Explicit finite gBa: a Lattice whose relative-complement table _diff
    (integer, like join and meet) is given or derived during validation; gaps
    lists (law, *witness) for what the label boundary could not number.
    Carriers stay desk-scale, so every check is exhaustive, never sampled."""

    def __init__(self, labels, join, meet, bottom, diff=None, gaps=()):
        self.labels = tuple(labels)
        self._join, self._meet, self._bot, self._diff = join, meet, bottom, diff
        self._gaps, self._validated = gaps, None

    @cached_property
    def carrier(self):
        return frozenset(self.labels)

    @classmethod
    def from_tables(cls, carrier, join, meet, bottom, diff=None):
        """The algebra of label tables, numbered in sorted_labels order: join, meet
        and diff are (x, y, z) triples x op y = z; what cannot be numbered is a gap."""
        labels = sorted_labels(set(carrier))
        index = {x: i for i, x in enumerate(labels)}
        join, meet, bot = _rows(index, join), _rows(index, meet), index.get(bottom)
        return cls(labels, join, meet, bot, None if diff is None else _rows(index, diff),
                   _table_gaps(labels, join, meet, bottom, bot))

    @classmethod
    def from_sets(cls, family):
        """The gBa of a family of sets under union, intersection and
        difference, on _set_tables; an unclosed family fails validation."""
        labels, masks, join, meet = _set_tables(family)
        bot = 0 if masks[:1] == [0] else None
        return cls(labels, join, meet, bot, gaps=_table_gaps(labels, join, meet, frozenset(), bot))

    @classmethod
    def from_order(cls, labels, leq):
        """The gBa candidate on order_lattice's tables of leq, reflexive and
        transitive pairs x <= y; StructureError unless it is a lattice."""
        violations, tables = order_lattice(labels, leq)
        if violations:
            raise StructureError(f"not a lattice: {violations[:3]}")
        labels, up, join, meet = tables
        return cls(labels, join, meet, up.index((1 << len(labels)) - 1))

    def diff(self, a, b):
        """The unique relative complement a \\ b (requires a valid algebra)."""
        _require_valid(self, "diff on invalid algebra")
        return self.labels[self._diff[self.index[a]][self.index[b]]]

    def validate(self):
        """Every law of the algebra with its witnesses (see _check); computed once."""
        if self._validated is None:
            report = ValidationReport()
            self._check(report)
            self._validated = report
        return self._validated

    def _check(self, report):
        """Add every gBa axiom violation to report, witnesses as labels in the
        order a, b, c: the gaps alone if there are any; else the lattice laws,
        swept only if _distributive_lattice fails, then the relative
        complements.  A valid algebra without a diff table gets the derived one."""
        if self._gaps:
            for law, *witness in self._gaps:
                report.add(law, *witness)
            return
        labels, J, M, bot = self.labels, self._join, self._meet, self._bot
        n = len(labels)
        if not _distributive_lattice(J, M, bot):
            _law_sweep(report, labels, J, M, bot)
        # Candidates for a \ b are the c with c ^ b = bottom and c v b = a v b:
        # group, for each b, those c by c v b, in carrier order.
        by_join = [{} for _ in range(n)]
        for c in range(n):
            Jc, Mc = J[c], M[c]
            for b in range(n):
                if Mc[b] == bot:
                    by_join[b].setdefault(Jc[b], []).append(c)
        given, derived = self._diff, []
        for a in range(n):
            Ja, row = J[a], []
            for b in range(n):
                cands = by_join[b].get(Ja[b], ())
                row.append(cands[0] if len(cands) == 1 else None)
                if not cands:
                    report.add("relative complement missing", labels[a], labels[b])
                elif row[b] is None:
                    report.add("relative complement not unique", labels[a], labels[b],
                               tuple(labels[c] for c in cands))
                elif given is not None and given[a][b] != row[b]:
                    report.add("diff table not total" if given[a][b] is None
                               else "diff equations fail", labels[a], labels[b])
            derived.append(row)
        if report.ok and given is None:
            self._diff = derived


class BooleanAlgebra(GeneralizedBooleanAlgebra):
    """Explicit finite Boolean algebra: a finite gBa is one, with the join
    of its elements as top, so the complement of x is top \\ x."""

    def complement(self, x):
        """top \\ x (requires a valid algebra)."""
        return self.diff(self.top, x)

    @classmethod
    def powerset(cls, base):
        """Every subset of base on _set_tables, the empty set first."""
        base = frozenset(base)
        labels, _, join, meet = _set_tables(
            c for r in range(len(base) + 1) for c in itertools.combinations(base, r))
        return cls(labels, join, meet, 0)


class IdealizedBooleanAlgebra:
    """A finite Boolean algebra together with a maximal ideal, given by
    labels and kept as the set _ideal of their indices."""

    def __init__(self, algebra, ideal):
        self.algebra = algebra
        self.ideal = frozenset(ideal)
        self._ideal = frozenset(map(algebra.index.get, self.ideal)) - {None}
        self._validated = None

    def __eq__(self, other):
        return (isinstance(other, IdealizedBooleanAlgebra)
                and self.algebra == other.algebra and self.ideal == other.ideal)

    def __hash__(self):
        return hash((self.algebra, self.ideal))

    def validate(self):
        """The algebra's violations, then the ideal laws, in a new report; computed once."""
        if self._validated is None:
            report = ValidationReport(list(self.algebra.validate().violations))
            self._check(report)
            self._validated = report
        return self._validated

    def _check(self, report):
        """The ideal laws, witnesses in label order, once the algebra is
        valid; a gap is in no ideal.  The complement of b, top \\ b, is read
        off the top row of the diff table."""
        alg, ideal = self.algebra, self._ideal
        if len(ideal) != len(self.ideal):
            report.add("ideal not a subset of carrier",
                       tuple(sorted_labels(self.ideal - alg.carrier)))
            return
        if not alg.validate().ok:
            return
        labels, J = alg.labels, alg._join
        if alg._top in ideal:
            report.add("ideal not proper", alg.top)
        if alg._bot not in ideal:
            report.add("ideal misses bottom", alg.bottom)
        for a in sorted(ideal):
            for b in range(len(labels)):
                if J[b][a] == a and b not in ideal:
                    report.add("ideal not a downset", labels[a], labels[b])
            for b in sorted(ideal):
                if J[a][b] not in ideal:
                    report.add("ideal not join-closed", labels[a], labels[b])
        for b, nb in enumerate(alg._diff[alg._top]):
            if (b in ideal) == (nb in ideal):
                report.add("ideal not proper (element and complement)" if b in ideal
                           else "ideal not maximal", labels[b])

    def __len__(self):
        return len(self.algebra)


def idealize(algebra):
    """Adjoin formal complements: A becomes the maximal ideal of B_A = A u A'.

    The labels of A keep their indices 0..n-1, and x' takes n + the index of
    x.  Operation table, with x' the formal complement of x:
      a1 v a2' = (a2 \\ a1)',  a1' v a2' = (a1 ^ a2)',
      a1 ^ a2' = a1 \\ a2,     a1' ^ a2' = (a1 v a2)',
      top = bottom', so not a = top \\ a = a' and not a' = a.
    """
    _require_valid(algebra, "idealize needs a valid gBa")
    n, J, M, D = len(algebra), algebra._join, algebra._meet, algebra._diff
    DT = [list(col) for col in zip(*D)]  # DT[a][b] = b \ a
    join = ([J[a] + [n + x for x in DT[a]] for a in range(n)]
            + [[n + x for x in D[a] + M[a]] for a in range(n)])
    meet = [M[a] + D[a] for a in range(n)] + [DT[a] + [n + x for x in J[a]] for a in range(n)]
    labels = algebra.labels + tuple(map(Primed, algebra.labels))
    return IdealizedBooleanAlgebra(BooleanAlgebra(labels, join, meet, algebra._bot),
                                   algebra.labels)


def iba_forget(idealized):
    """Restrict the tables to the ideal, the relative complements a \\ b =
    a ^ not b among them: the ideal is a downset and a \\ b <= a."""
    _require_valid(idealized, "iba_forget needs a valid iBa")
    alg, keep = idealized.algebra, sorted(idealized._ideal)
    join, meet, diff = _restricted(keep, alg._join, alg._meet, alg._diff)
    return GeneralizedBooleanAlgebra([alg.labels[k] for k in keep], join, meet,
                                     keep.index(alg._bot), diff)


def stone(idealized):
    """Pointed Stone space: atoms as points, star the atom outside the ideal."""
    _require_valid(idealized, "stone needs a valid iBa")
    alg = idealized.algebra
    outside = [p for p in alg.points if p not in idealized._ideal]
    if len(outside) != 1:
        raise StructureError(f"ideal not maximal: {len(outside)} atoms outside")
    return PointedBooleanSpace(frozenset(alg.labels[p] for p in alg.points),
                               alg.labels[outside[0]])


def clopen(x):
    """All subsets of a finite discrete pointed space, ideal = sets omitting star."""
    ba = BooleanAlgebra.powerset(x.points)
    return IdealizedBooleanAlgebra(ba, (s for s in ba.labels if x.star not in s))


def map_failure(phi, a, b):
    """Why phi is not an isomorphism a -> b, or None when it is one.

    a and b are both gBas or both iBas.  phi must be a bijection between the
    carriers that preserves join and meet (_unpreserved, on phi as an index
    array); between iBas it must then carry the ideal onto the ideal.  Such
    a bijection between valid algebras keeps top, relative complements and
    so complements.  The first failure, walking a's labels in order, is the
    message.
    """
    ideals = isinstance(a, IdealizedBooleanAlgebra)
    la, lb = (a.algebra, b.algebra) if ideals else (a, b)
    if set(phi) != la.carrier or set(phi.values()) != lb.carrier or len(la) != len(lb):
        return "not bijective"
    f = [lb.index[phi[x]] for x in la.labels]
    bad = _unpreserved(la, f, [("join", la._join, lb._join), ("meet", la._meet, lb._meet)])
    if bad:
        return "{} mismatch at ({},{})".format(bad[0], *map(label_repr, bad[1:]))
    if ideals and {f[i] for i in a._ideal} != b._ideal:
        return "ideal not preserved"
    return None
