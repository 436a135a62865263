"""Finite generalized and idealized Boolean algebras and their equivalences.

A generalized Boolean algebra (gBa) is a distributive lattice with bottom in
which every pair a, b has a unique relative complement c = a \\ b satisfying
c v b = a v b and c ^ b = bottom.  An idealized Boolean algebra (iBa) is a
Boolean algebra with a designated maximal ideal.  The functors implemented
here (idealize, forget, stone, clopen) realize the equivalences between
finite gBas, iBas and pointed Boolean spaces.
"""

import itertools

from .errors import StructureError
from .rat import sorted_labels
from .records import field, record
from .spaces import PointedBooleanSpace

_ABSENT = object()  # a missing table entry, which no carrier holds


@record(frozen=True)
class Primed:
    """Tag wrapper for the formal complements adjoined by idealize()."""

    base: object

    def __repr__(self):
        return f"{self.base}'"


@record
class Violation:
    law: str
    witness: tuple

    def __repr__(self):
        return f"{self.law} at {self.witness}"


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


def _join_irreducibles(down):
    """Bitmask of the join-irreducibles, given each element's down-set: j is
    one iff the elements strictly below j are the down-set of one element."""
    downs = set(down)
    return sum(1 << j for j, d in enumerate(down) if d ^ 1 << j in downs)


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
    up = [sum(1 << b for b, x in enumerate(Ja) if x == b) for Ja in J]
    down = [sum(1 << a for a, x in enumerate(col) if x == b) for b, col in enumerate(zip(*J))]
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


class GeneralizedBooleanAlgebra:
    """Explicit finite gBa: carrier plus total join/meet tables and bottom.

    The relative-complement table may be supplied or derived by exhaustive
    search during validation.  Carriers stay desk-scale (tens of elements),
    so every check is exhaustive rather than sampled.
    """

    def __init__(self, carrier, join, meet, bottom, diff=None):
        self.carrier = frozenset(carrier)
        self.join = dict(join)
        self.meet = dict(meet)
        self.bottom = bottom
        self.diff_table = dict(diff) if diff is not None else None
        self._validated = None

    def leq(self, a, b):
        return self.join[(a, b)] == b

    def atoms(self):
        nonzero = [a for a in sorted_labels(self.carrier) if a != self.bottom]
        return [a for a in nonzero
                if not any(b != a and self.leq(b, a) for b in nonzero)]

    def __len__(self):
        return len(self.carrier)

    @classmethod
    def from_sets(cls, family):
        """Build a gBa from a family of sets under union/intersection/difference."""
        fam = frozenset(frozenset(s) for s in family)
        join, meet, diff = {}, {}, {}
        for a in fam:
            for b in fam:
                join[(a, b)] = a | b
                meet[(a, b)] = a & b
                diff[(a, b)] = a - b
        return cls(fam, join, meet, frozenset(), diff)

    @classmethod
    def from_order(cls, labels, leq):
        """Build a gBa candidate from a partial order; diff is derived by search.

        leq is a set of (x, y) pairs meaning x <= y; it must already be
        reflexive and transitive.  An order that is not a lattice with a
        least element raises StructureError.
        """
        violations, tables = order_lattice(labels, leq)
        if violations:
            raise StructureError(f"not a lattice: {violations[:3]}")
        labels, up, join, meet = tables

        def table(rows):
            return {(x, y): labels[z] for x, row in zip(labels, rows)
                    for y, z in zip(labels, row)}
        return cls(labels, table(join), table(meet),
                   labels[up.index((1 << len(labels)) - 1)])

    def diff(self, a, b):
        """The unique relative complement a \\ b (requires a valid algebra)."""
        report = self.validate()
        if not report.ok:
            raise StructureError(f"diff on invalid algebra: {report}")
        return self.diff_table[(a, b)]

    def validate(self):
        """Every law of the algebra with its witnesses (see _check); computed once."""
        if self._validated is None:
            report = ValidationReport()
            self._check(report)
            self._validated = report
        return self._validated

    def _check(self, report):
        """Add every gBa axiom violation to report.

        The laws run on integer tables: the carrier is numbered in sorted_labels
        order, J[a][b] is the number of a v b and M[a][b] that of a ^ b.  Only if
        _distributive_lattice fails does _law_sweep list witnesses, as labels in
        the order a, b, c.  A valid algebra without a diff table gets the derived one.
        """
        elems = sorted_labels(self.carrier)
        index = {x: i for i, x in enumerate(elems)}
        tables = []
        for table, name in ((self.join, "join"), (self.meet, "meet")):
            rows = []
            for a in elems:
                row = [index.get(table.get((a, b), _ABSENT)) for b in elems]
                for b, i in zip(elems, row):
                    if i is None:
                        report.add(f"{name} table not total" if (a, b) not in table
                                   else f"{name} not closed", a, b)
                rows.append(row)
            tables.append(rows)
        if self.bottom not in index:
            report.add("bottom not in carrier", self.bottom)
        if not report.ok:
            return
        J, M = tables
        bot = index[self.bottom]
        n = len(elems)
        if not _distributive_lattice(J, M, bot):
            _law_sweep(report, elems, J, M, bot)
        # Candidates for a \ b are the c with c ^ b = bottom and c v b = a v b:
        # group, for each b, those c by c v b, in carrier order.
        by_join = [{} for _ in range(n)]
        for c in range(n):
            Jc, Mc = J[c], M[c]
            for b in range(n):
                if Mc[b] == bot:
                    by_join[b].setdefault(Jc[b], []).append(c)
        derived = {}
        for a in range(n):
            x, Ja = elems[a], J[a]
            for b in range(n):
                y = elems[b]
                cands = by_join[b].get(Ja[b], ())
                if not cands:
                    report.add("relative complement missing", x, y)
                elif len(cands) > 1:
                    report.add("relative complement not unique", x, y,
                               tuple(elems[c] for c in cands))
                else:
                    c = elems[cands[0]]
                    derived[(x, y)] = c
                    if self.diff_table is not None:
                        given = self.diff_table.get((x, y))
                        if given is None:
                            report.add("diff table not total", x, y)
                        elif given != c:
                            report.add("diff equations fail", x, y)
        if report.ok and self.diff_table is None:
            self.diff_table = derived

    def __eq__(self, other):
        # a Boolean algebra never equals a plain gBa
        return (type(other) is type(self)
                and self.carrier == other.carrier and self.join == other.join
                and self.meet == other.meet and self.bottom == other.bottom)

    def __hash__(self):
        return hash((self.carrier, self.bottom))


class BooleanAlgebra(GeneralizedBooleanAlgebra):
    """Explicit finite Boolean algebra: a gBa with complement table and top."""

    def __init__(self, carrier, join, meet, complement, bottom, top):
        super().__init__(carrier, join, meet, bottom)
        self.complement = dict(complement)
        self.top = top

    @classmethod
    def powerset(cls, base):
        base = frozenset(base)
        carrier = [frozenset(c) for r in range(len(base) + 1)
                   for c in itertools.combinations(sorted_labels(base), r)]
        join = {(a, b): a | b for a in carrier for b in carrier}
        meet = {(a, b): a & b for a in carrier for b in carrier}
        comp = {a: base - a for a in carrier}
        return cls(carrier, join, meet, comp, frozenset(), base)

    def _check(self, report):
        """The gBa laws, then the complement and top laws; no entry, no law."""
        super()._check(report)
        for a in sorted_labels(self.carrier):
            na = self.complement.get(a)
            if na is None or na not in self.carrier:
                report.add("complement table not total", a)
                continue
            if self.join.get((a, na), _ABSENT) != self.top:
                report.add("complement join law", a)
            if self.meet.get((a, na), _ABSENT) != self.bottom:
                report.add("complement meet law", a)
            if self.join.get((a, self.top), _ABSENT) != self.top:
                report.add("top not greatest", a)

    def __eq__(self, other):
        return super().__eq__(other) and self.complement == other.complement

    __hash__ = GeneralizedBooleanAlgebra.__hash__


class IdealizedBooleanAlgebra:
    """A finite Boolean algebra together with a maximal ideal."""

    def __init__(self, algebra, ideal):
        self.algebra = algebra
        self.ideal = frozenset(ideal)
        self._validated = None

    def __eq__(self, other):
        return (isinstance(other, IdealizedBooleanAlgebra)
                and self.algebra == other.algebra and self.ideal == other.ideal)

    def __hash__(self):
        return hash((self.algebra, self.ideal))

    def validate(self):
        """The algebra's violations, then the maximal-ideal laws; computed once.

        The report is a new one: the algebra's own report stays untouched.
        """
        if self._validated is None:
            report = ValidationReport(list(self.algebra.validate().violations))
            self._check(report)
            self._validated = report
        return self._validated

    def _check(self, report):
        alg = self.algebra
        if not self.ideal <= alg.carrier:
            report.add("ideal not a subset of carrier",
                       tuple(sorted_labels(self.ideal - alg.carrier)))
            return
        if alg.top in self.ideal:
            report.add("ideal not proper", alg.top)
        if alg.bottom not in self.ideal:
            report.add("ideal misses bottom", alg.bottom)
        labels = sorted_labels(alg.carrier)
        ideal = [a for a in labels if a in self.ideal]
        for a in ideal:
            for b in labels:
                if alg.join.get((b, a), _ABSENT) == a and b not in self.ideal:
                    report.add("ideal not a downset", a, b)
            for b in ideal:
                if alg.join.get((a, b), _ABSENT) not in self.ideal:
                    report.add("ideal not join-closed", a, b)
        for b in labels:
            inside = (b in self.ideal, alg.complement.get(b, _ABSENT) in self.ideal)
            if inside == (False, False):
                report.add("ideal not maximal", b)
            if inside == (True, True):
                report.add("ideal not proper (element and complement)", b)

    def __len__(self):
        return len(self.algebra)


def idealize(algebra):
    """Adjoin formal complements: A becomes the maximal ideal of B_A = A u A'.

    Operation table, with x' the formal complement of x:
      a1 v a2' = (a2 \\ a1)',  a1' v a2' = (a1 ^ a2)',
      a1 ^ a2' = a1 \\ a2,     a1' ^ a2' = (a1 v a2)',
      not a = a', not a' = a, top = bottom'.
    """
    report = algebra.validate()
    if not report.ok:
        raise StructureError(f"idealize needs a valid gBa: {report}")
    base = sorted_labels(algebra.carrier)
    primed = {a: Primed(a) for a in base}
    carrier = list(base) + [primed[a] for a in base]
    jn, mt, df = algebra.join, algebra.meet, algebra.diff_table
    join, meet, comp = {}, {}, {}
    for a in base:
        comp[a] = primed[a]
        comp[primed[a]] = a
        for b in base:
            join[(a, b)] = jn[(a, b)]
            meet[(a, b)] = mt[(a, b)]
            join[(a, primed[b])] = primed[df[(b, a)]]
            join[(primed[a], b)] = primed[df[(a, b)]]
            join[(primed[a], primed[b])] = primed[mt[(a, b)]]
            meet[(a, primed[b])] = df[(a, b)]
            meet[(primed[a], b)] = df[(b, a)]
            meet[(primed[a], primed[b])] = primed[jn[(a, b)]]
    bottom = algebra.bottom
    top = primed[algebra.bottom]
    ba = BooleanAlgebra(carrier, join, meet, comp, bottom, top)
    return IdealizedBooleanAlgebra(ba, frozenset(base))


def iba_forget(idealized):
    """Restrict to the ideal; relative complements become a ^ not b."""
    report = idealized.validate()
    if not report.ok:
        raise StructureError(f"iba_forget needs a valid iBa: {report}")
    alg = idealized.algebra
    ideal = idealized.ideal
    join = {(a, b): alg.join[(a, b)] for a in ideal for b in ideal}
    meet = {(a, b): alg.meet[(a, b)] for a in ideal for b in ideal}
    diff = {(a, b): alg.meet[(a, alg.complement[b])] for a in ideal for b in ideal}
    return GeneralizedBooleanAlgebra(ideal, join, meet, alg.bottom, diff)


def stone(idealized):
    """Pointed Stone space: atoms as points, star the atom outside the ideal."""
    report = idealized.validate()
    if not report.ok:
        raise StructureError(f"stone needs a valid iBa: {report}")
    alg = idealized.algebra
    atoms = alg.atoms()
    outside = [a for a in atoms if a not in idealized.ideal]
    if len(outside) != 1:
        raise StructureError(f"ideal not maximal: {len(outside)} atoms outside")
    return PointedBooleanSpace(frozenset(atoms), outside[0])


def clopen(x):
    """All subsets of a finite discrete pointed space, ideal = sets omitting star."""
    ba = BooleanAlgebra.powerset(x.points)
    ideal = frozenset(s for s in ba.carrier if x.star not in s)
    return IdealizedBooleanAlgebra(ba, ideal)


def map_failure(phi, a, b):
    """Why phi is not an isomorphism a -> b, or None when it is one.

    a and b are both gBas or both iBas.  phi must be a bijection between
    the carriers that preserves join and meet; between iBas it must also
    preserve complements and carry the ideal onto the ideal.  The first
    failure found is the message.
    """
    ideals = isinstance(a, IdealizedBooleanAlgebra)
    la, lb = (a.algebra, b.algebra) if ideals else (a, b)
    if set(phi) != la.carrier or set(phi.values()) != lb.carrier or len(la) != len(lb):
        return "not bijective"
    for x in la.carrier:
        if ideals and phi[la.complement[x]] != lb.complement[phi[x]]:
            return f"complement mismatch at {x!r}"
        for y in la.carrier:
            if phi[la.join[(x, y)]] != lb.join[(phi[x], phi[y])]:
                return f"join mismatch at ({x!r},{y!r})"
            if phi[la.meet[(x, y)]] != lb.meet[(phi[x], phi[y])]:
                return f"meet mismatch at ({x!r},{y!r})"
    if ideals and {phi[x] for x in a.ideal} != b.ideal:
        return "ideal not preserved"
    return None
