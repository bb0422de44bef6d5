"""Correctness oracles written apart from the library they judge.

Nothing here imports `masures`.  Each oracle reads only the raw inputs a
workload hands the library (end words of tree apartments, the polynomial
entries of SL3 frames, the Cartan matrix and realization of a root
system) and recomputes the expected answer by a different route:

* tree: apartments are lines between two ends; a vertex lies on a line
  when it is a long enough prefix of one of the two end rays, and the
  retractions from the germs at plus and minus infinity are Busemann
  functions, computed as graph distances to a far anchor vertex.
* SL3: a lattice class L = g diag(t^-lam) O^3 lies in the apartment of
  the frame h exactly when N = adj(h) g diag(t^-lam) spans a diagonal
  lattice, i.e. when val(det N) equals the sum over rows of the minimum
  valuation in that row.  Only exact polynomial products are needed, no
  division and no triangular form.
* Hecke paths: real roots and their coroots by naive orbit closure under
  the simple reflections, the Weyl orbit of the first derivative by the
  same closure, and dominance by solving for coroot coordinates.

`self_test()` checks every oracle on hand-worked cases before a run.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

# -- tree ------------------------------------------------------------------------
#
# An end is (prefix, repeat): the ray reading `prefix` and then `repeat`
# forever.  An apartment is (minus_end, plus_end).

ANCHOR_DEPTH = 256


def _ray_letter(end, i):
    prefix, repeat = end
    return prefix[i] if i < len(prefix) else repeat


def _ray(end, depth):
    return tuple(_ray_letter(end, i) for i in range(depth))


def _meet_depth(apartment):
    minus, plus = apartment
    i = 0
    while _ray_letter(minus, i) == _ray_letter(plus, i):
        i += 1
    return i


def tree_vertex(apartment, k):
    """Vertex at integer coordinate k: depth k down the plus ray when
    k is at least the meet depth m, else depth 2m - k down the minus ray."""
    minus, plus = apartment
    m = _meet_depth(apartment)
    return _ray(plus, k) if k >= m else _ray(minus, 2 * m - k)


def tree_on_line(apartment, word):
    minus, plus = apartment
    if len(word) < _meet_depth(apartment):
        return False
    return word in (_ray(minus, len(word)), _ray(plus, len(word)))


def tree_hits(first, second, radius):
    """Window coordinates whose vertex in `first` also lies on `second`."""
    return [
        k for k in range(-radius, radius + 1) if tree_on_line(second, tree_vertex(first, k))
    ]


def contiguous(ks):
    return not ks or list(ks) == list(range(ks[0], ks[0] + len(ks)))


def _distance(u, w):
    lcp = 0
    while lcp < min(len(u), len(w)) and u[lcp] == w[lcp]:
        lcp += 1
    return len(u) + len(w) - 2 * lcp


# the standard apartment runs from the end 0,1,1,1,... to the end 1,1,1,...
_MINUS_ANCHOR = (0,) + (1,) * (ANCHOR_DEPTH - 1)
_PLUS_ANCHOR = (1,) * ANCHOR_DEPTH


def tree_retract_vertex(word, sign):
    """Retraction from the germ at -infinity (sign -1) or +infinity (+1)."""
    if sign < 0:
        return -ANCHOR_DEPTH + _distance(_MINUS_ANCHOR, word)
    return ANCHOR_DEPTH - _distance(_PLUS_ANCHOR, word)


def tree_retract_coord(apartment, x, sign):
    """Retraction of the point at rational coordinate x of the apartment;
    an edge maps isometrically, so interpolate between its two vertices."""
    x = Q(x)
    n = x.numerator // x.denominator
    v0 = tree_retract_vertex(tree_vertex(apartment, n), sign)
    if x == n:
        return Q(v0)
    v1 = tree_retract_vertex(tree_vertex(apartment, n + 1), sign)
    return v0 + (x - n) * (v1 - v0)


# -- SL3 over F_q((t)) -------------------------------------------------------------
#
# Field elements are the integers 0..q-1.  For prime q they are residues;
# GF(4) encodes c0 + c1 x as c0 + 2 c1 with x^2 = x + 1, so addition is
# XOR and the product table below follows from that relation.

_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


class Field:
    def __init__(self, q):
        if q == 4:
            self.add = lambda a, b: a ^ b
            self.mul = lambda a, b: _GF4_MUL[a][b]
            self.neg = lambda a: a
        elif q in (2, 3, 5, 7):
            self.add = lambda a, b: (a + b) % q
            self.mul = lambda a, b: (a * b) % q
            self.neg = lambda a: (-a) % q
        else:
            raise ValueError(f"oracle field of order {q} not supported")
        self.q = q


# Laurent polynomials are dicts exponent -> nonzero coefficient.


def _padd(f, x, y):
    out = dict(x)
    for e, c in y.items():
        s = f.add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pmul(f, x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = e1 + e2
            s = f.add(out.get(e, 0), f.mul(c1, c2))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _pneg(f, x):
    return {e: f.neg(c) for e, c in x.items()}


def _val(x):
    return min(x) if x else None


def _det3(f, m):
    total = {}
    for (i, j, k), sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        term = _pmul(f, _pmul(f, m[0][i], m[1][j]), m[2][k])
        total = _padd(f, total, term if sign > 0 else _pneg(f, term))
    return total


def _adj3(f, m):
    def minor(r, c):
        rows = [i for i in range(3) if i != r]
        cols = [j for j in range(3) if j != c]
        a, b = m[rows[0]][cols[0]], m[rows[0]][cols[1]]
        d, e = m[rows[1]][cols[0]], m[rows[1]][cols[1]]
        return _padd(f, _pmul(f, a, e), _pneg(f, _pmul(f, b, d)))

    cof = [[minor(i, j) if (i + j) % 2 == 0 else _pneg(f, minor(i, j)) for j in range(3)]
           for i in range(3)]
    return [[cof[j][i] for j in range(3)] for i in range(3)]


def _pmatmul(f, a, b):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = {}
            for k in range(3):
                acc = _padd(f, acc, _pmul(f, a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def hex_window(radius):
    """Special points as alpha-values (a, b) with |a|, |b|, |a + b| <= radius."""
    return [
        (a, b)
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
        if abs(a + b) <= radius
    ]


def sl3_hits(q, first, second, radius):
    """Special points (a, b) of the window whose class in the chart of the
    frame `first` lies in the apartment of the frame `second`.

    Frames are 3x3 lists of polynomial dicts.  The point (a, b) charts to
    lam = (a + b, b, 0).  With P = adj(second) first, the matrix N of the
    class has val N_ij = val P_ij - lam_j and val det N = val det P - |lam|.
    """
    f = Field(q)
    P = _pmatmul(f, _adj3(f, second), first)
    det_val = _val(_det3(f, P))
    if det_val is None:
        raise ValueError("singular frame")
    vals = [[_val(e) for e in row] for row in P]
    hits = []
    for a, b in hex_window(radius):
        lam = (a + b, b, 0)
        row_min = 0
        for row in vals:
            row_min += min(v - l for v, l in zip(row, lam) if v is not None)
        if row_min == det_val - sum(lam):
            hits.append((a, b))
    return hits


def sl3_same_apartment(q, first, second):
    """Equal as point sets: adj(second) first is a monomial matrix."""
    f = Field(q)
    P = _pmatmul(f, _adj3(f, second), first)
    nonzero = [[bool(e) for e in row] for row in P]
    return all(sum(row) == 1 for row in nonzero) and all(sum(col) == 1 for col in zip(*nonzero))


def sl3_fills_window(hits, radius):
    """The hits reach all six sides a = +-r, b = +-r, a + b = +-r of the window."""
    return all(
        any(form(a, b) == sign * radius for a, b in hits)
        for form in (lambda a, b: a, lambda a, b: b, lambda a, b: a + b)
        for sign in (1, -1)
    )


# -- root systems and Hecke paths ------------------------------------------------


def _dot(u, v):
    return sum(Q(a) * b for a, b in zip(u, v))


def _reflect(forms, coroots, i, v):
    c = _dot(forms[i], v)
    return tuple(x - c * y for x, y in zip(v, coroots[i]))


def root_pairs(matrix, forms, coroots):
    """All (root coordinates, form, coroot) triples of a finite root system
    by orbit closure of the simple ones under the simple reflections.
    `matrix[i][j]` is alpha_j(coroot_i)."""
    n = len(matrix)
    start = []
    for i in range(n):
        start.append((tuple(1 if k == i else 0 for k in range(n)),
                      tuple(Q(x) for x in forms[i]), tuple(Q(x) for x in coroots[i])))
    seen = {s[0]: s for s in start}
    frontier = list(start)
    while frontier:
        fresh = []
        for coords, form, coroot in frontier:
            for i in range(n):
                shift = sum(coords[j] * matrix[i][j] for j in range(n))
                new_coords = tuple(c - shift if k == i else c for k, c in enumerate(coords))
                c = _dot(form, coroots[i])
                new_form = tuple(x - c * y for x, y in zip(form, forms[i]))
                new_coroot = _reflect(forms, coroots, i, coroot)
                if new_coords not in seen:
                    seen[new_coords] = (new_coords, new_form, new_coroot)
                    fresh.append(seen[new_coords])
            if len(seen) > 1000:
                raise ValueError("root closure does not terminate: not of finite type")
        frontier = fresh
    return list(seen.values())


def weyl_orbit(forms, coroots, v):
    seen = {tuple(v)}
    frontier = [tuple(v)]
    while frontier:
        fresh = []
        for x in frontier:
            for i in range(len(forms)):
                y = _reflect(forms, coroots, i, x)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def _solve(columns, v):
    """Coefficients c with sum c_i columns[i] == v, or None."""
    n, dim = len(columns), len(v)
    rows = [[Q(columns[i][r]) for i in range(n)] + [Q(v[r])] for r in range(dim)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((k for k in range(r, dim) if rows[k][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for k in range(dim):
            if k != r and rows[k][c] != 0:
                factor = rows[k][c]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    if any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in rows):
        return None
    sol = [Q(0)] * n
    for k, c in enumerate(pivots):
        sol[c] = rows[k][-1]
    return sol


def dominates(coroots, x, y):
    """'eq', 'lt' (y - x a nonzero nonnegative coroot combination), or None."""
    d = tuple(b - a for a, b in zip(x, y))
    if all(c == 0 for c in d):
        return "eq"
    sol = _solve(coroots, d)
    if sol is not None and all(c >= 0 for c in sol):
        return "lt"
    return None


def _derivatives(times, points):
    out = []
    for t0, t1, p0, p1 in zip(times, times[1:], points, points[1:]):
        out.append(tuple((b - a) / (t1 - t0) for a, b in zip(p0, p1)))
    return out


def illegal_turns(system, times, points):
    """Breakpoint times whose turn is not the reflection of the incoming
    derivative in a positive root that is negative on it."""
    forms, coroots, pairs = system["forms"], system["coroots"], system["pairs"]
    derivs = _derivatives(times, points)
    bad = []
    for t, d_in, d_out in zip(times[1:-1], derivs, derivs[1:]):
        legal = False
        for coords, form, coroot in pairs:
            if any(c < 0 for c in coords):
                continue
            value = _dot(form, d_in)
            if value < 0 and tuple(x - value * y for x, y in zip(d_in, coroot)) == d_out:
                legal = True
                break
        if not legal:
            bad.append(t)
    return bad


def hecke_recheck(system, times, points):
    """Problems with a folded path, as a list of strings (empty when the
    growth laws hold)."""
    problems = []
    derivs = _derivatives(times, points)
    orbit = weyl_orbit(system["forms"], system["coroots"], derivs[0])
    if any(d not in orbit for d in derivs):
        problems.append("derivative outside the Weyl orbit of the first one")
    bad = illegal_turns(system, times, points)
    if bad:
        problems.append(f"illegal turn at {bad[0]}")
    displacement = tuple(b - a for a, b in zip(points[0], points[-1]))
    order = dominates(system["coroots"], derivs[0], displacement)
    folded = len(derivs) > 1
    if order != ("lt" if folded else "eq"):
        problems.append(f"endpoint comparison {order} on a path folded={folded}")
    return problems


def upward_crossings(system, a, b):
    """Walls M(alpha, k) of positive roots that the straight segment from
    a to b crosses with alpha increasing, the direction a legal fold refuses."""
    count = 0
    for coords, form, _ in system["pairs"]:
        if any(c < 0 for c in coords):
            continue
        va, vb = _dot(form, a), _dot(form, b)
        if vb > va:
            count += max(0, -((-vb) // 1) - (va // 1) - 1)
    return count


def crosses_vertex(system, a, b):
    """Whether the open segment from a to b meets the walls of two
    non-proportional positive roots at one point."""
    hits = []  # per positive root: times of its walls, or None for all
    for coords, form, _ in system["pairs"]:
        if any(c < 0 for c in coords):
            continue
        va, vb = _dot(form, a), _dot(form, b)
        if va == vb:
            hits.append(None if va.denominator == 1 else set())
            continue
        lo, hi = min(va, vb), max(va, vb)
        times = ((k - va) / (vb - va) for k in range(math.floor(lo), math.ceil(hi) + 1))
        hits.append({t for t in times if 0 < t < 1})
    for i, first in enumerate(hits):
        for second in hits[i + 1:]:
            if first is None and second:
                return True
            if second is None and first:
                return True
            if first and second and first & second:
                return True
    return False


def hecke_system(matrix, forms, coroots):
    return {
        "forms": [tuple(Q(x) for x in f) for f in forms],
        "coroots": [tuple(Q(x) for x in c) for c in coroots],
        "pairs": root_pairs(matrix, forms, coroots),
    }


# -- hand-worked cases -----------------------------------------------------------


def _mono(e, c=1):
    return {e: c}


def _unipotent_12(k, c=1):
    one = _mono(0)
    return [[one, _mono(k, c), {}], [{}, one, {}], [{}, {}, one]]


def self_test():
    """Raise AssertionError when an oracle disagrees with a hand-worked case."""
    # tree: the standard apartment and the line from 0,2,2,... to 1,1,1,...
    # share the vertices at coordinates -1, 0, 1, ...
    standard = (((0,), 1), ((), 1))
    other = (((0,), 2), ((), 1))
    assert tree_hits(standard, standard, 16) == list(range(-16, 17))
    assert tree_hits(standard, other, 16) == list(range(-1, 17))
    assert tree_vertex(standard, -2) == (0, 1) and tree_vertex(other, -2) == (0, 2)
    assert contiguous([3, 4, 5]) and not contiguous([3, 5])
    # the vertex 0,2 hangs one edge off coordinate -1 of the standard line
    assert tree_retract_vertex((0, 2), -1) == 0
    assert tree_retract_vertex((0, 2), +1) == -2
    assert tree_retract_coord(standard, Q(5, 2), -1) == Q(5, 2)
    assert tree_retract_coord(other, Q(-3, 2), +1) == Q(-3, 2)  # (0,) then (0, 2)
    assert tree_retract_coord(other, Q(-5, 2), -1) == Q(1, 2)  # (0, 2, 2) then (0, 2)

    # GF(4): x^2 = x + 1 makes the table a field
    for a in range(1, 4):
        assert sum(1 for b in range(1, 4) if _GF4_MUL[a][b] == 1) == 1
        for b in range(4):
            for c in range(4):
                assert _GF4_MUL[a][b ^ c] == _GF4_MUL[a][b] ^ _GF4_MUL[a][c]
                assert _GF4_MUL[_GF4_MUL[a][b]][c] == _GF4_MUL[a][_GF4_MUL[b][c]]

    # SL3: x_12(c t^k) fixes D(alpha_1, k) = {a + k >= 0}; in the radius-6
    # hexagon of 127 special points that is 70, 82, 93 points for k = 0, 1, 2
    identity = [[_mono(0) if i == j else {} for j in range(3)] for i in range(3)]
    assert len(hex_window(6)) == 127
    for q in (2, 3, 4):
        assert len(sl3_hits(q, identity, identity, 6)) == 127
        for k, count in ((0, 70), (1, 82), (2, 93), (-7, 0)):
            for c in range(1, q):
                hits = sl3_hits(q, identity, _unipotent_12(k, c), 6)
                assert len(hits) == count, (q, k, c, len(hits))
                assert all(a + k >= 0 for a, _ in hits)
    diagonal = [[_mono(1) if i == j else {} for j in range(3)] for i in range(3)]
    diagonal[2][2] = _mono(-2)
    assert len(sl3_hits(2, identity, diagonal, 6)) == 127
    assert sl3_same_apartment(2, identity, diagonal)
    assert not sl3_same_apartment(2, identity, _unipotent_12(0))
    assert sl3_fills_window(hex_window(6), 6)
    assert not sl3_fills_window(sl3_hits(2, identity, _unipotent_12(5), 6), 6)

    # root systems: 6, 8, 12 roots; the coroots of A2 form one Weyl orbit
    for matrix, count in (([[2, -1], [-1, 2]], 6), ([[2, -1], [-2, 2]], 8),
                          ([[2, -1], [-3, 2]], 12)):
        forms = [[matrix[i][j] for i in range(2)] for j in range(2)]
        assert len(root_pairs(matrix, forms, [(1, 0), (0, 1)])) == count
    a2 = hecke_system([[2, -1], [-1, 2]], [(2, -1), (-1, 2)], [(1, 0), (0, 1)])
    assert weyl_orbit(a2["forms"], a2["coroots"], (Q(1), Q(0))) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}
    # down through the alpha_1 wall and folded back: legal, strictly dominant
    times = (Q(0), Q(1, 2), Q(1))
    folded = ((Q(0), Q(0)), (Q(-1, 2), Q(0)), (Q(0), Q(0)))
    assert hecke_recheck(a2, times, folded) == []
    # the same turn taken upward is illegal
    upward = ((Q(0), Q(0)), (Q(1, 2), Q(0)), (Q(0), Q(0)))
    assert illegal_turns(a2, times, upward) == [Q(1, 2)]
    # a segment through the vertex 0 meets all three walls there; one
    # that crosses the wall alpha_1 = 1 alone meets no vertex
    assert crosses_vertex(a2, (Q(-1, 4), Q(0)), (Q(1, 3), Q(0)))
    assert not crosses_vertex(a2, (Q(1, 4), Q(1, 8)), (Q(3, 4), Q(1, 8)))
    straight = ((Q(0), Q(0)), (Q(1), Q(-1)))
    assert hecke_recheck(a2, (Q(0), Q(1)), straight) == []
