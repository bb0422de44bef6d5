"""Whole tree spheres against Macdonald's formula.

The sphere S(o, n) of the tree of valence q + 1 is the set of vertices at
distance n from the root o: every address word of length n, a first
letter in 0..q and then n - 1 letters in 1..q, so (q + 1) q^(n-1) of them.
Macdonald's formula for the retraction onto the standard line reduces in
rank one to a closed form: from the germ at +infinity exactly 1 vertex of
S(o, n) lands at n, q^n land at -n and (q - 1) q^(k-1) land at n - 2k for
0 < k < n; from -infinity the histogram is the mirror image.  A count over
the whole sphere catches a swapped germ or a shifted retraction that a
sample of points can miss.

Each sphere vertex y also gives a segment [o, y] in a line through both
points, whose retraction is a Hecke path: it must end at y's place in the
histogram and pass the growth laws (read from -infinity, or after the
reflection x -> -x from +infinity).
"""

import itertools
from collections import Counter
from fractions import Fraction as Q

import pytest

from masures.apartment import minus_infinity, plus_infinity
from masures.errors import MasureError
from masures.heckepath import PASS, PLPath, verify_growth
from masures.models import TreeApartment, TreeEnd, TreeModel, retract_segment


def sphere(q, n):
    """Every vertex word of length n >= 1."""
    return [
        (first,) + rest
        for first in range(q + 1)
        for rest in itertools.product(range(1, q + 1), repeat=n - 1)
    ]


def macdonald(q, n, sign):
    """How many vertices of S(o, n) retract to each height, from the germ
    at sign * infinity."""
    counts = {n: 1, -n: q**n}
    for k in range(1, n):
        counts[n - 2 * k] = (q - 1) * q ** (k - 1)
    return {sign * height: count for height, count in counts.items()}


def line_through_root(word):
    """A line through the root and the vertex `word`: its plus ray runs
    through `word`, its minus ray leaves the root by another letter, so
    the root sits at coordinate 0 and `word` at len(word)."""
    return TreeApartment(TreeEnd((1 if word[0] == 0 else 0,), 1), TreeEnd(word, 1))


def sphere_failures(model, q, n):
    """Every disagreement of the model with the formula on S(o, n), and
    every [o, y] path that does not end at y's height or pass growth."""
    failures = []
    words = sphere(q, n)
    assert len(words) == (q + 1) * q ** (n - 1) == sum(macdonald(q, n, 1).values())
    for germ, sign in ((plus_infinity(model.rgs), 1), (minus_infinity(model.rgs), -1)):
        heights = Counter()
        for word in words:
            line = line_through_root(word)
            y = model.chart(line, (Q(n),))
            assert (y.anchor, y.is_vertex) == (word, True)
            (height,) = model.point_retract(y, germ)
            heights[height] += 1
            try:
                path = retract_segment(model, line, (Q(0),), (Q(n),), germ, 1)
            except MasureError as exc:
                failures.append(f"{word} from {sign}: {exc}")
                continue
            if path.points[-1] != (height,):
                failures.append(f"{word} from {sign}: path ends at {path.points[-1]}, not {height}")
            if sign > 0:
                # the growth laws read paths retracted from -infinity; the
                # automorphism swapping the root's letters 0 and 1 swaps the
                # germs and reflects the standard line, so x -> -x turns the
                # path from +infinity into the one of another sphere vertex
                # from -infinity
                path = PLPath(path.times, [(-x,) for (x,) in path.points])
            if verify_growth(model.rgs, path, 1, 1).verdict != PASS:
                failures.append(f"{word} from {sign}: growth")
        if heights != macdonald(q, n, sign):
            failures.append(f"S(o, {n}) from {sign}: {dict(heights)} != {macdonald(q, n, sign)}")
    return failures


@pytest.mark.parametrize("q", [2, 3])
def test_tree_spheres_match_macdonald(q):
    model = TreeModel(q)
    for n in range(1, 7):
        assert sphere_failures(model, q, n) == []


def test_swapped_germs_fail():
    """A model that retracts from the opposite germ gives the mirror
    histogram, which the formula refuses."""

    class Swapped(TreeModel):
        def point_retract(self, point, germ):
            minus, plus = minus_infinity(self.rgs), plus_infinity(self.rgs)
            return super().point_retract(point, plus if germ == minus else minus)

    failures = sphere_failures(Swapped(2), 2, 3)
    assert any(f.startswith("S(o, 3) from 1:") for f in failures)
    assert any(f.startswith("S(o, 3) from -1:") for f in failures)
