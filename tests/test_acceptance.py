"""Acceptance gates: the pinned campaigns this package promises to pass.

Each test is one gate with fixed seeds, fixed counts, and a runtime
budget, and prints a single summary line straight to the terminal so the
eight verdicts are visible in a plain pytest run.  Oracles used here are
self-contained rewrites, independent of the library internals they judge.
"""

import json
import random
import sys
import tempfile
import time
from fractions import Fraction as Q

from masures import linalg, serialize
from masures.apartment import HalfApartment, minus_infinity, plus_infinity
from masures.cli import derive_seed, main, run_campaign
from masures.errors import PrecisionExhausted, WindowTooSmall
from masures.heckepath import (
    FAIL,
    PASS,
    mutated_folded_path,
    random_folded_path,
    verify_growth,
)
from masures.kmcore import (
    EQ,
    LE,
    default_realization,
    dominance_compare,
    enumerate_real_roots,
    simple_root,
    validate_matrix,
    weyl_ball,
    weyl_simple,
)
from masures.models import (
    SL3Model,
    TreeModel,
    check_MA2,
    intersect_with_standard,
    retract_segment,
)
from masures.models import laurent as L
from masures.models.sl3 import SL3Apartment, _identity

A1_M = [[2]]
A2_M = [[2, -1], [-1, 2]]
B2_M = [[2, -1], [-2, 2]]
G2_M = [[2, -1], [-3, 2]]
AFF_M = [[2, -2], [-2, 2]]


GATE_LINES: list[str] = []


def gate(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    GATE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, detail


def descent_segment(rgs):
    top = rgs.zero()
    for coroot in rgs.simple_coroots:
        top = linalg.add(top, coroot)
    return top, tuple(-c for c in top)


# -- gate 1 ------------------------------------------------------------------------


def random_km_rows(rng):
    n = rng.randrange(1, 5)
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                rows[i][j] = -rng.randrange(1, 4)
                rows[j][i] = -rng.randrange(1, 4)
    return rows


def test_acceptance_1_reflection_algebra():
    start = time.monotonic()
    rng = random.Random(101)
    offenses = []
    for _ in range(100):
        rows = random_km_rows(rng)
        rgs = default_realization(validate_matrix(rows))
        n = len(rows)
        for i in range(n):
            r = weyl_simple(rgs, i)
            if not r.compose(r).is_identity():
                offenses.append(("involution", rows, i))
            for j in range(n):
                # alpha_j o r_i = alpha_j - a_ij alpha_i, checked on every
                # basis vector at once by comparing coordinate tuples
                expected = linalg.sub(
                    rgs.simple_roots[j], linalg.scale(rows[i][j], rgs.simple_roots[i])
                )
                if r.act_on_form(rgs.simple_roots[j]) != expected:
                    offenses.append(("form law", rows, i, j))
    elapsed = time.monotonic() - start
    gate(
        1,
        not offenses and elapsed < 10,
        f"reflection involution and form law exact on 100 random matrices "
        f"in {elapsed:.2f}s (budget 10s)" + (f"; first offense {offenses[0]}" if offenses else ""),
    )


# -- gate 2 ------------------------------------------------------------------------


def closure_roots(rows, cap=None):
    """Naive orbit closure on root coordinates, no height pruning (a cap
    only truncates the infinite affine system)."""
    n = len(rows)
    seen = {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for c in frontier:
            for i in range(n):
                out = list(c)
                out[i] -= sum(c[j] * rows[i][j] for j in range(n))
                t = tuple(out)
                if cap is not None and sum(abs(x) for x in t) > cap:
                    continue
                if t not in seen:
                    seen.add(t)
                    fresh.append(t)
        frontier = fresh
    return seen | {tuple(-x for x in c) for c in seen}


def brute_ball(rgs, bound):
    """Weyl ball as raw matrix products from the reflection formula."""
    def reflection(i):
        cols = []
        for k in range(rgs.dim):
            e = linalg.basis_vector(rgs.dim, k)
            cols.append(linalg.sub(e, linalg.scale(rgs.root_value(i, e), rgs.simple_coroots[i])))
        return tuple(zip(*cols))

    gens = [reflection(i) for i in range(rgs.size)]
    seen = {linalg.identity(rgs.dim)}
    frontier = list(seen)
    for _ in range(bound):
        fresh = []
        for m in frontier:
            for g in gens:
                p = linalg.matmul(g, m)
                if p not in seen:
                    seen.add(p)
                    fresh.append(p)
        frontier = fresh
    return seen


def test_acceptance_2_roots_and_weyl_vs_oracle():
    start = time.monotonic()
    offenses = []

    for rows, saturation_height, expected_count in (
        (A2_M, 2, 6),
        (B2_M, 3, 8),
        (G2_M, 5, 12),
    ):
        rgs = default_realization(validate_matrix(rows))
        enumerated = {r.coords for r in enumerate_real_roots(rgs, saturation_height)}
        oracle = closure_roots(rows)
        if enumerated != oracle or len(enumerated) != expected_count:
            offenses.append(("roots", rows, len(enumerated), len(oracle)))

    a2 = default_realization(validate_matrix(A2_M))
    ball = weyl_ball(a2, 3)
    brute = brute_ball(a2, 3)
    if len(ball) != 6 or {w.matrix for w in ball} != brute:
        offenses.append(("A2 Weyl group", len(ball), len(brute)))

    aff = default_realization(validate_matrix(AFF_M))
    enumerated = {r.coords for r in enumerate_real_roots(aff, 21)}
    if enumerated != closure_roots(AFF_M, cap=21):
        offenses.append(("affine roots vs oracle",))
    by_height = {}
    for r in enumerate_real_roots(aff, 21):
        if r.is_positive:
            by_height.setdefault(r.height, []).append(r)
    if sorted(by_height) != list(range(1, 22, 2)) or any(
        len(v) != 2 for v in by_height.values()
    ):
        offenses.append(("affine positive root heights", sorted(by_height)))
    for length in range(13):
        ball = weyl_ball(aff, length)
        if len(ball) != 2 * length + 1:
            offenses.append(("affine ball size", length, len(ball)))
        if {w.matrix for w in ball} != brute_ball(aff, length):
            offenses.append(("affine ball contents", length))

    elapsed = time.monotonic() - start
    gate(
        2,
        not offenses and elapsed < 30,
        f"A2/B2/G2 give 6/8/12 roots, |W(A2)| = 6, affine heights and balls "
        f"match the closure oracle in {elapsed:.2f}s (budget 30s)"
        + (f"; first offense {offenses[0]}" if offenses else ""),
    )


# -- gate 3 ------------------------------------------------------------------------


def test_acceptance_3_hecke_growth_campaign():
    start = time.monotonic()
    systems = (
        (default_realization(validate_matrix(A1_M)), 1, 2, 3334),
        (default_realization(validate_matrix(A2_M)), 2, 3, 3333),
        (default_realization(validate_matrix(B2_M)), 3, 4, 3333),
    )
    offenses = []
    passes = mutants = 0

    for rgs, height, length, quota in systems:
        a, b = descent_segment(rgs)
        for seed in range(quota):
            path = random_folded_path(rgs, seed, a, b, height)
            report = verify_growth(rgs, path, height, length)
            comparison = dominance_compare(
                rgs, path.derivative_after(Q(0)), path.displacement()
            )
            unfolded = len(path.times) == 2
            if report.verdict != PASS:
                offenses.append(("not PASS", rgs.matrix.rows(), seed, report.verdict))
            elif comparison not in (EQ, LE):
                offenses.append(("endpoint inequality", rgs.matrix.rows(), seed))
            elif (comparison == EQ) != unfolded:
                offenses.append(("strictness", rgs.matrix.rows(), seed, comparison))
            else:
                passes += 1
            if len(offenses) > 3:
                break

        produced = 0
        seed = 0
        while produced < quota and seed < 50 * quota:
            out = mutated_folded_path(rgs, seed, a, b, height)
            seed += 1
            if out is None:
                continue
            produced += 1
            path, planted = out
            report = verify_growth(rgs, path, height, length)
            illegal_times = {
                bp.time for bp in report.breakpoints if bp.status == "illegal"
            }
            if report.verdict != FAIL:
                offenses.append(("mutant not FAIL", rgs.matrix.rows(), seed - 1))
            elif report.first_offense is None or planted not in illegal_times:
                offenses.append(("offense not identified", rgs.matrix.rows(), seed - 1))
            else:
                mutants += 1
            if len(offenses) > 3:
                break

    elapsed = time.monotonic() - start
    gate(
        3,
        not offenses and passes == 10000 and mutants == 10000 and elapsed < 120,
        f"{passes}/10000 folded paths PASS with the endpoint inequality strict "
        f"exactly when folded, {mutants}/10000 mutants FAIL at the planted "
        f"breakpoint, in {elapsed:.1f}s (budget 120s)"
        + (f"; first offense {offenses[0]}" if offenses else ""),
    )


# -- gate 4 ------------------------------------------------------------------------


def test_acceptance_4_tree_theorem_campaign():
    start = time.monotonic()
    model = TreeModel(q=2)
    offenses = []
    retried_pairs = 0
    for index in range(1000):
        rng = random.Random(derive_seed(104, index))
        first = model.random_apartment(rng.getrandbits(48), rng.randrange(9))
        second = model.random_apartment(rng.getrandbits(48), rng.randrange(9))
        window, report, retried = 16, None, False
        for _ in range(4):
            try:
                report = check_MA2(model, first, second, window)
                break
            except WindowTooSmall:
                retried = True
                window *= 2
        retried_pairs += retried
        if report is None or report.verdict != PASS:
            offenses.append((index, None if report is None else report.verdict))
            if len(offenses) > 3:
                break
    elapsed = time.monotonic() - start
    gate(
        4,
        not offenses and retried_pairs < 10 and elapsed < 120,
        f"1000 tree apartment pairs all PASS at window 16, "
        f"{retried_pairs} enlarged (<1%), in {elapsed:.1f}s (budget 120s)"
        + (f"; first offense {offenses[0]}" if offenses else ""),
    )


# -- gate 5 ------------------------------------------------------------------------

ANCHOR_DEPTH = 64


def word_distance(u, w):
    # tree geodesics climb to the longest common prefix
    lcp = 0
    while lcp < min(len(u), len(w)) and u[lcp] == w[lcp]:
        lcp += 1
    return len(u) + len(w) - 2 * lcp


def oracle_vertex_image(word, germ_sign):
    if germ_sign < 0:
        anchor = (0,) + (1,) * (ANCHOR_DEPTH - 1)
        return -ANCHOR_DEPTH + word_distance(anchor, word)
    anchor = (1,) * ANCHOR_DEPTH
    return ANCHOR_DEPTH - word_distance(anchor, word)


def oracle_point_image(point, germ_sign):
    v0 = oracle_vertex_image(point.anchor, germ_sign)
    if point.is_vertex:
        return (Q(v0),)
    v1 = oracle_vertex_image(point.anchor + (point.letter,), germ_sign)
    return (v0 + point.s * (v1 - v0),)


def test_acceptance_5_tree_retraction_vs_graph_oracle():
    start = time.monotonic()
    model = TreeModel(q=2)
    rgs = model.rgs
    offenses = []
    params = [Q(k, 99) for k in range(100)]
    for index in range(500):
        rng = random.Random(derive_seed(105, index))
        apartment = model.random_apartment(rng.getrandbits(48), rng.randrange(9))
        while True:
            a = (Q(rng.randrange(-32, 33), rng.choice((1, 2, 3, 4))),)
            b = (Q(rng.randrange(-32, 33), rng.choice((1, 2, 3, 4))),)
            if a != b:
                break
        germ_sign = -1 if index % 2 else 1
        germ = minus_infinity(rgs) if germ_sign < 0 else plus_infinity(rgs)
        path = retract_segment(model, apartment, a, b, germ, 1)
        for t in params:
            x = (a[0] + t * (b[0] - a[0]),)
            expected = oracle_point_image(model.chart(apartment, x), germ_sign)
            if path.value(t) != expected:
                offenses.append((index, t, path.value(t), expected))
                break
        if len(offenses) > 3:
            break
    elapsed = time.monotonic() - start
    gate(
        5,
        not offenses and elapsed < 60,
        f"500 tree segments, both germs, agree with the graph-geodesic "
        f"oracle at 100 parameters each in {elapsed:.1f}s (budget 60s)"
        + (f"; first offense {offenses[0]}" if offenses else ""),
    )


# -- gate 6 ------------------------------------------------------------------------


def test_acceptance_6_sl3_suite():
    start = time.monotonic()
    model = SL3Model(q=2)
    alpha1 = simple_root(model.rgs, 0)
    offenses = []
    precision_failures = 0

    for k in (0, 1, 2):
        frame = [list(row) for row in _identity(model.field)]
        frame[0][1] = L.monomial(model.field, k)
        apartment = SL3Apartment(tuple(tuple(r) for r in frame))
        try:
            _, fitted, exact = intersect_with_standard(model, apartment, 6)
            if set(fitted.halves) != {HalfApartment(alpha1, k)} or not exact:
                offenses.append(("fixator fit", k, fitted.halves))
        except PrecisionExhausted:
            precision_failures += 1

    for index in range(200):
        rng = random.Random(derive_seed(106, index))
        first = model.random_apartment(rng.getrandbits(48), rng.randrange(3))
        second = model.random_apartment(rng.getrandbits(48), rng.randrange(3))
        window, report = 6, None
        try:
            for _ in range(4):
                try:
                    report = check_MA2(model, first, second, window)
                    break
                except WindowTooSmall:
                    window *= 2
        except PrecisionExhausted:
            precision_failures += 1
            continue
        if report is None or report.verdict != PASS:
            offenses.append((index, None if report is None else report.verdict))
            if len(offenses) > 3:
                break

    elapsed = time.monotonic() - start
    gate(
        6,
        not offenses and precision_failures == 0 and elapsed < 600,
        f"200 lattice apartment pairs all PASS at window 6, unipotent "
        f"frames fit exactly D(alpha,k) for k in 0..2, "
        f"{precision_failures} precision failures, in {elapsed:.1f}s (budget 600s)"
        + (f"; first offense {offenses[0]}" if offenses else ""),
    )


# -- gate 7 ------------------------------------------------------------------------


def test_acceptance_7_retraction_pair_separation():
    start = time.monotonic()
    offenses = []
    tallies = {}
    cases = (
        ("tree", TreeModel(q=2), 8, (1, 2, 3, 4), 8, 1, 5000),
        ("sl3", SL3Model(q=2), 2, (1, 2), 4, 2, 2500),
    )
    for name, model, cap, denoms, span, height, draw_cap in cases:
        rgs = model.rgs
        std = model.standard_apartment()
        coincide_seen = leaving_seen = 0
        index = 0
        while (coincide_seen < 200 or leaving_seen < 200) and index < draw_cap:
            rng = random.Random(derive_seed(107, index))
            index += 1
            apartment = model.random_apartment(rng.getrandbits(48), rng.randrange(cap + 1))
            while True:
                a = tuple(Q(rng.randrange(-span, span + 1), rng.choice(denoms)) for _ in range(rgs.dim))
                b = tuple(Q(rng.randrange(-span, span + 1), rng.choice(denoms)) for _ in range(rgs.dim))
                if a != b:
                    break
            minus = retract_segment(model, apartment, a, b, minus_infinity(rgs), height)
            plus = retract_segment(model, apartment, a, b, plus_infinity(rgs), height)
            coincide = (minus.times, minus.points) == (plus.times, plus.points)
            samples = list(minus.times)
            samples += [(s + t) / 2 for s, t in zip(minus.times, minus.times[1:])]
            in_standard = all(
                model.apartment_coords(
                    std,
                    model.chart(apartment, tuple(ai + t * (bi - ai) for ai, bi in zip(a, b))),
                )
                is not None
                for t in samples
            )
            if coincide and coincide_seen < 200:
                coincide_seen += 1
                if not in_standard:
                    offenses.append((name, "coincide off the standard apartment", index - 1))
            if not in_standard and leaving_seen < 200:
                leaving_seen += 1
                if coincide:
                    offenses.append((name, "leaving but retractions equal", index - 1))
            if len(offenses) > 3:
                break
        tallies[name] = (coincide_seen, leaving_seen)
        if coincide_seen < 200 or leaving_seen < 200:
            offenses.append((name, "quota unfilled", coincide_seen, leaving_seen))
    elapsed = time.monotonic() - start
    gate(
        7,
        not offenses and elapsed < 120,
        f"per model 200 coinciding retraction pairs stay in the standard "
        f"apartment and 200 leaving segments separate the germs "
        f"(tree {tallies.get('tree')}, sl3 {tallies.get('sl3')}) in {elapsed:.1f}s "
        f"(budget 120s)" + (f"; first offense {offenses[0]}" if offenses else ""),
    )


# -- gate 8 ------------------------------------------------------------------------


def test_acceptance_8_campaign_determinism():
    offenses = []
    for config in (
        {"model": "tree", "trials": 25, "seed": 814},
        {"model": "sl3", "trials": 2, "seed": 815},
    ):
        first = serialize.dumps(run_campaign(dict(config)))
        second = serialize.dumps(run_campaign(dict(config)))
        if first != second:
            offenses.append(("run_campaign", config["model"]))

    with tempfile.TemporaryDirectory() as tmp:
        report_path = f"{tmp}/report.json"
        config_path = f"{tmp}/config.json"
        with open(config_path, "w") as f:
            json.dump(
                {"model": "tree", "trials": 10, "seed": 816, "output": report_path}, f
            )
        if main(["verify-theorem", "--config", config_path]) != 0:
            offenses.append(("cli exit",))
        with open(report_path, "rb") as f:
            first_bytes = f.read()
        if main(["verify-theorem", "--config", config_path]) != 0:
            offenses.append(("cli exit on re-run",))
        with open(report_path, "rb") as f:
            second_bytes = f.read()
        if first_bytes != second_bytes:
            offenses.append(("report file bytes",))

    gate(
        8,
        not offenses,
        "re-running tree and lattice campaigns reproduces the report JSON "
        "byte for byte" + (f"; first offense {offenses[0]}" if offenses else ""),
    )
