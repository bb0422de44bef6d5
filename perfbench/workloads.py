"""The benchmark's workloads: how each draws its inputs from the run's
RNG, runs one trial through the package's public functions, and checks
the trial's output against the oracles.  README.md says why the inputs
are drawn the way they are.
"""

from __future__ import annotations

import collections
import itertools
import json
import random
from fractions import Fraction as Q

import oracles

POOL_SIZE = 256  # pairs a tree round is drawn from


def load_package():
    """Import the modules a workload calls; the import is part of set-up."""
    import masures.cli
    import masures.heckepath
    import masures.kmcore
    import masures.models
    import masures.serialize

    return masures


class CampaignWorkload:
    def __init__(self, name, model, q, complexity, window, trace_rounds, round_size=None, levels=None):
        self.name = name
        self.model_kind = model
        self.q = q
        self.complexity = complexity
        self.window = window
        self.round_size = round_size
        self.levels = levels
        self.trace_rounds = trace_rounds
        self.roots = None

    def setup(self, pkg):
        """Model and root data, as a campaign builds them before its first
        trial; the root caches filled here serve every later trial."""
        if self.model_kind == "tree":
            self.model = pkg.models.TreeModel(q=self.q)
        else:
            self.model = pkg.models.SL3Model(q=self.q)
        rgs = self.model.rgs
        pkg.kmcore.positive_roots(rgs, self.model.root_height_bound)
        pkg.kmcore.roots_saturated(rgs, self.model.root_height_bound)
        pkg.kmcore.weyl_ball(rgs, self.model.weyl_length_bound)
        pkg.kmcore.weyl_ball_complete(rgs, self.model.weyl_length_bound)
        self.pkg = pkg

    def config(self, seed):
        return {
            "model": self.model_kind,
            "q": self.q,
            "trials": 1,
            "seed": seed,
            "complexity": self.complexity,
            "window_radius": self.window,
        }

    def _pair(self, campaign_seed):
        """The two apartments in oracle form, the model's first apartment,
        and the segment the campaign's retraction trial draws next."""
        rng = random.Random(self.pkg.cli.derive_seed(campaign_seed, 0))
        first = self.model.random_apartment(rng.getrandbits(48), rng.randrange(self.complexity + 1))
        second = self.model.random_apartment(rng.getrandbits(48), rng.randrange(self.complexity + 1))
        segment = self.pkg.cli._draw_segment(rng, self.model.rgs.dim, max(1, self.window // 4))
        return self._oracle_form(first), self._oracle_form(second), first, segment

    def _oracle_form(self, apartment):
        if self.model_kind == "tree":
            return tuple((end.prefix, end.repeat) for end in (apartment.minus, apartment.plus))
        return [
            [{e.val_ + i: c for i, c in enumerate(e.coeffs) if c} for e in row]
            for row in apartment.matrix
        ]

    def _hits(self, first, second, window):
        if self.model_kind == "tree":
            return oracles.tree_hits(first, second, window)
        return oracles.sl3_hits(self.q, first, second, window)

    def _candidates(self, rng):
        """Campaign seeds with their pairs and hits, drawn as campaigns draw
        them, less the SL3 pairs that README.md says are left out."""
        while True:
            seed = rng.getrandbits(48)
            first, second, handle, segment = self._pair(seed)
            if self.model_kind == "sl3" and oracles.crosses_vertex(self.roots, *segment):
                continue  # a retraction may turn there by two reflections at once
            hits = self._hits(first, second, self.window)
            if (self.model_kind == "sl3" and oracles.sl3_fills_window(hits, self.window)
                    and not oracles.sl3_same_apartment(self.q, first, second)):
                continue  # retried at window 12, where one pair takes minutes
            yield seed, first, second, handle, hits

    def make_round(self, rng):
        """With `levels`, the first pair drawn for each hit count in it;
        otherwise the middle pair of each of `round_size` equal groups of
        `POOL_SIZE` pairs sorted by hit count and extent."""
        if self.model_kind == "sl3" and self.roots is None:  # the benchmark's own work
            rgs = self.model.rgs
            self.roots = oracles.hecke_system([[2, -1], [-1, 2]], rgs.simple_roots, rgs.simple_coroots)
        candidates = self._candidates(rng)
        if self.levels:
            wanted = collections.Counter(self.levels)
            chosen = []
            while len(chosen) < len(self.levels):
                entry = next(candidates)
                if wanted[len(entry[4])]:
                    wanted[len(entry[4])] -= 1
                    chosen.append(entry)
        else:
            # by size of the sampled intersection, then its two ends
            pool = sorted(itertools.islice(candidates, POOL_SIZE),
                          key=lambda e: (len(e[4]), e[4][-1:], e[4][:1], e[0]))
            group = POOL_SIZE // self.round_size
            chosen = [pool[k * group + group // 2] for k in range(self.round_size)]
        rng.shuffle(chosen)
        return [
            {"seed": seed, "first": first, "second": second, "handle": handle,
             "segment_seed": rng.getrandbits(32)}
            for seed, first, second, handle, _ in chosen
        ]

    def run_trial(self, pkg, trial):
        report = pkg.cli.run_campaign(self.config(trial["seed"]))
        return pkg.serialize.dumps(report)

    def check(self, pkg, trial, text):
        """Problems with one trial's serialized report (empty when right)."""
        doc = json.loads(text)
        problems = []
        summary = doc["summary"]
        record = doc["trials"][0]
        window = record["window_radius"]
        retries = summary["window_retries"]
        if (summary["pass"], summary["fail"], summary["inconclusive"]) != (1, 0, 0):
            problems.append(f"summary {summary}")
        if record["verdict"] != "PASS" or record["ma2"]["verdict"] != "PASS":
            problems.append(f"verdict {record['verdict']}")
        if window != self.window << retries:
            problems.append(f"window {window} after {retries} retries")
        certificates = {c["name"]: c["value"] for c in record["ma2"]["certificates"]}
        expected = self._hits(trial["first"], trial["second"], window)
        if certificates.get("hits") != len(expected):
            problems.append(f"hits {certificates.get('hits')} but the oracle finds {len(expected)}")
        if self.model_kind == "tree" and not oracles.contiguous(expected):
            problems.append(f"intersection {expected} not contiguous")
        retraction = record["retraction"]
        if (retraction["separation"], retraction["growth"]) != ("PASS", "PASS"):
            problems.append(f"retraction {retraction}")
        if self.model_kind == "tree":
            problems += self._check_tree_retraction(pkg, trial)
        return problems

    def _check_tree_retraction(self, pkg, trial):
        """Knot values of both retractions of a segment of the first
        apartment against graph geodesics."""
        rng = random.Random(trial["segment_seed"])
        span = self.window // 2
        while True:
            a = Q(rng.randrange(-2 * span, 2 * span + 1), rng.choice((1, 2, 3, 4)))
            b = Q(rng.randrange(-2 * span, 2 * span + 1), rng.choice((1, 2, 3, 4)))
            if a != b:
                break
        problems = []
        rgs = self.model.rgs
        for sign, germ in ((-1, pkg.apartment.minus_infinity(rgs)), (1, pkg.apartment.plus_infinity(rgs))):
            path = pkg.models.retract_segment(self.model, trial["handle"], (a,), (b,), germ, 1)
            for t, (value,) in zip(path.times, path.points):
                expected = oracles.tree_retract_coord(trial["first"], a + t * (b - a), sign)
                if value != expected:
                    problems.append(f"retraction knot {t}: {value} != {expected}")
        return problems


HECKE_SYSTEMS = (
    # A2, B2, G2: Cartan matrix, saturation height, Weyl length bound
    ([[2, -1], [-1, 2]], 2, 3),
    ([[2, -1], [-2, 2]], 3, 4),
    ([[2, -1], [-3, 2]], 5, 6),
)


class HeckeWorkload:
    name = "hecke-growth"
    trace_rounds = 40

    def setup(self, pkg):
        self.systems = []
        for matrix, height, length in HECKE_SYSTEMS:
            rgs = pkg.kmcore.default_realization(pkg.kmcore.validate_matrix(matrix))
            pkg.kmcore.positive_roots(rgs, height)
            pkg.kmcore.weyl_ball(rgs, length)
            pkg.kmcore.weyl_ball_complete(rgs, length)
            self.systems.append((rgs, height, length))
        self.oracle_systems = None

    def make_round(self, rng):
        """Each system once as a folded path and once as a mutant."""
        if self.oracle_systems is None:  # the benchmark's own work, not set-up
            self.oracle_systems = [
                oracles.hecke_system(matrix, rgs.simple_roots, rgs.simple_coroots)
                for (matrix, _, _), (rgs, _, _) in zip(HECKE_SYSTEMS, self.systems)
            ]
        trials = []
        for index in range(len(self.systems)):
            for mutant in (False, True):
                while True:
                    a = tuple(Q(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(2))
                    b = tuple(Q(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(2))
                    # a wall crossed upward leaves a mutant a fold to plant
                    if a != b and oracles.upward_crossings(self.oracle_systems[index], a, b):
                        break
                trials.append({"system": index, "mutant": mutant, "a": a, "b": b,
                               "seed": rng.getrandbits(32)})
        return trials

    def run_trial(self, pkg, trial):
        rgs, height, length = self.systems[trial["system"]]
        hp = pkg.heckepath
        if not trial["mutant"]:
            path = hp.random_folded_path(rgs, trial["seed"], trial["a"], trial["b"], height)
            return path, None, hp.verify_growth(rgs, path, height, length)
        # a scan whose folds steer the tail off every upward crossing has
        # nothing to plant; the next seed folds differently
        for seed in range(trial["seed"], trial["seed"] + 64):
            out = hp.mutated_folded_path(rgs, seed, trial["a"], trial["b"], height)
            if out is not None:
                break
        else:
            raise RuntimeError("no seed planted a mutant")
        path, planted = out
        return path, planted, hp.verify_growth(rgs, path, height, length)

    def check(self, pkg, trial, output):
        path, planted, report = output
        system = self.oracle_systems[trial["system"]]
        if not trial["mutant"]:
            problems = oracles.hecke_recheck(system, path.times, path.points)
            if report.verdict != "PASS":
                problems.append(f"folded path verdict {report.verdict}")
            return problems
        problems = []
        flagged = {bp.time for bp in report.breakpoints if bp.status == "illegal"}
        if report.verdict != "FAIL" or planted not in flagged:
            problems.append(f"mutant planted at {planted}: verdict {report.verdict}, illegal at {sorted(flagged)}")
        if planted not in oracles.illegal_turns(system, path.times, path.points):
            problems.append(f"oracle finds the turn at {planted} legal")
        return problems


# The SL3 campaign's hit counts at window 6: about the 4.5%, 13.6%, ...,
# 95.5% quantiles of 2721 drawn pairs of distinct apartments, plus one pair
# of equal apartments (all 127 points).  Each is common enough that a round
# finds it within a few hundred draws.
SL3_LEVELS = (21, 35, 45, 57, 57, 70, 70, 82, 82, 93, 103, 127)

WORKLOADS = {
    w.name: w
    for w in (
        # the README's tree campaign: q = 2, complexity 8, window 16
        CampaignWorkload("tree-campaign", "tree", 2, 8, 16, trace_rounds=2, round_size=32),
        # the default SL3 campaign: q = 2, precision 40, complexity 2, window 6
        CampaignWorkload("sl3-campaign", "sl3", 2, 2, 6, trace_rounds=1, levels=SL3_LEVELS),
        # the same over GF(4), the one field whose ops go through base-p
        # digits; run by hand, BENCHMARK.json leaves it out (see README.md)
        CampaignWorkload("sl3-gf4-campaign", "sl3", 4, 2, 6, trace_rounds=1, levels=SL3_LEVELS),
        HeckeWorkload(),
    )
}
