"""Mutation check of the SL3 readings, the tree's closed-form retraction
and the enclosed-set canonicalization.

    python3 tools/mutants.py

Copies `src/` and `tests/` into a temporary directory and, for each
one-line mutation below, applies it to the copy by exact string
replacement, runs the test file the mutation names with `-x -q` there
and restores the file.  A mutation whose target text is missing is an
error.  Prints each mutant with its outcome and the survivors; exits 1
if any mutant survives (its tests pass), 0 when every mutant is caught.
Nothing in the checkout is written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SL3 = os.path.join("src", "masures", "models", "sl3.py")
TREE = os.path.join("src", "masures", "models", "tree.py")
FM = os.path.join("src", "masures", "fourier_motzkin.py")
APARTMENT = os.path.join("src", "masures", "apartment.py")
SL3_TESTS = os.path.join("tests", "test_models_sl3.py")

# (name, file, text, replacement, test file); each text must occur exactly once
MUTANTS = [
    ("_coweight: lcm -> max", SL3,
     "s = math.lcm(a.denominator, b.denominator)",
     "s = max(a.denominator, b.denominator)", SL3_TESTS),
    ("_diagonal_exponents: unscaled det_val", SL3,
     "scale * det_val - sum(lam)",
     "det_val - sum(lam)", SL3_TESTS),
    ("_membership: d[1] - d[0] -> d[0] - d[1]", SL3,
     "Q(d[1] - d[0], s)",
     "Q(d[0] - d[1], s)", SL3_TESTS),
    ("_diagonal_exponents: row minima -> maxima", SL3,
     "d = [min(scale * v - e for v, e in zip(row, lam)) for row in vals]",
     "d = [max(scale * v - e for v, e in zip(row, lam)) for row in vals]", SL3_TESTS),
    ("_pivots: unscaled adjugate valuations", SL3,
     "top = min(scale * g._adj_vals[c][r2] - (total - lam[c]) for c in range(3))",
     "top = min(g._adj_vals[c][r2] - (total - lam[c]) for c in range(3))", SL3_TESTS),
    ("retract_path: knot times without their sign", TREE,
     "(d * span, (sign * (n - coords[0]) * d, v * span))",
     "(d * span, ((n - coords[0]) * d, v * span))",
     os.path.join("tests", "test_models_tree.py")),
    ("_eliminate: strict rows at zero hold", FM,
     "if row[-1] < 0 or (strict and row[-1] == 0):",
     "if row[-1] < 0:",
     os.path.join("tests", "test_linalg.py")),
    ("complement: level kept", APARTMENT,
     "return HalfApartment(self.root.negated(), -self.level, not self.strict)",
     "return HalfApartment(self.root.negated(), self.level, not self.strict)",
     os.path.join("tests", "test_apartment.py")),
]


def run_tests(workdir: str, tests: str) -> bool:
    """Whether the test file `tests` passes in the copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", tests, "-x", "-q", "-p", "no:cacheprovider"],
        cwd=workdir, env=env, capture_output=True, text=True, check=False,
    )
    return done.returncode == 0


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as workdir:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(workdir, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name, path, text, replacement, tests in MUTANTS:
            target = os.path.join(workdir, path)
            with open(target) as f:
                original = f.read()
            if original.count(text) != 1:
                print(f"error: {name}: target text occurs {original.count(text)} times in {path}")
                return 2
            with open(target, "w") as f:
                f.write(original.replace(text, replacement))
            try:
                survived = run_tests(workdir, tests)
            finally:
                with open(target, "w") as f:
                    f.write(original)
            print(f"{'SURVIVED' if survived else 'caught  '}  {name}", flush=True)
            if survived:
                survivors.append(name)
    if survivors:
        print("survivors: " + ", ".join(survivors))
        return 1
    print(f"all {len(MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
