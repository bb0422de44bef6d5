"""Command-line interface.

Three command families: `km` wraps the root-system operations, `path` the
folded-path generator and verifier, and `verify-theorem` runs a seeded
campaign of apartment-intersection and retraction checks against one of
the bundled models, writing a JSON report.

Everything printed to stdout is a single JSON document (schemas under
masures/schemas/).  Exit codes: 0 success, 1 a verification failure, 2
usage or input errors, 3 only inconclusive results.  Campaigns derive one
RNG seed per trial from the config seed by hashing, so reports are
byte-identical across re-runs and trial order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from fractions import Fraction as Q

from . import serialize
from .apartment import minus_infinity, plus_infinity
from .errors import MasureError, MatrixValidationError, WindowTooSmall
from .heckepath import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    fold_tail,
    random_folded_path,
    verify_growth,
)
from .kmcore import (
    dominance_compare,
    enumerate_real_roots,
    roots_saturated,
    tits_membership,
    weyl_ball,
    weyl_ball_complete,
)
from .linalg import add as vadd
from .models import check_MA2, retract_segment
from .models.sl3 import SL3Model
from .models.tree import TreeModel

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_A2 = [[2, -1], [-1, 2]]


class _CliError(Exception):
    """Usage-level problem; its payload becomes the error object."""

    def __init__(self, type_: str, message: str):
        super().__init__(message)
        self.payload = {"type": type_, "message": message}


def _emit(obj) -> None:
    sys.stdout.write(serialize.dumps(obj))


def _emit_error(payload) -> None:
    sys.stdout.write(serialize.dumps({"error": payload}))


def _validation_payload(e: MatrixValidationError) -> dict:
    """The error object of a rejected matrix, with every violation."""
    return {
        "type": "MatrixValidationError",
        "message": str(e),
        "violations": [list(v) for v in e.violations],
    }


def _parse_rational(text: str) -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError) as e:
        raise _CliError("BadArgument", f"not a rational number: {text!r}") from e


def _parse_vector(text: str) -> tuple[Q, ...]:
    return tuple(_parse_rational(part.strip()) for part in text.split(","))


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise _CliError("FileError", f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise _CliError("ParseError", f"{path} is not valid JSON: {e}") from e


def _rgs_from_args(args) -> "RootGeneratingSystem":
    doc = _load_json(args.matrix) if args.matrix else {"matrix": _A2}
    try:
        return serialize.rgs_from_json(doc)
    except MatrixValidationError:
        raise
    except (MasureError, KeyError, TypeError, ValueError) as e:
        raise _CliError("BadMatrixFile", f"bad matrix document: {e}") from e


# -- km ------------------------------------------------------------------------


def _cmd_km_validate(args) -> int:
    try:
        matrix = _rgs_from_args(args).matrix
    except MatrixValidationError as e:
        _emit_error(_validation_payload(e))
        return EXIT_FAIL
    _emit({"valid": True, "size": matrix.size})
    return EXIT_OK


def _cmd_km_roots(args) -> int:
    rgs = _rgs_from_args(args)
    roots = enumerate_real_roots(rgs, args.height)
    _emit(
        {
            "height": args.height,
            "count": len(roots),
            "saturated": roots_saturated(rgs, args.height),
            "roots": [serialize.root_to_json(r) for r in roots],
        }
    )
    return EXIT_OK


def _cmd_km_weyl(args) -> int:
    rgs = _rgs_from_args(args)
    ball = weyl_ball(rgs, args.length)
    _emit(
        {
            "length": args.length,
            "count": len(ball),
            "complete": weyl_ball_complete(rgs, args.length),
            "elements": [serialize.weyl_to_json(w) for w in ball],
        }
    )
    return EXIT_OK


def _cmd_km_cone(args) -> int:
    rgs = _rgs_from_args(args)
    point = _parse_vector(args.point)
    location = tits_membership(rgs, point, step_bound=args.steps)
    _emit(
        {
            "point": serialize.vector_to_json(point),
            "steps": args.steps,
            "kind": location.kind,
            "side": location.side,
            "zero_set": sorted(location.zero_set),
        }
    )
    return EXIT_OK


def _cmd_km_dominance(args) -> int:
    rgs = _rgs_from_args(args)
    x = _parse_vector(args.x)
    y = _parse_vector(args.y)
    _emit(
        {
            "x": serialize.vector_to_json(x),
            "y": serialize.vector_to_json(y),
            "comparison": dominance_compare(rgs, x, y),
        }
    )
    return EXIT_OK


# -- path ----------------------------------------------------------------------


def _read_path_document(args) -> dict:
    if args.input:
        return _load_json(args.input)
    text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise _CliError("ParseError", f"stdin is not valid JSON: {e}") from e


def _path_document_parts(doc):
    try:
        rgs = serialize.rgs_from_json(doc)
        path = serialize.path_from_json(doc["path"])
    except (MasureError, KeyError, TypeError, ValueError) as e:
        raise _CliError("BadPathFile", f"bad path document: {e}") from e
    return rgs, path


def _cmd_path_verify(args) -> int:
    doc = _read_path_document(args)
    rgs, path = _path_document_parts(doc)
    height = args.height or doc.get("height_bound") or 4
    report = verify_growth(rgs, path, height, args.length)
    _emit(serialize.growth_report_to_json(report))
    if report.verdict == PASS:
        return EXIT_OK
    if report.verdict == FAIL:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def _cmd_path_fold(args) -> int:
    doc = _read_path_document(args)
    rgs, path = _path_document_parts(doc)
    height = args.height or doc.get("height_bound") or 4
    root = serialize.root_from_json(rgs, {"coords": list(_parse_vector(args.root))}, height)
    folded = fold_tail(
        rgs, path, _parse_rational(args.time), root, args.level,
        require_legal=not args.force,
    )
    out = {"matrix": rgs.matrix.rows(), "path": serialize.path_to_json(folded)}
    if "realization" in doc:
        out["realization"] = doc["realization"]
    out["height_bound"] = height
    _emit(out)
    return EXIT_OK


def _cmd_path_random(args) -> int:
    rgs = _rgs_from_args(args)
    if args.a and args.b:
        a, b = _parse_vector(args.a), _parse_vector(args.b)
    else:
        # descend from the sum of the coroots so crossings fold legally
        rho = rgs.zero()
        for coroot in rgs.simple_coroots:
            rho = vadd(rho, coroot)
        a = rho
        b = tuple(-c for c in rho)
    path = random_folded_path(rgs, args.seed, a, b, args.height)
    _emit(
        {
            "matrix": rgs.matrix.rows(),
            "path": serialize.path_to_json(path),
            "seed": args.seed,
            "height_bound": args.height,
        }
    )
    return EXIT_OK


# -- verify-theorem -------------------------------------------------------------


def derive_seed(seed: int, index: int) -> int:
    """Per-trial seed: first 8 bytes of sha256("{seed}:{index}")."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# least value of each integer config key, as in schemas/campaign_report.json
_CONFIG_MINIMUMS = {
    "trials": 0,
    "seed": None,
    "q": 2,
    "complexity": 0,
    "window_radius": 1,
    "height_bound": 1,
    "length_bound": 1,
}


def _fill_config(raw: dict):
    """The config with defaults filled in, and the model it describes."""
    if not isinstance(raw, dict):
        raise _CliError("BadConfig", "config must be a JSON object")
    config = dict(raw)
    kind = config.get("model")
    if kind not in ("tree", "sl3"):
        raise _CliError("BadConfig", "config needs model: 'tree' or 'sl3'")
    config.setdefault("q", 2)
    if kind == "sl3":
        config.setdefault("complexity", 2)
        config.setdefault("window_radius", 6)
    else:
        config.setdefault("complexity", 8)
        config.setdefault("window_radius", 16)
    for key in ("trials", "seed"):
        if key not in config:
            raise _CliError("BadConfig", f"config needs {key}")
    for key, least in _CONFIG_MINIMUMS.items():
        if key not in config:
            continue
        value = config[key]
        if type(value) is not int:
            raise _CliError("BadConfig", f"config {key} must be an integer, not {value!r}")
        if least is not None and value < least:
            raise _CliError("BadConfig", f"config {key} must be at least {least}, not {value}")
    model = (TreeModel if kind == "tree" else SL3Model)(q=config["q"])
    config.setdefault("height_bound", model.root_height_bound)
    config.setdefault("length_bound", model.weyl_length_bound)
    return config, model


def _draw_segment(rng: random.Random, dim: int, radius: int):
    while True:
        a = tuple(
            Q(rng.randrange(-2 * radius, 2 * radius + 1), rng.choice((1, 2, 3, 4)))
            for _ in range(dim)
        )
        b = tuple(
            Q(rng.randrange(-2 * radius, 2 * radius + 1), rng.choice((1, 2, 3, 4)))
            for _ in range(dim)
        )
        if a != b:
            return a, b


def _retraction_trial(model, rng: random.Random, apartment, config: dict) -> dict:
    radius = max(1, config["window_radius"] // 4)
    a, b = _draw_segment(rng, model.rgs.dim, radius)
    minus = retract_segment(model, apartment, a, b, minus_infinity(model.rgs), config["height_bound"])
    plus = retract_segment(model, apartment, a, b, plus_infinity(model.rgs), config["height_bound"])
    coincide = (minus.times, minus.points) == (plus.times, plus.points)
    separation = PASS
    if coincide:
        std = model.standard_apartment()
        samples = list(minus.times)
        samples += [(s + t) / 2 for s, t in zip(minus.times, minus.times[1:])]
        for t in samples:
            x = tuple(ai + t * (bi - ai) for ai, bi in zip(a, b))
            if model.apartment_coords(std, model.chart(apartment, x)) is None:
                separation = FAIL
                break
    growth = verify_growth(
        model.rgs, minus, config["height_bound"], config["length_bound"]
    ).verdict
    return {"germs_coincide": coincide, "separation": separation, "growth": growth}


def run_campaign(raw_config: dict) -> dict:
    """One full verify-theorem run; pure function of the config."""
    config, model = _fill_config(raw_config)
    trials = []
    counts = {"pass": 0, "fail": 0, "inconclusive": 0, "window_retries": 0}
    for index in range(config["trials"]):
        rng = random.Random(derive_seed(config["seed"], index))
        first = model.random_apartment(rng.getrandbits(48), rng.randrange(config["complexity"] + 1))
        second = model.random_apartment(rng.getrandbits(48), rng.randrange(config["complexity"] + 1))
        window = config["window_radius"]
        ma2 = None
        for attempt in range(3):
            try:
                ma2 = check_MA2(model, first, second, window)
                break
            except WindowTooSmall:
                counts["window_retries"] += 1
                window *= 2
        retraction = _retraction_trial(model, rng, first, config)
        if ma2 is None:
            verdict = INCONCLUSIVE
            ma2_json = {
                "verdict": INCONCLUSIVE,
                "trials": 1,
                "checks": [],
                "certificates": [],
            }
        else:
            ma2_json = serialize.verification_report_to_json(ma2)
            statuses = [ma2.verdict, retraction["separation"], retraction["growth"]]
            if FAIL in statuses:
                verdict = FAIL
            elif INCONCLUSIVE in statuses:
                verdict = INCONCLUSIVE
            else:
                verdict = PASS
        counts[verdict.lower()] += 1
        trials.append(
            {
                "index": index,
                "verdict": verdict,
                "window_radius": window,
                "ma2": ma2_json,
                "retraction": retraction,
            }
        )
    config_out = {
        k: config[k]
        for k in (
            "model",
            "q",
            "trials",
            "seed",
            "window_radius",
            "complexity",
            "height_bound",
            "length_bound",
        )
        if k in config
    }
    return {
        "config": config_out,
        "summary": counts,
        "trials": trials,
    }


def _resolve_config_path(name: str) -> str:
    if os.path.exists(name):
        return name
    base = os.environ.get("MASURES_CONFIG_DIR")
    if base and not os.path.isabs(name):
        candidate = os.path.join(base, name)
        if os.path.exists(candidate):
            return candidate
    raise _CliError("FileError", f"config file not found: {name}")


def _cmd_verify_theorem(args) -> int:
    raw = _load_json(_resolve_config_path(args.config))
    report = run_campaign(raw)
    output = raw.get("output")
    if output:
        with open(output, "w") as f:
            f.write(serialize.dumps(report))
    summary = dict(report["summary"])
    if output:
        summary["output"] = output
    _emit(summary)
    if report["summary"]["fail"]:
        return EXIT_FAIL
    if report["summary"]["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# -- wiring ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="masures")
    sub = parser.add_subparsers(dest="command", required=True)

    km = sub.add_parser("km", help="root system operations")
    km_sub = km.add_subparsers(dest="subcommand", required=True)

    p = km_sub.add_parser("validate")
    p.add_argument("--matrix", required=True)
    p.set_defaults(run=_cmd_km_validate)

    p = km_sub.add_parser("roots")
    p.add_argument("--matrix")
    p.add_argument("--height", type=int, required=True)
    p.set_defaults(run=_cmd_km_roots)

    p = km_sub.add_parser("weyl")
    p.add_argument("--matrix")
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(run=_cmd_km_weyl)

    p = km_sub.add_parser("cone")
    p.add_argument("--matrix")
    p.add_argument("--point", required=True)
    p.add_argument("--steps", type=int, default=200)
    p.set_defaults(run=_cmd_km_cone)

    p = km_sub.add_parser("dominance")
    p.add_argument("--matrix")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(run=_cmd_km_dominance)

    path = sub.add_parser("path", help="folded paths")
    path_sub = path.add_subparsers(dest="subcommand", required=True)

    p = path_sub.add_parser("verify")
    p.add_argument("--input")
    p.add_argument("--height", type=int)
    p.add_argument("--length", type=int, default=8)
    p.set_defaults(run=_cmd_path_verify)

    p = path_sub.add_parser("fold")
    p.add_argument("--input")
    p.add_argument("--time", required=True)
    p.add_argument("--root", required=True, help="root coordinates, comma separated")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--height", type=int)
    p.add_argument("--force", action="store_true", help="fold even against the legality rule")
    p.set_defaults(run=_cmd_path_fold)

    p = path_sub.add_parser("random")
    p.add_argument("--matrix")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--height", type=int, default=4)
    p.set_defaults(run=_cmd_path_random)

    p = sub.add_parser("verify-theorem", help="run a verification campaign")
    p.add_argument("--config", required=True)
    p.set_defaults(run=_cmd_verify_theorem)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return args.run(args)
    except _CliError as e:
        _emit_error(e.payload)
        return EXIT_USAGE
    except MatrixValidationError as e:
        _emit_error(_validation_payload(e))
        return EXIT_USAGE
    except MasureError as e:
        _emit_error({"type": e.__class__.__name__, "message": str(e)})
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
