"""End-to-end command tests, driving main() in process.

Every command prints one JSON document, so each case parses stdout and
checks it against the bundled schema alongside the exit code.
"""

import io
import json
from fractions import Fraction as Q
from importlib import resources

import jsonschema
import pytest
from referencing import Registry, Resource

from masures import serialize
from masures.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    derive_seed,
    main,
    run_campaign,
)
from masures.heckepath import PLPath, fold_tail
from masures.kmcore import default_realization, positive_roots, validate_matrix

AFFINE = [[2, -2], [-2, 2]]


def _registry():
    contents = []
    for entry in resources.files("masures.schemas").iterdir():
        if entry.name.endswith(".json"):
            contents.append(json.loads(entry.read_text()))
    return Registry().with_resources(
        (s["$id"], Resource.from_contents(s)) for s in contents
    )


REGISTRY = _registry()


def schema(name):
    return json.loads(resources.files("masures.schemas").joinpath(name).read_text())


def validate(doc, name):
    jsonschema.Draft202012Validator(schema(name), registry=REGISTRY).validate(doc)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestKm:
    def test_validate_ok(self, capsys, tmp_path):
        f = write_json(tmp_path, "m.json", {"matrix": [[2, -1], [-1, 2]]})
        code, doc = run(capsys, ["km", "validate", "--matrix", f])
        assert code == EXIT_OK
        assert doc == {"size": 2, "valid": True}
        validate(doc, "validate.json")

    def test_validate_rejects_with_violations(self, capsys, tmp_path):
        f = write_json(tmp_path, "m.json", {"matrix": [[2, 1], [0, 2]]})
        code, doc = run(capsys, ["km", "validate", "--matrix", f])
        assert code == EXIT_FAIL
        kinds = {v[0] for v in doc["error"]["violations"]}
        assert kinds == {"PositiveOffDiagonal", "AsymmetricZero"}
        validate(doc, "error.json")

    def test_validate_reports_non_integer_entries(self, capsys, tmp_path):
        f = write_json(tmp_path, "m.json", {"matrix": [[2, True], [1.5, 2]]})
        code, doc = run(capsys, ["km", "validate", "--matrix", f])
        assert code == EXIT_FAIL
        assert doc["error"] == {
            "type": "MatrixValidationError",
            "message": "NotInteger:0:1; NotInteger:1:0",
            "violations": [["NotInteger", 0, 1], ["NotInteger", 1, 0]],
        }
        validate(doc, "error.json")

    @pytest.mark.parametrize("document", [{"matrix": [1, 2]}, {"matrx": [[2]]}])
    def test_validate_malformed_document_is_a_usage_error(self, capsys, tmp_path, document):
        f = write_json(tmp_path, "m.json", document)
        code, doc = run(capsys, ["km", "validate", "--matrix", f])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "BadMatrixFile"
        validate(doc, "error.json")

    def test_rejected_matrix_elsewhere_is_a_usage_error(self, capsys, tmp_path):
        f = write_json(tmp_path, "m.json", {"matrix": [[2, 1], [0, 2]]})
        code, doc = run(capsys, ["km", "roots", "--matrix", f, "--height", "2"])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "MatrixValidationError"
        assert doc["error"]["violations"] == [["PositiveOffDiagonal", 0, 1], ["AsymmetricZero", 0, 1]]
        validate(doc, "error.json")

    def test_missing_file_is_a_usage_error(self, capsys):
        code, doc = run(capsys, ["km", "validate", "--matrix", "/no/such/file.json"])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "FileError"
        validate(doc, "error.json")

    def test_roots_default_matrix(self, capsys):
        code, doc = run(capsys, ["km", "roots", "--height", "3"])
        assert code == EXIT_OK
        assert doc["count"] == 6
        assert doc["saturated"] is True
        validate(doc, "roots.json")

    def test_weyl_ball(self, capsys):
        code, doc = run(capsys, ["km", "weyl", "--length", "3"])
        assert code == EXIT_OK
        assert doc["count"] == 6
        assert doc["complete"] is True
        validate(doc, "weyl.json")

    def test_cone_membership(self, capsys, tmp_path):
        f = write_json(tmp_path, "m.json", {"matrix": AFFINE})
        code, doc = run(
            capsys, ["km", "cone", "--matrix", f, "--point", "0,1,3", "--steps", "80"]
        )
        assert code == EXIT_OK
        assert doc["kind"] == "interior"
        validate(doc, "cone.json")

    def test_dominance(self, capsys):
        code, doc = run(capsys, ["km", "dominance", "--x", "0,0", "--y", "1,1"])
        assert code == EXIT_OK
        assert doc["comparison"] == "LE"
        validate(doc, "dominance.json")

    def test_bad_rational_in_point(self, capsys):
        code, doc = run(capsys, ["km", "cone", "--point", "zebra,1"])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "BadArgument"


class TestPath:
    def test_random_then_verify_passes(self, capsys, tmp_path):
        code, doc = run(capsys, ["path", "random", "--seed", "6", "--height", "2"])
        assert code == EXIT_OK
        validate(doc, "path.json")
        f = write_json(tmp_path, "path.json", doc)
        code, report = run(capsys, ["path", "verify", "--input", f, "--length", "3"])
        assert code == EXIT_OK
        assert report["verdict"] == "PASS"
        validate(report, "growth_report.json")

    def test_random_is_deterministic(self, capsys):
        first = main(["path", "random", "--seed", "9"])
        out1 = capsys.readouterr().out
        second = main(["path", "random", "--seed", "9"])
        out2 = capsys.readouterr().out
        assert first == second == EXIT_OK
        assert out1 == out2

    def test_forced_illegal_fold_fails_verification(self, capsys, tmp_path):
        straight = {
            "matrix": [[2, -1], [-1, 2]],
            "path": {"times": [0, 1], "points": [[-1, -1], [1, 1]]},
            "height_bound": 2,
        }
        f = write_json(tmp_path, "path.json", straight)
        code, folded = run(
            capsys,
            ["path", "fold", "--input", f, "--time", "1/2", "--root", "1,0",
             "--level", "0", "--force"],
        )
        assert code == EXIT_OK
        validate(folded, "path.json")
        g = write_json(tmp_path, "folded.json", folded)
        code, report = run(capsys, ["path", "verify", "--input", g, "--length", "3"])
        assert code == EXIT_FAIL
        assert report["verdict"] == "FAIL"
        assert any(b["status"] == "illegal" for b in report["breakpoints"])

    def test_fold_requires_legality_without_force(self, capsys, tmp_path):
        straight = {
            "matrix": [[2, -1], [-1, 2]],
            "path": {
                "times": [0, 1],
                "points": [[-1, -1], [1, 1]],
            },
        }
        f = write_json(tmp_path, "path.json", straight)
        code, doc = run(
            capsys,
            ["path", "fold", "--input", f, "--time", "1/2", "--root", "1,0", "--level", "0"],
        )
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "IllegalFold"

    def test_verify_reads_stdin(self, capsys, monkeypatch):
        code, doc = run(capsys, ["path", "random", "--seed", "12", "--height", "2"])
        assert code == EXIT_OK
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, report = run(capsys, ["path", "verify", "--length", "3"])
        assert code == EXIT_OK
        assert report["verdict"] == "PASS"

    def test_short_search_is_inconclusive_not_a_pass(self, capsys, tmp_path):
        rgs = default_realization(validate_matrix(AFFINE))
        root = next(r for r in positive_roots(rgs, 3) if r.coords == (2, 1))
        straight = PLPath((Q(0), Q(1)), ((Q(1), Q(0), Q(0)), (Q(-1), Q(0), Q(0))))
        folded = fold_tail(rgs, straight, Q(1, 2), root, 0)
        doc = {
            "matrix": AFFINE,
            "path": serialize.path_to_json(folded),
            "height_bound": 1,
        }
        f = write_json(tmp_path, "path.json", doc)
        code, report = run(capsys, ["path", "verify", "--input", f, "--length", "3"])
        assert code == EXIT_INCONCLUSIVE
        assert report["verdict"] == "INCONCLUSIVE"
        code, report = run(
            capsys, ["path", "verify", "--input", f, "--height", "3", "--length", "3"]
        )
        assert code == EXIT_OK
        assert report["verdict"] == "PASS"

    def test_bad_path_document(self, capsys, tmp_path):
        f = write_json(tmp_path, "path.json", {"matrix": [[2]], "path": {"times": [0]}})
        code, doc = run(capsys, ["path", "verify", "--input", f])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "BadPathFile"


class TestVerifyTheorem:
    def test_tree_campaign_passes(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        config = {
            "model": "tree",
            "trials": 4,
            "seed": 5,
            "output": str(out),
        }
        f = write_json(tmp_path, "config.json", config)
        code, summary = run(capsys, ["verify-theorem", "--config", f])
        assert code == EXIT_OK
        assert summary["pass"] == 4
        assert summary["fail"] == 0
        report = json.loads(out.read_text())
        validate(report, "campaign_report.json")
        assert report["config"]["window_radius"] == 16
        assert len(report["trials"]) == 4

    def test_reports_are_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        config = {"model": "tree", "trials": 3, "seed": 11, "output": str(out)}
        f = write_json(tmp_path, "config.json", config)
        assert main(["verify-theorem", "--config", f]) == EXIT_OK
        capsys.readouterr()
        first = out.read_bytes()
        assert main(["verify-theorem", "--config", f]) == EXIT_OK
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_sl3_campaign_passes(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        config = {"model": "sl3", "trials": 2, "seed": 7, "output": str(out)}
        f = write_json(tmp_path, "config.json", config)
        code, summary = run(capsys, ["verify-theorem", "--config", f])
        assert code == EXIT_OK
        assert summary["pass"] == 2
        report = json.loads(out.read_text())
        validate(report, "campaign_report.json")
        assert report["config"]["window_radius"] == 6

    def test_sl3_campaign_does_not_spend_precision(self):
        # nothing in the model divides series, so a config that still
        # carries a precision budget runs the campaign it always did
        config = {"model": "sl3", "trials": 4, "seed": 815}
        old = run_campaign({**config, "precision": 3})
        assert serialize.dumps(old) == serialize.dumps(run_campaign(config))
        assert "precision" not in old["config"]
        assert old["summary"]["pass"] == 4

    def test_zero_trials(self, capsys, tmp_path):
        f = write_json(tmp_path, "config.json", {"model": "tree", "trials": 0, "seed": 1})
        code, summary = run(capsys, ["verify-theorem", "--config", f])
        assert code == EXIT_OK
        assert summary == {"pass": 0, "fail": 0, "inconclusive": 0, "window_retries": 0}

    def test_config_dir_fallback(self, capsys, tmp_path, monkeypatch):
        configs = tmp_path / "configs"
        configs.mkdir()
        (configs / "camp.json").write_text(
            json.dumps({"model": "tree", "trials": 1, "seed": 2})
        )
        elsewhere = tmp_path / "work"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        code, _ = run(capsys, ["verify-theorem", "--config", "camp.json"])
        assert code == EXIT_USAGE
        monkeypatch.setenv("MASURES_CONFIG_DIR", str(configs))
        code, summary = run(capsys, ["verify-theorem", "--config", "camp.json"])
        assert code == EXIT_OK
        assert summary["pass"] == 1

    def test_bad_config_is_usage(self, capsys, tmp_path):
        f = write_json(tmp_path, "config.json", {"trials": 1, "seed": 1})
        code, doc = run(capsys, ["verify-theorem", "--config", f])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "BadConfig"

    @pytest.mark.parametrize(
        "config, key",
        [
            ([{"model": "tree", "trials": 1, "seed": 1}], None),
            ({"model": "tree", "trials": "3", "seed": 1}, "trials"),
            ({"model": "tree", "trials": -1, "seed": 1}, "trials"),
            ({"model": "tree", "trials": 1, "seed": True}, "seed"),
            ({"model": "sl3", "trials": 1, "seed": 1, "q": 1}, "q"),
            ({"model": "sl3", "trials": 1, "seed": 1, "complexity": -1}, "complexity"),
            ({"model": "tree", "trials": 1, "seed": 1, "window_radius": 0}, "window_radius"),
            ({"model": "tree", "trials": 1, "seed": 1, "height_bound": 1.0}, "height_bound"),
            ({"model": "sl3", "trials": 1, "seed": 1, "length_bound": 0}, "length_bound"),
        ],
    )
    def test_malformed_config_is_a_bad_config(self, capsys, tmp_path, config, key):
        f = write_json(tmp_path, "config.json", config)
        code, doc = run(capsys, ["verify-theorem", "--config", f])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "BadConfig"
        assert key is None or key in doc["error"]["message"]
        validate(doc, "error.json")

    def test_derive_seed_matches_the_documented_rule(self):
        import hashlib

        digest = hashlib.sha256(b"5:0").digest()
        assert derive_seed(5, 0) == int.from_bytes(digest[:8], "big")
        assert derive_seed(5, 0) != derive_seed(5, 1)

    def test_run_campaign_is_pure_in_the_config(self):
        config = {"model": "tree", "trials": 2, "seed": 9}
        a = serialize.dumps(run_campaign(dict(config)))
        b = serialize.dumps(run_campaign(dict(config)))
        assert a == b


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_argument(self, capsys):
        assert main(["km", "roots"]) == EXIT_USAGE
        capsys.readouterr()
