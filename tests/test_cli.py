"""End-to-end command tests, driving main() in process.

Every command prints one JSON document, so each case parses stdout and
checks it against the bundled schema alongside the exit code.
"""

import io
import json
import time
from fractions import Fraction as Q
from importlib import resources

import jsonschema
import pytest
from referencing import Registry, Resource

from masures import cli, serialize
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
from masures.models import TreeModel

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["km", "roots", "--height", "-1"],
            ["km", "weyl", "--length", "-1"],
            ["km", "roots", "--height", "0"],
            ["km", "cone", "--point", "1,0", "--steps", "0"],
            ["km", "cone", "--point", "1,0", "--steps", "-1"],
        ],
    )
    def test_negative_bound_is_a_usage_error(self, capsys, argv):
        code, doc = run(capsys, argv)
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "InvalidBound"
        validate(doc, "error.json")

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

    @pytest.mark.parametrize("endpoint", ["--a", "--b"])
    def test_lone_endpoint_is_a_usage_error(self, capsys, endpoint):
        """One endpoint without the other is refused, not dropped in favour
        of the default segment."""
        code, doc = run(capsys, ["path", "random", "--seed", "6", endpoint, "1,1"])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "BadArgument"
        validate(doc, "error.json")

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

    def test_reversed_segment_is_refused_before_folding(self, capsys, tmp_path):
        """b - a = (2, 2) lies in the negative Tits cone of this hyperbolic
        matrix, so no Hecke path runs from a to b and folding would never
        end; the pair is refused at once."""
        f = write_json(tmp_path, "matrix.json", {"matrix": [[2, -3], [-3, 2]]})
        start = time.monotonic()
        code, doc = run(capsys, ["path", "random", "--matrix", f, "--seed", "0",
                                 "--a=-1,-1", "--b", "1,1", "--height", "2"])
        assert time.monotonic() - start < 1
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "UnorderedSegment"
        assert "reversed" in doc["error"]["message"]
        validate(doc, "error.json")

    def test_short_search_is_inconclusive_not_a_pass(self, capsys, tmp_path):
        rgs = default_realization(validate_matrix(AFFINE))
        root = next(r for r in positive_roots(rgs, 3) if r.coords == (2, 1))
        # the fold point (1/4, 0, 1/4) lies on no wall of a height-1 root
        straight = PLPath((Q(0), Q(1)), ((Q(5, 4), Q(0), Q(1, 4)), (Q(-3, 4), Q(0), Q(1, 4))))
        folded = fold_tail(rgs, straight, Q(1, 2), root, -1)
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

    @pytest.mark.parametrize(
        "flags", [["--length", "-1"], ["--height", "-1"], ["--height", "0"]]
    )
    def test_bounds_out_of_range_are_usage_errors(self, capsys, tmp_path, flags):
        """A path that passes at the default bounds is refused, not failed,
        under a negative length or a height below 1; a height of 0 is not
        replaced by the document's height bound.  `path fold` and `path
        random` refuse such a height too; random would write it into a document
        that `schemas/path.json` rejects."""
        code, doc = run(capsys, ["path", "random", "--seed", "5"])
        assert code == EXIT_OK
        f = write_json(tmp_path, "path.json", doc)
        code, report = run(capsys, ["path", "verify", "--input", f, "--length", "3"])
        assert (code, report["verdict"]) == (EXIT_OK, "PASS")
        code, report = run(capsys, ["path", "verify", "--input", f, "--length", "3", *flags])
        assert code == EXIT_USAGE
        assert report["error"]["type"] == "InvalidBound"
        validate(report, "error.json")
        if flags[0] == "--height":
            for argv in (["path", "fold", "--input", f, "--time", "1/2", "--root", "1,0", "--level", "0"],
                         ["path", "random", "--seed", "5"]):
                code, report = run(capsys, argv + flags)
                assert (code, report["error"]["type"]) == (EXIT_USAGE, "InvalidBound")

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

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_unwritable_output_is_a_file_error(self, capsys, tmp_path, where):
        """An output that is a directory, or lies in one that does not
        exist, is refused as a usage error naming the path, not reported
        with the FAIL exit code."""
        output = tmp_path if where == "directory" else tmp_path / "absent" / "report.json"
        config = {"model": "tree", "trials": 1, "seed": 1, "output": str(output)}
        f = write_json(tmp_path, "config.json", config)
        code, doc = run(capsys, ["verify-theorem", "--config", f])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "FileError"
        assert str(output) in doc["error"]["message"]
        validate(doc, "error.json")

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
            ({"model": "tree", "trials": 1, "seed": 1, "output": 2}, "output"),
            ({"model": "tree", "trials": 1, "seed": 1, "output": ["x"]}, "output"),
        ],
    )
    def test_malformed_config_is_a_bad_config(self, capsys, tmp_path, config, key):
        f = write_json(tmp_path, "config.json", config)
        code, doc = run(capsys, ["verify-theorem", "--config", f])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "BadConfig"
        assert key is None or key in doc["error"]["message"]
        validate(doc, "error.json")

    def test_a_sample_filling_the_window_is_decided_there(self, monkeypatch):
        """A model whose apartments are all the standard one, yet never
        equal to each other: every sample fills its window, and the trial
        is still decided at the configured radius, off the exact set."""

        class Filling(TreeModel):
            def same_apartment(self, first, second):
                return False

            def random_apartment(self, seed, complexity):
                return self.standard_apartment()

        monkeypatch.setattr(cli, "TreeModel", Filling)
        report = run_campaign({"model": "tree", "trials": 2, "seed": 3, "window_radius": 4})
        validate(report, "campaign_report.json")
        assert report["summary"] == {"pass": 2, "fail": 0, "inconclusive": 0, "window_retries": 0}
        for trial in report["trials"]:
            assert trial["window_radius"] == 4
            certificates = {c["name"]: c["value"] for c in trial["ma2"]["certificates"]}
            assert certificates["hits"] == 9
            assert (certificates["fitted"]["halves"], certificates["empty"]) == ([], False)

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

    @pytest.mark.parametrize(
        "config, others",
        [
            ({"model": "sl3", "trials": 3, "seed": 13},
             [{"model": "tree", "trials": 2, "seed": 9}, {"model": "sl3", "q": 3, "trials": 2, "seed": 21}]),
            ({"model": "tree", "trials": 4, "seed": 9},
             [{"model": "sl3", "trials": 2, "seed": 13}, {"model": "tree", "q": 3, "trials": 2, "seed": 5}]),
        ],
    )
    def test_shared_models_keep_reports_byte_identical(self, config, others):
        """Each model is built once per process and shared by every
        campaign; a report is the same run cold, after campaigns of the
        other model or another q, and twice in a row."""
        cli._model.cache_clear()
        cold = serialize.dumps(run_campaign(dict(config)))
        for other in others:
            run_campaign(other)
            assert serialize.dumps(run_campaign(dict(config))) == cold
        assert serialize.dumps(run_campaign(dict(config))) == cold
        assert cli._fill_config(config)[1] is cli._fill_config(dict(config))[1]

    def test_a_retraction_folding_at_a_vertex_passes(self):
        """This pair's segment (-1/4, 0) -> (1/3, 0) retracts from the germ
        at minus infinity with a turn at the vertex (0, 0) from (-7/12,
        -7/12) to (7/12, 0): no single reflection, but a chain of two, each
        in a wall through the vertex and negative on what it reflects."""
        config = {"model": "sl3", "q": 2, "trials": 1, "seed": 120820124407441,
                  "complexity": 2, "window_radius": 6}
        report = run_campaign(config)
        assert report["trials"][0]["retraction"]["growth"] == "PASS"
        assert report["summary"]["fail"] == 0

    @pytest.mark.parametrize(
        "config, digest",
        [
            ({"model": "tree", "q": 2, "trials": 300, "seed": 11}, "5d7dfafbd7c970af"),
            ({"model": "sl3", "q": 2, "trials": 6, "seed": 13}, "dd1568c35bf891b4"),
            ({"model": "sl3", "q": 3, "trials": 3, "seed": 21}, "04d11faaab3d08d5"),
            ({"model": "sl3", "q": 4, "trials": 2, "seed": 22}, "ff36c39fe1d48d69"),
            # samples that fill the window of radius 6, decided there; their
            # halves are those a window of radius 12 shows
            ({"model": "sl3", "trials": 1, "seed": 179}, "5a579b80e7f130c2"),
            ({"model": "sl3", "trials": 1, "seed": 282}, "dc061944f7e2d4f0"),
            ({"model": "sl3", "trials": 1, "seed": 477}, "9b4db7fe1a1cd5d6"),
        ],
    )
    def test_campaign_report_digests_are_pinned(self, config, digest):
        import hashlib

        report = run_campaign(dict(config))
        assert report["summary"]["window_retries"] == 0
        assert all(t["window_radius"] == report["config"]["window_radius"] for t in report["trials"])
        assert hashlib.sha256(serialize.dumps(report).encode()).hexdigest()[:16] == digest


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_argument(self, capsys):
        assert main(["km", "roots"]) == EXIT_USAGE
        capsys.readouterr()
