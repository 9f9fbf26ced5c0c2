import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from skeinlab import cli, detect


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


def load_schema(name):
    text = resources.files("skeinlab").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def make_validator(name):
    schema = load_schema(name)
    registry = None
    try:
        from referencing import Registry, Resource

        resource_list = []
        for fname in (
            "cyclotomic.schema.json",
            "triangulation.schema.json",
            "certificate.schema.json",
            "torus-element.schema.json",
            "representation.schema.json",
            "support.schema.json",
        ):
            res = Resource.from_contents(load_schema(fname))
            resource_list.append((res.id(), res))
        registry = Registry().with_resources(resource_list)
        return jsonschema.Draft202012Validator(schema, registry=registry)
    except ImportError:
        return jsonschema.Draft202012Validator(schema)


def test_surface_info():
    code, out, _ = run_cli("surface", "info", "--genus", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["faces_count"] == 3 and obj["edges_count"] == 5
    make_validator("triangulation.schema.json").validate(
        {k: obj[k] for k in ("faces", "edges", "gluing", "genus", "check")}
    )


def test_lattice_info():
    code, out, _ = run_cli("lattice", "info", "--genus", "1", "--N", "5")
    obj = json.loads(out)
    assert obj["piDegreeReduced"] == 25
    assert obj["indexOK"] is True
    assert obj["eqK0Match"] is True


def test_lattice_info_refined():
    code, out, _ = run_cli("lattice", "info", "--genus", "1", "--N", "3", "--refined")
    obj = json.loads(out)
    assert obj["refined"]["piDegree"] == 27
    assert obj["refined"]["kernelFormulaMatches"] is False


def test_qtorus_selftest():
    for genus, dim in (("1", 9), ("2", 243)):
        code, out, _ = run_cli("qtorus", "selftest", "--N", "3", "--genus", genus)
        obj = json.loads(out)
        assert obj["irrepDimension"] == obj["piDegree"] == dim
        assert obj["dimensionMatchesPiDegree"] is True


def test_qtrace_support():
    code, out, _ = run_cli("qtrace", "support", "--curve", "0,1")
    obj = json.loads(out)
    assert obj["states"] == 3
    assert obj["boundsOK"] is True
    make_validator("support.schema.json").validate(obj)


def test_leaf_classify():
    code, out, _ = run_cli("leaf", "classify", "--mat", "[0, 1, -1, 0]")
    obj = json.loads(out)
    assert obj["cell"] == 1
    code, out, _ = run_cli(
        "leaf", "classify", "--mat", "[0, 1, -1, 0]", "--double", "[1, 0, 0, 1]"
    )
    assert json.loads(out)["leaf"] == [1, 1]


def test_rep_dims():
    code, out, _ = run_cli(
        "rep", "dims", "--genus", "1", "--N", "3", "--cell", "big", "--orbit-size", "1"
    )
    assert json.loads(out)["dimW"] == 27
    code, out, _ = run_cli(
        "rep", "dims", "--genus", "2", "--N", "3", "--cell", "reduced", "--orbit-size", "4"
    )
    assert json.loads(out)["dimW"] == 3**5 * 4


def test_rep_moment_command(tmp_path):
    rep = {
        "genus": 1,
        "field": {"cyclotomicOrder": 4},
        "images": [[0, 1, -1, 0], [1, 1, 0, 1]],
    }
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(rep))
    code, out, _ = run_cli("rep", "moment", "--rep", str(f))
    obj = json.loads(out)
    assert obj["cell"] == "big"
    # mu = [[1, -1], [-1, 2]] for this pair
    assert obj["mu"][0]["coeffs"][0] == [1, 1]


def test_orbit_command(tmp_path):
    rep = {
        "genus": 1,
        "field": {"cyclotomicOrder": 4},
        "images": [[0, 1, -1, 0], [0, 1, -1, 0]],
    }
    make_validator("representation.schema.json").validate(rep)
    gens = [
        {"genus": 1, "words": {"a1": "a", "b1": "ba"}},
        {"genus": 1, "words": {"a1": "aB", "b1": "b"}},
    ]
    rep_file = tmp_path / "rep.json"
    gens_file = tmp_path / "gens.json"
    rep_file.write_text(json.dumps(rep))
    gens_file.write_text(json.dumps(gens))
    code, out, _ = run_cli(
        "orbit", "--rep", str(rep_file), "--gens", str(gens_file), "--N", "3"
    )
    obj = json.loads(out)
    assert obj["size"] == 12
    assert obj["cell"] == "big"
    assert obj["dimW"] == 27 * 12


def test_detect_command_and_schema():
    code, out, _ = run_cli(
        "detect", "--genus", "1", "--N", "5", "--curve", "0,1", "--phi", "[[1,1],[0,1]]"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "certified-nontrivial"
    make_validator("certificate.schema.json").validate(obj)
    # verdict lives in the JSON, not the exit code
    code2, out2, _ = run_cli(
        "detect", "--genus", "1", "--N", "5", "--curve", "0,1", "--phi", "[[1,0],[0,1]]"
    )
    assert code2 == 0
    assert json.loads(out2)["verdict"] == "inconclusive"


def test_detect_byte_determinism():
    results = [
        run_cli("detect", "--N", "5", "--curve", "0,1", "--phi", "[[1,1],[0,1]]")[1]
        for _ in range(2)
    ]
    assert results[0] == results[1]
    # timings are logged to stderr only
    _, out, err = run_cli("detect", "--N", "5", "--curve", "0,1", "--phi", "[[1,1],[0,1]]")
    assert "timings" not in out and "detect:" in err


def test_detect_explicit_beta_file(tmp_path):
    beta = tmp_path / "beta.json"
    beta.write_text(json.dumps({"coords": {"0": 1, "1": 1, "2": 1, "3": 2}}))
    code, out, _ = run_cli(
        "detect", "--N", "5", "--curve", "0,1", "--beta", str(beta)
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "certified-nontrivial"


def test_detect_batch(tmp_path):
    batch = [
        {"genus": 1, "N": 5, "curve": "0,1", "phi": {"matrix": [[1, 1], [0, 1]]}},
        {"genus": 1, "N": 5, "curve": "0,1", "phi": {"matrix": [[1, 0], [0, 1]]}},
    ]
    f = tmp_path / "batch.json"
    f.write_text(json.dumps(batch))
    code, out, _ = run_cli("detect", "--batch", str(f))
    obj = json.loads(out)
    verdicts = [c["verdict"] for c in obj["certificates"]]
    assert verdicts == ["certified-nontrivial", "inconclusive"]


def test_detect_batch_genus_two_requests_share_one_context():
    # one triangulation per genus per process, so the detection context
    # (keyed on the triangulation object) is built once for the three
    request = {
        "genus": 2, "N": 3, "cell": "big",
        "curve": {"2": 1, "3": 1}, "beta": {"7": 1, "8": 1},
    }
    detect._detection_context.cache_clear()
    code, out, _ = run_cli("detect", "--batch", json.dumps([request] * 3))
    assert code == 0
    info = detect._detection_context.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    certs = json.loads(out)["certificates"]
    assert certs[0]["verdict"] == "certified-nontrivial"
    assert certs[0] == certs[1] == certs[2]


def test_detect_batch_cap_above_bruteforce_limit():
    # the residue recount re-verifies witnesses of any size, so a cap above
    # the 25 points of the brute-force kernel certifies; the default cap of
    # 24 still stops the same requests
    twist = {"matrix": [[1, 1], [0, 1]]}
    batch = [
        {"curve": "5,3", "phi": twist, "N": 11, "cap": 30},
        {"curve": "0,1", "phi": twist, "N": 5},
        {"curve": "5,3", "phi": twist, "N": 11, "cap": 96, "cell": "big"},
        {"curve": "8,5", "phi": twist, "N": 11, "cap": 96},
        {"curve": "8,5", "phi": twist, "N": 11, "cap": 96, "cell": "big"},
    ]
    code, out, _ = run_cli("detect", "--batch", json.dumps(batch))
    assert code == 0
    certs = json.loads(out)["certificates"]
    for cert in certs:
        assert cert["verdict"] == "certified-nontrivial"
        assert {cert["witness"]["fiberAlpha"], cert["witness"]["fiberBeta"]} == {0, 1}
    default_cap = [{k: v for k, v in req.items() if k != "cap"} for req in batch]
    code, out, _ = run_cli("detect", "--batch", json.dumps(default_cap))
    assert code == 0
    certs = json.loads(out)["certificates"]
    for i in (0, 2, 3, 4):
        assert certs[i]["verdict"] == "inconclusive"
        assert "cap-exceeded" in certs[i]["reasons"]
    assert certs[1]["verdict"] == "certified-nontrivial"


def test_detect_batch_bad_requests_keep_their_slots():
    good = [
        {"curve": "0,1", "phi": {"matrix": [[1, 1], [0, 1]]}},
        {"curve": "1,1", "phi": {"matrix": [[0, -1], [1, 0]]}, "N": 7},
    ]
    bad_curve = {"curve": "junk", "phi": {"matrix": [[1, 1], [0, 1]]}}
    no_curve = {"phi": {"matrix": [[1, 1], [0, 1]]}}
    long_curve = {"curve": [1, 2, 3], "phi": {"matrix": [[1, 1], [0, 1]]}}
    # a bare matrix phi is accepted, as it is by `detect --phi`
    bare_phi = {"curve": "0,1", "phi": [[1, 1], [0, 1]]}
    list_beta = {"curve": "0,1", "beta": [0, 2, 2, 0, 0]}
    text_words = {"curve": "0,1", "phi": {"words": "ab"}}
    mixed = [good[0], bad_curve, no_curve, long_curve, good[1], bare_phi, list_beta, text_words]
    code, out, _ = run_cli("detect", "--batch", json.dumps(good))
    assert code == 0
    code, mixed_out, err = run_cli("detect", "--batch", json.dumps(mixed))
    assert code == 2
    assert "Traceback" not in err
    certs = json.loads(mixed_out)["certificates"]
    assert len(certs) == 8
    assert "junk" in certs[1]["error"]
    assert "curve" in certs[2]["error"]
    # a message about the curve, not the signature of the table lookup
    assert "curve" in certs[3]["error"] and "[1, 2, 3]" in certs[3]["error"]
    assert certs[5] == certs[0]
    assert "[0, 2, 2, 0, 0]" in certs[6]["error"]
    assert "words" in certs[7]["error"] and "'ab'" in certs[7]["error"]
    valid = {"certificates": [certs[0], certs[4]]}
    assert json.dumps(valid, sort_keys=True, indent=2) + "\n" == out


def test_detect_single_request_shapes():
    # coords as a bare list and as a coords object name the same beta
    beta = {"coords": {"0": 1, "1": 1, "2": 1, "3": 2}}
    _, by_object, _ = run_cli("detect", "--curve", "0,1", "--beta", json.dumps(beta))
    code, by_list, _ = run_cli("detect", "--curve", "0,1", "--beta", "[1, 1, 1, 2, 0]")
    assert code == 0 and by_list == by_object
    for flag, value in (("--beta", "[0,2,2,0,0]"), ("--phi", '{"words":"ab"}'), ("--phi", "{}")):
        code, out, err = run_cli("detect", "--curve", "0,1", flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def _single_and_batch_slot(argv, request):
    """stdout of a single detect request, and the same bytes for the
    certificate of the one-slot batch [request]."""
    code, single, _ = run_cli("detect", *argv)
    assert code == 0
    code, out, _ = run_cli("detect", "--batch", json.dumps([request]))
    assert code == 0
    [cert] = json.loads(out)["certificates"]
    return single, json.dumps(cert, sort_keys=True, indent=2) + "\n"


def test_detect_cap_flag_matches_batch_slot():
    argv = ("--curve=5,3", "--phi", "[[1,1],[0,1]]", "--N", "11")
    request = {"curve": "5,3", "phi": [[1, 1], [0, 1]], "N": 11}
    single, slot = _single_and_batch_slot((*argv, "--cap", "30"), {**request, "cap": 30})
    assert single == slot
    assert json.loads(single)["verdict"] == "certified-nontrivial"
    # without the flag the default cap of 24 points still stops it
    single, slot = _single_and_batch_slot(argv, request)
    assert single == slot
    assert "cap-exceeded" in json.loads(single)["reasons"]


def test_detect_class_shorthand_beta_matches_batch_slot():
    single, slot = _single_and_batch_slot(
        ("--curve=1,0", "--beta=0,1", "--N", "3"), {"curve": "1,0", "beta": "0,1", "N": 3}
    )
    assert single == slot
    assert json.loads(single)["verdict"] == "certified-nontrivial"


def test_class_shorthand_is_genus_one_only():
    for curve in ("0,1", '{"pq": [0, 1]}', "[0, 1]"):
        code, out, err = run_cli("qtrace", "support", "--genus", "2", "--curve", curve)
        assert code == 2 and out == ""
        assert "genus-1 only" in err
    code, _, err = run_cli("detect", "--genus", "2", "--curve", "0,1")
    assert code == 2 and "genus-1 only" in err


REP = json.dumps({"genus": 1, "images": [[0, 1, -1, 0], [0, 1, -1, 0]]})
NEEDS_REP = (
    'a representation needs "genus" and "images", e.g. '
    '{"genus": 1, "images": [[0, 1, -1, 0], [1, 1, 0, 1]]}, not '
)
SHORT_MATRIX = {"matrix": [1, 2]}


class File:
    """An argv entry that the test writes to a file (a directory for None);
    its path replaces the entry, and "<file>" in the expected message."""

    def __init__(self, text=None):
        self.text = text


def _row(name, argv, message, batch=None):
    return pytest.param(argv, message, batch, id=name)


# (argv, the exact error message, and optionally the same request as a batch
# object, whose slot must carry the very same message)
MALFORMED = [
    _row("surface-config-text-genus", ("--config", File('{"genus": "2"}'), "surface", "info"),
         "--config genus must be int, not '2'"),
    _row("lattice-config-missing", ("--config", "/nonexistent", "lattice", "info"),
         "[Errno 2] No such file or directory: '/nonexistent'"),
    _row("lattice-config-list", ("--config", File("[1, 2]"), "lattice", "info"),
         "--config <file> must hold a JSON object of flag values"),
    _row("qtorus-config-directory", ("--config", File(), "qtorus", "selftest"),
         "[Errno 21] Is a directory: '<file>'"),
    _row("qtorus-config-float-N", ("--config", File('{"N": 3.0}'), "qtorus", "selftest"),
         "--config N must be int, not 3.0"),
    _row("qtrace-over-cap", ("qtrace", "support", "--curve", "8,5"),
         "34 intersection points exceed the cap 24"),
    _row("qtrace-negative-cap", ("qtrace", "support", "--curve", "0,1", "--cap", "-1"),
         "cap must be >= 0, not -1"),
    _row("qtrace-pq-one-int", ("qtrace", "support", "--curve", '{"pq": [1]}'),
         "(p, q) needs two integers, not {'pq': [1]}"),
    _row("orbit-rep-directory", ("orbit", "--rep", File(), "--gens", "[]"),
         "[Errno 21] Is a directory: '<file>'"),
    _row("orbit-gens-directory", ("orbit", "--rep", REP, "--gens", File()),
         "[Errno 21] Is a directory: '<file>'"),
    _row("orbit-gens-not-list", ("orbit", "--rep", REP, "--gens", "5"),
         "--gens must be a JSON list, not 5"),
    _row("orbit-field-not-object",
         ("orbit", "--rep", json.dumps({**json.loads(REP), "field": 5}), "--gens", "[]"),
         '"field" must be an object like {"cyclotomicOrder": 4}, not 5'),
    _row("orbit-scalar-without-coeffs",
         ("orbit", "--rep", '{"genus": 1, "images": [[{"order": 4}, 1, -1, 0], [0, 1, -1, 0]]}',
          "--gens", "[]"),
         "missing field 'coeffs'"),
    _row("orbit-matrix-generator",
         ("orbit", "--rep", REP, "--gens", '[{"matrix": [[1, 1], [0, 1]]}]'),
         'orbit generators act through their free-group words: '
         'give {"words": ...}, not {"matrix": ...}'),
    _row("orbit-even-N", ("orbit", "--rep", REP, "--gens", "[]", "--N", "4"),
         "N must be odd and >= 3"),
    _row("orbit-rep-without-images", ("orbit", "--rep", '{"genus": 1}', "--gens", "[]"),
         NEEDS_REP + "{'genus': 1}"),
    _row("rep-moment-without-images", ("rep", "moment", "--rep", '{"genus": 1}'),
         NEEDS_REP + "{'genus': 1}"),
    _row("rep-moment-without-genus", ("rep", "moment", "--rep", '{"images": []}'),
         NEEDS_REP + "{'images': []}"),
    _row("rep-moment-list", ("rep", "moment", "--rep", "[1, 2]"), NEEDS_REP + "[1, 2]"),
    _row("rep-moment-images-not-list", ("rep", "moment", "--rep", '{"genus": 1, "images": 5}'),
         NEEDS_REP + "{'genus': 1, 'images': 5}"),
    _row("leaf-mat-not-list", ("leaf", "classify", "--mat", "5"),
         "an SL2 matrix needs 4 entries [a, b, c, d], not 5"),
    _row("lattice-even-N", ("lattice", "info", "--N", "4"), "N must be odd and >= 3"),
    _row("lattice-refined-even-N", ("lattice", "info", "--N", "4", "--refined"),
         "N must be odd and >= 3"),
    _row("rep-dims-even-N", ("rep", "dims", "--N", "4"), "N must be odd and >= 3"),
    _row("rep-dims-genus-0", ("rep", "dims", "--genus", "0"), "genus must be >= 1"),
    _row("rep-dims-orbit-size-0", ("rep", "dims", "--orbit-size", "0"),
         "--orbit-size must be >= 1"),
    _row("detect-junk-curve", ("detect", "--curve", "junk"),
         "(p, q) needs two integers, not 'junk'", batch={"curve": "junk"}),
    _row("detect-pq-not-pair", ("detect", "--curve", '{"pq": 5}'),
         "(p, q) needs two integers, not {'pq': 5}", batch={"curve": {"pq": 5}}),
    _row("detect-pq-fraction", ("detect", "--curve", "[1.5, 2]"),
         "(p, q) needs two integers, not [1.5, 2]", batch={"curve": [1.5, 2]}),
    _row("detect-non-word-image", ("detect", "--curve", "0,1", "--phi", '{"words": {"a1": 5}}'),
         'the image of a1 must be a word such as "ab" or a list of generator ids '
         "in ±1..±2, not 5",
         batch={"curve": "0,1", "phi": {"words": {"a1": 5}}}),
    _row("detect-single-matches-batch-slot",
         ("detect", "--curve", "0,1", "--phi", json.dumps(SHORT_MATRIX)),
         "matrix must be a 2x2 integer matrix [[a, b], [c, d]], not [1, 2]",
         batch={"curve": "0,1", "phi": SHORT_MATRIX}),
    _row("detect-negative-cap",
         ("detect", "--curve", "0,1", "--phi", "[[1, 1], [0, 1]]", "--cap", "-1"),
         "cap must be >= 0, not -1",
         batch={"curve": "0,1", "phi": [[1, 1], [0, 1]], "cap": -1}),
    _row("detect-batch-negative-cap",
         ("detect", "--batch", '[{"curve": [2, 1], "beta": "1,1", "N": 3, "cap": -5}]'),
         "cap must be >= 0, not -5"),
    _row("detect-batch-number", ("detect", "--batch", "5"), "--batch must be a JSON list, not 5"),
    _row("detect-batch-object", ("detect", "--batch", '{"curve": "0,1"}'),
         "--batch must be a JSON list, not {'curve': '0,1'}"),
    _row("detect-batch-text-N", ("detect", "--batch", '[{"curve": "0,1", "N": "5"}]'),
         "N must be an integer, not '5'"),
    _row("detect-batch-text-cap", ("detect", "--batch", '[{"curve": "0,1", "cap": "30"}]'),
         "cap must be an integer, not '30'"),
    _row("detect-batch-text-genus", ("detect", "--batch", '[{"curve": "0,1", "genus": "1"}]'),
         "genus must be an integer, not '1'"),
]


def _error_message(argv):
    """The message of a rejected command: its one stderr line, or for a
    batch list its one error slot."""
    code, out, err = run_cli(*argv)
    assert code == 2
    assert "Traceback" not in err and len(err.splitlines()) == 1
    if argv[:2] == ("detect", "--batch") and argv[2].startswith("["):
        assert err.startswith("detect: 1 requests in ")
        [slot] = json.loads(out)["certificates"]
        return slot["error"]
    assert out == "" and err.startswith("error: ")
    return err[len("error: "):].rstrip("\n")


@pytest.mark.parametrize("argv, message, batch", MALFORMED)
def test_malformed_inputs_are_usage_errors(argv, message, batch, tmp_path):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, File):
            path = tmp_path / "arg"
            path.mkdir() if arg.text is None else path.write_text(arg.text)
            argv[i] = str(path)
            message = message.replace("<file>", str(path))
    assert _error_message(tuple(argv)) == message
    if batch is not None:
        assert _error_message(("detect", "--batch", json.dumps([batch]))) == message


def test_detect_batch_matches_golden_certificates():
    # a fixed batch over both cells and methods, N in {3, 5, 7, 11},
    # isotopic, cap-exceeded and bound-exceeded requests, (8, 5) with cap 96
    # and genus-2 pairs with explicit beta, whose certificates are kept in
    # the fixture so that any change to their bytes shows here
    golden = json.loads((Path(__file__).parent / "fixtures" / "detect_golden.json").read_text())
    code, out, _ = run_cli("detect", "--batch", json.dumps(golden["requests"]))
    assert code == 0
    expected = json.dumps({"certificates": golden["certificates"]}, sort_keys=True, indent=2)
    assert out == expected + "\n"


def test_failed_reverification_is_not_a_usage_error(monkeypatch):
    # a certificate that fails re-verification is a bug, not bad input, so
    # the AssertionError must get through single requests and batches alike
    def fail(*args):
        raise AssertionError("re-verification failed")

    monkeypatch.setattr(detect, "_reverify_witness", fail)
    request = {"curve": "0,1", "phi": [[1, 1], [0, 1]]}
    for argv in (
        ("detect", "--curve", "0,1", "--phi", json.dumps(request["phi"])),
        ("detect", "--batch", json.dumps([request])),
    ):
        with pytest.raises(AssertionError, match="re-verification failed"):
            run_cli(*argv)


def run_script(script):
    """Run a Python script in a fresh interpreter that imports skeinlab from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_cli_imports_are_pay_for_use():
    script = """
import sys
from skeinlab import cli, detect
assert "sympy" not in sys.modules and "numpy" not in sys.modules
cli.main(["lattice", "info", "--genus", "1"])
cli.main(["qtrace", "support", "--curve=2,3"])
cli.main(["detect", "--curve=2,1", "--phi", '{"matrix": [[1, 1], [0, 1]]}'])
assert "numpy" not in sys.modules
"""
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert '"verdict": "certified-nontrivial"' in proc.stdout


def test_selftest_runs_without_sympy_or_numpy():
    script = """
import sys
sys.modules["sympy"] = None  # any import of sympy now fails
sys.modules["numpy"] = None  # and so does any import of numpy
from skeinlab import cli, detect
cli.main(["selftest"])
"""
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli("selftest")
    assert code == 0
    assert proc.stdout == out


def test_config_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 7}))
    code, out, _ = run_cli("--config", str(cfg), "lattice", "info")
    assert json.loads(out)["N"] == 7
    code, out, _ = run_cli("--config", str(cfg), "lattice", "info", "--N", "3")
    assert json.loads(out)["N"] == 3


def test_selftest_runs_clean():
    code, out, err = run_cli("selftest")
    assert code == 0
    obj = json.loads(out)
    assert obj["failed"] == 0
    assert obj["passed"] == len(obj["results"])
    assert err.count("PASS") == obj["passed"]
