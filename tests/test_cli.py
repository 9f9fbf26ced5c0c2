import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema

from skeinlab import cli


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


def test_orbit_matrix_generator_is_a_usage_error():
    rep = {"genus": 1, "images": [[0, 1, -1, 0], [0, 1, -1, 0]]}
    gens = [{"matrix": [[1, 1], [0, 1]]}]
    code, out, err = run_cli("orbit", "--rep", json.dumps(rep), "--gens", json.dumps(gens))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and '"words"' in err


def test_non_word_image_is_a_usage_error():
    code, out, err = run_cli("detect", "--curve", "0,1", "--phi", '{"words": {"a1": 5}}')
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the image of a1 must be a word")


def test_rep_without_images_is_a_usage_error():
    for argv in (
        ("orbit", "--rep", '{"genus": 1}', "--gens", "[]"),
        ("rep", "moment", "--rep", '{"genus": 1}'),
        ("rep", "moment", "--rep", '{"images": []}'),
        ("rep", "moment", "--rep", "[1, 2]"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith('error: a representation needs "genus" and "images"')


def test_malformed_matrix_phi_is_a_usage_error():
    phi = {"matrix": [1, 2]}
    code, out, err = run_cli("detect", "--curve", "0,1", "--phi", json.dumps(phi))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: matrix must be a 2x2 integer matrix [[a, b], [c, d]], not [1, 2]"
    ]
    code, out, _ = run_cli("detect", "--batch", json.dumps([{"curve": "0,1", "phi": phi}]))
    assert code == 2
    slot_error = json.loads(out)["certificates"][0]["error"]
    assert "error: " + slot_error + "\n" == err


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


def test_detect_batch_thread_determinism(tmp_path, monkeypatch):
    batch = [
        {"genus": 1, "N": 5, "curve": "0,1", "phi": {"matrix": [[1, 1], [0, 1]]}},
        {"genus": 1, "N": 5, "curve": "1,0", "phi": {"matrix": [[1, 0], [1, 1]]}},
        {"genus": 1, "N": 7, "curve": "1,1", "phi": {"matrix": [[0, -1], [1, 0]]}},
    ]
    f = tmp_path / "batch.json"
    f.write_text(json.dumps(batch))
    monkeypatch.setenv("SKEINLAB_THREADS", "1")
    serial = run_cli("detect", "--batch", str(f))[1]
    monkeypatch.setenv("SKEINLAB_THREADS", "4")
    parallel = run_cli("detect", "--batch", str(f))[1]
    assert serial == parallel


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


def test_detect_batch_bad_requests_keep_their_slots(monkeypatch):
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
    for threads in ("1", "4"):
        monkeypatch.setenv("SKEINLAB_THREADS", threads)
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


def test_class_shorthand_is_genus_one_only():
    for curve in ("0,1", '{"pq": [0, 1]}', "[0, 1]"):
        code, out, err = run_cli("qtrace", "support", "--genus", "2", "--curve", curve)
        assert code == 2 and out == ""
        assert "genus-1 only" in err
    code, _, err = run_cli("detect", "--genus", "2", "--curve", "0,1")
    assert code == 2 and "genus-1 only" in err


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
from skeinlab import cli
assert "sympy" not in sys.modules and "numpy" not in sys.modules
cli.main(["lattice", "info", "--genus", "1"])
cli.main(["qtrace", "support", "--curve=2,3"])
cli.main(["detect", "--curve=2,1", "--phi", '{"matrix": [[1, 1], [0, 1]]}'])
assert "numpy" not in sys.modules
"""
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert '"verdict": "certified-nontrivial"' in proc.stdout


def test_selftest_runs_without_sympy():
    script = """
import sys
sys.modules["sympy"] = None  # any import of sympy now fails
from skeinlab import cli
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


def test_usage_error_exit_code():
    code, out, err = run_cli("detect", "--curve", "junk")
    assert code == 2
    assert "error" in err


def test_selftest_runs_clean():
    code, out, err = run_cli("selftest")
    assert code == 0
    obj = json.loads(out)
    assert obj["failed"] == 0
    assert obj["passed"] == len(obj["results"])
    assert err.count("PASS") == obj["passed"]
