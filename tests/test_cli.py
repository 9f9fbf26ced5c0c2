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
    code, out, _ = run_cli("qtorus", "selftest", "--N", "3", "--genus", "1")
    obj = json.loads(out)
    assert obj["irrepDimension"] == 9
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
    # the walk DP accepts the 30-point image curve, but a witness could not
    # be re-verified by brute force, so the request must stop at the cap
    batch = [
        {"curve": "5,3", "phi": {"matrix": [[1, 1], [0, 1]]}, "N": 11, "cap": 30},
        {"curve": "0,1", "phi": {"matrix": [[1, 1], [0, 1]]}, "N": 5},
    ]
    code, out, _ = run_cli("detect", "--batch", json.dumps(batch))
    assert code == 0
    certs = json.loads(out)["certificates"]
    assert certs[0]["verdict"] == "inconclusive"
    assert "cap-exceeded" in certs[0]["reasons"]
    assert certs[1]["verdict"] == "certified-nontrivial"


def test_cli_imports_are_pay_for_use():
    script = """
import sys
from skeinlab import cli
assert "sympy" not in sys.modules and "numpy" not in sys.modules
cli.main(["lattice", "info", "--genus", "1"])
cli.main(["qtrace", "support", "--curve=2,3"])
assert "numpy" not in sys.modules
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
