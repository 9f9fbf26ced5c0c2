import argparse
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from skeinlab import cli, detect, intlinalg, recount
from skeinlab.surface import BalancedLattice, Triangulation, build_sigma_g_star


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
            "representation.schema.json",
            "support.schema.json",
        ):
            res = Resource.from_contents(load_schema(fname))
            resource_list.append((res.id(), res))
        registry = Registry().with_resources(resource_list)
        return jsonschema.Draft202012Validator(schema, registry=registry)
    except ImportError:
        return jsonschema.Draft202012Validator(schema)


def test_emit_writes_each_document_once(monkeypatch):
    # json.dump would hand the stream one small chunk per token
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Stdout", (), {"write": writes.append})())
    obj = {"b": [1, {"c": None}], "a": "x"}
    cli._emit(obj)
    assert writes == [json.dumps(obj, sort_keys=True, indent=2) + "\n"]


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


def test_lattice_info_refined_computes_k0_once(monkeypatch):
    form = BalancedLattice(build_sigma_g_star(2)).form
    kernel_mod = intlinalg.kernel_mod
    on_form = []

    def counting(M, N):
        on_form.append(M == form)
        return kernel_mod(M, N)

    monkeypatch.setattr(intlinalg, "kernel_mod", counting)
    code, _, _ = run_cli("lattice", "info", "--genus", "2", "--N", "3", "--refined")
    assert code == 0
    assert on_form.count(True) == 1


@pytest.mark.parametrize(
    "argvs, digest",
    [
        pytest.param(
            [("lattice", "info", "--genus", str(g), "--N", str(N), "--refined") for N in (3, 5, 7)],
            digest,
            id=f"lattice-refined-g{g}",
        )
        for g, digest in (
            (1, "1bd702340aa66702158aed1e53c8e6a2daf2b5367e5d70bbb6a1d067d952028a"),
            (2, "0bc345d1433babf19658b51e9e0e024dddeaf4fa88286d6a422e6d31ff2ad48c"),
            (3, "bb2b43db09efb5ddb83b7b05c7bbccebc189b61dd1266be90a4189d69c10eba5"),
        )
    ]
    + [
        pytest.param(
            [("qtorus", "selftest", "--genus", "1", "--N", str(N)) for N in (3, 5, 7, 9, 11)],
            "d5ec67f8b68602f54dbe4d0f8d54c32c41e2be8555377a722266c79ff9442eea",
            id="qtorus-g1",
        ),
        pytest.param(
            [("qtorus", "selftest", "--genus", "2", "--N", "3")],
            "345e327c2959188e0eb075500931c3a973d0517d0f6ab06726ba02180c681591",
            id="qtorus-g2",
        ),
    ],
)
def test_lattice_and_qtorus_stdout_pinned(argvs, digest):
    """Stdout of lattice and torus-irrep commands, whose indices, kernels and
    pair invariants come from HNF, SNF and the skew form, pinned so that any
    change to their bytes shows."""
    outs = []
    for argv in argvs:
        code, out, _ = run_cli(*argv)
        assert code == 0
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == digest


def test_qtorus_selftest():
    for genus, dim in (("1", 9), ("2", 243)):
        code, out, _ = run_cli("qtorus", "selftest", "--N", "3", "--genus", genus)
        obj = json.loads(out)
        assert obj["irrepDimension"] == obj["piDegree"] == dim
        assert obj["dimensionMatchesPiDegree"] is True


def test_qtorus_selftest_refuses_an_irrep_over_the_cap_before_building_k(monkeypatch):
    # the PI-degree N^(3g-1) is the irrep's dimension: 3^8 at genus 3 is
    # within the cap, 243^2 at genus 1 and 3^11 at genus 4 are the least
    # dimensions above it at their genus
    built = []
    balanced = cli.BalancedLattice
    monkeypatch.setattr(cli, "BalancedLattice", lambda tri: built.append(tri) or balanced(tri))
    for genus, N, dim in (("1", "243", 243**2), ("4", "3", 3**11), ("35", "3", 3**104)):
        refusal = f"error: irrep dimension {dim} exceeds cap 58081\n"
        assert run_cli("qtorus", "selftest", "--genus", genus, "--N", N) == (2, "", refusal)
    assert built == []
    code, out, _ = run_cli("qtorus", "selftest", "--genus", "3", "--N", "3")
    assert code == 0 and json.loads(out)["irrepDimension"] == 3**8
    assert len(built) == 1


def test_commands_leave_the_shared_lattice_data_of_delta_g_intact():
    # every command at one genus reads the one Delta_g and its K basis,
    # Gram and Kbar form: after lattice, qtorus and detect commands on both
    # cells they equal a fresh derivation on an unshared triangulation
    for g in (1, 2, 3):
        genus = ("--genus", str(g))
        for refined in ((), ("--refined",)):
            assert run_cli("lattice", "info", *genus, "--N", "3", *refined)[0] == 0
        assert run_cli("qtorus", "selftest", *genus, "--N", "3")[0] == 0
        if g == 1:
            curves = ("--curve", "0,1", "--phi", "[[1,1],[0,1]]")
        else:
            n = 6 * g - 1
            curves = ("--curve", json.dumps([int(e in (2, 3)) for e in range(n)]),
                      "--beta", json.dumps([int(e in (7, 8)) for e in range(n)]))
        for cell in ("reduced", "big"):
            code, out, _ = run_cli("detect", *genus, "--N", "3", "--cell", cell, *curves)
            assert code == 0 and json.loads(out)["verdict"] == "certified-nontrivial"
    for g in (1, 2, 3):
        shared, fresh = build_sigma_g_star(g), Triangulation(build_sigma_g_star(g).faces)
        assert shared.balanced_lattice_data == fresh.balanced_lattice_data
        assert shared.refined_lattice_data == fresh.refined_lattice_data


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


def test_decimal_entries_are_read_as_written():
    # a JSON number with a fraction or exponent is the decimal it writes, not
    # the nearest double: 0.1 is 1/10, so [0.1, 0, 0, 10] has determinant 1
    for decimals, fractions in (
        ("[0.1, 0, 0, 10]", '["1/10", 0, 0, 10]'),
        ("[0.5, 0, 0, 2.0]", '["1/2", 0, 0, 2]'),
        ("[2.5E-1, 0, 0, 4e0]", '["1/4", 0, 0, 4]'),
        ("[1, 0.3, 0, 1]", '[1, "3/10", 0, 1]'),
    ):
        expected = run_cli("leaf", "classify", "--mat", fractions)
        assert expected[0] == 0
        assert run_cli("leaf", "classify", "--mat", decimals) == expected
        rep = '{"genus": 1, "images": [%s, [0, 1, -1, 0]]}'
        expected = run_cli("rep", "moment", "--rep", rep % fractions)
        assert expected[0] == 0
        assert run_cli("rep", "moment", "--rep", rep % decimals) == expected


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


# the images need Q(zeta_8): zeta_8 and its inverse -zeta_8^3
MIXED = [
    {"order": 8, "coeffs": [[0, 1], [1, 1]]}, 0, 0,
    {"order": 8, "coeffs": [[0, 1], [0, 1], [0, 1], [-1, 1]]},
]
MIXED_REP = {"genus": 1, "images": [MIXED, [0, 1, -1, 0]]}
ORBIT_GENS = '[{"words":{"a1":"a","b1":"ba"}},{"words":{"a1":"aB","b1":"b"}}]'


@pytest.mark.parametrize(
    "argv, explicit",
    [
        (("rep", "moment", "--rep", json.dumps(MIXED_REP)),
         ("rep", "moment", "--rep", json.dumps({**MIXED_REP, "field": {"cyclotomicOrder": 8}}))),
        (("orbit", "--rep", json.dumps(MIXED_REP), "--gens", ORBIT_GENS, "--N", "3"),
         ("orbit", "--rep", json.dumps({**MIXED_REP, "field": {"cyclotomicOrder": 8}}),
          "--gens", ORBIT_GENS, "--N", "3")),
        (("leaf", "classify", "--mat", json.dumps(MIXED), "--double", "[0, 1, -1, 0]"),
         ("leaf", "classify", "--mat", json.dumps(MIXED), "--double", "[0, 1, -1, 0]",
          "--field-order", "8")),
    ],
    ids=["rep-moment", "orbit", "leaf-double"],
)
def test_one_input_lives_in_the_field_of_all_its_entries(argv, explicit):
    """Matrices whose entries need Q(zeta_8), with the field left at its
    default Q(zeta_4), read as if the field were given as Q(zeta_8)."""
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == run_cli(*explicit)[1]
    if argv[0] == "orbit":
        assert json.loads(out)["size"] == 48


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


def _output(*argv):
    code, out, _ = run_cli(*argv)
    assert code == 0
    return json.loads(out)


def test_every_shipped_schema_describes_a_command_input_or_output():
    # each schema file, and a command's input or output that validates
    # against it; a file that describes nothing a command reads or prints
    # fails here
    zeta4 = {"order": 4, "coeffs": [[0, 1], [1, 1]]}
    rep = {
        "genus": 1,
        "field": {"cyclotomicOrder": 8},
        "images": [[zeta4, 0, 0, {"order": 4, "coeffs": [[0, 1], [-1, 1]]}], [1, 1, 0, 1]],
    }
    assert _output("rep", "moment", "--rep", json.dumps(rep))["cell"] == "big"
    surface = _output("surface", "info")
    described = {
        "certificate.schema.json": _output("detect", "--curve", "0,1", "--phi", "[[1,1],[0,1]]"),
        "support.schema.json": _output("qtrace", "support", "--curve", "0,1"),
        "triangulation.schema.json": {
            key: surface[key] for key in ("faces", "edges", "gluing", "genus", "check")
        },
        "representation.schema.json": rep,  # the --rep of rep moment and orbit
        "cyclotomic.schema.json": zeta4,  # a --rep matrix entry
    }
    shipped = sorted(f.name for f in resources.files("skeinlab").joinpath("schemas").iterdir())
    assert shipped == sorted(described)
    for name, instance in described.items():
        make_validator(name).validate(instance)
    # the representation schema reads its cyclotomic entries through the other
    assert '"$ref": "skeinlab/cyclotomic"' in json.dumps(load_schema("representation.schema.json"))


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
    # the three requests read the one Delta_2, so they share one detection
    # context
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


def test_detect_batch_bad_edge_label_keeps_the_good_slot():
    good = {"curve": "0,1", "N": 3, "beta": "1,1"}
    bad = {"curve": {"coords": {"9": 2}}, "N": 3, "beta": "1,1"}
    code, out, err = run_cli("detect", "--batch", json.dumps([bad, good]))
    assert code == 2 and "Traceback" not in err
    certs = json.loads(out)["certificates"]
    assert certs[0] == {"error": "curve {'9': 2}: edge label '9' is not in 0..4"}
    assert certs[1]["verdict"] == "certified-nontrivial"


def test_batch_genus_above_the_bound_keeps_the_other_slots():
    # a genus far above the bound is refused before any surface is built,
    # as an error slot between the others' certificates
    good = {"curve": "0,1", "phi": [[1, 1], [0, 1]]}
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        "detect", "--batch", json.dumps([good, {"curve": "0,1", "genus": 1000001}, good])
    )
    assert time.perf_counter() - t0 < 5
    assert code == 2
    first, bad, last = json.loads(out)["certificates"]
    assert bad == {"error": "genus must be <= 35"}
    assert first == last and first["verdict"] == "certified-nontrivial"


def test_the_genus_bound_admits_the_slowest_commands_and_refuses_one_more():
    # at the bound the slowest commands, `lattice info --refined` and a
    # detect request on each cell, take about 0.3 s and 0.15 s wall on a
    # 2-CPU Xeon host
    pair = ("--curve", '{"2": 1, "3": 1}', "--beta", '{"7": 1, "8": 1}')
    commands = [("lattice", "info", "--refined")]
    commands += [("detect", "--cell", cell, *pair) for cell in ("reduced", "big")]
    for argv in commands:
        code, out, err = run_cli(*argv, "--genus", "35", "--N", "3")
        assert code == 0, err
        if argv[0] == "lattice":
            report = json.loads(out)
            assert report["piDegreeReduced"] == 3 ** (3 * 35 - 1)
            assert report["refined"]["index"] == 3 ** (6 * 35)
        else:
            assert json.loads(out)["verdict"] == "certified-nontrivial"
    for argv in (("surface", "info"), ("qtorus", "selftest"), *commands):
        assert run_cli(*argv, "--genus", "36") == (2, "", "error: genus must be <= 35\n")


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


def test_detect_word_class_beta_is_an_assumption():
    # a word class maps no curve, so its beta is carried as an assumption;
    # a matrix class's beta is checked instead
    words = json.dumps({"words": {"a1": "a", "b1": "ba"}})
    single, slot = _single_and_batch_slot(
        ("--curve=0,1", "--beta=1,1", "--N", "3", "--phi", words),
        {"curve": "0,1", "beta": "1,1", "N": 3, "phi": json.loads(words)},
    )
    assert single == slot
    assert json.loads(single)["assumptions"] == ["delta-liftable", "beta-is-image"]
    single, slot = _single_and_batch_slot(
        ("--curve=0,1", "--beta=1,1", "--N", "3", "--phi", "[[1,1],[0,1]]"),
        {"curve": "0,1", "beta": "1,1", "N": 3, "phi": [[1, 1], [0, 1]]},
    )
    assert single == slot
    assert json.loads(single)["assumptions"] == ["delta-liftable"]


def test_class_shorthand_is_genus_one_only():
    for curve in ("0,1", '{"pq": [0, 1]}', "[0, 1]"):
        code, out, err = run_cli("qtrace", "support", "--genus", "2", "--curve", curve)
        assert code == 2 and out == ""
        assert "genus-1 only" in err
    code, _, err = run_cli("detect", "--genus", "2", "--curve", "0,1")
    assert code == 2 and "genus-1 only" in err


REP = json.dumps({"genus": 1, "images": [[0, 1, -1, 0], [0, 1, -1, 0]]})
REP_GENUS_2 = json.dumps({"genus": 2, "images": [[0, 1, -1, 0]] * 4})
REP_GENUS_0 = '{"genus": 0, "images": []}'
REP_GENUS_TRUE = json.dumps({"genus": True, "images": [[0, 1, -1, 0], [0, 1, -1, 0]]})
TWIST = {"a1": "a1", "b1": "b1a1"}
NEEDS_REP = (
    'a representation needs "genus" and "images", e.g. '
    '{"genus": 1, "images": [[0, 1, -1, 0], [1, 1, 0, 1]]}, not '
)
SHORT_MATRIX = {"matrix": [1, 2]}
NOT_JSON = "Expecting value: line 1 column 1 (char 0)"


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
    _row("rep-dims-config-cell-middle", ("--config", File('{"cell": "middle"}'), "rep", "dims"),
         "--config cell must be one of big, reduced, not 'middle'"),
    _row("detect-config-curve-list", ("--config", File('{"curve": [0, 1]}'), "detect"),
         "--config curve must be str, not [0, 1]"),
    _row("qtrace-over-cap", ("qtrace", "support", "--curve", "8,5"),
         "34 intersection points exceed the cap 24"),
    _row("qtrace-negative-cap", ("qtrace", "support", "--curve", "0,1", "--cap", "-1"),
         "cap must be >= 0, not -1"),
    _row("qtrace-pq-one-int", ("qtrace", "support", "--curve", '{"pq": [1]}'),
         "(p, q) needs two integers, not {'pq': [1]}"),
    _row("qtrace-negative-edge-labels",
         ("qtrace", "support", "--curve", '{"-5": 1, "-4": 1, "-2": 1}'),
         "--curve {'-5': 1, '-4': 1, '-2': 1}: edge label '-5' is not in 0..4"),
    # a coordinate is an int, and an edge label an int or its decimal text
    _row("qtrace-float-coordinate", ("qtrace", "support", "--curve", "[1,1,0,1.9,0]"),
         "--curve [1, 1, 0, 1.9, 0]: intersection number must be an integer, not 1.9"),
    _row("qtrace-bool-coordinate", ("qtrace", "support", "--curve", "[true,1,0,1,0]"),
         "--curve [True, 1, 0, 1, 0]: intersection number must be an integer, not True"),
    _row("qtrace-text-coordinate", ("qtrace", "support", "--curve", '[1,1,0,"1",0]'),
         "--curve [1, 1, 0, '1', 0]: intersection number must be an integer, not '1'"),
    _row("qtrace-float-coordinate-by-label",
         ("qtrace", "support", "--curve", '{"2": 1.0, "3": 1}'),
         "--curve {'2': 1.0, '3': 1}: intersection number must be an integer, not 1.0"),
    _row("qtrace-zero-padded-edge-label",
         ("qtrace", "support", "--curve", '{"2": 5, "3": 1, "02": 1}'),
         "--curve {'2': 5, '3': 1, '02': 1}: edge label '02' is not in 0..4"),
    _row("qtrace-spaced-edge-label", ("qtrace", "support", "--curve", '{" 2": 1, "3": 1}'),
         "--curve {' 2': 1, '3': 1}: edge label ' 2' is not in 0..4"),
    _row("qtrace-signed-edge-label", ("qtrace", "support", "--curve", '{"+2": 1, "3": 1}'),
         "--curve {'+2': 1, '3': 1}: edge label '+2' is not in 0..4"),
    _row("detect-float-beta-coordinate", ("detect", "--curve", "1,1", "--beta", "[2,2,1,3,0.5]"),
         "beta [2, 2, 1, 3, 0.5]: intersection number must be an integer, not 0.5",
         batch={"curve": "1,1", "beta": [2, 2, 1, 3, 0.5]}),
    _row("orbit-rep-directory", ("orbit", "--rep", File(), "--gens", "[]"),
         "[Errno 21] Is a directory: '<file>'"),
    _row("orbit-gens-directory", ("orbit", "--rep", REP, "--gens", File()),
         "[Errno 21] Is a directory: '<file>'"),
    _row("orbit-gens-not-list", ("orbit", "--rep", REP, "--gens", "5"),
         "--gens must be a JSON list, not 5"),
    _row("orbit-field-not-object",
         ("orbit", "--rep", json.dumps({**json.loads(REP), "field": 5}), "--gens", "[]"),
         '"field" must be a JSON object, not 5'),
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
    _row("orbit-genus-0", ("orbit", "--rep", REP_GENUS_0, "--gens", "[]"),
         "genus must be >= 1"),
    _row("orbit-genus-true", ("orbit", "--rep", REP_GENUS_TRUE, "--gens", "[]"),
         "genus must be an integer, not True"),
    _row("rep-moment-genus-0", ("rep", "moment", "--rep", REP_GENUS_0), "genus must be >= 1"),
    _row("rep-moment-genus-true", ("rep", "moment", "--rep", REP_GENUS_TRUE),
         "genus must be an integer, not True"),
    _row("orbit-negative-cap", ("orbit", "--rep", REP, "--gens", "[]", "--cap", "-1"),
         "cap must be >= 0, not -1"),
    _row("orbit-cap-0-below-the-seed", ("orbit", "--rep", REP, "--gens", "[]", "--cap", "0"),
         "orbit closure exceeded cap"),
    _row("orbit-genus-2-generator-on-genus-1-rep",
         ("orbit", "--rep", REP, "--gens", json.dumps([{"genus": 2, "words": TWIST}])),
         "an orbit generator of genus 2 cannot act on a representation of genus 1"),
    _row("orbit-genus-2-generator-beyond-genus-1-rep",
         ("orbit", "--rep", REP, "--gens",
          json.dumps([{"genus": 2, "words": {"a1": "a1B1", "b1": "b1"}}])),
         "an orbit generator of genus 2 cannot act on a representation of genus 1"),
    _row("orbit-genus-1-generator-on-genus-2-rep",
         ("orbit", "--rep", REP_GENUS_2, "--gens", json.dumps([{"genus": 1, "words": TWIST}])),
         "an orbit generator of genus 1 cannot act on a representation of genus 2"),
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
    _row("leaf-mat-zero-denominator", ("leaf", "classify", "--mat", '["1/0", 0, 0, 1]'),
         "matrix entry '1/0' is not a rational or cyclotomic number"),
    _row("leaf-mat-infinite-entry", ("leaf", "classify", "--mat", "[Infinity, 0, 0, 1]"),
         "matrix entry inf is not a rational or cyclotomic number"),
    _row("rep-moment-true-entry",
         ("rep", "moment", "--rep", '{"genus": 1, "images": [[true, 0, 0, 1], [1, 0, 0, 1]]}'),
         "matrix entry True is not a rational or cyclotomic number"),
    _row("rep-moment-zero-denominator-coeff",
         ("rep", "moment", "--rep",
          '{"genus": 1, "images": [[{"order": 4, "coeffs": [[1, 0]]}, 0, 0, 1], [1, 0, 0, 1]]}'),
         "matrix entry {'order': 4, 'coeffs': [[1, 0]]} is not a rational or cyclotomic number"),
    _row("orbit-rep-zero-denominator",
         ("orbit", "--rep", '{"genus": 1, "images": [["1/0", 0, 0, 1], [1, 0, 0, 1]]}',
          "--gens", "[]"),
         "matrix entry '1/0' is not a rational or cyclotomic number"),
    *(
        _row(f"leaf-mat-{name}-entry", ("leaf", "classify", "--mat", f"[2, {entry}, 0, 0.5]"),
             f"matrix entry {shown} is not a rational or cyclotomic number")
        for name, entry, shown in (("text", '"x"', "'x'"), ("null", "null", "None"),
                                   ("list", "[1]", "[1]"))
    ),
    # a decimal is read exactly, so its power of ten is bounded
    _row("leaf-mat-long-exponent", ("leaf", "classify", "--mat", "[1e-99999, 0, 0, 1]"),
         "matrix entry 1e-99999 is not a rational or cyclotomic number"),
    _row("rep-moment-long-exponent-text",
         ("rep", "moment", "--rep", '{"genus": 1, "images": [["1e99999", 0, 0, 1], [1, 0, 0, 1]]}'),
         "matrix entry '1e99999' is not a rational or cyclotomic number"),
    # an accepted exponent can still give an output int that Python will
    # not print
    _row("leaf-mat-output-over-the-digit-bound",
         ("leaf", "classify", "--mat", '["1e5000", 0, 0, "1e-5000"]'),
         "the output has an integer of more than 4300 digits, which is not printed"),
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
    _row("detect-edge-label-out-of-range",
         ("detect", "--curve", '{"coords": {"9": 2}}', "--N", "3", "--beta", "1,1"),
         "curve {'9': 2}: edge label '9' is not in 0..4",
         batch={"curve": {"coords": {"9": 2}}, "N": 3, "beta": "1,1"}),
    _row("detect-pq-fraction", ("detect", "--curve", "[1.5, 2]"),
         "(p, q) needs two integers, not [1.5, 2]", batch={"curve": [1.5, 2]}),
    _row("detect-non-word-image", ("detect", "--curve", "0,1", "--phi", '{"words": {"a1": 5}}'),
         'the image of a1 must be a word such as "ab" or a list of generator ids '
         "in ±1..±2, not 5",
         batch={"curve": "0,1", "phi": {"words": {"a1": 5}}}),
    _row("detect-word-class-without-beta",
         ("detect", "--curve", "0,1", "--phi", '{"words": {"a1": "a", "b1": "ba"}}'),
         "a word mapping class has no curve action: supply the image curve as beta",
         batch={"curve": "0,1", "phi": {"words": {"a1": "a", "b1": "ba"}}}),
    _row("detect-word-class-of-another-genus",
         ("detect", "--curve", "0,1", "--beta", "1,1", "--N", "3",
          "--phi", '{"genus": 2, "words": {"a1": "a1", "b1": "b1a1"}}'),
         "phi has genus 2, but the request has genus 1",
         batch={"curve": "0,1", "beta": "1,1", "N": 3,
                "phi": {"genus": 2, "words": {"a1": "a1", "b1": "b1a1"}}}),
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
    _row("detect-beta-not-the-image",
         ("detect", "--N", "5", "--curve", "1,0", "--phi", "[[1,0],[0,1]]", "--beta", "0,1"),
         "beta [0, 0, 1, 1, 0] is not the image [1, 1, 0, 1, 0] of the curve under phi",
         batch={"curve": "1,0", "phi": [[1, 0], [0, 1]], "beta": "0,1", "N": 5}),
    _row("detect-batch-unknown-field",
         ("detect", "--batch", '[{"curve": "1,0", "phi": [[1, 1], [0, 1]], "N": 5, "bogus": 1}]'),
         "unknown request field 'bogus': the fields are genus, N, cell, cap, method, phi, "
         "curve, beta"),
    _row("detect-batch-miscased-field", ("detect", "--batch", '[{"curve": "0,1", "phi": [[1, 1], [0, 1]], "Cap": 30}]'),
         "unknown request field 'Cap': the fields are genus, N, cell, cap, method, phi, "
         "curve, beta"),
    _row("detect-batch-number", ("detect", "--batch", "5"), "--batch must be a JSON list, not 5"),
    _row("detect-batch-object", ("detect", "--batch", '{"curve": "0,1"}'),
         "--batch must be a JSON list, not {'curve': '0,1'}"),
    _row("detect-batch-text-N", ("detect", "--batch", '[{"curve": "0,1", "N": "5"}]'),
         "N must be an integer, not '5'"),
    _row("detect-batch-text-cap", ("detect", "--batch", '[{"curve": "0,1", "cap": "30"}]'),
         "cap must be an integer, not '30'"),
    _row("detect-batch-text-genus", ("detect", "--batch", '[{"curve": "0,1", "genus": "1"}]'),
         "genus must be an integer, not '1'"),
    _row("detect-batch-unknown-method",
         ("detect", "--batch", '[{"curve": "0,1", "phi": [[1, 1], [0, 1]], "method": "suport"}]'),
         "method must be one of theorem2, support, not 'suport'"),
    _row("detect-batch-number-method",
         ("detect", "--batch", '[{"curve": "0,1", "phi": [[1, 1], [0, 1]], "method": 5}]'),
         "method must be one of theorem2, support, not 5"),
    _row("orbit-rep-missing-file", ("orbit", "--rep", "missing.json", "--gens", "[]"),
         "--rep 'missing.json' is neither an existing file nor valid JSON: " + NOT_JSON),
    _row("orbit-gens-missing-file", ("orbit", "--rep", REP, "--gens", "missing.json"),
         "--gens 'missing.json' is neither an existing file nor valid JSON: " + NOT_JSON),
    _row("detect-phi-missing-file", ("detect", "--curve", "0,1", "--phi", "missing.json"),
         "--phi 'missing.json' is neither an existing file nor valid JSON: " + NOT_JSON),
    _row("detect-batch-missing-file", ("detect", "--batch", "missing.json"),
         "--batch 'missing.json' is neither an existing file nor valid JSON: " + NOT_JSON),
    _row("rep-moment-missing-file", ("rep", "moment", "--rep", "missing.json"),
         "--rep 'missing.json' is neither an existing file nor valid JSON: " + NOT_JSON),
    _row("config-file-not-json", ("--config", File("not json"), "lattice", "info"),
         "--config '<file>' is not valid JSON: " + NOT_JSON),
    _row("orbit-rep-file-not-json", ("orbit", "--rep", File("not json"), "--gens", "[]"),
         "--rep '<file>' is not valid JSON: " + NOT_JSON),
    _row("orbit-gens-file-not-json", ("orbit", "--rep", REP, "--gens", File("not json")),
         "--gens '<file>' is not valid JSON: " + NOT_JSON),
    _row("rep-moment-file-not-json", ("rep", "moment", "--rep", File("not json")),
         "--rep '<file>' is not valid JSON: " + NOT_JSON),
    _row("detect-curve-file-not-json", ("detect", "--curve", File("not json")),
         "--curve '<file>' is not valid JSON: " + NOT_JSON),
    _row("detect-beta-file-not-json", ("detect", "--curve", "0,1", "--beta", File("not json")),
         "--beta '<file>' is not valid JSON: " + NOT_JSON),
    _row("detect-phi-file-not-json", ("detect", "--curve", "0,1", "--phi", File("not json")),
         "--phi '<file>' is not valid JSON: " + NOT_JSON),
    _row("detect-batch-file-not-json", ("detect", "--batch", File("not json")),
         "--batch '<file>' is not valid JSON: " + NOT_JSON),
    _row("leaf-mat-not-json", ("leaf", "classify", "--mat", "notjson"),
         "--mat 'notjson' is not valid JSON: " + NOT_JSON),
    _row("leaf-double-not-json",
         ("leaf", "classify", "--mat", "[1, 1, 0, 1]", "--double", "nope"),
         "--double 'nope' is not valid JSON: " + NOT_JSON),
    _row("detect-curve-text-not-json", ("detect", "--curve", "{x"),
         "curve '{x' is not valid JSON: "
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
         batch={"curve": "{x"}),
    _row("detect-curve-list-text-not-json", ("detect", "--curve", "[1,"),
         "curve '[1,' is not valid JSON: Expecting value: line 1 column 4 (char 3)",
         batch={"curve": "[1,"}),
    _row("detect-beta-text-not-json", ("detect", "--curve", "0,1", "--beta", "[1,"),
         "beta '[1,' is not valid JSON: Expecting value: line 1 column 4 (char 3)",
         batch={"curve": "0,1", "beta": "[1,"}),
    _row("qtrace-curve-text-not-json", ("qtrace", "support", "--curve", "[1,"),
         "--curve '[1,' is not valid JSON: Expecting value: line 1 column 4 (char 3)"),
    # an integer is a JSON int, or ASCII decimal text in "p,q" and in flags
    _row("detect-bool-matrix-entry", ("detect", "--curve", "0,1", "--phi", "[[true,1],[0,1]]"),
         "matrix must be a 2x2 integer matrix [[a, b], [c, d]], not [[True, 1], [0, 1]]",
         batch={"curve": "0,1", "phi": [[True, 1], [0, 1]]}),
    _row("detect-word-class-genus-true",
         ("detect", "--curve", "0,1", "--beta", "1,1", "--N", "3",
          "--phi", '{"genus": true, "words": {"a1": "a1", "b1": "b1a1"}}'),
         "genus must be an integer, not True",
         batch={"curve": "0,1", "beta": "1,1", "N": 3,
                "phi": {"genus": True, "words": {"a1": "a1", "b1": "b1a1"}}}),
    _row("rep-moment-field-order-true",
         ("rep", "moment", "--rep", json.dumps({**json.loads(REP), "field": {"cyclotomicOrder": True}})),
         "cyclotomicOrder must be an integer, not True"),
    _row("rep-moment-scalar-order-true",
         ("rep", "moment", "--rep",
          '{"genus": 1, "images": [[{"order": true, "coeffs": [[1, 1]]}, 0, 0, 1], [1, 0, 0, 1]]}'),
         "a cyclotomic number's order or coefficient must be an integer, not True"),
    _row("rep-moment-scalar-denominator-true",
         ("rep", "moment", "--rep",
          '{"genus": 1, "images": [[{"order": 4, "coeffs": [[1, true]]}, 0, 0, 1], [1, 0, 0, 1]]}'),
         "a cyclotomic number's order or coefficient must be an integer, not True"),
    _row("detect-pq-text-parts", ("detect", "--curve", '["1","0"]'),
         "(p, q) needs two integers, not ['1', '0']", batch={"curve": ["1", "0"]}),
    _row("detect-pq-underscore", ("detect", "--curve", "1_0,1"),
         "(p, q) needs two integers, not '1_0,1'", batch={"curve": "1_0,1"}),
    _row("detect-pq-arabic-digit", ("detect", "--curve", "\u0663,1"),
         "(p, q) needs two integers, not '\u0663,1'", batch={"curve": "\u0663,1"}),
    _row("surface-genus-arabic-digit", ("surface", "info", "--genus", "\u0662"),
         "argument --genus: invalid int value: '\u0662'"),
    _row("lattice-N-underscore", ("lattice", "info", "--N", "1_1"),
         "argument --N: invalid int value: '1_1'"),
    _row("detect-N-spaced-underscore",
         ("detect", "--curve", "0,1", "--phi", "[[1,1],[0,1]]", "--N", " 1_1"),
         "argument --N: invalid int value: ' 1_1'"),
    _row("qtrace-cap-underscore", ("qtrace", "support", "--curve", "0,1", "--cap", "2_4"),
         "argument --cap: invalid int value: '2_4'"),
    _row("rep-dims-orbit-size-underscore", ("rep", "dims", "--orbit-size", "1_0"),
         "argument --orbit-size: invalid int value: '1_0'"),
    _row("leaf-field-order-arabic-digit",
         ("leaf", "classify", "--mat", "[1, 1, 0, 1]", "--field-order", "\u0664"),
         "argument --field-order: invalid int value: '\u0664'"),
    # an object holds its known fields, each under one spelling, none as null
    _row("detect-phi-matrix-and-words",
         ("detect", "--curve", "0,1", "--phi", json.dumps({"matrix": [[1, 1], [0, 1]], "words": TWIST})),
         "give exactly one of matrix or words",
         batch={"curve": "0,1", "phi": {"matrix": [[1, 1], [0, 1]], "words": TWIST}}),
    _row("detect-curve-coords-and-pq",
         ("detect", "--curve", '{"coords": [1, 1, 0, 1, 0], "pq": [0, 1]}'),
         "curve gives both pq and coords: give one",
         batch={"curve": {"coords": [1, 1, 0, 1, 0], "pq": [0, 1]}}),
    _row("detect-phi-genus-2-matrix",
         ("detect", "--curve", "0,1", "--phi", '{"genus": 2, "matrix": [[1, 1], [0, 1]]}'),
         "matrix mapping classes are genus-1 only",
         batch={"curve": "0,1", "phi": {"genus": 2, "matrix": [[1, 1], [0, 1]]}}),
    _row("detect-words-two-spellings",
         ("detect", "--curve", "0,1", "--beta", "1,1", "--N", "3",
          "--phi", '{"words": {"a": "ab", "a1": "a", "b1": "ba"}}'),
         "\"words\" gives both 'a1' and 'a': give one",
         batch={"curve": "0,1", "beta": "1,1", "N": 3,
                "phi": {"words": {"a": "ab", "a1": "a", "b1": "ba"}}}),
    _row("detect-phi-unknown-field",
         ("detect", "--curve", "0,1", "--phi", '{"matrix": [[1, 1], [0, 1]], "power": 2}'),
         "unknown mapping class field 'power': the fields are genus, matrix, words",
         batch={"curve": "0,1", "phi": {"matrix": [[1, 1], [0, 1]], "power": 2}}),
    _row("detect-words-unknown-generator",
         ("detect", "--curve", "0,1", "--beta", "1,1", "--N", "3",
          "--phi", '{"words": {"a1": "a", "b1": "ba", "c9": "a"}}'),
         "unknown \"words\" field 'c9': the fields are a1, b1, a, b",
         batch={"curve": "0,1", "beta": "1,1", "N": 3,
                "phi": {"words": {"a1": "a", "b1": "ba", "c9": "a"}}}),
    # a word is generator tokens and spaces, with ASCII decimal indices:
    # any other character is refused, not skipped
    _row("detect-word-stray-character",
         ("detect", "--curve", "0,1", "--beta", "1,1",
          "--phi", '{"words": {"a1": "a#", "b1": "ba"}}'),
         'word \'a#\' is not generator tokens such as "a1 B2" or "abA"',
         batch={"curve": "0,1", "beta": "1,1", "phi": {"words": {"a1": "a#", "b1": "ba"}}}),
    _row("detect-word-operator",
         ("detect", "--curve", "0,1", "--beta", "1,1",
          "--phi", '{"words": {"a1": "a1", "b1": "b1 * a1"}}'),
         'word \'b1 * a1\' is not generator tokens such as "a1 B2" or "abA"',
         batch={"curve": "0,1", "beta": "1,1", "phi": {"words": {"a1": "a1", "b1": "b1 * a1"}}}),
    _row("detect-word-tab-before-index",
         ("detect", "--curve", "0,1", "--beta", "1,1",
          "--phi", '{"words": {"a1": "a", "b1": "b\\t1a"}}'),
         'word \'b\\t1a\' is not generator tokens such as "a1 B2" or "abA"',
         batch={"curve": "0,1", "beta": "1,1", "phi": {"words": {"a1": "a", "b1": "b\t1a"}}}),
    _row("detect-word-non-ascii-index",
         ("detect", "--curve", "0,1", "--beta", "1,1",
          "--phi", '{"words": {"a1": "a\u0661", "b1": "ba"}}'),
         'word \'a\u0661\' is not generator tokens such as "a1 B2" or "abA"',
         batch={"curve": "0,1", "beta": "1,1", "phi": {"words": {"a1": "a\u0661", "b1": "ba"}}}),
    _row("orbit-gens-word-stray-character",
         ("orbit", "--rep", REP, "--gens", '[{"words": {"a1": "a", "b1": "b?a"}}]'),
         'word \'b?a\' is not generator tokens such as "a1 B2" or "abA"'),
    # an empty flag value is given, not absent: the flag's own reader refuses it
    _row("leaf-empty-double", ("leaf", "classify", "--mat", "[0,1,-1,0]", "--double="),
         f"--double '' is not valid JSON: {NOT_JSON}"),
    _row("detect-empty-batch", ("detect", "--batch="),
         f"--batch '' is neither an existing file nor valid JSON: {NOT_JSON}"),
    _row("surface-empty-config", ("--config=", "surface", "info"),
         "[Errno 2] No such file or directory: ''"),
    _row("orbit-rep-unknown-field",
         ("orbit", "--rep", json.dumps({**json.loads(REP), "order": 4}), "--gens", "[]"),
         "unknown representation field 'order': the fields are genus, images, field"),
    _row("orbit-rep-field-unknown-key",
         ("orbit", "--rep", json.dumps({**json.loads(REP), "field": {"order": 8}}), "--gens", "[]"),
         'unknown "field" field \'order\': the fields are cyclotomicOrder'),
    _row("rep-moment-scalar-unknown-field",
         ("rep", "moment", "--rep",
          '{"genus": 1, "images": [[{"order": 4, "coeffs": [[1, 1]], "den": 2}, 0, 0, 1], '
          '[1, 0, 0, 1]]}'),
         "unknown cyclotomic number field 'den': the fields are order, coeffs"),
    _row("detect-batch-null-phi",
         ("detect", "--batch", '[{"curve": "0,1", "beta": "1,1", "N": 3, "phi": null}]'),
         "request field 'phi' must not be null"),
    _row("detect-batch-null-beta",
         ("detect", "--batch", '[{"curve": "0,1", "phi": [[1, 1], [0, 1]], "beta": null}]'),
         "request field 'beta' must not be null"),
    # a repeated key refuses the whole JSON text, a batch included
    _row("detect-batch-repeated-N",
         ("detect", "--batch", '[{"curve": "0,1", "phi": [[1, 1], [0, 1]], "N": 4, "N": 5}]'),
         "--batch '[{\"curve\": \"0,1\", \"phi\": [[1, 1], [0, 1]], \"N\": 4, \"N\": 5}]' "
         "is neither an existing file nor valid JSON: repeated key 'N'"),
    _row("qtrace-repeated-edge-label",
         ("qtrace", "support", "--curve", '{"2": 5, "3": 1, "2": 1}'),
         "--curve '{\"2\": 5, \"3\": 1, \"2\": 1}' is not valid JSON: repeated key '2'"),
    _row("config-repeated-key", ("--config", File('{"N": 5, "N": 7}'), "lattice", "info"),
         "--config '<file>' is not valid JSON: repeated key 'N'"),
    _row("detect-beta-negative-coordinate", ("detect", "--curve", "1,1", "--beta", "[2,2,1,3,-1]"),
         "beta [2, 2, 1, 3, -1]: negative intersection number",
         batch={"curve": "1,1", "beta": [2, 2, 1, 3, -1]}),
    # a mapping class maps a connected curve to a connected curve, so beta
    # is one, like alpha, whether or not a word class comes with it
    *(
        _row(f"detect-beta-{name}{suffix}",
             ("detect", "--N", "5", "--curve", "1,0", "--beta", beta, *flags),
             "beta must be a connected essential curve",
             batch={"curve": "1,0", "beta": json.loads(beta), "N": 5,
                    **({"phi": json.loads(flags[1])} if flags else {})})
        for name, beta in (("empty", "[0,0,0,0,0]"), ("two-parallel-copies", "[0,0,2,2,0]"),
                           ("arc", "[1,1,0,1,2]"))
        for suffix, flags in (("", ()), ("-word-class", ("--phi", '{"words":{"a1":"a","b1":"ba"}}')))
    ),
    # so is alpha, and it is checked before a matrix class acts on it
    *(
        _row(f"detect-alpha-{name}",
             ("detect", "--N", "5", "--curve", alpha, "--phi", "[[1,1],[0,1]]"),
             "alpha must be a connected essential curve",
             batch={"curve": json.loads(alpha), "phi": [[1, 1], [0, 1]], "N": 5})
        for name, alpha in (("empty", "[0,0,0,0,0]"), ("two-parallel-copies", "[2,2,0,2,0]"))
    ),
    # an arc ends on the boundary arc: it is no closed curve, so no class,
    # the identity included, maps it
    *(
        _row(f"detect-alpha-arc-{name}",
             ("detect", "--N", "5", "--curve", "[1,1,0,1,2]", "--phi", phi),
             "alpha must be a connected essential curve",
             batch={"curve": [1, 1, 0, 1, 2], "phi": json.loads(phi), "N": 5})
        for name, phi in (("identity", "[[1,0],[0,1]]"), ("twist", "[[1,1],[0,1]]"))
    ),
    _row("detect-alpha-arc-genus-two",
         ("detect", "--genus", "2", "--N", "5", "--curve", "[0,0,0,0,0,2,4,1,3,2,2]",
          "--beta", "[0,2,1,1,2,0,2,1,1,2,0]"),
         "alpha must be a connected essential curve",
         batch={"genus": 2, "curve": [0, 0, 0, 0, 0, 2, 4, 1, 3, 2, 2],
                "beta": [0, 2, 1, 1, 2, 0, 2, 1, 1, 2, 0], "N": 5}),
    # the boundary-parallel curve is closed and connected, but every mapping
    # class fixes it: as alpha or beta it is refused before any class acts,
    # under a matrix class, a word class or none
    *(
        _row(f"detect-{who}-boundary-parallel-genus-{genus}-{kind}",
             ("detect", "--genus", str(genus), "--N", "5",
              "--curve", json.dumps(alpha), *(("--beta", json.dumps(beta)) if beta else ()),
              *(("--phi", json.dumps(phi)) if phi else ())),
             f"{who} must be a connected essential curve",
             batch={"genus": genus, "curve": alpha, "N": 5, **({"beta": beta} if beta else {}),
                    **({"phi": phi} if phi else {})})
        for genus, essential, parallel in (
            (1, [1, 1, 0, 1, 0], [2, 2, 2, 2, 0]),
            (2, {"2": 1, "3": 1}, [2] * 10 + [0]),
        )
        for kind, phi in (
            ("matrix-class", [[1, 1], [0, 1]]),
            ("word-class", {"genus": genus, "words": {"a1": "a1", "b1": "b1a1"}}),
            ("no-phi", None),
        )
        if genus == 1 or kind != "matrix-class"  # matrix classes are genus-1 only
        for who, alpha, beta in (
            ("alpha", parallel, None if kind == "matrix-class" else essential),
            ("beta", essential, parallel),
        )
    ),
    # coeffs is a list of [numerator, denominator] pairs
    *(
        _row(f"rep-moment-coeffs-{name}",
             ("rep", "moment", "--rep",
              f'{{"genus":1,"images":[[{{"order":4,"coeffs":{coeffs}}},0,0,1],[1,0,0,1]]}}'),
             "a cyclotomic number's coeffs must be a list of [numerator, denominator] "
             f"integer pairs, not {json.loads(coeffs)!r}")
        for name, coeffs in (("number", "5"), ("list-of-numbers", "[5]"),
                             ("short-pair", "[[1]]"), ("long-pair", "[[1,2,3]]"))
    ),
    # the input sizes that would take a command minutes are refused at once
    _row("surface-genus-above-the-bound", ("surface", "info", "--genus", "36"),
         "genus must be <= 35"),
    _row("detect-batch-genus-1000001", ("detect", "--batch", '[{"curve": "0,1", "genus": 1000001}]'),
         "genus must be <= 35"),
    _row("rep-moment-order-above-the-bound",
         ("rep", "moment", "--rep",
          '{"genus":1,"images":[[{"order":100000000,"coeffs":[[1,1]]},0,0,1],[1,0,0,1]]}'),
         "cyclotomic order must be in 1..720, not 100000000"),
    _row("leaf-field-order-above-the-bound",
         ("leaf", "classify", "--mat", "[1, 1, 0, 1]", "--field-order", "721"),
         "cyclotomic order must be in 1..720, not 721"),
    # a field and entry orders that are each in bounds, but whose lcm is not
    _row("rep-moment-field-lcm-above-the-bound",
         ("rep", "moment", "--rep",
          '{"genus":1,"field":{"cyclotomicOrder":720},'
          '"images":[[{"order":7,"coeffs":[[1,1]]},0,0,1],[1,0,0,1]]}'),
         "the field order 720 and the entry orders [7] have lcm 5040, "
         "above the largest cyclotomic order 720"),
    _row("leaf-field-lcm-above-the-bound",
         ("leaf", "classify", "--field-order", "720", "--mat",
          '[{"order":7,"coeffs":[[1,1]]},0,0,1]'),
         "the field order 720 and the entry orders [7] have lcm 5040, "
         "above the largest cyclotomic order 720"),
]


def _unique_keys(pairs):
    """A JSON object, refused if it names a key twice."""
    if len(dict(pairs)) < len(pairs):
        raise ValueError("repeated key")
    return dict(pairs)


def _batch_list(text):
    """Whether text is a JSON list that repeats no key: a batch whose bad
    requests each get an error slot, not one refusal of the whole text."""
    try:
        return isinstance(json.loads(text, object_pairs_hook=_unique_keys), list)
    except ValueError:
        return False


def _error_message(argv):
    """The message of a rejected command: its one stderr line, or for a
    batch list its one error slot."""
    code, out, err = run_cli(*argv)
    assert code == 2
    assert "Traceback" not in err and len(err.splitlines()) == 1
    if argv[:2] == ("detect", "--batch") and _batch_list(argv[2]):
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


# a valid value for each option that a command with --N needs besides --N
N_RULE_SAMPLES = {"--rep": REP, "--gens": "[]", "--curve": "1,1"}


def _commands_with_N(parser, prefix=()):
    """(command words, parser) of every subcommand that takes --N."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands_with_N(sub, prefix + (name,))
    if any("--N" in action.option_strings for action in parser._actions):
        yield prefix, parser


N_RULE_COMMANDS = list(_commands_with_N(cli.build_parser()))


@pytest.mark.parametrize("N", ["1", "4"])
@pytest.mark.parametrize(
    "words, parser", N_RULE_COMMANDS, ids=[" ".join(w) for w, _ in N_RULE_COMMANDS]
)
def test_every_command_with_N_keeps_the_odd_N_rule(words, parser, N):
    # one root-order rule for every command: a command added later with --N
    # is checked here too
    argv = list(words)
    for action in parser._actions:
        flag = next((f for f in action.option_strings if f in N_RULE_SAMPLES), None)
        if flag:
            argv += [flag, N_RULE_SAMPLES[flag]]
        else:
            assert action.default is not cli.REQUIRED, f"no sample value for {action.option_strings}"
    assert _error_message((*argv, "--N", N)) == "N must be odd and >= 3"


def test_qtrace_curve_file_matches_inline_curve(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"pq": [1, 1]}))
    inline = run_cli("qtrace", "support", "--curve", "1,1")
    assert inline[0] == 0
    assert run_cli("qtrace", "support", "--curve", str(path)) == inline


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

    monkeypatch.setattr(recount, "reverify_witness", fail)
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


PIPELINE = (
    "skeinlab.detect", "skeinlab.recount", "skeinlab.mcg", "skeinlab.repvar", "dataclasses"
)
TORUS = ("skeinlab.qtorus", "skeinlab.cyclotomic")
# (a command, the modules it must not import)
IMPORT_CASES = [
    (["surface", "info"], PIPELINE + TORUS),
    (["lattice", "info"], PIPELINE + TORUS),
    (["qtorus", "selftest"], PIPELINE + ("skeinlab.cyclotomic", "fractions")),
    (["qtrace", "support", "--curve=2,3"], PIPELINE + TORUS),
    (["detect", "--curve=2,1", "--phi", '{"matrix": [[1, 1], [0, 1]]}'],
     ("skeinlab.qtorus", "skeinlab.cyclotomic", "skeinlab.repvar", "fractions", "dataclasses")),
]


@pytest.mark.parametrize("argv, absent", IMPORT_CASES, ids=[a[0] for a, _ in IMPORT_CASES])
def test_each_command_imports_only_the_modules_it_runs(argv, absent):
    script = f"""
import sys
from skeinlab import cli
cli.main({argv!r})
loaded = [name for name in {absent!r} if name in sys.modules]
assert loaded == [], loaded
"""
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr


def test_genus_one_cap_refusal_stays_small():
    # a 999998-point curve is refused from its coordinates: no point, piece
    # or walk of it is built, so the process stays small. The child reports
    # its own high-water mark, VmHWM: on Linux, ru_maxrss carries the
    # parent's across fork and exec, so a large test process would show.
    script = """
import sys
from skeinlab import cli
cli.main(["detect", "--curve", "200000,199999", "--phi", '{"matrix": [[1, 1], [0, 1]]}'])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
"""
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert '"cap-exceeded"' in proc.stdout
    hwm_kb = int(proc.stderr.splitlines()[-1])
    assert hwm_kb < 100 * 1024, hwm_kb


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


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies: every import in every
    # module, lazy ones inside functions included, is relative, of skeinlab
    # itself or of the standard library
    package = Path(__file__).resolve().parents[1] / "src" / "skeinlab"
    modules = sorted(package.glob("*.py"))
    assert {"cli", "detect", "selftest", "poisson", "_kernels"} <= {m.stem for m in modules}
    allowed = sys.stdlib_module_names | {"skeinlab"}
    foreign = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                (module.name, name)
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert foreign == []


def test_config_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 7}))
    code, out, _ = run_cli("--config", str(cfg), "lattice", "info")
    assert json.loads(out)["N"] == 7
    code, out, _ = run_cli("--config", str(cfg), "lattice", "info", "--N", "3")
    assert json.loads(out)["N"] == 3


def _config(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return str(path)


def test_config_loses_to_an_abbreviated_flag(tmp_path):
    # argparse reads --gen as --genus, so the command line wins
    cfg = _config(tmp_path, {"genus": 3})
    code, out, _ = run_cli("--config", cfg, "surface", "info", "--gen", "2")
    assert code == 0 and json.loads(out)["genus"] == 2


def test_config_sets_only_flags_of_the_chosen_command(tmp_path):
    # keys naming the subcommand, the handler or --config itself are no
    # flags of `rep dims`, so they are ignored like unknown keys
    expected = run_cli("rep", "dims")
    assert expected[0] == 0
    for key, value in (
        ("rep_command", "moment"), ("command", "detect"), ("func", 1),
        ("config", "other.json"), ("mat", 5), ("rep", 5),
    ):
        assert run_cli("--config", _config(tmp_path, {key: value}), "rep", "dims") == expected


def test_config_fills_detect_flags_like_the_batch_fields(tmp_path):
    # detect flags have no defaults of their own: what the config sets
    # reaches the request, and what neither sets is DetectionRequest's
    cfg = _config(tmp_path, {"N": 11, "cap": 30})
    code, single, _ = run_cli("--config", cfg, "detect", "--curve=5,3", "--phi", "[[1,1],[0,1]]")
    assert code == 0
    request = {"curve": "5,3", "phi": [[1, 1], [0, 1]], "N": 11, "cap": 30}
    code, out, _ = run_cli("detect", "--batch", json.dumps([request]))
    [slot] = json.loads(out)["certificates"]
    assert single == json.dumps(slot, sort_keys=True, indent=2) + "\n"
    assert json.loads(single)["verdict"] == "certified-nontrivial"


# a valid command-line value for each required option
REQUIRED_SAMPLES = {**N_RULE_SAMPLES, "--mat": "[1, 1, 0, 1]"}


def _leaf_commands(parser, prefix=()):
    """(command words, parser) of every command that runs something."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_commands(sub, prefix + (name,))
    if not subs:
        yield prefix, parser


CONFIG_FLAGS = [
    pytest.param(words, parser, action, id=" ".join((*words, action.option_strings[0])))
    for words, parser in _leaf_commands(cli.build_parser())
    for action in parser._actions
    if action.option_strings and action.dest != "help"
]


def _recorded_args(argv, monkeypatch):
    """A function of argv that gives the args main hands to the command:
    the command that argv chooses only records them."""
    seen = []
    func = cli.build_parser().parse_args(argv).func
    monkeypatch.setattr(cli, func.__name__, seen.append)

    def args_of(argv):
        code, _, err = run_cli(*argv)
        assert code == 0, err
        return seen.pop()

    return args_of


@pytest.mark.parametrize("words, parser, action", CONFIG_FLAGS)
def test_every_flag_checks_its_config_value(words, parser, action, tmp_path, monkeypatch):
    # every option of every command, so a flag added later is checked too:
    # a config value is typed and chosen like the flag's own value, and the
    # command line beats it, in full or abbreviated
    flag, dest = action.option_strings[0], action.dest
    # the other required flags go on the command line
    required = {
        a.option_strings[0]: REQUIRED_SAMPLES[a.option_strings[0]]
        for a in parser._actions
        if a.default is cli.REQUIRED
    }
    switch = isinstance(action, argparse._StoreTrueAction)
    kind = bool if switch else action.type or str
    wrong = {int: "3", str: 3, bool: 1}[kind]
    required_argv = [t for item in required.items() for t in item]
    argv = ("--config", _config(tmp_path, {dest: wrong}), *words, *required_argv)
    assert _error_message(argv) == f"--config {dest} must be {kind.__name__}, not {wrong!r}"
    if action.choices:
        argv = ("--config", _config(tmp_path, {dest: "middle"}), *words, *required_argv)
        message = f"--config {dest} must be one of {', '.join(action.choices)}, not 'middle'"
        assert _error_message(argv) == message
    if switch:
        config_value, given, expected = False, [], True
    elif action.choices:
        config_value, given, expected = action.choices[0], [action.choices[-1]], action.choices[-1]
    else:
        config_value, given, expected = kind(7), [str(kind(9))], kind(9)
    required.pop(flag, None)
    required_argv = [t for item in required.items() for t in item]
    argv = ["--config", _config(tmp_path, {dest: config_value}), *words, *required_argv]
    args_of = _recorded_args(argv + [flag, *given], monkeypatch)
    assert getattr(args_of(argv), dest) == config_value
    others = [s for a in parser._actions for s in a.option_strings if flag not in a.option_strings]
    forms = [flag] + [
        flag[:n] for n in range(3, len(flag)) if not any(s.startswith(flag[:n]) for s in others)
    ][:1]
    for form in forms:
        assert getattr(args_of(argv + [form, *given]), dest) == expected


REQUIRED_FLAGS = [
    pytest.param(words, parser, action, id=" ".join((*words, action.option_strings[0])))
    for words, parser in _leaf_commands(cli.build_parser())
    for action in parser._actions
    if action.default is cli.REQUIRED
]


@pytest.mark.parametrize("words, parser, action", REQUIRED_FLAGS)
def test_a_required_flag_comes_from_the_command_line_or_the_config(
    words, parser, action, tmp_path
):
    # required-ness is decided once the config is applied: a required flag
    # that the config gives runs as if it were given on the command line,
    # and one that neither gives is one error line
    flag = action.option_strings[0]
    others = [
        t
        for a in parser._actions
        if a.default is cli.REQUIRED and a is not action
        for t in (a.option_strings[0], REQUIRED_SAMPLES[a.option_strings[0]])
    ]
    message = f"the following arguments are required: {flag}"
    assert _error_message((*words, *others)) == message
    assert _error_message(("--config", _config(tmp_path, {}), *words, *others)) == message
    expected = run_cli(*words, flag, REQUIRED_SAMPLES[flag], *others)
    assert expected[0] == 0
    config = _config(tmp_path, {action.dest: REQUIRED_SAMPLES[flag]})
    assert run_cli("--config", config, *words, *others) == expected


def test_selftest_runs_clean():
    code, out, err = run_cli("selftest")
    assert code == 0
    obj = json.loads(out)
    assert obj["failed"] == 0
    assert obj["passed"] == len(obj["results"])
    assert err.count("PASS") == obj["passed"]
