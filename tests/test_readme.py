"""The shell examples in the "## CLI" section of README.md run as written:
each line goes through `cli.main` in a directory that holds the small JSON
files the examples name, exits 0 and prints JSON."""

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from skeinlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"

FILES = {
    "rep.json": {"genus": 1, "images": [[0, 1, -1, 0], [0, 1, -1, 0]]},
    "gens.json": [
        {"genus": 1, "words": {"a1": "a", "b1": "ba"}},
        {"genus": 1, "words": {"a1": "aB", "b1": "b"}},
    ],
    "requests.json": [
        {"curve": "0,1", "phi": [[1, 1], [0, 1]]},
        {"curve": "1,0", "beta": "0,1", "N": 3},
    ],
    "session.json": {"genus": 1, "N": 5},
}


def _cli_examples():
    """The argv of each line of the first sh block under "## CLI"."""
    text = README.read_text()
    block = text[text.index("## CLI") :]
    block = block[block.index("```sh\n") + len("```sh\n") :]
    block = block[: block.index("```")]
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "skeinlab", line
            examples.append(pytest.param(argv[1:], id=line.split("#")[0].strip()))
    return examples


EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("argv", EXAMPLES)
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch):
    for name, obj in FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.main(argv)
    except SystemExit as exc:
        code = exc.code or 0
    assert code == 0, err.getvalue()
    json.loads(out.getvalue())
