"""Generated malformed input. Every golden fixture request and every
MALFORMED row is changed one field at a time: to a bool, a float, numeric
text, null or a nested list; an object gets an unknown key, a repeated key
or a second spelling of one of its fields (pq with coords, matrix with
words, a with a1); edge labels, cell and method names get label variants;
an integer flag gets "1_1" or non-ASCII digits. Each mutant is refused
with exactly one error and no traceback, in skeinlab's own words (no
Python exception text), unless it spells the same request another way
("0, 1" for [0, 1], a coords list for a coords object, "+5" for 5), and
then it must give the same bytes.

Batch mutants share one `detect --batch` run. A repeated key refuses the
whole JSON text, so those and the flag mutants run one `cli.main` call
each, with repeats of the same mutation on the same field left out."""

import json
from pathlib import Path

from test_cli import MALFORMED, File, run_cli

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "detect_golden.json").read_text())
# a key that _dumps writes as a repeat of the first key of its object
REPEAT = "\x00repeat"
CHOICES = ("reduced", "big", "theorem2", "support")
TWIST = {"a1": "a", "b1": "ba"}
INT_FLAGS = ("--genus", "--N", "--cap", "--orbit-size", "--field-order")
ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# Python's own exception texts, which no refusal may carry: the first was
# the one such text among the mutants' messages, the rest are what a
# TypeError, AttributeError or int() of a stray value would say
PYTHON_TEXTS = (
    "argument should be a string or a Rational instance",
    "Invalid literal for Fraction",
    "invalid literal for int()",
    "object is not",
    "unhashable type",
    "has no attribute",
    "not supported between instances",
    "positional argument",
    "cannot unpack",
)


def _python_text(message):
    return next((text for text in PYTHON_TEXTS if text in message), None)


def _paths(value, path=()):
    """(path, value) of value and of every field and entry inside it."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(inner, path + (key,))


def _replace(value, path, new):
    """value with the field at path replaced by new (a key keeps its place)."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _replace(value[head], rest, new)}
    return [_replace(v, rest, new) if i == head else v for i, v in enumerate(value)]


def _int_texts(n):
    """Text that int() reads as n, but that is not ASCII decimal."""
    digits = str(abs(n))
    sign = "-" if n < 0 else ""
    return [
        ("underscore", sign + (digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits)),
        ("non-ASCII digit", sign + digits.translate(ARABIC)),
    ]


def _wrong(value, path):
    """(kind, replacement) for the field value at path: never the same
    request."""
    out = [("bool", value is not True), ("null", None), ("nested list", [value])]
    if type(value) is int:  # a float or text is a rational matrix entry, so only for ints
        out += [("float", float(value)), ("numeric string", str(value))]
    if isinstance(value, str) and value in CHOICES:
        out += [("label variant", value.capitalize()), ("label variant", f" {value}")]
    if isinstance(value, list) and len(value) == 2 and all(type(t) is int for t in value):
        out += [(kind, f"{text},{value[1]}") for kind, text in _int_texts(value[0])]
    if path == ("phi",) and isinstance(value, list):
        out.append(("second spelling", {"matrix": value, "words": TWIST}))
    if isinstance(value, dict):
        out.append(("unknown key", {**value, "bogus": 1}))
        if value:
            out.append(("repeated key", {**value, REPEAT: next(iter(value.values()))}))
        if value and all(k.isdigit() for k in value):
            for label in value:
                for variant in ("0" + label, " " + label, "+" + label, label + ".0"):
                    renamed = {variant if k == label else k: v for k, v in value.items()}
                    out.append(("label variant", renamed))
        for have, add in (("pq", {"coords": [1, 1, 0, 1, 0]}), ("coords", {"pq": [0, 1]}),
                          ("matrix", {"words": TWIST}), ("words", {"matrix": [[1, 1], [0, 1]]}),
                          ("a1", {"a": "ab"}), ("b1", {"b": "ab"})):
            if have in value:
                out.append(("second spelling", {**value, **add}))
    return out


def _spellings(request):
    """(kind, request) for other spellings of the same golden request."""
    genus = request.get("genus", 1)
    out = [(key, value) for key, value in (("genus", genus), ("cap", 24)) if key not in request]
    for key in ("curve", "beta"):
        value = request.get(key)
        if isinstance(value, list) and len(value) == 2:
            p, q = value
            forms = [f"{p},{q}", f" {p}, {q} ", {"pq": value}, json.dumps(value)]
        elif isinstance(value, dict):
            coords = [value.get(str(e), 0) for e in range(6 * genus - 1)]
            forms = [coords, {"coords": value}, {"coords": coords}]
        elif isinstance(value, list):
            forms = [{str(e): c for e, c in enumerate(value) if c}, {"coords": value}]
        else:
            forms = []
        out += [(key, form) for form in forms]
    if isinstance(request.get("phi"), list):
        matrix = request["phi"]
        out += [("phi", {"matrix": matrix}), ("phi", {"genus": 1, "matrix": matrix})]
    return [("spelling", {**request, key: value}) for key, value in out]


def _dumps(value):
    """JSON text of value, with each REPEAT key written as a repeat of the
    first key of its object."""
    if isinstance(value, dict):
        first = next(iter(value), None)
        return "{" + ", ".join(
            f"{json.dumps(first if k == REPEAT else k)}: {_dumps(v)}" for k, v in value.items()
        ) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dumps, value)) + "]"
    return json.dumps(value)


def _request_mutants(request):
    """(kind, mutant) of a request, one field changed at a time."""
    return [
        (kind, _replace(request, path, new))
        for path, value in _paths(request)
        for kind, new in _wrong(value, path)
    ]


def _flag_text(flag, value):
    if type(value) is int and flag in INT_FLAGS:
        return str(value)
    return value if isinstance(value, str) and flag not in INT_FLAGS else _dumps(value)


def _argv(request):
    # --flag=text, since argparse reads "-1,2" after a space as an option
    return ["detect"] + [f"--{key}={_flag_text(f'--{key}', v)}" for key, v in request.items()]


def _refused(argv):
    """None when argv is refused: one error line and nothing on stdout, or
    for a batch an error in every slot."""
    code, out, err = run_cli(*argv)
    if code == 2 and len(err.splitlines()) == 1 and "Traceback" not in err:
        if out == "" and err.startswith("error: ") and not _python_text(err):
            return None
        if err.startswith("detect: ") and all(
            list(slot) == ["error"] and not _python_text(slot["error"])
            for slot in json.loads(out)["certificates"]
        ):
            return None
    return f"exit {code}: {(err or out)[:120]!r}"


def _malformed_requests():
    """The requests of the MALFORMED rows: their batch objects, and those of
    the rows that give a --batch list."""
    out = []
    for row in MALFORMED:
        argv, _, batch = row.values
        if batch is not None:
            out.append(batch)
        elif argv[:2] == ("detect", "--batch") and str(argv[2]).startswith("[{"):
            try:
                out += json.loads(argv[2])
            except ValueError:
                pass  # the row's own defect, such as a repeated key
    return out


def test_batch_mutants_are_refused_or_give_the_same_bytes():
    cases = []  # (what, mutant, the certificate it must give, or None for an error)
    for request, certificate in zip(GOLDEN["requests"], GOLDEN["certificates"]):
        cases += [(kind, m, None) for kind, m in _request_mutants(request)]
        cases += [(kind, m, certificate) for kind, m in _spellings(request)]
    cases += [(kind, m, None) for r in _malformed_requests() for kind, m in _request_mutants(r)]
    batch = [case for case in cases if case[0] != "repeated key"]
    code, out, err = run_cli("detect", "--batch", json.dumps([m for _, m, _ in batch]))
    assert code == 2 and "Traceback" not in err and len(err.splitlines()) == 1
    slots = json.loads(out)["certificates"]
    wrong = [
        f"{kind}: {json.dumps(m)} -> {json.dumps(slot)[:120]}"
        for (kind, m, certificate), slot in zip(batch, slots)
        if slot != certificate
        and not (certificate is None and list(slot) == ["error"] and not _python_text(slot["error"]))
    ]
    assert not wrong, f"{len(wrong)} of {len(batch)} mutants:\n" + "\n".join(wrong)


def test_a_repeated_key_refuses_the_whole_batch():
    seen, wrong = set(), []
    requests = GOLDEN["requests"] + _malformed_requests()
    for request in requests:
        for kind, mutant in _request_mutants(request):
            text = _dumps([mutant])
            shape = json.dumps([sorted(d) for _, d in _paths(mutant) if isinstance(d, dict)])
            if kind != "repeated key" or shape in seen:
                continue
            seen.add(shape)
            problem = _refused(["detect", "--batch", text])
            if problem:
                wrong.append(f"{text}: {problem}")
    assert seen and not wrong, "\n".join(wrong)


def _flag_mutants(argv):
    """(key, kind, argv) with one flag value of argv changed at a time: its
    JSON fields as in a batch, or an integer flag's text. A value is the
    token after its flag, or follows "=" in one token. Mutants with one key
    make one change at one kind of place (list entries are alike) in a
    value of one type, so one of them stands for all. A --batch list is
    mutated as batch requests."""
    out = []
    for i, token in enumerate(argv):
        if token in ("--config", "--batch") or token[:2] != "--":
            continue
        if "=" in token:
            flag, text = token.split("=", 1)
            at, spell = i, (lambda new, flag=flag: f"{flag}={new}")
        elif i + 1 < len(argv):
            flag, text = token, argv[i + 1]
            at, spell = i + 1, (lambda new: new)
        else:
            continue
        if flag in INT_FLAGS:
            kinds = _int_texts(int(text)) + [("bool", "true"), ("float", f"{text}.0")]
            kinds = [((flag, text, kind), kind, new) for kind, new in kinds + [("null", "null")]]
        else:
            try:
                value = json.loads(text)
            except ValueError:
                continue
            kinds = [
                (
                    (flag, tuple("#" if type(step) is int else step for step in path),
                     type(v).__name__, kind),
                    kind,
                    _flag_text(flag, _replace(value, path, new)),
                )
                for path, v in _paths(value)
                for kind, new in _wrong(v, ("phi",) + path if flag == "--phi" else path)
            ]
        out += [(key, kind, [*argv[:at], spell(new), *argv[at + 1 :]]) for key, kind, new in kinds]
    return out


def _spelled_flags(request):
    """(key, argv) for each other spelling of one flag value of a golden
    request; the key names the flag, its value and the spelling."""
    texts = [
        (key, _flag_text(f"--{key}", spelled[key]))
        for _, spelled in _spellings(request)
        for key in spelled
        if spelled[key] != request.get(key)
    ]
    texts += [
        (key, text)
        for key in ("N", "cap", "genus")
        if key in request
        for text in (f"+{request[key]}", f" {request[key]} ")
    ]
    out = []
    for key, text in texts:
        request_text = {k: _flag_text(f"--{k}", v) for k, v in request.items()}
        argv = ["detect"] + [f"--{k}={v}" for k, v in {**request_text, key: text}.items()]
        out.append(((key, json.dumps(request.get(key)), text), argv))
    return out


def test_flag_mutants_are_refused_or_give_the_same_bytes():
    seen, wrong = set(), []
    cases = []  # (key, kind, argv, the stdout it must give, or None for an error)
    for request, certificate in zip(GOLDEN["requests"], GOLDEN["certificates"]):
        expected = json.dumps(certificate, sort_keys=True, indent=2) + "\n"
        cases += [(key, "spelling", argv, expected) for key, argv in _spelled_flags(request)]
        cases += [(key, kind, m, None) for key, kind, m in _flag_mutants(_argv(request))]
    for row in MALFORMED:
        argv, _, batch = row.values
        # a batch object is mutated as a batch request, and a file stays as it is
        if batch is None and not any(isinstance(arg, File) for arg in argv):
            cases += [(key, kind, m, None) for key, kind, m in _flag_mutants(list(argv))]
    for key, kind, argv, expected in cases:
        if key in seen:
            continue
        seen.add(key)
        if expected is None:
            problem = _refused(argv)
        else:
            code, out, err = run_cli(*argv)
            problem = None if (code, out) == (0, expected) else f"exit {code}: {err[:120]!r}"
        if problem:
            wrong.append(f"{kind}: {argv} -> {problem}")
    assert not wrong, f"{len(wrong)} of {len(seen)} mutants:\n" + "\n".join(wrong)
