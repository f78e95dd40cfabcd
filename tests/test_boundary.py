"""The text boundary: every subcommand, fed malformed or extreme text,
exits 0 to 3, and a non-zero exit prints one ``error:`` line on stderr,
at most 250 characters long whatever the input quotes.

A seeded sweep feeds each subcommand broken JSON and empty files,
5000-digit labels, values and flags, 5000-letter keys and flags,
non-ASCII digits, negative and zero sizes, and random one-character
edits of small valid documents.  Nothing may raise out of ``cli.main``.
"""

import json
import random
import sys

import pytest

from blockstoch.cli import _elide, main

BIG = "7" * 5000
# Python 3.10 reads any number of digits; there a 5000-digit --samples
# or --elements would run instead of being refused
HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")

P, Q = 10**2500 + 7, 10**2500 + 9
VALID = [
    {"blocks": [[2, 3], [1, 3], [1, 2]], "weights": {"1": "1/2", "2": "1/2", "3": "1/2"}},
    {
        "blocks": [[1, 2], [3, 4], [1, 3], [2, 4]],
        "weights": {"1": "1/3", "2": "2/3", "3": "2/3", "4": "1/3"},
    },
    {"blocks": [[1, 2], [2, 3]], "weights": {"1": 1, "3": 1}},
]
DOCUMENTS = [
    "",
    "{",
    "[1, 2]",
    "null",
    '"blocks"',
    '{"blocks": [[1, 2]]',
    '{"blocks": []}',
    '{"blocks": [[]]}',
    '{"blocks": [[-1, 2]]}',
    '{"blocks": [[0, 1]], "ground": [-3]}',
    '{"blocks": [[%s]]}' % BIG,
    '{"blocks": [[1, 2]], "weights": {"%s": 1}}' % BIG,
    '{"blocks": [[1, 2]], "weights": {"%s": 1}}' % ("x" * 5000),
    '{"blocks": [[1, 2]], "weights": {"%s": 1}}' % ("9" * 4000),
    '{"blocks": [[1, 2]], "weights": {"1": "1/%s"}}' % BIG,
    '{"blocks": [[1, 2]], "weights": {"1": %s}}' % BIG,
    '{"blocks": [[1, 2]], "weights": {"١": "1/2", "2": "1/2"}}',
    '{"blocks": [[1, 2]], "weights": {"1": "1/٢", "2": "1/2"}}',
    '{"blocks": [[1, 2]], "weights": {"1": 0.5, "2": "1/2"}}',
    '{"blocks": [[1, 2]], "weights": {"1": "-1", "2": 2}}',
    '{"weights": {"1": 1}}',
    # valid documents whose block sums and coefficients run past 4300 digits
    json.dumps(
        {
            "blocks": [[1, 2], [3, 4]],
            "weights": {"1": f"1/{P}", "2": f"{P - 1}/{P}", "3": f"1/{Q}", "4": f"{Q - 1}/{Q}"},
        }
    ),
    json.dumps({"blocks": [[1, 2]], "weights": {"1": f"1/{P}", "2": f"1/{Q}"}}),
    json.dumps({"weights": {"1": f"1/{P}", "2": f"1/{Q}"}}),
    json.dumps({"blocks": [[1], [1, 2], [2]], "weights": {"1": f"1/{P}"}}),
]
DOCUMENT_COMMANDS = [
    ["check"],
    ["graph"],
    ["classify"],
    ["witness"],
    ["vertices"],
    ["decompose"],
    ["validate"],
    ["extend", "--n", "1", "--horizon", "3"],
    ["extend", "--generator", "path", "--n", "1", "--horizon", "5"],
]
# each integer flag with a value that keeps the run small
FLAGS = {
    "vertices": {"--budget": "100", "--jobs": "1"},
    "validate": {"--budget": "100", "--jobs": "1", "--samples": "2", "--seed": "1"},
    "extend": {"--n": "1", "--horizon": "3"},
    "gen": {
        "--elements": "5",
        "--blocks": "3",
        "--kappa-max": "2",
        "--seed": "1",
        "--budget": "100",
        "--jobs": "1",
    },
}
FLAG_VALUES = ["0", "-1", "-7", "٦", "1_0", "", "1.0", " 2 ", "+2", "x" * 5000]
if HAS_DIGIT_LIMIT:
    FLAG_VALUES += [BIG, "-" + BIG]


def _mutations(rng, count):
    """One-character deletions, insertions and replacements of valid documents."""
    pool = '{}[]",:/-0123456789 ١e.'
    for _ in range(count):
        text = json.dumps(rng.choice(VALID))
        i = rng.randrange(len(text))
        op = rng.randrange(3)
        if op == 0:
            yield text[:i] + text[i + 1 :]
        elif op == 1:
            yield text[:i] + rng.choice(pool) + text[i:]
        else:
            yield text[:i] + rng.choice(pool) + text[i + 1 :]


def _cases(tmp_path):
    """(argv, label) for every call of the sweep, in a seeded order."""
    rng = random.Random(16)
    texts = DOCUMENTS + list(_mutations(rng, 40))
    cases = []
    for pos, text in enumerate(texts):
        path = tmp_path / f"doc{pos}.json"
        path.write_text(text, encoding="utf-8")
        for command in DOCUMENT_COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            cases.append((argv, f"{command} on {text[:60]!r}"))
    cases.append((["check", str(tmp_path / "absent.json")], "missing file"))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(VALID[1]))
    weights_only = tmp_path / "weights.json"
    weights_only.write_text('{"weights": {"1": 1}}')
    for command, flags in FLAGS.items():
        positional = {"gen": [], "extend": [str(weights_only), "--generator", "path"]}
        for flag in flags:
            for value in FLAG_VALUES:
                argv = [command, *positional.get(command, [str(good)])]
                for other, default in flags.items():
                    argv += [other, value if other == flag else default]
                cases.append((argv, f"{command} {flag} {value[:20]!r}"))
    cases += [
        (["demo", "nonexistent"], "unknown demo"),
        ([], "no command"),
        (["--help-me"], "unknown option"),
    ]
    rng.shuffle(cases)
    return cases


@pytest.fixture
def digit_limit():
    """The interpreter's default digit limit for the test, where it has one."""
    if not HAS_DIGIT_LIMIT:
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_every_subcommand_exits_with_one_error_line(tmp_path, capsys, digit_limit):
    escapes = []
    for argv, label in _cases(tmp_path):
        code = main(argv)
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3):
            escapes.append(f"{label}: exit {code!r}")
        elif code and (
            len(err.splitlines()) != 1
            or "error: " not in err
            or len(err.rstrip("\n")) > 250
        ):
            escapes.append(f"{label}: exit {code} with stderr {err[:120]!r}")
    assert not escapes, "\n".join(escapes)


def test_long_messages_keep_their_ends():
    short = "m" * 200
    assert _elide(short) == short
    long = "a" * 120 + "b" * 4840 + "c" * 40
    assert _elide(long) == "a" * 120 + "... (4840 characters omitted) ..." + "c" * 40
