"""Hypothesis fuzzing of the text parsers and of the CLI's exit-status contract.

Numbers stay small: n <= 8, row lengths <= 6, N <= 6, and at most two
digits in a row in parser text.  Some costs grow with a number's value
and no guard bounds them (an eigenvalue's with its row lengths, an irrep
label's with N), so the fuzzer never draws large ones.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from heckeq import LaurentPoly, SuqIrrep, YoungDiagram, cycle_type_from_string
from heckeq.cli import main

# the grammars' own symbols, "_" (int() reads "1_0" as 10, the integer grammar refuses it),
# or any text at all; a run of digits and "_" is cut to two characters either way
texts = st.one_of(st.text(alphabet="0123456789,:q^*+-/_ x.", max_size=16), st.text(max_size=16))
texts = texts.map(lambda t: re.sub(r"[\d_]+", lambda m: m.group()[:2], t))


@given(texts)
@settings(max_examples=100, deadline=None)
def test_parsers_return_or_raise_value_error(text):
    for parse in (YoungDiagram.from_string, SuqIrrep.from_string, cycle_type_from_string, LaurentPoly.from_string):
        try:
            parse(text)
        except ValueError:
            pass


def _argv(command: str, **options: st.SearchStrategy) -> st.SearchStrategy:
    """`command` with each option '--name=value'; an option drawn as None is left out."""

    def build(drawn: dict) -> list[str]:
        return [command] + [f"--{k.replace('_', '-')}={v}" for k, v in drawn.items() if v is not None]

    return st.fixed_dictionaries(options).map(build)


small_n = st.integers(-1, 8)
rows = st.lists(st.integers(0, 6), min_size=1, max_size=4).map(lambda r: ",".join(map(str, r)))
polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4).map(
    lambda terms: str(LaurentPoly(terms))
)
commands = st.one_of(
    _argv("eigenvalue", n=small_n, diagram=rows),
    _argv("reconstruct", n=small_n, poly=polys),
    _argv("characters", n=small_n, method=st.sampled_from(["projector", "mn", "both"])),
    _argv(
        "traces",
        n=small_n,
        kind=st.sampled_from(["murphy", "simply", "products", "doubly"]),
        diagram=st.none() | rows,
        alphas=st.none() | st.lists(st.integers(0, 9), min_size=1, max_size=3).map(
            lambda a: ",".join(map(str, a))
        ),
    ),
    _argv(
        "suq",
        N=st.integers(-1, 6),
        action=st.sampled_from(["casimir", "reconstruct", "check", "dimension"]),
        diagram=st.none() | rows,
        poly=st.none() | polys,
        sweep_n=st.none() | small_n,
    ),
)


@given(commands)
@settings(max_examples=100, deadline=None)
def test_cli_prints_one_json_document(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    doc = json.loads(out.getvalue())
    assert code in (0, 1)
    if code == 1 and "result" in doc:
        # a failed correspondence check reports its result and exits 1
        assert argv[:1] == ["suq"] and doc["result"]["holds"] is False
    else:
        assert set(doc) == {"command", "format", "result" if code == 0 else "error"}
