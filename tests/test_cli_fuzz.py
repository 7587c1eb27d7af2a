"""Property tests of the CLI surface: whatever the flags or the document,
`main` returns an exit code in {0, 1, 2} and no exception escapes it.

Instances are kept small (n <= 400 through --max-n, q below 32) so that the
examples stay fast; the examples are derandomized so every run checks the
same inputs."""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from idemforge.cli import build_document, main
from idemforge.engine import METHODS, dispatch
from idemforge.structure import instance_parameters

EXIT_CODES = {0, 1, 2}
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

exponents = st.one_of(st.integers(-1, 5), st.sampled_from([10000, 99999]))
valid = st.tuples(st.sampled_from([2, 3, 5, 7, 13, 17, 31]), st.sampled_from([2, 3, 5, 7, 13]), st.integers(0, 3))
junk = st.tuples(st.integers(-2, 31), st.integers(-2, 31), exponents)
instances = st.one_of(valid, valid, valid, junk)
max_ns = st.one_of(st.just(400), st.integers(-1, 400))
labels = st.sampled_from(["e_0", "e_j:1", "e_j:2", "e_{s,l}:2,1", "e_{d,r}:7,1", "nope"])


def run_main(argv, stdin_text=""):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = saved


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["gen", "verify", "factors", "params", "code"]))
    argv = [command]
    for flag, value in zip(("--q", "--p", "--k"), draw(instances)):
        if draw(st.integers(0, 19)):  # usually present, sometimes missing
            argv += [flag, str(value)]
    argv += ["--max-n", str(draw(max_ns))]
    if command in ("gen", "verify", "code") and draw(st.integers(0, 3)) == 0:
        argv += ["--method", draw(st.sampled_from(METHODS + ("bogus",)))]
    if command in ("gen", "verify", "factors") and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    if command == "gen":
        argv += draw(st.sampled_from([[], ["--verify"], ["--codes"], ["--verify", "--codes"]]))
    if command == "verify" and draw(st.booleans()):
        argv += ["--against", draw(st.sampled_from(["none", "euclid"]))]
    if command == "code":
        argv += ["--label", draw(labels), "--budget", str(draw(st.integers(-1, 4096)))]
        if draw(st.booleans()):
            argv.append("--min-distance")
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-", "7", ""])))
    return argv


@given(argvs())
@FUZZ
def test_main_never_raises_on_flags(argv):
    assert run_main(argv) in EXIT_CODES


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@functools.lru_cache(maxsize=None)
def _valid_document(q, p, k):
    instance = instance_parameters(q, p, k)
    return json.dumps(build_document(instance, dispatch(instance)))


@st.composite
def documents(draw):
    doc = json.loads(_valid_document(*draw(st.sampled_from([(2, 7, 1), (7, 3, 2), (5, 3, 0), (13, 3, 1)]))))
    keys = st.sampled_from(["schema", "q", "p", "k", "idempotents", "method"])
    for key in draw(st.sets(keys, max_size=2)) if draw(st.integers(0, 2)) == 0 else ():
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(st.one_of(json_values, exponents))
    entries = doc.get("idempotents")
    if isinstance(entries, list) and entries and draw(st.booleans()):
        i = draw(st.integers(0, len(entries) - 1))
        entry = copy.deepcopy(entries[i])
        if isinstance(entry, dict) and draw(st.booleans()):
            coeffs = entry.get("coeffs")
            if isinstance(coeffs, list) and coeffs and draw(st.booleans()):
                coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(st.one_of(st.integers(-3, 30), json_values))
            else:
                entry[draw(st.sampled_from(["coeffs", "label", "kind", "params"]))] = draw(json_values)
        else:
            entry = draw(json_values)
        entries[i] = entry
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@given(documents(), st.sampled_from([[], ["--against", "euclid"], ["--format", "json"]]), max_ns)
@FUZZ
def test_main_never_raises_on_documents(text, extra, max_n):
    assert run_main(["verify", "--in", "-", "--max-n", str(max_n), *extra], text) in EXIT_CODES
