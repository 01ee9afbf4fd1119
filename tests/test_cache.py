"""The cache line codec against a json reader, and the rule that no cache
file, however corrupt, changes a printed index."""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import json_decode
from schern import __version__, c2_closed_form
from schern.cache import _decode, _line
from schern.cli import run

_BIG = st.integers(10**4300, 10**4400) | st.integers(-10**4400, -10**4300)
_RECORDS = st.tuples(st.integers(), st.lists(st.integers(), max_size=6).map(tuple),
                     st.integers())
_HUGE_RECORDS = st.tuples(st.integers() | _BIG,
                          st.lists(st.integers() | _BIG, max_size=3).map(tuple),
                          _BIG)


@contextlib.contextmanager
def no_digit_limit():
    """Lift the int/str conversion limit of 4300 digits for the block."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _json_line(n, lam, subshape) -> bytes:
    rec = {"n": n, "partition": list(lam), "subshape": subshape, "version": __version__}
    return json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()


@settings(max_examples=300, deadline=None)
@given(_RECORDS)
@example((8, (2, 2, 2), 700))
@example((3, (), 0))
@example((-1, (0, -5), -0))
def test_a_record_line_is_what_json_dumps_writes(record):
    assert _line(*record) == _json_line(*record)
    n, lam, subshape = record
    assert _decode(_line(*record)) == ((n, lam), subshape)


@settings(max_examples=20, deadline=None)
@given(_HUGE_RECORDS)
def test_ints_past_the_digit_limit_round_trip_with_the_limit_lifted(record):
    n, lam, subshape = record
    with no_digit_limit():
        line = _line(*record)
        assert line == _json_line(*record)
        assert _decode(line) == json_decode(line) == ((n, lam), subshape)
    # under the limit neither reader takes the line: int() refuses it
    assert _decode(line) is None and json_decode(line) is None


# Edits that int() or json forgives, or that change a record's meaning.
_TOKENS = [b" ", b"\t", b"\r", b"+", b"-", b"0", b"00", b"_", b"1_0", b"true",
           b"2.0", b'"2"', b"1e3", b"null", "٨".encode(), "８".encode(),
           b"\xff", b",", b"[", b"]", b"{", b"}", b'"', b":", b',"x":1',
           b'"version":"0.0.0"', b'"n":', __version__.encode()]
_EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 4),
                            st.sampled_from(_TOKENS) | st.binary(max_size=3)),
                  max_size=3)


def _edit(line: bytes, edits, keep: int | None) -> bytes:
    for at, cut, token in edits:
        at %= len(line) + 1
        line = line[:at] + token + line[at + cut:]
    return line if keep is None else line[:keep % (len(line) + 1)]


def mutated(records):
    """A canonical line with up to three small edits, perhaps truncated."""
    return st.builds(_edit, records.map(lambda r: _line(*r)), _EDITS,
                     st.none() | st.integers(0, 10**6))


_SMALL = st.tuples(st.integers(-3, 20), st.lists(st.integers(-1, 20), max_size=4).map(tuple),
                   st.integers(-3, 10**6))
_VALUES = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
           | st.text(max_size=4) | st.sampled_from([__version__, "0.0.0"])
           | st.lists(st.integers() | st.booleans() | st.floats(allow_nan=False),
                      max_size=3))


@st.composite
def json_records(draw):
    """A record that json would read: any key order, spacing and value types,
    perhaps one field replaced and perhaps one more key."""
    n, lam, subshape = draw(_SMALL)
    rec = {"n": n, "partition": list(lam), "subshape": subshape, "version": __version__}
    field = draw(st.sampled_from([None, "n", "partition", "subshape", "version", "x"]))
    if field is not None:
        rec[field] = draw(_VALUES)
    keys = draw(st.permutations(sorted(rec)))
    separators = draw(st.sampled_from([(",", ":"), (", ", ": "), (",", ": ")]))
    return json.dumps({k: rec[k] for k in keys}, separators=separators).encode()


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=80) | mutated(_SMALL) | json_records())
@example(b'{"n":8,"partition":[2,2,2],"subshape":700,"version":"0.1.0"}')
@example(b'{"n": 8, "partition": [2, 2, 2], "subshape": 700, "version": "0.1.0"}')
@example(b'{"partition":[2,2,2],"n":8,"subshape":700,"version":"0.1.0"}')
@example(b'{"n":+8,"partition":[2,2,2],"subshape":700,"version":"0.1.0"}')
@example(b'{"n":08,"partition":[2,2,2],"subshape":700,"version":"0.1.0"}')
@example(b'{"n":8,"partition":[2,2,2],"subshape":7_00,"version":"0.1.0"}')
@example(b'{"n":true,"partition":[2,2,2],"subshape":700,"version":"0.1.0"}')
@example(b'{"n":8,"partition":[2.0,2,2],"subshape":700,"version":"0.1.0"}')
@example(b'{"n":"8","partition":[2,2,2],"subshape":700,"version":"0.1.0"}')
@example('{"n":٨,"partition":[2,2,2],"subshape":700,"version":"0.1.0"}'.encode())
@example(b'{"n":8,"partition":[2,2,2],"subshape":700,"version":"0.1.0"} ')
@example(b'{"n":8,"partition":[2,2,2],"subshape":700,"version":"0.1.0"}x')
@example(b'{"n":8,"partition":[2,2,2],"subshape":700,"version":"0.1.')
@example(b'{"n":8,"partition":[2,2,2],"subshape":700,"version":"0.0.0"}')
@example(b'{"n":8,"partition":[2,2,2],"subshape":700,"version":"0.1.0","x":1}')
@example(b'{"n":-0,"partition":[],"subshape":0,"version":"0.1.0"}')
@example(b'{"n":8,"partition":[2,,2],"subshape":700,"version":"0.1.0"}')
@example(b'{"n":3,"partition":[1],"subshape":' + b"9" * 4400
         + b',"version":"' + __version__.encode() + b'"}')
@example(b"\xff")
def test_the_codec_accepts_only_lines_the_json_reader_reads_the_same(line):
    decoded = _decode(line)
    assert decoded is None or decoded == json_decode(line)


# --------------------------------------------------- corrupt cache files

_SHAPES = st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, 3), max_size=n - 1).map(
        lambda parts: tuple(sorted(parts, reverse=True)))))


def _quiet_run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_SHAPES, st.data())
def test_a_corrupt_cache_never_changes_the_printed_index(shape, data):
    # random lines, edited records of the queried key, and well-formed
    # records that give the queried key a wrong sum: c2 recomputes and
    # prints what it prints without the cache
    n, lam = shape
    true_sum = c2_closed_form(n, lam).n_lambda
    wrong = st.integers(-10**6, 10**6).filter(bool).map(lambda k: _line(n, lam, true_sum + k))
    lines = data.draw(st.lists(
        st.binary(max_size=40) | mutated(st.just((n, lam, true_sum))) | wrong
        | _SMALL.map(lambda r: _line(*r)), max_size=8))
    argv = ["c2", str(n), ",".join(map(str, lam))]
    clean = _quiet_run([*argv, "--no-cache"])
    assert clean[0] == 0
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "c.jsonl"
        cache.write_bytes(b"\n".join(lines) + data.draw(st.sampled_from([b"", b"\n"])))
        assert _quiet_run([*argv, "--cache", str(cache)]) == clean
