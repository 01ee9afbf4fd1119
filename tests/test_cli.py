"""Exit codes, output formats, and cache behaviour of the command line."""
import ast
import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schern.chern as chern_mod
import schern.tables as tables_mod
from oracles import c2_subshape, casimir, dual_partition, ssyt_count
from schern import (
    GroupSpec,
    __version__,
    c2,
    c2_closed_form,
    explore_conjecture,
    generator_table,
    hilbert_basis,
    partition_of,
    schur_dimension,
    table_against_reference,
    verify_case,
)
from schern.cache import ResultCache
from schern.chern import c2_enumeration, reduce_full_columns
from schern.cli import (COMMANDS, SHARED, _csv_field, _json, _row_payload,
                        parse_args, parse_partition, render_table, run)
from schern.partitions import InputError, InvariantError, PartitionError, partition


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Keep CLI runs away from the user's real home, should a build ever
    look there for a cache again."""
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ partition arg

def test_parse_partition_basic():
    assert parse_partition("2,2,1") == (2, 2, 1)
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    assert parse_partition("3") == (3,)


def test_parse_partition_rejects_garbage():
    with pytest.raises(PartitionError):
        parse_partition("2,x")
    with pytest.raises(PartitionError):
        parse_partition("1,2")


def test_parse_partition_allows_spaces_and_empty_forms():
    assert parse_partition(" 2, 1") == (2, 1)
    assert parse_partition("()") == ()
    assert parse_partition("2,0") == (2,)


@pytest.mark.parametrize(
    "text", ["1_0", "\uff12,1", "+2,1", "2,,1"],
    ids=["underscore", "fullwidth-digit", "plus-sign", "empty-part"],
)
def test_dim_rejects_parts_that_are_not_ascii_digits(capsys, text):
    # int() alone reads "1_0" as 10 and the fullwidth "\uff12" as 2
    code, out, err = invoke(capsys, "dim", "8", text)
    assert code == 2
    assert out == ""
    assert "cannot parse partition" in err


# ----------------------------------------------------------------- c2 / dim

def test_c2_prints_index(capsys):
    code, out, _ = invoke(capsys, "c2", "8", "2,2,2", "--no-cache")
    assert code == 0
    assert out == "700\n"


def test_c2_methods_agree(capsys):
    code, out, _ = invoke(capsys, "c2", "6", "2,1", "--no-cache")
    assert code == 0
    values = {out, f"{c2_closed_form(6, (2, 1)).n_lambda}\n",
              f"{c2_subshape(6, (2, 1))}\n",
              f"{chern_mod._jacobi_trudi(6, (2, 1))[0]}\n",
              f"{c2_enumeration(6, (2, 1)).n_lambda}\n"}
    assert values == {"33\n"}


def test_c2_bad_partition_exits_2(capsys):
    code, _, err = invoke(capsys, "c2", "8", "2,x", "--no-cache")
    assert code == 2
    assert "partition" in err


def test_c2_ceiling_flag_overrides(capsys):
    # dimension 116424 lies above CROSS_CHECK_CEILING, so the closed
    # form alone answers
    code, out, _ = invoke(capsys, "c2", "9", "3,3,3,3,3", "--no-cache")
    assert code == 0
    assert out == "116424\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_c2_rejects_a_non_positive_n(capsys, n):
    code, out, err = invoke(capsys, "c2", n, "0", "--no-cache")
    assert (code, out) == (2, "")
    assert err == f"error: n must be positive, got {n}\n"


def _decimal(value: int) -> str:
    """str(value) at any length, in chunks of 1000 digits, each below the
    limit that Python (3.10.7 and later) puts on int and str conversion."""
    high, low = divmod(value, 10**1000)
    return _decimal(high) + str(low).zfill(1000) if high else str(low)


@pytest.mark.parametrize("argv,value", [
    (["dim", "10001", "10000"], math.comb(20000, 10000)),
    (["c2", "10001", "10000", "--no-cache"],
     c2_closed_form(10001, (10000,)).n_lambda),
], ids=["dim", "c2"])
def test_integers_past_the_conversion_limit_print_in_full(capsys, argv, value):
    # C(20000, 10000) has 6,019 digits, more than the 4,300 that str() takes
    # by default; run() lifts the limit for the command and then restores it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    digits = _decimal(value)
    assert len(digits) >= 6019
    assert invoke(capsys, *argv) == (0, digits + "\n", "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_an_index_past_the_conversion_limit_is_printed_and_not_cached(
        capsys, tmp_path):
    # its dimension lies far above CROSS_CHECK_CEILING, so no determinant
    # runs and there is nothing to record: every record stays below 4,300
    # digits
    cache = tmp_path / "F"
    argv = ["c2", "10001", "10000", "--cache", str(cache)]
    digits = _decimal(c2_closed_form(10001, (10000,)).n_lambda)
    assert len(digits) >= 6019
    assert invoke(capsys, *argv) == (0, digits + "\n", "")
    assert invoke(capsys, *argv) == (0, digits + "\n", "")
    assert not cache.exists()


def test_settings_come_from_the_command_line_only(capsys, monkeypatch, tmp_path):
    # the package reads no environment variable, so none of these, malformed
    # or not, changes a result, and a run without --cache writes no file
    ignored = tmp_path / "x.jsonl"
    monkeypatch.setenv("SCHERN_ENUM_CEILING", "5")  # dim of (1,1) at n=4 is 6
    monkeypatch.setenv("SCHERN_MAX_ELL", "3")
    monkeypatch.setenv("SCHERN_CACHE", str(ignored))
    monkeypatch.setenv("SCHERN_VERIFY_CACHE", "maybe")
    assert invoke(capsys, "c2", "4", "1,1", "--no-cache")[:2] == (0, "2\n")
    assert invoke(capsys, "conjecture", "5")[0] == 0
    assert invoke(capsys, "c2", "4", "1,1")[:2] == (0, "2\n")
    assert list(tmp_path.iterdir()) == []  # no SCHERN_CACHE, no default cache
    # a named cache records the index, which only a cross-check writes:
    # no ceiling of 5
    named = tmp_path / "F"
    assert invoke(capsys, "c2", "4", "1,1", "--cache", str(named))[:2] == (0, "2\n")
    assert '"subshape":2' in named.read_text()


def test_dim(capsys):
    code, out, _ = invoke(capsys, "dim", "9", "3,3,3,3,3", "--no-cache")
    assert code == 0 and out == "116424\n"


def test_dim_too_long_partition_is_zero(capsys):
    code, out, _ = invoke(capsys, "dim", "2", "1,1,1", "--no-cache")
    assert code == 0 and out == "0\n"


def _descending(parts):
    return ",".join(map(str, sorted(parts, reverse=True)))


# Never a huge n with a huge lam_1: the answer alone would have
# astronomically many digits.  Junk tokens never start with "--", so no
# draw names a flag such as --cache that would write a file.
_WIDE = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(str(n)),
    st.lists(st.integers(0, 10**30), max_size=n + 1).map(_descending)))
_TALL = st.tuples(
    st.integers(1, 10**30).map(str),
    st.lists(st.integers(0, 3), max_size=5).map(_descending))
_JUNK_TOKEN = (st.text(max_size=8).filter(lambda t: not t.startswith("--"))
               | st.sampled_from(["-1", "0", "1.5", "1e3", "+8", "\uff18",
                                  "1_0", "2,,1", "1,2", "()", "-h", " 3 "]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["c2", "dim"]),
       _WIDE | _TALL | st.tuples(_JUNK_TOKEN, _JUNK_TOKEN))
@example("c2", ("3", "99999999999999999999"))
@example("dim", ("8", ",".join(["1" + "0" * 30] * 9)))
@example("c2", ("1" + "0" * 30, "3,3,3,2,2"))
@example("c2", ("3", "445,445"))  # the costliest cross-checked shapes known
@example("c2", ("2", "99999"))
def test_c2_and_dim_end_at_once_with_a_documented_code(command, args):
    # the shape rule bounds both commands by min(rows, columns) of the
    # partition, which argv bounds; an alarm turns a hang into a failure
    def too_long(signum, frame):
        raise TimeoutError(f"{command} {args} ran past 1 s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, too_long)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, *args])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_unknown_subcommand_exits_2(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2


def test_no_arguments_exits_2(capsys):
    assert invoke(capsys)[0] == 2


# ------------------------------------------------------------------- tables

def test_generators_text_has_gcd_line(capsys):
    code, out, _ = invoke(capsys, "generators", "8", "2", "--no-cache")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "gcd 2"
    assert len(out.rstrip().splitlines()) == 1 + 13 + 1  # header, rows, gcd


def test_generators_json(capsys):
    code, out, _ = invoke(
        capsys, "generators", "9", "3", "--format", "json", "--no-cache"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 9 and payload["d"] == 3 and payload["gcd"] == 3
    assert len(payload["rows"]) == 31
    assert all(r["n_lambda"] % 3 == 0 for r in payload["rows"])


def test_generators_csv(capsys):
    code, out, _ = invoke(
        capsys, "generators", "8", "2", "--format", "csv", "--no-cache"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["weight", "partition", "n_lambda", "flagged"]
    assert len(rows) == 1 + 13
    # the one bundled reference disagreement shows up here too
    assert [r[:3] for r in rows[1:] if r[3] == "true"] == [["2a1", "(2)", "10"]]


def test_generators_invalid_divisor_exits_2(capsys):
    code, _, err = invoke(capsys, "generators", "9", "2", "--no-cache")
    assert code == 2
    assert "divide" in err


def test_table_flags_reference_rows(capsys):
    code, out, _ = invoke(
        capsys, "table", "--case", "sl8-mu2", "--format", "json", "--no-cache"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "sl8-mu2"
    flagged = [r for r in payload["rows"] if r["flagged"]]
    assert [(r["weight_str"], r["n_lambda"], r["reference"]) for r in flagged] == [
        ("2a1", 10, 16)
    ]


def test_table_sl9_text_mentions_reference_value(capsys):
    code, out, _ = invoke(capsys, "table", "--case", "sl9-mu3", "--no-cache")
    assert code == 0
    flagged_lines = [l for l in out.splitlines() if "reference prints" in l]
    assert len(flagged_lines) == 1
    assert flagged_lines[0].startswith("3a1")
    assert "165" in flagged_lines[0]


def test_table_unknown_case_exits_2(capsys):
    assert invoke(capsys, "table", "--case", "nope", "--no-cache")[0] == 2


def test_image_index(capsys):
    assert invoke(capsys, "image-index", "8", "2", "--no-cache")[1] == "2\n"
    assert invoke(capsys, "image-index", "9", "3", "--no-cache")[1] == "3\n"


_ROW_ARGVS = [
    ("image-index", "8", "2"),
    ("generators", "8", "2"),
    ("generators", "8", "2", "--format", "json"),
    ("table", "--case", "sl8-mu2", "--format", "csv"),
    ("verify", "sl8-mu2"),
]


# the first and the last row of SL(8)/mu_2 in search order, so the stream
# fails at its start and at its end
@pytest.mark.parametrize("argv, lam, closed", [
    pytest.param(argv, lam, closed, id=f"argv{i}{suffix}")
    for lam, closed, suffix in [((1, 1), (6, 28), ""), ((2,) * 7, (10, 36), "-last-row")]
    for i, argv in enumerate(_ROW_ARGVS)])
def test_failed_cross_check_exits_3(capsys, monkeypatch, argv, lam, closed):
    real = chern_mod._jacobi_trudi

    def disagree(n, shape):
        value, dim = real(n, shape)
        return (value + 1 if shape == lam else value), dim

    monkeypatch.setattr(chern_mod, "_jacobi_trudi", disagree)
    code, out, err = invoke(capsys, *argv, "--no-cache")
    assert code == 3
    value, dim = closed
    assert (f"(n_lam, dim) is ({value}, {dim}) by the closed form, "
            f"({value + 1}, {dim}) by the dual-number Jacobi-Trudi "
            "determinant") in err
    # no table and no gcd over the rows that passed
    assert out == ""


def test_a_dimension_that_the_determinant_disputes_exits_3(capsys, monkeypatch):
    # the index agrees and only the dimension differs; dim prints the dimension
    # that c2 cross-checks, so it stops on the same dispute
    real = chern_mod._jacobi_trudi
    monkeypatch.setattr(chern_mod, "_jacobi_trudi",
                        lambda n, lam: (real(n, lam)[0], real(n, lam)[1] + 1))
    for command in ("c2", "dim"):
        code, out, err = invoke(capsys, command, "8", "2,2,2", "--no-cache")
        assert (code, out) == (3, ""), command
        assert "(700, 1176) by the closed form, (700, 1177) by the" in err, command


@pytest.mark.parametrize("pivot", [0, -56])
def test_a_non_positive_jacobi_trudi_pivot_exits_1(capsys, monkeypatch, pivot):
    # c2 8 2,2,2 and dim 8 2,2,2 eliminate over the column heights (3, 3),
    # whose first pivot is E(3) = C(8, 3) = 56, a dimension; the closed form
    # reads only C(9, t), so the planted entry reaches the determinant alone
    def comb(a, b):
        return pivot if (a, b) == (8, 3) else math.comb(a, b)

    monkeypatch.setattr(chern_mod, "math",
                        SimpleNamespace(**{**vars(math), "comb": comb}))
    for command in ("c2", "dim"):
        code, out, err = invoke(capsys, command, "8", "2,2,2", "--no-cache")
        assert (code, out) == (1, ""), command
        assert err == (f"error: Jacobi-Trudi pivot {pivot} is not positive for "
                       "n=8 lam=(2, 2, 2)\n"), command


# ---------------------------------------------------------------- rendering

# Printable ASCII, which json escapes only at '"' and '\\', and text with
# arbitrary code points (lone surrogates and the supplementary planes
# included) and control characters.
_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)) | st.text(
    st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
    | st.characters(min_codepoint=0x10000)
    | st.sampled_from('"\\\n\r\t\b\f\x00\x1f\x7f'))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT
    | st.integers(min_value=-10**4400, max_value=10**4400),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=12)


def _stdlib_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _stdlib_csv(rows, lineterminator: str = "\n") -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator=lineterminator).writerows(rows)
    return out.getvalue()


@settings(deadline=None)
@given(_JSON_VALUES)
@example({"a\"b": ['c\\d', "\x7f\x1f\b\f\t\r\n", "\u00e9\ud800\U0001F600"],
          "": [{}, [], None, True, False, -(10**4400)]})
def test_json_emitter_writes_what_json_dumps_writes(value):
    # ints past 4,300 digits need the limit lifted, as run() lifts it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert _json(value) == _stdlib_json(value)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@settings(deadline=None)
@given(st.lists(_TEXT | st.text(",\"\r\n a(1)"), min_size=4, max_size=4))
def test_csv_field_rule_quotes_as_csv_writer_does(row):
    # The rule is the default dialect's: a lone "\r" is quoted as well,
    # which a writer with lineterminator "\n" leaves bare on Python 3.11,
    # so a reader would split the row there.  Without "\r" the bytes are
    # those of csv.writer(lineterminator="\n").
    line = ",".join(map(_csv_field, row)) + "\n"
    assert line == _stdlib_csv([row], "\r\n")[:-2] + "\n"
    if not any("\r" in field for field in row):
        assert line == _stdlib_csv([row])


def test_a_large_table_renders_the_stdlib_bytes():
    table = generator_table(GroupSpec(25, 5))
    assert len(table.rows) == 1558
    payload = {"n": 25, "d": 5, "gcd": table.gcd,
               "rows": [_row_payload(r) for r in table.rows]}
    assert render_table(table, "json") == _stdlib_json(payload) + "\n"


def test_verify_counterexample_case(capsys):
    code, out, _ = invoke(capsys, "verify", "sl8-mu2", "--no-cache")
    assert code == 0
    assert "verdict counterexample" in out
    assert "image index 2" in out


def test_verify_holds_case(capsys):
    code, out, _ = invoke(capsys, "verify", "pgl4", "--no-cache")
    assert code == 0
    assert "verdict holds" in out
    assert "image index 8" in out


def test_verify_non_multiple_of_h4_generator_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(tables_mod, "h4_multiplier", lambda spec: 3)
    code, out, err = invoke(capsys, "verify", "sl8-mu2", "--no-cache")
    assert code == 1
    assert out == ""
    assert "index 2 is not a multiple of the H^4 generator 3" in err


def test_verify_differing_expectation_exits_3(capsys, monkeypatch):
    case = tables_mod.CASES["sl8-mu2"]
    monkeypatch.setitem(tables_mod.CASES, "sl8-mu2",
                        case._replace(expected_gcd=4))
    code, out, _ = invoke(capsys, "verify", "sl8-mu2", "--no-cache")
    assert code == 3
    assert "image index 2" in out
    assert "DIFFERS FROM stored expectation 4" in out


@pytest.mark.parametrize("case,bundled,full,gcd", [
    ("sl8-mu2", 13, 13, 2), ("sl9-mu3", 23, 31, 3),
])
def test_each_reference_table_and_its_full_generating_set(
    capsys, case, bundled, full, gcd
):
    # the bundled rows recomputed, then the full minimal generating set:
    # sl9-mu3 has 8 generators beyond its bundled table
    code, out, _ = invoke(capsys, "table", "--case", case, "--format", "json",
                          "--no-cache")
    assert code == 0
    table = json.loads(out)
    assert (len(table["rows"]), table["gcd"]) == (bundled, gcd)
    n, d = table["n"], table["d"]
    code, out, _ = invoke(capsys, "generators", str(n), str(d),
                          "--format", "json", "--no-cache")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert (len(rows), json.loads(out)["gcd"]) == (full, gcd)
    assert sum("reference" not in r for r in rows) == full - bundled


def test_verify_every_case_matches_its_stored_expectation(capsys):
    for case in sorted(tables_mod.CASES):
        code, out, _ = invoke(capsys, "verify", case)
        assert code == 0, case
        assert "  matches stored expectation " in out, case
        assert "DIFFERS" not in out, case


def test_verify_unknown_case_exits_2(capsys):
    assert invoke(capsys, "verify", "nosuch", "--no-cache")[0] == 2


# -------------------------------------------------------------- conjecture

def test_conjecture_3(capsys):
    code, out, _ = invoke(capsys, "conjecture", "3", "--no-cache")
    assert code == 0
    assert "generators: 31" in out
    assert "image index: 3" in out
    assert "index equals ell: yes" in out
    assert "duality invariant: yes" in out


@pytest.mark.parametrize("ell,n,generators", [(3, 9, 31), (5, 25, 1558)])
def test_conjecture_prints_every_line(capsys, ell, n, generators):
    code, out, _ = invoke(capsys, "conjecture", str(ell))
    assert code == 0
    assert out == (
        f"ell: {ell}\n"
        f"group: SL({n})/mu_{ell}\n"
        f"generators: {generators}\n"
        f"image index: {ell}\n"
        "index equals ell: yes\n"
        "all rows divisible by ell: yes\n"
        "duality invariant: yes\n"
    )


def test_conjecture_7(capsys):
    code, out, _ = invoke(capsys, "conjecture", "7")
    assert code == 0
    assert out == (
        "ell: 7\n"
        "group: SL(49)/mu_7\n"
        "generators: 66407\n"
        "image index: 7\n"
        "index equals ell: yes\n"
        "all rows divisible by ell: yes\n"
        "duality invariant: yes\n"
    )


def test_conjecture_a_row_that_ell_does_not_divide(capsys, monkeypatch):
    # one row off by one: ell no longer divides it, nor then the gcd
    real = tables_mod.column_rows
    seen = []

    def first_row_off_by_one(n, rows):
        seen.extend(rows)
        results = real(n, rows)
        value, *rest = next(results)
        yield value + 1, *rest
        yield from results

    monkeypatch.setattr(tables_mod, "column_rows", first_row_off_by_one)
    code, out, _ = invoke(capsys, "conjecture", "3")
    assert code == 0 and len(seen) == 31
    assert "image index: 1\n" in out
    assert "index equals ell: no\n" in out
    assert "all rows divisible by ell: no\n" in out


def test_conjecture_a_row_that_the_determinant_disputes_exits_3(capsys, monkeypatch):
    # lam = (1,1,1), dimension 84, lies under the ceiling, so its
    # conjecture row is cross-checked, and a disagreement prints nothing
    real = chern_mod._jacobi_trudi

    def disagree(n, lam):
        value, dim = real(n, lam)
        return (value + 1 if lam == (1, 1, 1) else value), dim

    monkeypatch.setattr(chern_mod, "_jacobi_trudi", disagree)
    code, out, err = invoke(capsys, "conjecture", "3")
    assert (code, out) == (3, "")
    assert ("lam=(1, 1, 1): (n_lam, dim) is (21, 84) by the closed form, "
            "(22, 84) by the dual-number Jacobi-Trudi determinant") in err


@pytest.mark.parametrize("kernel_math,message", [
    # the index division, on the first row the search yields: its one
    # column of height 3 reads C(9, 3) + 1 = 85 as its dimension
    (SimpleNamespace(comb=lambda a, b: math.comb(a, b) + 1, perm=math.perm,
                     gcd=math.gcd),
     "non-integral index 85/4 for n=9 lam=(1, 1, 1); formula misapplied"),
    # the hook content division over that row, by E_1 = perm(9, 0) = 2
    (SimpleNamespace(comb=lambda a, b: 1, perm=lambda a, b: 2),
     "hook content division is not exact for n=9 lam=(1, 1, 1)"),
], ids=["closed-form", "hook-content"])
def test_conjecture_inexact_division_on_a_generator_row_exits_1(
    capsys, monkeypatch, kernel_math, message
):
    monkeypatch.setattr(chern_mod, "math", kernel_math)
    code, out, err = invoke(capsys, "conjecture", "3")
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("ell", ["2", "4", "9", "15"])
def test_conjecture_rejects_non_odd_prime(capsys, ell):
    code, _, err = invoke(capsys, "conjecture", ell, "--no-cache")
    assert code == 2
    assert "odd prime" in err


def test_conjecture_above_ceiling_exits_2(capsys):
    # ell = 11 has 83,907,107 generators; refuse before building any
    code, out, err = invoke(capsys, "conjecture", "11")
    assert code == 2
    assert out == ""
    assert "ceiling" in err


def test_conjecture_large_prime_exits_2_at_once(capsys):
    # the odd-prime test trial-divides only up to the ceiling
    start = time.perf_counter()
    code, out, err = invoke(capsys, "conjecture", "100000007")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "exceeds the ceiling 7" in err


@pytest.mark.parametrize("ell", ["1000000000000000003", "121", str(10**30 + 57)],
                         ids=["prime-1e18", "square-of-11", "1e30"])
def test_conjecture_exits_2_at_once_past_the_ceiling(capsys, ell):
    # trial division stops at the ceiling, so no ell above it is factored
    start = time.perf_counter()
    code, out, err = invoke(capsys, "conjecture", ell)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == f"error: ell={ell} exceeds the ceiling 7\n"


# ------------------------------------------------------------- determinism

@pytest.mark.parametrize(
    "argv",
    [
        ("c2", "8", "2,2,2", "--no-cache"),
        ("generators", "8", "2", "--format", "json", "--no-cache"),
        ("generators", "9", "3", "--format", "csv", "--no-cache"),
        ("table", "--case", "sl9-mu3", "--no-cache"),
        ("verify", "sl6-mu3", "--no-cache"),
    ],
)
def test_stdout_byte_identical_across_runs(capsys, argv):
    first = invoke(capsys, *argv)
    second = invoke(capsys, *argv)
    assert first == second


# -------------------------------------------------------------------- cache

def test_a_run_without_cache_flags_writes_no_file(capsys, tmp_path, monkeypatch):
    # the cache is opt-in: no command reads or writes one unless --cache
    # names it, whatever the working directory, HOME and XDG_CACHE_HOME
    dirs = {name: tmp_path / name for name in ("cwd", "home", "xdg")}
    for path in dirs.values():
        path.mkdir()
    monkeypatch.chdir(dirs["cwd"])
    monkeypatch.setenv("HOME", str(dirs["home"]))
    monkeypatch.setenv("XDG_CACHE_HOME", str(dirs["xdg"]))
    for cmd in COMMANDS:
        assert invoke(capsys, *VALID[cmd])[0] == 0, cmd
    assert {name: list(path.iterdir()) for name, path in dirs.items()} == {
        name: [] for name in dirs}


def test_full_columns_share_one_record(capsys, tmp_path):
    # (), (1,1,1) and (2,2,2) are one SL(3) representation, so the cache
    # keys them by the canonical shape and the three runs leave one line
    cache = tmp_path / "c.jsonl"
    for text in ("0", "1,1,1", "2,2,2"):
        argv = ("c2", "3", text, "--cache", str(cache))
        assert invoke(capsys, *argv) == (0, "0\n", ""), text
    rec = {"n": 3, "partition": [], "subshape": 0, "version": __version__}
    assert cache.read_text() == json.dumps(
        rec, sort_keys=True, separators=(",", ":")) + "\n"
    # a shape that is no SL(3) weight fails as it does without the cache
    bad = ("c2", "3", "1,1,1,1")
    plain = invoke(capsys, *bad, "--no-cache")
    assert plain[0] == 2 and invoke(capsys, *bad, "--cache", str(cache)) == plain


def test_cache_round_trip(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    invoke(capsys, "image-index", "8", "2", "--cache", str(cache))
    blob = cache.read_bytes()
    assert blob.count(b"\n") == 13
    invoke(capsys, "image-index", "8", "2", "--cache", str(cache))
    assert cache.read_bytes() == blob  # warm run appends nothing
    cache.unlink()
    invoke(capsys, "image-index", "8", "2", "--cache", str(cache))
    assert cache.read_bytes() == blob  # rebuild is byte-identical


def test_cache_hit_short_circuits_c2(capsys, tmp_path, monkeypatch):
    # a record that the closed form reproduces is served: no determinant
    # runs and nothing is appended
    cache = tmp_path / "c.jsonl"
    argvs = [("c2", "8", "2,2,2"), ("generators", "9", "3", "--format", "json")]
    clean = [invoke(capsys, *argv, "--no-cache") for argv in argvs]
    assert [invoke(capsys, *argv, "--cache", str(cache)) for argv in argvs] == clean
    warm = cache.read_bytes()

    def no_determinant(n, lam):
        raise AssertionError("a served hit must not run the determinant")

    monkeypatch.setattr(chern_mod, "_jacobi_trudi", no_determinant)
    assert [invoke(capsys, *argv, "--cache", str(cache)) for argv in argvs] == clean
    assert cache.read_bytes() == warm


def test_planted_cache_value_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    rec = {"n": 8, "partition": [2, 2, 2], "subshape": 12345, "version": __version__}
    cache.write_text(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    code, out, _ = invoke(capsys, "c2", "8", "2,2,2", "--cache", str(cache))
    assert (code, out) == (0, "700\n")
    lines = cache.read_text().splitlines()
    assert len(lines) == 2 and '"subshape":700' in lines[1]


POISON = {"subshape": lambda v: v + 1}


@pytest.mark.parametrize("field", sorted(POISON))
@pytest.mark.parametrize("argv,partition", [
    (("c2", "8", "2,2,2"), [2, 2, 2]),
    # (3^8) carries the index 66 that makes the gcd 3, not 1
    (("image-index", "9", "3"), [3] * 8),
], ids=["c2", "table-row"])
def test_poisoned_cache_record_is_recomputed(capsys, tmp_path, argv, partition, field):
    # a recorded sum that the closed form does not reproduce is never
    # printed: the sum runs again and the fresh line wins
    cache = tmp_path / "c.jsonl"
    clean = invoke(capsys, *argv, "--no-cache")
    assert clean[0] == 0
    invoke(capsys, *argv, "--cache", str(cache))
    lines = cache.read_text().splitlines()
    [i] = [i for i, line in enumerate(lines)
           if json.loads(line)["partition"] == partition]
    rec = json.loads(lines[i])
    rec[field] = POISON[field](rec[field])
    lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    cache.write_text("\n".join(lines) + "\n")
    poisoned = cache.read_text()
    assert invoke(capsys, *argv, "--cache", str(cache)) == clean
    appended = cache.read_text().removeprefix(poisoned).splitlines()
    assert len(appended) == 1 and json.loads(appended[0])["partition"] == partition
    healed = cache.read_bytes()
    assert invoke(capsys, *argv, "--cache", str(cache)) == clean
    assert cache.read_bytes() == healed


def test_stale_version_records_ignored(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    rec = {"n": 8, "partition": [2, 2, 2], "subshape": 700, "version": "0.0.0"}
    cache.write_text(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    planted = cache.read_text()
    code, out, _ = invoke(capsys, "c2", "8", "2,2,2", "--cache", str(cache))
    assert code == 0
    assert out == "700\n"
    # old-version line is not trusted: the sum runs and is appended
    assert cache.read_text().removeprefix(planted).count('"subshape":700') == 1


def test_corrupt_cache_lines_skipped(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    cache.write_text("this is not json\n{\"half\": true\n")
    code, out, _ = invoke(capsys, "c2", "8", "2,2,2", "--cache", str(cache))
    assert code == 0
    assert out == "700\n"


def test_non_utf8_cache_line_skipped(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    rec = {"n": 8, "partition": [2, 2, 2], "subshape": 700, "version": __version__}
    cache.write_bytes(b"\xff\n" + json.dumps(
        rec, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    planted = cache.read_bytes()
    code, out, _ = invoke(capsys, "c2", "8", "2,2,2", "--cache", str(cache))
    assert (code, out) == (0, "700\n")
    assert cache.read_bytes() == planted  # the record after the bad line is served


def test_a_respaced_json_record_is_recomputed(capsys, tmp_path, monkeypatch):
    # a record is exactly the line that put() writes: the same record with
    # json's default spacing, as a hand edit might leave it, is not served
    cache = tmp_path / "c.jsonl"
    rec = {"n": 8, "partition": [2, 2, 2], "subshape": 700, "version": __version__}
    cache.write_text(json.dumps(rec, sort_keys=True) + "\n")
    planted = cache.read_text()
    argv = ("c2", "8", "2,2,2")
    clean = invoke(capsys, *argv, "--no-cache")
    calls = []
    real = chern_mod._jacobi_trudi
    monkeypatch.setattr(chern_mod, "_jacobi_trudi",
                        lambda n, lam: calls.append(lam) or real(n, lam))
    assert invoke(capsys, *argv, "--cache", str(cache)) == clean
    assert calls == [(2, 2, 2)]
    assert cache.read_text() == planted + json.dumps(
        rec, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("where", ["directory", "under-a-file", "dangling-link",
                                   "fifo", "device", "file-with-slash"])
def test_unusable_cache_path_exits_2(capsys, tmp_path, where):
    (tmp_path / "file").write_text("")
    # a dangling link reads as no file yet, so only the append fails
    (tmp_path / "link").symlink_to(tmp_path / "missing")
    os.mkfifo(tmp_path / "fifo")
    # a trailing "/" names a directory: the file before it is not the cache
    cache = {"directory": tmp_path, "under-a-file": tmp_path / "file" / "c.jsonl",
             "dangling-link": tmp_path / "link" / "c.jsonl",
             "fifo": tmp_path / "fifo", "device": os.devnull,
             "file-with-slash": f"{tmp_path / 'file'}/"}[where]
    argv = ("c2", "8", "2,2,2", "--cache", str(cache))
    if where == "fifo":
        # reading a FIFO waits for a writer, so a child runs it, under a timeout
        proc = fresh(*argv, timeout=10)
        code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    else:
        code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("ceiling", [0, 200_000], ids=["0", "200000"])
def test_cache_hit_from_another_ceiling_is_recomputed(capsys, tmp_path, ceiling):
    # 27 of the 31 rows lie below the cross-check ceiling and are
    # cross-checked; the sums that a build with another ceiling recorded
    # (for every row up to that one: none, or all 31) must not change that
    cache = tmp_path / "c.jsonl"
    argv = ("generators", "9", "3", "--format", "json")
    clean = invoke(capsys, *argv, "--no-cache")
    assert clean[1].count('"cross_checked": true') == 27
    planted = ResultCache(cache)
    for lam in map(partition_of, hilbert_basis(GroupSpec(9, 3))):
        if schur_dimension(9, lam) <= ceiling:
            planted.put(9, lam, c2_subshape(9, lam))
    before = cache.read_text() if cache.exists() else ""
    assert before.count("\n") == (0 if ceiling == 0 else 31)
    assert invoke(capsys, *argv, "--cache", str(cache)) == clean
    assert invoke(capsys, *argv, "--cache", str(cache)) == clean
    # only rows that c2 cross-checked are recorded, each once
    appended = cache.read_text().removeprefix(before).count("\n")
    assert appended == (27 if ceiling == 0 else 0)


@pytest.mark.parametrize("field,value", [
    ("subshape", [1]),      # a list where the sum belongs
    ("subshape", True),     # True == 1 would stand in for the sum 1
    ("subshape", 1.0),      # 1.0 == 1 likewise
    ("partition", [1, 0]),  # canonicalising the zero part away would alias (1,)
    ("n", 4.0),             # hash(4.0) == hash(4): the key would alias n = 4
    ("n", "4"),
    ("partition", [1.0]),
    ("partition", [True]),  # (True,) == (1,) would alias the key
    ("partition", "1"),     # a string iterates to its digits, (1,)
    ("n_lambda", 1.0),      # a field of an earlier format beside the sum
    ("dim", "6"),
], ids=["list", "bool", "float", "zero", "n-float", "n-str", "part-float",
        "part-bool", "part-str", "n_lambda-float", "dim-str"])
def test_cache_line_with_malformed_d_is_skipped(capsys, tmp_path, field, value):
    """A line with any field of the wrong JSON type or not in a record, or a
    partition that is not canonical, is never coerced onto a real key or taken for a sum: the
    determinant of c2 4 1 runs and its record is appended.  The same line
    well formed is served and appends nothing."""
    cache = tmp_path / "c.jsonl"
    rec = {"n": 4, "partition": [1], "subshape": 1, "version": __version__}
    good = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
    cache.write_text(good)
    argv = ("c2", "4", "1", "--cache", str(cache))
    assert invoke(capsys, *argv) == (0, "1\n", "")
    assert cache.read_text() == good
    rec[field] = value
    cache.write_text(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    planted = cache.read_text()
    assert invoke(capsys, *argv) == (0, "1\n", "")
    assert cache.read_text() == planted + good


def test_torn_last_line_does_not_swallow_an_append(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"n":8,"partition":[1,1],"subsh')  # no trailing newline
    argv = ("image-index", "8", "2", "--cache", str(cache))
    assert invoke(capsys, *argv)[:2] == (0, "2\n")
    cold = cache.read_bytes()
    assert invoke(capsys, *argv)[:2] == (0, "2\n")
    assert cache.read_bytes() == cold  # every cold row was kept: all hits


def test_only_default_mode_c2_touches_the_cache(capsys, tmp_path):
    # dim never certifies a record for c2
    cache = tmp_path / "c.jsonl"
    assert invoke(capsys, "dim", "8", "2,2,2", "--cache", str(cache))[:2] == (0, "1176\n")
    assert not cache.exists() or cache.read_text() == ""
    assert invoke(capsys, "c2", "8", "2,1", "--cache", str(cache))[:2] == (0, "61\n")
    lines = cache.read_text().splitlines()
    assert len(lines) == 1 and '"subshape":61' in lines[0]


def test_a_c2_record_serves_the_matching_table_row(capsys, tmp_path, monkeypatch):
    # the index of (n, lam) does not depend on d, so the sum that c2 8 1,1
    # recorded stands in for the (1,1) row of SL(8)/mu_2
    cache = tmp_path / "c.jsonl"
    assert invoke(capsys, "c2", "8", "1,1", "--cache", str(cache))[:2] == (0, "6\n")
    first = cache.read_text()
    real = chern_mod._jacobi_trudi

    def not_for_the_record(n, lam):
        if (n, lam) == (8, (1, 1)):
            raise AssertionError("the recorded index must stand in")
        return real(n, lam)

    monkeypatch.setattr(chern_mod, "_jacobi_trudi", not_for_the_record)
    argv = ("image-index", "8", "2", "--cache", str(cache))
    assert invoke(capsys, *argv)[:2] == (0, "2\n")
    blob = cache.read_text()
    assert blob.startswith(first)
    assert blob.count("\n") == 13 and blob.count('"partition":[1,1],') == 1


def test_a_cold_table_records_the_sum_of_each_cross_checked_row(capsys, tmp_path):
    # 27 of the 31 rows of SL(9)/mu_3 lie at or below the ceiling; the other
    # 4 ran no sum, so there is nothing to record for them
    cache = tmp_path / "F"
    code, out, _ = invoke(capsys, "generators", "9", "3", "--cache", str(cache))
    assert code == 0 and out.endswith("gcd 3\n")
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    assert len(records) == 27
    assert all(set(rec) == {"n", "partition", "subshape", "version"}
               for rec in records)
    assert all(rec["subshape"] == c2_closed_form(9, rec["partition"]).n_lambda
               for rec in records)


@pytest.mark.parametrize("method", ["both", "closed-form"])
def test_an_old_format_line_is_skipped(capsys, tmp_path, monkeypatch, method):
    # a line without "subshape", such as one that an earlier build wrote
    # with its index, dimension and route, certifies nothing: the sum runs
    # and its record is appended
    cache = tmp_path / "c.jsonl"
    old = {"d": None, "dim": 28, "method": method, "n": 8, "n_lambda": 6,
           "partition": [1, 1], "version": __version__}
    cache.write_text(json.dumps(old, sort_keys=True, separators=(",", ":")) + "\n")
    planted = cache.read_text()
    calls = []
    real = chern_mod._jacobi_trudi
    monkeypatch.setattr(chern_mod, "_jacobi_trudi",
                        lambda n, lam: calls.append(lam) or real(n, lam))
    assert invoke(capsys, "c2", "8", "1,1", "--cache", str(cache))[:2] == (0, "6\n")
    assert calls == [(1, 1)]
    assert json.loads(cache.read_text().removeprefix(planted)) == {
        "n": 8, "partition": [1, 1], "subshape": 6, "version": __version__}


# --------------------------------------------------------------- entrypoint

def test_readme_configuration_table_lists_the_shared_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1].split("\n### ", 1)[0]
    documented = {
        flag
        for line in section.splitlines() if line.startswith("|")
        for flag in re.findall(r"--[a-z][a-z-]*", line.split("|")[1])
    }
    shared = set(SHARED)  # the flags that parse_args adds to every command
    assert documented == shared


def test_c2_non_integral_closed_form_exits_1(capsys, monkeypatch):
    # C(4, 1) + 1 = 5 read as the dimension of the one column (1,)
    monkeypatch.setattr(chern_mod, "math", SimpleNamespace(
        comb=lambda a, b: math.comb(a, b) + 1, perm=math.perm, gcd=math.gcd))
    code, out, err = invoke(capsys, "c2", "4", "1", "--no-cache")
    assert code == 1
    assert out == ""
    assert "non-integral index 5/4 for n=4 lam=(1,)" in err


def test_dim_inexact_hook_division_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(chern_mod, "math",
                        SimpleNamespace(comb=lambda a, b: 1,
                                        perm=lambda a, b: 2))
    code, out, err = invoke(capsys, "dim", "4", "2,1")
    assert code == 1
    assert out == ""
    assert "hook content division is not exact for n=4 lam=(2, 1)" in err


def test_start_up_imports_no_unused_heavy_modules():
    # dataclasses pulls in inspect, dis, ast and tokenize; fractions pulls in
    # decimal and numbers.  Counted after site, so only schern's own imports
    # show.
    script = (
        "import sys\n"
        "heavy = {'dataclasses', 'inspect', 'fractions', 'decimal', 'csv'}\n"
        "before = set(sys.modules)\n"
        "import schern.cli\n"
        "code = schern.cli.run(['dim', '4', '1'])\n"
        "print(code, sorted((set(sys.modules) - before) & heavy))\n"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4\n0 []\n"


def test_text_and_uncached_commands_load_no_unneeded_modules(tmp_path):
    # argparse and gettext are replaced by parse_args; render_table writes
    # --format json and --format csv itself and the cache reads and writes
    # its own lines, so nothing loads json or csv; --cache stays a str, so
    # nothing loads pathlib (nor the re it pulls in); fcntl only serves a
    # cache append, so a flag-less c2 or image-index loads none of them
    # (isolated_env gives the child a temporary HOME and XDG_CACHE_HOME);
    # no module uses fractions, nor __future__ postponed annotations, which are
    # gone.  Then a c2 miss that appends, the hit that follows, a cached dim
    # and a cached table load only fcntl.  Counted in a fresh interpreter
    # under -S: a site hook may import pathlib or re before schern starts.
    cache = tmp_path / "F"
    script = (
        "import sys\n"
        "import schern.cli\n"
        "codes = [schern.cli.run(['dim', '8', '2,1']),\n"
        "         schern.cli.run(['c2', '8', '2,2,2', '--no-cache']),\n"
        "         schern.cli.run(['conjecture', '3']),\n"
        "         schern.cli.run(['image-index', '8', '2', '--no-cache']),\n"
        "         schern.cli.run(['c2', '8', '2,2,2']),\n"
        "         schern.cli.run(['image-index', '8', '2']),\n"
        "         schern.cli.run(['generators', '9', '3', '--format', 'json',\n"
        "                         '--no-cache']),\n"
        "         schern.cli.run(['table', '--case', 'sl8-mu2', '--format', 'csv',\n"
        "                         '--no-cache'])]\n"
        "unneeded = ['argparse', 'gettext', 'json', 'csv', 'fractions', 'fcntl',\n"
        "            '__future__', 'pathlib', 're']\n"
        "print(codes, [m for m in unneeded if m in sys.modules])\n"
        f"cached = [schern.cli.run(['c2', '8', '2,2,2', '--cache', {str(cache)!r}]),\n"
        f"          schern.cli.run(['c2', '8', '2,2,2', '--cache', {str(cache)!r}]),\n"
        f"          schern.cli.run(['dim', '8', '2,1', '--cache', {str(cache)!r}]),\n"
        f"          schern.cli.run(['image-index', '8', '2', '--cache', {str(cache)!r}])]\n"
        "print(cached, [m for m in unneeded if m in sys.modules])\n"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-6:] == ["[0, 0, 0, 0, 0, 0, 0, 0] []", "700",
                                             "700", "168", "2", "[0, 0, 0, 0] ['fcntl']"]
    # one line from the c2 miss, then the 12 other rows of SL(8)/mu_2
    assert cache.read_bytes().count(b"\n") == 13


def test_run_returns_and_neither_exits_nor_freezes(capsys):
    # run() is what the tests and the in-process benchmark call: it returns
    # the code and leaves the process and the collector as it found them
    before = gc.get_freeze_count()
    assert run(["dim", "4", "1"]) == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out == "4\n"


# ------------------------------------------------------ main, fresh process

ROOT = Path(__file__).resolve().parents[1]


def fresh(*argv, prelude=None, stdout=subprocess.PIPE, timeout=120):
    """`python -m schern.cli ARGV` in a fresh process, or with a prelude,
    `python -c` running the prelude and then main() on ARGV.  stdout is a
    pipe and PYTHONUNBUFFERED is dropped, so the child block-buffers it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    head = (["-m", "schern.cli"] if prelude is None
            else ["-c", prelude + "\nimport schern.cli\nschern.cli.main()"])
    return subprocess.run([sys.executable, *head, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=timeout)


WIDE = 10**20 - 1


@pytest.mark.parametrize("command,value", [
    # the one-row family: dim C(n + k - 1, k), index dim * k (n + k) / (n (n + 1))
    ("c2", math.comb(WIDE + 2, 2) * WIDE * (WIDE + 3) // 12),
    ("dim", math.comb(WIDE + 2, 2)),
], ids=["c2", "dim"])
def test_a_twenty_digit_row_prints_at_once(command, value):
    # only the one row is walked, never its 10^20 columns
    proc = fresh(command, "3", str(WIDE), timeout=10)
    assert (proc.returncode, proc.stdout) == (0, f"{value}\n".encode()), proc.stderr


DIFFERING = ("import schern.tables as t\n"
             "c = t.CASES['sl8-mu2']\n"
             "t.CASES['sl8-mu2'] = c._replace(expected_gcd=4)")


@pytest.mark.parametrize("argv,prelude,code,out", [
    (["image-index", "8", "2"], None, 0, b"2\n"),
    (["dim", "4", "1", "--cache"], None, 2, b""),
    (["c2", "3", "1,1,1,1"], None, 2, b""),
    (["verify", "sl8-mu2"], DIFFERING, 3,
     b"sl8-mu2: image index 2, H^4 generator multiplier 1, verdict "
     b"counterexample\n  DIFFERS FROM stored expectation 4 (reference H^4 "
     b"computation for B(SL(8)/mu_2))\n"),
], ids=["0", "2-usage", "2-rows", "3-differs"])
def test_main_exits_with_the_code_and_output_of_run(argv, prelude, code, out):
    proc = fresh(*argv, prelude=prelude)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


def test_main_skips_interpreter_teardown():
    # a __del__ left for module cleanup never runs: the process ends first
    # (os.write is bound early, as cleanup sets module globals to None)
    prelude = ("import os\n"
               "class Loud:\n"
               "    def __del__(self, write=os.write): write(1, b'teardown')\n"
               "loud = Loud()")
    proc = fresh("dim", "4", "1", prelude=prelude)
    assert (proc.returncode, proc.stdout) == (0, b"4\n")


def test_main_lets_an_unmapped_exception_keep_its_traceback():
    prelude = ("import schern.cli\n"
               "schern.cli.schur_dimension = lambda n, lam: 1 // 0")
    proc = fresh("dim", "4", "1", prelude=prelude)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"Traceback (most recent call last):")
    assert proc.stderr.endswith(b"ZeroDivisionError: integer division or "
                                b"modulo by zero\n")


def test_main_runs_the_atexit_handlers_once():
    proc = fresh("dim", "4", "1",
                 prelude="import atexit\natexit.register(print, 'bye')")
    assert (proc.returncode, proc.stdout) == (0, b"4\nbye\n")


def test_main_under_a_profiler_exits_normally_so_the_stats_print():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "schern.cli", "c2", "8", "2,2"],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"160\n")
    assert b"function calls" in proc.stdout


def test_main_into_a_closed_pipe_reports_it_at_teardown():
    # the flush in main() fails, so sys.exit runs the normal teardown, whose
    # flush fails again and sets exit code 120, as without the fast exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh("c2", "8", "2,2", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert proc.stderr.startswith(b"Exception ignored in: <_io.TextIOWrapper "
                                  b"name='<stdout>'")
    assert proc.stderr.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")


def _golden_commands() -> dict:
    """The benchmark's FIXED table (golden name -> argv), read from the
    source of perfbench/run.py without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["FIXED"])


GOLDEN = _golden_commands()


def test_every_golden_output_has_a_command():
    names = sorted(p.stem for p in (ROOT / "perfbench" / "golden").glob("*.out"))
    assert names == sorted(GOLDEN) and len(names) == 9


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_main_prints_the_golden_bytes(name):
    proc = fresh(*GOLDEN[name])
    expected = (ROOT / "perfbench" / "golden" / f"{name}.out").read_bytes()
    assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr


def test_main_flushes_a_megabyte_of_block_buffered_output(capsys):
    argv = ["generators", "25", "5", "--format", "json"]
    proc = fresh(*argv)
    code, out, _ = invoke(capsys, *argv)
    assert (proc.returncode, code) == (0, 0), proc.stderr
    assert len(proc.stdout) == 1_037_693
    assert proc.stdout == out.encode()


def test_console_script_is_wired():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "schern.cli", "c2", "6", "1,1,1", "--no-cache"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n"


# ------------------------------------------------------------------ parser

# One well-formed argv per command, each cheap to run.
VALID = {
    "c2": ["c2", "4", "1,1"],
    "dim": ["dim", "4", "1,1"],
    "generators": ["generators", "4", "2"],
    "image-index": ["image-index", "4", "2"],
    "verify": ["verify", "sl4-mu2"],
    "table": ["table", "--case", "sl8-mu2"],
    "conjecture": ["conjecture", "3"],
}


def test_valid_argvs_cover_every_command():
    assert set(VALID) == set(COMMANDS)


@pytest.mark.parametrize("cmd", sorted(VALID))
@pytest.mark.parametrize("where", ["alone", "after-arguments"])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_argument_and_exits_0(capsys, cmd, where, flag):
    argv = [cmd, flag] if where == "alone" else VALID[cmd] + [flag]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: schern {cmd} [-h]")
    words = set(re.findall(r"^  (\S+)", out, re.M))
    assert words == set(COMMANDS[cmd][2]) | set(SHARED)


@pytest.mark.parametrize("argv", [["-h"], ["--help"]])
def test_top_level_help_lists_the_commands(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: schern {")
    assert set(re.findall(r"^  (\S+)", out, re.M)) == set(COMMANDS)


def malformed(cmd):
    """(label, argv) pairs that break the command line of cmd."""
    valid = VALID[cmd]
    cases = [
        ("unknown-flag", valid + ["--bogus"]),
        ("abbreviated-flag", valid + ["--no-c"]),  # prefixes are not expanded
        ("extra-positional", valid + ["7"]),
        ("missing-value", valid + ["--cache"]),
        ("empty-value", valid + ["--cache="]),
        ("flag-as-value", valid + ["--cache", "--no-cache"]),
        ("value-on-flag", valid + ["--no-cache=yes"]),
        ("removed-flag", valid + ["--verify-cache"]),  # a record is always checked
        ("missing-positional", valid[:-1] if cmd != "table" else ["table"]),
    ]
    kinds = COMMANDS[cmd][2]
    for i, arg in enumerate(a for a in kinds if not a.startswith("--")):
        if kinds[arg] is int:
            # int() alone reads "1_0" as 10 and both "\uff18" and "+8" as 8
            cases += [(f"non-integer-{arg}{label}",
                       valid[:1 + i] + [text] + valid[2 + i:])
                      for label, text in [("", "x"), ("-underscore", "1_0"),
                                          ("-fullwidth-digit", "\uff18"),
                                          ("-plus-sign", "+8")]]
        elif isinstance(kinds[arg], tuple):
            cases.append((f"bad-choice-{arg}", valid[:1 + i] + ["nope"]))
    for arg in (a for a in kinds if a.startswith("--")):
        if isinstance(kinds[arg], tuple):
            cases.append((f"bad-choice-{arg}", valid + [arg, "nope"]))
    return cases


MALFORMED = [(cmd, label, argv) for cmd in sorted(VALID)
             for label, argv in malformed(cmd)]
MALFORMED += [(None, "unknown-command", ["frobnicate"]),
              (None, "no-command", []),
              (None, "flag-before-command", ["--no-cache", "dim", "4", "1"])]


@pytest.mark.parametrize("cmd,label,argv", MALFORMED,
                         ids=[f"{c}-{label}" for c, label, _ in MALFORMED])
def test_malformed_argv_prints_usage_and_exits_2(capsys, cmd, label, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: schern {cmd} [-h]" if cmd else "usage: schern {")
    assert error.startswith("error: ")


def test_every_option_form_and_position_prints_the_same_bytes(capsys, tmp_path):
    path = str(tmp_path / "c.jsonl")
    for cmd, valid in VALID.items():
        head, tail = valid[:1], valid[1:]
        fmt = ["--format", "json"] if "--format" in COMMANDS[cmd][2] else []
        spaced = head + tail + ["--cache", path] + fmt + ["--no-cache"]
        joined = head + tail + [f"--cache={path}"] + ["=".join(fmt)] * bool(fmt)
        first = head + ["--no-cache", "--cache", path] + fmt + tail
        outputs = [invoke(capsys, *argv) for argv in
                   (spaced, joined + ["--no-cache"], first)]
        assert outputs[0][0] == 0 and outputs[0][1], cmd
        assert outputs[1:] == outputs[:1] * 2, cmd


def test_a_negative_number_is_a_positional(capsys):
    # only "--..." and -h are options, so -3 reaches the range check
    code, out, err = invoke(capsys, "dim", "-3", "1")
    assert (code, out) == (2, "")
    assert err == "error: n must be positive, got -3\n"


def test_benchmark_argvs_parse_to_the_argparse_namespaces():
    # the namespaces that the argparse parser built, its handler aside, for
    # the argv shapes that perfbench/run.py passes; without --cache there is
    # no cache path
    shared = {"cache": None, "no_cache": False}
    cases = [
        (["c2", "3", "2,1", "--no-cache"],
         {"command": "c2", "n": 3, "partition": "2,1", "no_cache": True}),
        (["dim", "5", "1,1", "--cache", "F"],
         {"command": "dim", "n": 5, "partition": "1,1", "cache": "F"}),
        (["c2", "5", "2", "--cache", "F"],
         {"command": "c2", "n": 5, "partition": "2", "cache": "F"}),
        (["generators", "9", "3", "--format", "json", "--no-cache"],
         {"command": "generators", "n": 9, "d": 3, "format": "json",
          "no_cache": True}),
        (["table", "--case", "sl8-mu2", "--format", "csv", "--no-cache"],
         {"command": "table", "case": "sl8-mu2", "format": "csv",
          "no_cache": True}),
        (["verify", "sl9-mu3", "--no-cache"],
         {"command": "verify", "case": "sl9-mu3", "no_cache": True}),
        (["image-index", "8", "2", "--no-cache"],
         {"command": "image-index", "n": 8, "d": 2, "no_cache": True}),
        (["conjecture", "3"], {"command": "conjecture", "ell": 3}),
        (["generators", "9", "3", "--format", "csv", "--cache", "F"],
         {"command": "generators", "n": 9, "d": 3, "format": "csv",
          "cache": "F"}),
    ]
    for argv, fields in cases:
        ns = vars(parse_args(argv))
        assert ns.pop("func") is COMMANDS[argv[0]][0]
        assert ns == {**shared, **fields}, argv


# ------------------------------------------------------------- error types

@pytest.mark.parametrize("call", [
    lambda: schur_dimension(0, ()),
    lambda: ssyt_count(0, ()),
    lambda: partition((1, 2)),
    lambda: reduce_full_columns(2, (1, 1, 1)),
    lambda: dual_partition(2, (1, 1, 1)),
    lambda: casimir(2, (1, 1, 1)),
    lambda: casimir(0, ()),
    lambda: dual_partition(0, ()),
    lambda: c2(0, ()),
    lambda: c2_subshape(0, ()),
    lambda: chern_mod._jacobi_trudi(0, ()),
    lambda: GroupSpec(1, 1),
    lambda: GroupSpec(4, 0),
    lambda: GroupSpec(9, 2),
    lambda: partition_of((1.5,)),
    lambda: partition_of((-1,)),
    lambda: table_against_reference("nope"),
    lambda: verify_case("nope"),
    lambda: explore_conjecture(9),
    lambda: explore_conjecture(11),
    lambda: parse_partition("2,x"),
    # a non-integer n, d or ell, checked once per entry point
    lambda: GroupSpec(4, 2.0),
    lambda: GroupSpec(4.0, 2),
    lambda: c2(8.0, (2, 2, 2)),
    lambda: c2_closed_form(8.0, (2,)),
    lambda: explore_conjecture(5.0),
    lambda: reduce_full_columns(2.5, (1,)),
    lambda: schur_dimension(2.5, (1, 1, 1)),
    lambda: schur_dimension("3", (1,)),
    lambda: c2_enumeration(2.5, (1,)),
    lambda: chern_mod._jacobi_trudi(2.5, (1,)),
    lambda: ssyt_count(2.5, (1,)),
], ids=["dim-n", "ssyt-n", "increasing", "rows-reduce", "rows-dual",
        "rows-casimir", "casimir-n", "dual-n", "c2-n", "subshape-n", "determinant-n", "spec-n",
        "spec-d", "spec-divide", "weight-type", "weight-sign", "table-case",
        "verify-case", "ell-prime", "ell-ceiling", "partition-text",
        "spec-d-float", "spec-n-float", "c2-n-float", "closed-form-n-float",
        "ell-float", "reduce-n-float", "dim-n-float", "dim-n-str",
        "enumeration-n-float", "determinant-n-float", "ssyt-n-float"])
def test_every_bad_input_raises_input_error(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("call", [lambda: casimir(0, ()),
                                  lambda: casimir(-1, ()),
                                  lambda: dual_partition(0, ()),
                                  lambda: dual_partition(-1, (1,))])
def test_nonpositive_n_is_named_in_the_error(call):
    with pytest.raises(InputError, match="^n must be positive, got -?[01]$"):
        call()


@pytest.mark.parametrize("exc", [ValueError, ZeroDivisionError])
@pytest.mark.parametrize("argv", [["conjecture", "3"], ["c2", "4", "1", "--no-cache"]],
                         ids=["conjecture", "c2"])
def test_an_unexpected_error_inside_a_command_propagates(monkeypatch, exc, argv):
    # only InputError and InvariantError map to exit 2 and 1; any other
    # ValueError or ArithmeticError is a bug and keeps its traceback
    def broken(*args):
        raise exc("bug")

    # both commands reach the one closed-form loop, which raises on its
    # first binomial or divisor
    monkeypatch.setattr(chern_mod, "math", SimpleNamespace(comb=broken, perm=broken))
    with pytest.raises(exc, match="bug") as info:
        run(argv)
    assert not isinstance(info.value, (InputError, InvariantError))
