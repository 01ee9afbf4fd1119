"""Exit codes, output formats, and cache behaviour of the command line."""
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import schern.chern as chern_mod
import schern.partitions as partitions_mod
import schern.tables as tables_mod
from oracles import casimir, dual_partition, ssyt_count
from schern import (
    GroupSpec,
    __version__,
    c2,
    c2_closed_form,
    c2_enumeration,
    c2_subshape,
    explore_conjecture,
    hilbert_basis,
    partition_of,
    schur_dimension,
    table_against_reference,
    verify_case,
)
from schern.cache import ResultCache
from schern.chern import reduce_full_columns
from schern.cli import COMMANDS, SHARED, main, parse_args, parse_partition, run
from schern.partitions import InputError, InvariantError, PartitionError, partition


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Keep CLI runs away from the user's real cache."""
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


def test_a_cached_index_past_the_conversion_limit_is_served(capsys, tmp_path):
    # json.dumps and json.loads share the limit: the record is written, then
    # read back and served, so the second run appends nothing
    cache = tmp_path / "F"
    argv = ["c2", "10001", "10000", "--cache", str(cache)]
    first = invoke(capsys, *argv)
    assert first[0] == 0 and len(first[1]) > 6019
    assert cache.read_bytes().count(b"\n") == 1
    assert invoke(capsys, *argv) == first
    assert cache.read_bytes().count(b"\n") == 1


def test_settings_come_from_the_command_line_only(capsys, monkeypatch, tmp_path):
    # the package reads no SCHERN_* variable, so none of these, malformed or
    # not, changes a result or the cache path
    ignored = tmp_path / "x.jsonl"
    monkeypatch.setenv("SCHERN_ENUM_CEILING", "5")  # dim of (1,1) at n=4 is 6
    monkeypatch.setenv("SCHERN_MAX_ELL", "3")
    monkeypatch.setenv("SCHERN_CACHE", str(ignored))
    monkeypatch.setenv("SCHERN_VERIFY_CACHE", "maybe")
    assert invoke(capsys, "c2", "4", "1,1", "--no-cache")[:2] == (0, "2\n")
    assert invoke(capsys, "conjecture", "5")[0] == 0
    assert invoke(capsys, "c2", "4", "1,1")[:2] == (0, "2\n")
    assert not ignored.exists()
    # the record in the default cache is cross-checked: no ceiling of 5
    default = tmp_path / "xdg" / "schern" / "results.jsonl"
    assert '"method":"both"' in default.read_text()


@pytest.mark.parametrize("xdg", ["relcache", "", None], ids=["relative", "empty", "unset"])
def test_default_cache_falls_back_to_home_unless_xdg_is_absolute(monkeypatch, tmp_path, xdg):
    # the XDG Base Directory spec makes a relative XDG_CACHE_HOME invalid,
    # so it must not put a cache under the working directory
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    default = tmp_path / "home" / ".cache" / "schern" / "results.jsonl"
    assert parse_args(["c2", "4", "1"]).cache == default


def test_dim(capsys):
    code, out, _ = invoke(capsys, "dim", "9", "3,3,3,3,3", "--no-cache")
    assert code == 0 and out == "116424\n"


def test_dim_too_long_partition_is_zero(capsys):
    code, out, _ = invoke(capsys, "dim", "2", "1,1,1", "--no-cache")
    assert code == 0 and out == "0\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ("image-index", "8", "2"),
        ("generators", "8", "2"),
        ("generators", "8", "2", "--format", "json"),
        ("table", "--case", "sl8-mu2", "--format", "csv"),
        ("verify", "sl8-mu2"),
    ],
)
def test_failed_cross_check_exits_3(capsys, monkeypatch, argv):
    real = chern_mod.c2_subshape

    def disagree(n, lam):
        value = real(n, lam)
        return value + 1 if lam == (1, 1) else value

    monkeypatch.setattr(chern_mod, "c2_subshape", disagree)
    code, out, err = invoke(capsys, *argv, "--no-cache")
    assert code == 3
    assert "closed form 6, sub-shape sum 7" in err
    if argv[0] in ("image-index", "verify"):
        assert out == ""


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
    case = tables_mod.CASES["sl8-mu2"]
    monkeypatch.setitem(tables_mod.CASES, "sl8-mu2",
                        case._replace(h4_multiplier=3))
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


@pytest.mark.parametrize("module,name,value,message", [
    # the closed form's division, on the first row the search yields
    (chern_mod, "_n_casimir",
     lambda n, heights, real=chern_mod._n_casimir: real(n, heights) + 1,
     "non-integral index 1267/60 for n=9 lam=(1, 1, 1); formula misapplied"),
    # the hook content division over that row's one column of height 3
    (partitions_mod, "math",
     SimpleNamespace(comb=lambda a, b: 1, perm=lambda a, b: 2),
     "hook content division is not exact for n=9 lam=(1, 1, 1)"),
], ids=["closed-form", "hook-content"])
def test_conjecture_inexact_division_on_a_generator_row_exits_1(
    capsys, monkeypatch, module, name, value, message
):
    monkeypatch.setattr(module, name, value)
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
    # the odd-prime test trial-divides only up to isqrt(ell)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "conjecture", "100000007")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "exceeds the ceiling 7" in err


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
    # a record that the closed form reproduces is served: no sub-shape sum
    # runs and nothing is appended
    cache = tmp_path / "c.jsonl"
    argvs = [("c2", "8", "2,2,2"), ("generators", "9", "3", "--format", "json")]
    clean = [invoke(capsys, *argv, "--no-cache") for argv in argvs]
    assert [invoke(capsys, *argv, "--cache", str(cache)) for argv in argvs] == clean
    warm = cache.read_bytes()

    def no_subshape(n, lam):
        raise AssertionError("a served hit must not run the sub-shape sum")

    monkeypatch.setattr(chern_mod, "c2_subshape", no_subshape)
    assert [invoke(capsys, *argv, "--cache", str(cache)) for argv in argvs] == clean
    assert cache.read_bytes() == warm


def test_planted_cache_value_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    rec = {
        "n": 8, "d": None, "partition": [2, 2, 2], "n_lambda": 12345,
        "dim": 1176, "method": "both", "version": __version__,
    }
    cache.write_text(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    code, out, _ = invoke(capsys, "c2", "8", "2,2,2", "--cache", str(cache))
    assert (code, out) == (0, "700\n")
    lines = cache.read_text().splitlines()
    assert len(lines) == 2 and '"n_lambda":700' in lines[1]


POISON = {"n_lambda": lambda v: v + 1, "dim": lambda v: v * 2,
          "method": {"both": "closed-form", "closed-form": "both"}.get}


@pytest.mark.parametrize("field", sorted(POISON))
@pytest.mark.parametrize("argv,partition", [
    (("c2", "8", "2,2,2"), [2, 2, 2]),
    # (3^8) carries the index 66 that makes the gcd 3, not 1
    (("image-index", "9", "3"), [3] * 8),
], ids=["c2", "table-row"])
def test_poisoned_cache_record_is_recomputed(capsys, tmp_path, argv, partition, field):
    # a record whose index, dimension or route the closed form does not
    # reproduce is never printed: it is recomputed and the fresh line wins
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
    rec = {
        "n": 8, "d": None, "partition": [2, 2, 2], "n_lambda": 999,
        "dim": 2352, "method": "both", "version": "0.0.0",
    }
    cache.write_text(json.dumps(rec, sort_keys=True) + "\n")
    code, out, _ = invoke(capsys, "c2", "8", "2,2,2", "--cache", str(cache))
    assert code == 0
    assert out == "700\n"  # old-version line is not trusted


def test_corrupt_cache_lines_skipped(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    cache.write_text("this is not json\n{\"half\": true\n")
    code, out, _ = invoke(capsys, "c2", "8", "2,2,2", "--cache", str(cache))
    assert code == 0
    assert out == "700\n"


def test_non_utf8_cache_line_skipped(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    rec = {
        "n": 8, "d": None, "partition": [2, 2, 2], "n_lambda": 700,
        "dim": 1176, "method": "both", "version": __version__,
    }
    cache.write_bytes(b"\xff\n" + json.dumps(rec, sort_keys=True).encode() + b"\n")
    planted = cache.read_bytes()
    code, out, _ = invoke(capsys, "c2", "8", "2,2,2", "--cache", str(cache))
    assert (code, out) == (0, "700\n")
    assert cache.read_bytes() == planted  # the record after the bad line is served


@pytest.mark.parametrize("where", ["directory", "under-a-file", "dangling-link"])
def test_unusable_cache_path_exits_2(capsys, tmp_path, where):
    (tmp_path / "file").write_text("")
    # a dangling link reads as no file yet, so only the append fails
    (tmp_path / "link").symlink_to(tmp_path / "missing")
    cache = {"directory": tmp_path, "under-a-file": tmp_path / "file" / "c.jsonl",
             "dangling-link": tmp_path / "link" / "c.jsonl"}[where]
    code, out, err = invoke(capsys, "c2", "8", "2,2,2", "--cache", str(cache))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("ceiling", [0, 200_000], ids=["0", "200000"])
def test_cache_hit_from_another_ceiling_is_recomputed(capsys, tmp_path, ceiling):
    # 27 of the 31 rows lie below the cross-check ceiling and are
    # cross-checked; the records that a build with another ceiling wrote
    # (cross-checked exactly up to that one) must not change that
    cache = tmp_path / "c.jsonl"
    argv = ("generators", "9", "3", "--format", "json")
    clean = invoke(capsys, *argv, "--no-cache")
    assert clean[1].count('"cross_checked": true') == 27
    planted = ResultCache(cache)
    for lam in map(partition_of, hilbert_basis(GroupSpec(9, 3))):
        res = c2_closed_form(9, lam)
        if res.dim <= ceiling:
            res = res._replace(method="both", cross_checked=True)
        planted.put(9, 3, lam, res)
    assert cache.read_text().count('"method":"both"') != 27
    assert invoke(capsys, *argv, "--cache", str(cache)) == clean
    assert invoke(capsys, *argv, "--cache", str(cache)) == clean


@pytest.mark.parametrize("field,value,d", [
    ("d", [2], 2),     # unhashable: used to crash every run that read the file
    ("d", True, 1),    # True == 1 would alias the d=1 row
    ("d", 2.0, 2),     # 2.0 == 2 would alias the d=2 row
    ("d", 0, 2),
    ("n", 4.9, 2),     # int(4.9) == 4 would alias the n=4 row
    ("n", "4", 2),
    ("partition", [1.5, 1], 2),
    ("partition", [True, True], 2),
    ("partition", "11", 2),   # a string iterates to its digits, (1, 1)
    ("n_lambda", 999.0, 2),
    ("dim", "6", 2),
], ids=["list", "bool", "float", "zero", "n-float", "n-str", "part-float",
        "part-bool", "part-str", "n_lambda-float", "dim-str"])
def test_cache_line_with_malformed_d_is_skipped(capsys, tmp_path, field, value, d):
    """A line with any field of the wrong JSON type is skipped, never
    coerced onto a real key."""
    clean = invoke(capsys, "generators", "4", str(d), "--no-cache")
    cache = tmp_path / "c.jsonl"
    rec = {
        "n": 4, "d": d, "partition": [1, 1], "n_lambda": 999,
        "dim": 6, "method": "both", "version": __version__,
    }
    rec[field] = value
    cache.write_text(json.dumps(rec, sort_keys=True) + "\n")
    assert invoke(capsys, "generators", "4", str(d), "--cache", str(cache)) == clean


def test_torn_last_line_does_not_swallow_an_append(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"d":null,"dim":3,"method"')  # no trailing newline
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
    assert len(lines) == 1 and '"method":"both"' in lines[0]


def test_cache_respects_group_context(capsys, tmp_path):
    # a standalone c2 record (d null) must not satisfy a d=2 table row
    cache = tmp_path / "c.jsonl"
    invoke(capsys, "c2", "8", "1,1", "--cache", str(cache))
    first = cache.read_text()
    invoke(capsys, "image-index", "8", "2", "--cache", str(cache))
    blob = cache.read_text()
    assert blob.startswith(first)
    assert blob.count('"d":2') == 13 and blob.count('"d":null') == 1


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
    real = chern_mod._hook_dimension
    monkeypatch.setattr(chern_mod, "_hook_dimension",
                        lambda n, lam, heights: real(n, lam, heights) + 1)
    code, out, err = invoke(capsys, "c2", "4", "1", "--no-cache")
    assert code == 1
    assert out == ""
    assert "non-integral index 5/4 for n=4 lam=(1,)" in err


def test_dim_inexact_hook_division_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(partitions_mod, "math",
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


def test_text_and_uncached_commands_load_no_unneeded_modules():
    # argparse and gettext are replaced by parse_args; json only serves the
    # cache file and --format json, csv --format csv, fcntl a cache append;
    # no module uses fractions, nor __future__ postponed annotations, which are
    # gone.  Counted in a fresh interpreter, where site has loaded none of
    # them.  A postponed (string) annotation on a NamedTuple field would
    # also cost one compile() at import, for the ForwardRef that typing
    # wraps it in, so every field annotation must be a real type.
    script = (
        "import sys, typing\n"
        "import schern.cli\n"
        "codes = [schern.cli.run(['dim', '8', '2,1']),\n"
        "         schern.cli.run(['c2', '8', '2,2,2', '--no-cache']),\n"
        "         schern.cli.run(['conjecture', '3']),\n"
        "         schern.cli.run(['image-index', '8', '2', '--no-cache'])]\n"
        "unneeded = ['argparse', 'gettext', 'json', 'csv', 'fractions', 'fcntl',\n"
        "            '__future__']\n"
        "fields = {f'{cls.__name__}.{name}': hint\n"
        "          for mod in list(sys.modules.values())\n"
        "          if mod.__name__.startswith('schern')\n"
        "          for cls in vars(mod).values()\n"
        "          if isinstance(cls, type) and issubclass(cls, tuple)\n"
        "          and hasattr(cls, '_fields')\n"
        "          for name, hint in cls.__annotations__.items()}\n"
        "print(len(fields) > 20, [f for f, hint in fields.items()\n"
        "                         if isinstance(hint, (str, typing.ForwardRef))])\n"
        "print(codes, [m for m in unneeded if m in sys.modules])\n"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["True []", "[0, 0, 0, 0] []"]


def test_main_freezes_the_collector_and_run_does_not(monkeypatch, capsys):
    # the start-up heap lives as long as the process, so main() moves it to
    # the permanent generation; run() is what the tests and the in-process
    # benchmark call, and it leaves the collector as it found it
    before = gc.get_freeze_count()
    assert run(["dim", "4", "1"]) == 0
    assert gc.get_freeze_count() == before
    monkeypatch.setattr(sys, "argv", ["schern", "dim", "4", "1"])
    try:
        with pytest.raises(SystemExit) as info:
            main()
        assert info.value.code == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == "4\n4\n"


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


def test_benchmark_argvs_parse_to_the_argparse_namespaces(tmp_path):
    # the namespaces that the argparse parser built, its handler aside, for
    # the argv shapes that perfbench/run.py passes
    default = tmp_path / "xdg" / "schern" / "results.jsonl"
    shared = {"cache": default, "no_cache": False}
    cases = [
        (["c2", "3", "2,1", "--no-cache"],
         {"command": "c2", "n": 3, "partition": "2,1", "no_cache": True}),
        (["dim", "5", "1,1", "--cache", "F"],
         {"command": "dim", "n": 5, "partition": "1,1", "cache": Path("F")}),
        (["c2", "5", "2", "--cache", "F"],
         {"command": "c2", "n": 5, "partition": "2", "cache": Path("F")}),
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
          "cache": Path("F")}),
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
], ids=["dim-n", "ssyt-n", "increasing", "rows-reduce", "rows-dual",
        "rows-casimir", "casimir-n", "dual-n", "c2-n", "subshape-n", "spec-n",
        "spec-d", "spec-divide", "weight-type", "weight-sign", "table-case",
        "verify-case", "ell-prime", "ell-ceiling", "partition-text"])
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
    def broken(n, heights):
        raise exc("bug")

    monkeypatch.setattr(chern_mod, "_n_casimir", broken)
    with pytest.raises(exc, match="bug") as info:
        run(argv)
    assert not isinstance(info.value, (InputError, InvariantError))
