"""Command-line front end.

The parsed flags are the only settings; no shell variable is read.  With
--cache PATH (and no --no-cache), c2 opens the result cache at PATH and
hands it to chern.c2, whose one cross-check rule alone reads and writes its
records.  Without --cache no command reads or writes a file.  Every other
command accepts the cache flags and never opens the cache.
render_table and the cache write their own bytes, so no command imports
json or csv.  argv is read by parse_args against the COMMANDS table;
-h/--help prints help and exits 0.

Exit codes: 0 success, 1 an arithmetic invariant failed (InvariantError:
verify found an index that is not a multiple of the H^4 generator, or the
closed form, the hook-content dimension or the cross-check's Bareiss
elimination did not divide exactly or met a non-positive pivot, in c2, dim
or any table row), 2 bad arguments or violated preconditions (InputError: a
usage error from the parser itself, unknown case, ell above its ceiling,
malformed partition, an unusable cache path for c2), 3 a consistency check
failed (the determinant gave another index or dimension than the closed
form, for c2, dim or any table row; no command then prints on stdout).
main() runs the atexit handlers, flushes stdio and ends the process with
os._exit, skipping interpreter teardown; under a tracer or profiler, or
when a flush fails, it exits through sys.exit instead.
"""
import atexit
import os
import sys
from types import SimpleNamespace

from .cache import ResultCache
from .chern import CrossCheckError, c2, schur_dimension
from .partitions import (InputError, InvariantError, Partition, PartitionError,
                         partition)
from .tables import (CASES, GeneratorTable, explore_conjecture,
                     generator_table, image_index, table_against_reference,
                     verify_case)
from .weights import GroupSpec, weight_str


def parse_partition(text: str) -> Partition:
    """"2,2,1" -> (2, 2, 1); "" and "0" denote the empty partition.

    Each part is ASCII digits, with spaces around it allowed: int() alone
    would also take "1_0", "+2" and non-ASCII digits.
    """
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise PartitionError(f"cannot parse partition {text!r}")
    return partition(map(int, tokens))


# ---------------------------------------------------------------- rendering

def _row_payload(row) -> dict:
    out = {"weight": list(row.weight), "weight_str": weight_str(row.weight),
           "partition": list(row.partition), "n_lambda": row.n_lambda,
           "flagged": row.flagged, "cross_checked": row.cross_checked}
    if row.reference_value is not None:
        out["reference"] = row.reference_value
    return out


def _shape(lam: Partition) -> str:
    return "(" + ",".join(map(str, lam)) + ")"


_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                 "\b": "\\b", "\f": "\\f"}


def _json_char(c: str) -> str:
    n = ord(c)
    if n > 0xFFFF:  # a surrogate pair, as ensure_ascii writes it
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return _JSON_ESCAPES.get(c) or (c if " " <= c <= "~" else f"\\u{n:04x}")


def _json_str(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return '"' + "".join(map(_json_char, s)) + '"'


def _json(value, indent: str = "\n") -> str:
    """What json.dumps(value, indent=2, sort_keys=True) writes, for dicts
    with str keys, lists, str, int, bool and None."""
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _json_str(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json_str(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        brackets = "{}"
    else:
        items = [_json(v, inner) for v in value]
        brackets = "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _csv_field(field: str) -> str:
    """A field as the default csv.writer quotes it."""
    if "," in field or '"' in field or "\r" in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def render_table(table: GeneratorTable, fmt: str, case_id: str | None = None) -> str:
    if fmt == "json":
        payload = {"n": table.spec.n, "d": table.spec.d, "gcd": table.gcd,
                   "rows": [_row_payload(r) for r in table.rows]}
        if case_id is not None:
            payload["case"] = case_id
        return _json(payload) + "\n"
    if fmt == "csv":
        rows = [["weight", "partition", "n_lambda", "flagged"]]
        rows += ([weight_str(r.weight), _shape(r.partition), str(r.n_lambda),
                  "true" if r.flagged else "false"] for r in table.rows)
        return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)
    # text
    header = ["weight", "partition", "n_lambda", "note"]
    body = [[weight_str(r.weight), _shape(r.partition), str(r.n_lambda),
             f"reference prints {r.reference_value}" if r.flagged else ""]
            for r in table.rows]
    widths = [max(len(row[i]) for row in [header] + body) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in [header] + body]
    lines.append(f"gcd {table.gcd}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- commands

def _cmd_c2(args) -> int:
    lam = parse_partition(args.partition)
    cache = None if args.no_cache or args.cache is None else ResultCache(args.cache)
    print(c2(args.n, lam, cache=cache).n_lambda)
    return 0


def _cmd_dim(args) -> int:
    print(schur_dimension(args.n, parse_partition(args.partition)))
    return 0


def _cmd_generators(args) -> int:
    spec = GroupSpec(args.n, args.d)
    table = generator_table(spec)
    sys.stdout.write(render_table(table, args.format))
    return 0


def _cmd_image_index(args) -> int:
    spec = GroupSpec(args.n, args.d)
    print(image_index(spec))
    return 0


def _cmd_verify(args) -> int:
    report = verify_case(args.case)
    match = "matches" if report.matches_expected else "DIFFERS FROM"
    print(f"{report.case_id}: image index {report.computed_index}, "
          f"H^4 generator multiplier {report.h4_multiplier}, "
          f"verdict {report.verdict}")
    print(f"  {match} stored expectation {report.expected_gcd} ({report.source})")
    return 0 if report.matches_expected else 3


def _cmd_table(args) -> int:
    table = table_against_reference(args.case)
    sys.stdout.write(render_table(table, args.format, case_id=args.case))
    return 0


def _cmd_conjecture(args) -> int:
    rep = explore_conjecture(args.ell)
    yn = {True: "yes", False: "no"}
    print(f"ell: {rep.ell}")
    print(f"group: SL({rep.spec.n})/mu_{rep.spec.d}")
    print(f"generators: {rep.basis_size}")
    print(f"image index: {rep.image_index}")
    print(f"index equals ell: {yn[rep.matches_ell]}")
    print(f"all rows divisible by ell: {yn[rep.all_rows_divisible]}")
    print(f"duality invariant: {yn[rep.duality_invariant]}")
    return 0


# ------------------------------------------------------------------ parser

# Each command's handler, help line and arguments: positionals in order,
# then its own options; every command also takes the SHARED flags.  A kind
# reads the text (int, str), names the value of an option kept as its text
# (a str: "PATH"), lists the choices (a tuple) or marks a bare flag (bool).
SHARED = {"--cache": "PATH", "--no-cache": bool}
FORMAT = ("text", "csv", "json")
COMMANDS = {
    "c2": (_cmd_c2, "index n_lambda of one representation",
           {"n": int, "partition": str}),
    "dim": (_cmd_dim, "dimension of gamma_n^lambda",
            {"n": int, "partition": str}),
    "generators": (_cmd_generators, "minimal generating set of "
                   "R[SL(n)/mu_d] with indices",
                   {"n": int, "d": int, "--format": FORMAT}),
    "image-index": (_cmd_image_index, "gcd of n_lambda over the generating "
                    "set", {"n": int, "d": int}),
    "verify": (_cmd_verify, "compare a computed index with its stored "
               "expectation", {"case": tuple(sorted(CASES))}),
    "table": (_cmd_table, "recompute a bundled reference table and diff it",
              {"--case": tuple(sorted(k for k, c in CASES.items() if c.reference)),
               "--format": FORMAT}),
    "conjecture": (_cmd_conjecture, "image index of SL(ell^2)/mu_ell for an "
                   "odd prime ell", {"ell": int}),
}
# The value of an absent option; an option not listed here is required.
DEFAULTS = {"--format": "text", "--no-cache": False, "--cache": None}
HELP = {
    "partition": "comma separated, e.g. 2,2,2",
    "--cache": "cache file (default: no cache)",
    "--no-cache": "skip the cache, even with --cache",
}


def _usage(name: str | None, full: bool = False) -> str:
    """The usage line of a command (None: of schern), or all its help."""
    if name is None:
        usage = "usage: schern {" + ",".join(COMMANDS) + "} ... [-h]"
        intro = ("Second Chern classes of SL(n) representations and generating "
                 "sets for\nrepresentation rings of the quotients SL(n)/mu_d.")
        rows = [(cmd, spec[1]) for cmd, spec in COMMANDS.items()]
    else:
        args = {**COMMANDS[name][2], **SHARED}
        rows = [(a if kind is bool or a[0] != "-"
                 else f"{a} {{{','.join(kind)}}}" if isinstance(kind, tuple)
                 else f"{a} {kind}", HELP.get(a, ""))
                for a, kind in args.items()]
        usage = " ".join([f"usage: schern {name} [-h]", *(
            f"[{word}]" if a in DEFAULTS else word
            for a, (word, _) in zip(args, rows))])
        intro = COMMANDS[name][1]
    if not full:
        return usage
    width = max(len(word) for word, _ in rows) + 2
    return "\n".join([usage, "", intro, "", *(
        f"  {word.ljust(width)}{text}".rstrip() for word, text in rows)]) + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against COMMANDS into a namespace holding ``command``,
    ``func`` (its handler) and one attribute per argument.  With -h or
    --help anywhere, ``func`` prints the help instead.  A malformed argv
    prints the usage line to stderr and raises InputError."""
    name = argv[0] if argv and argv[0] in COMMANDS else None

    def fail(message: str):
        print(_usage(name), file=sys.stderr)
        raise InputError(message)

    if "-h" in argv or "--help" in argv:
        text = _usage(name, full=True)
        return SimpleNamespace(func=lambda _: print(text, end="") or 0)
    if name is None:
        fail(f"expected a command ({', '.join(COMMANDS)}), got "
             + (repr(argv[0]) if argv else "none"))
    args = {**COMMANDS[name][2], **SHARED}
    positionals = [a for a in args if a[0] != "-"]
    texts, tokens = {}, iter(argv[1:])
    for tok in tokens:
        flag, eq, text = tok.partition("=")
        if not tok.startswith("--"):
            if not positionals:
                fail(f"unrecognized argument {tok}")
            texts[positionals.pop(0)] = tok
        elif flag not in args:
            fail(f"unrecognized argument {tok}")
        elif args[flag] is bool:
            if eq:
                fail(f"argument {flag} takes no value, got {text!r}")
            texts[flag] = True
        else:
            if not eq and (text := next(tokens, "--")).startswith("--") or not text:
                fail(f"argument {flag} expects a value")
            texts[flag] = text
    if missing := [a for a in args if a not in texts and a not in DEFAULTS]:
        fail("the following arguments are required: " + ", ".join(missing))
    ns = SimpleNamespace(command=name, func=COMMANDS[name][0])
    for arg, kind in args.items():
        value = texts.get(arg, DEFAULTS.get(arg))
        if arg in texts and isinstance(kind, tuple) and value not in kind:
            fail(f"argument {arg}: invalid choice {value!r} "
                 f"(choose from {', '.join(kind)})")
        if arg in texts and kind is int:
            # int() alone would also take "1_0", "+8" and non-ASCII digits
            digits = value.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                fail(f"argument {arg}: invalid int value {value!r}")
            value = int(value)
        setattr(ns, arg.lstrip("-").replace("-", "_"), value)
    return ns


def run(argv: list[str] | None = None) -> int:
    # dim 10001 10000 has 6019 digits; int and str stop at 4300 by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (CrossCheckError, InputError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, InputError)
                else 1 if isinstance(exc, InvariantError) else 3)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    """Console entry point: run the command in sys.argv and exit with its code.

    Interpreter teardown (module cleanup and the final collections) changes
    nothing a command printed but costs it milliseconds, so the process
    ends with os._exit once the atexit handlers have run and stdio is
    flushed.  A tracer or profiler (coverage, cProfile) reports from its
    own teardown, and a failed flush is reported by the normal one, so
    those exit through sys.exit as before.
    """
    code = run()
    if sys.gettrace() is None and sys.getprofile() is None:
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except (OSError, ValueError):  # a closed pipe or stream
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    main()
