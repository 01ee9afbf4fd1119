"""Benchmark of the schern CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is the checkout's
own `src/` tree, put on `PYTHONPATH`.  Metric names, units and directions
are read from `BENCHMARK.json` at the checkout root.

Workloads (see BENCHMARK.json for why each was chosen):

* certify: the headline certificates with `--no-cache`.
* conjecture: `conjecture 3` and `conjecture 5`.
* query-replay: about 20 seeded `c2`/`dim` queries and `generators 9 3`,
  run against a fresh, empty `--cache` file, then again in shuffled order
  against the same file.

`--trace 0` runs each command as a fresh `python -m schern.cli` subprocess,
one at a time (a closed loop with one client), and repeats the workload's
command list until `--seconds` have passed.  It reports medians over those
repetitions of the end-to-end metrics.  The speed of a shared machine
drifts by 20% and more within seconds, so times are reported at reference
speed: the fixed task in reference.py runs between stretches of commands,
and each stretch's wall (CPU) time is scaled by REF_S (REF_CPU_S) over the
mean wall (CPU) time of the two reference runs around it.  The unscaled
times are recorded as well.

`--trace 1` runs the same command list in-process through
`schern.cli.run(argv)`, alternating untraced rounds with rounds traced by
wrappers installed at each module boundary (see tracer.py), and reports
the per-layer metrics.  Exact counts must repeat between traced rounds.

Every command's stdout is checked: fixed commands against golden bytes in
golden/, seeded `c2`/`dim` queries against oracle.py, and the replay pass
against the first pass.  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  A full record of the run
(machine facts, code digest, samples, spans) is written under out/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"
clock = time.perf_counter

CHILD_TIMEOUT_S = 60
SETUP_SAMPLES = 15
IMPORT = "import schern.cli"
STARTUP_SAMPLES = 5
SEGMENT_S = 0.3
# Wall and CPU time of reference.py on the 2-core machine the benchmark was
# defined on; times are reported at the machine speed where it takes this long.
REF_S = 0.125
REF_CPU_S = 0.123

# Commands whose stdout is compared with golden/<name>.out.
FIXED = {
    "image-index-8-2": ["image-index", "8", "2"],
    "image-index-9-3": ["image-index", "9", "3"],
    "generators-9-3-json": ["generators", "9", "3", "--format", "json"],
    "table-sl8-mu2-csv": ["table", "--case", "sl8-mu2", "--format", "csv"],
    "table-sl9-mu3-json": ["table", "--case", "sl9-mu3", "--format", "json"],
    "verify-sl9-mu3": ["verify", "sl9-mu3"],
    "conjecture-3": ["conjecture", "3"],
    "conjecture-5": ["conjecture", "5"],
    "generators-9-3-csv": ["generators", "9", "3", "--format", "csv"],
}
CACHE = "{cache}"  # replaced by the iteration's fresh cache file


@dataclass
class Command:
    label: str
    argv: list[str]
    expected: bytes


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def golden(name: str) -> Command:
    return Command(name, list(FIXED[name]), (GOLDEN / f"{name}.out").read_bytes())


def partitions(size: int, max_rows: int, max_part: int | None = None):
    """Partitions of size with at most max_rows parts, largest first."""
    if size == 0:
        yield ()
        return
    if max_rows == 0:
        return
    for p in range(min(size, max_part or size), 0, -1):
        for rest in partitions(size - p, max_rows - 1, p):
            yield (p,) + rest


def seeded_queries(rng: random.Random, count: int) -> list[Command]:
    """c2/dim queries with n in 3..12, 1 <= |lam| <= 8, at most n-1 rows."""
    out = []
    for _ in range(count):
        kind = rng.choice(["c2", "dim"])
        n = rng.randint(3, 12)
        lam = rng.choice(list(partitions(rng.randint(1, 8), n - 1)))
        text = ",".join(map(str, lam))
        value = oracle.c2_index(n, lam) if kind == "c2" else oracle.dim(n, lam)
        out.append(Command(f"{kind}-{n}-{text}", [kind, str(n), text], b"%d\n" % value))
    return out


def workload_passes(workload: str, seed: int, smoke: bool) -> list[list[Command]]:
    """The command list of one iteration, as passes run in order."""
    if workload == "certify":
        names = ["image-index-8-2"] if smoke else [
            "image-index-8-2", "image-index-9-3", "generators-9-3-json",
            "table-sl8-mu2-csv", "table-sl9-mu3-json", "verify-sl9-mu3",
        ]
        cmds = [golden(n) for n in names]
        for c in cmds:
            c.argv.append("--no-cache")
        return [cmds]
    if workload == "conjecture":
        names = ["conjecture-3"] if smoke else ["conjecture-3", "conjecture-5"]
        return [[golden(n) for n in names]]
    if workload == "query-replay":
        rng = random.Random(seed)
        first = seeded_queries(rng, 4 if smoke else 20)
        if not smoke:
            first.append(golden("generators-9-3-csv"))
        for c in first:
            c.argv += ["--cache", CACHE]
        replay = list(first)
        rng.shuffle(replay)
        return [first, replay]
    raise SystemExit(f"unknown workload {workload!r}")


def check_outputs(passes: list[list[Command]], outputs: list[list[tuple[int, bytes]]],
                  tally: Tally) -> None:
    """Each command exits 0 with its expected bytes; a replay pass prints
    the same bytes as the first pass."""
    first = {}
    for k, (cmds, outs) in enumerate(zip(passes, outputs)):
        for cmd, (code, out) in zip(cmds, outs):
            ok = code == 0 and out == cmd.expected
            if k == 0:
                first[cmd.label] = out
            else:
                ok = ok and out == first[cmd.label]
            tally.record(ok, f"pass {k} {' '.join(cmd.argv)}: exit {code}, stdout {out[:80]!r}")


# ------------------------------------------------------------ environment

def child_env(tmp: Path) -> dict[str, str]:
    """The caller's environment without SCHERN_*, with the checkout's src/
    as the only PYTHONPATH entry and a private XDG_CACHE_HOME.  Bytecode
    writing is left at Python's default, so every child after the first
    loads schern from cached bytecode, as an installed copy would."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SCHERN_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(tmp / "xdg")
    return env


def code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def machine_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timer": "time.perf_counter (process-local)",
        "child_cpu_and_rss": "os.wait4 rusage of each child",
        "system_wide_tracing": "none",
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


# ------------------------------------------------------- subprocess runs

@dataclass
class Child:
    code: int
    out: bytes
    cpu_s: float
    maxrss_kb: int


def run_child(args: list[str], env: dict, cwd: Path, stderr) -> Child:
    """Run one python child to completion and reap it with os.wait4, so its
    own rusage (not the RUSAGE_CHILDREN running maximum) is read."""
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=stderr, env=env, cwd=cwd)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def timed_children(code: str, samples: int, env: dict, cwd: Path) -> list[float]:
    out = []
    for _ in range(samples):
        t0 = clock()
        child = run_child(["-c", code], env, cwd, subprocess.DEVNULL)
        out.append(clock() - t0)
        if child.code:
            raise RuntimeError(f"python -c {code!r} exited {child.code}")
    return out


def reference(env: dict, cwd: Path) -> tuple[float, float]:
    """(wall, cpu) of one run of reference.py."""
    t0 = clock()
    child = run_child([str(HERE / "reference.py")], env, cwd, subprocess.DEVNULL)
    wall = clock() - t0
    if child.code:
        raise RuntimeError(f"reference.py exited {child.code}")
    return wall, child.cpu_s


class Scaler:
    """Scales stretches of measured time to reference speed.

    The reference task runs before the first stretch and after each one;
    a stretch's wall time is divided by the mean wall time of the two
    reference runs around it and multiplied by REF_S, and its CPU time is
    divided by their mean CPU time and multiplied by REF_CPU_S."""

    def __init__(self, env: dict, cwd: Path):
        self.env, self.cwd = env, cwd
        self.ref = reference(env, cwd)
        self.totals = dict.fromkeys(("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"), 0.0)

    def add(self, wall: float, cpu: float) -> tuple[float, float]:
        after = reference(self.env, self.cwd)
        scaled = (wall * 2 * REF_S / (self.ref[0] + after[0]),
                  cpu * 2 * REF_CPU_S / (self.ref[1] + after[1]))
        self.ref = after
        for key, value in zip(("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"), scaled + (wall, cpu)):
            self.totals[key] += value
        return scaled


def subprocess_iteration(passes, tally: Tally) -> dict:
    """One iteration of the command list.  Commands are grouped into
    stretches of at least SEGMENT_S, each scaled by a Scaler."""
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        env = child_env(tmp)
        cache = str(tmp / "results.jsonl")
        scaler = Scaler(env, tmp)
        seg_wall = seg_cpu = 0.0
        rss = 0
        outputs = []
        with open(tmp / "stderr.log", "w+b") as err:
            for cmds in passes:
                outs = []
                for cmd in cmds:
                    argv = [cache if a == CACHE else a for a in cmd.argv]
                    t0 = clock()
                    child = run_child(["-m", "schern.cli", *argv], env, tmp, err)
                    seg_wall += clock() - t0
                    seg_cpu += child.cpu_s
                    rss = max(rss, child.maxrss_kb)
                    outs.append((child.code, child.out))
                    if seg_wall >= SEGMENT_S:
                        scaler.add(seg_wall, seg_cpu)
                        seg_wall = seg_cpu = 0.0
                outputs.append(outs)
            if seg_wall:
                scaler.add(seg_wall, seg_cpu)
            err.seek(0)
            stderr_text = err.read().decode(errors="replace")
        before = tally.failed
        check_outputs(passes, outputs, tally)
        if tally.failed > before and stderr_text:
            tally.problems.append("child stderr: " + stderr_text[-400:])
        return {**scaler.totals, "peak_rss_mb": rss / 1024}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def end_to_end(workload: str, seed: int, seconds: float, smoke: bool, tally: Tally,
               record: dict) -> dict:
    passes = workload_passes(workload, seed, smoke)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        env = child_env(tmp)
        timed_children(IMPORT, 1, env, tmp)  # write bytecode first
        scaler = Scaler(env, tmp)
        raw_setup, setup = [], []
        for _ in range(SETUP_SAMPLES):
            raw_setup.append(timed_children(IMPORT, 1, env, tmp)[0])
            setup.append(scaler.add(raw_setup[-1], 0.0)[0])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    samples = []
    start = clock()
    while not samples or clock() - start < seconds:
        samples.append(subprocess_iteration(passes, tally))
    record["setup_samples_s"] = setup
    record["raw_setup_samples_s"] = raw_setup
    record["iterations"] = samples
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["setup_s"] = statistics.median(setup)
    metrics["raw_setup_s"] = statistics.median(raw_setup)
    metrics["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    return metrics


# -------------------------------------------------------- in-process runs

def inprocess_round(cli, passes, tally: Tally, tracer: Tracer | None) -> dict:
    """Run one iteration through cli.run(argv) with stdout captured."""
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        os.environ["XDG_CACHE_HOME"] = str(tmp / "xdg")
        cache = tmp / "results.jsonl"
        outputs, marks = [], []
        if tracer:
            tracer.install()
        try:
            t0 = clock()
            for cmds in passes:
                marks.append(dict(tracer.counts) if tracer else {})
                outs = []
                for cmd in cmds:
                    argv = [str(cache) if a == CACHE else a for a in cmd.argv]
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.run(argv)
                    outs.append((code, buf.getvalue().encode()))
                outputs.append(outs)
            wall = clock() - t0
        finally:
            if tracer:
                tracer.uninstall()
        file_bytes = cache.stat().st_size if cache.exists() else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check_outputs(passes, outputs, tally)
    stdout_bytes = sum(len(out) for outs in outputs for _, out in outs)
    return {"wall": wall, "marks": marks, "file_bytes": file_bytes, "stdout_bytes": stdout_bytes}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rnd: dict) -> tuple[dict, dict]:
    """(times, exact counts) of one traced round."""
    c = tracer.counts
    replay = {}
    if len(rnd["marks"]) > 1:
        m = rnd["marks"][-1]
        replay = {k: c[k] - m.get(k, 0) for k in ("cache.get.calls", "cache.hits")}
    counts = {
        "cli.stdout_bytes": rnd["stdout_bytes"],
        "weights.irreducibility_tests": c["weights.irreducibility_tests"],
        "weights.generators": c["weights.generators"],
        "chern.enumeration_calls": c["chern.c2_enumeration.calls"],
        "chern.tableaux": c["chern.tableaux"],
        "chern.ceiling_skips": c["chern.ceiling_skips"],
        "chern.closed_form_calls": c["chern.c2_closed_form.calls"],
        "cache.lines_loaded": c["cache.lines_loaded"],
        "cache.lookups": c["cache.get.calls"],
        "cache.hits": c["cache.hits"],
        "cache.appends": c["cache.put.calls"],
        "cache.file_bytes": rnd["file_bytes"],
        "tables.rows": c["tables.rows"],
        "tables.cross_checked_rows": c["tables.cross_checked_rows"],
        "replay.lookups": replay.get("cache.get.calls", 0),
        "replay.hits": replay.get("cache.hits", 0),
    }
    times = {
        "cli.render_s": tracer.durations("cli.render_table"),
        "weights.hilbert_basis_s": tracer.durations("weights.hilbert_basis"),
        "chern.enumeration_s": tracer.durations("chern.c2_enumeration"),
        "chern.closed_form_s": tracer.durations("chern.c2_closed_form"),
        "cache.load_s": tracer.durations("cache.load"),
        "cache.append_s": tracer.durations("cache.put"),
        "trace.wall_s": rnd["wall"],
    }
    for layer in ("cli", "weights", "chern", "tables", "cache"):
        times[f"{layer}.self_s"] = tracer.layer_self_time(layer)
    return times, counts


def per_layer(workload: str, seed: int, seconds: float, smoke: bool, tally: Tally,
              record: dict) -> dict:
    for key in [k for k in os.environ if k.startswith("SCHERN_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import schern.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "schern":
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's src/")
    passes = workload_passes(workload, seed, smoke)

    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        env, cwd = child_env(tmp), tmp
        timed_children(IMPORT, 1, env, cwd)  # write bytecode first
        interp = timed_children("pass", STARTUP_SAMPLES, env, cwd)
        code = "import time; t = time.perf_counter(); import schern.cli; print(time.perf_counter() - t)"
        imports = []
        for _ in range(STARTUP_SAMPLES):
            child = run_child(["-c", code], env, cwd, subprocess.DEVNULL)
            imports.append(float(child.out))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    inprocess_round(cli, passes, Tally(), None)  # first calls, not measured
    plain, traced, spans = [], [], None
    start = clock()
    while len(plain) < 1 or len(traced) < 2 or clock() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(inprocess_round(cli, passes, tally, None)["wall"])
            continue
        tracer = Tracer()
        rnd = inprocess_round(cli, passes, tally, tracer)
        tally.problems += tracer.check()
        traced.append(layer_metrics(tracer, rnd))
        if spans is None:
            spans = tracer.spans
    exact = [counts for _, counts in traced]
    if any(counts != exact[0] for counts in exact):
        tally.problems.append(f"exact counts differ between traced rounds: {exact}")
    counts = exact[0]
    times = {k: statistics.median(t[k] for t, _ in traced) for k in traced[0][0]}

    t0 = spans[0][1] if spans else 0.0
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(
        [[name, s - t0, e - t0, parent] for name, s, e, parent in spans]))
    record["untraced_rounds_s"] = plain
    record["traced_rounds"] = [t for t, _ in traced]
    record["exact_counts"] = counts

    metrics = {k: counts[k] for k in (
        "cli.stdout_bytes", "weights.irreducibility_tests", "weights.generators",
        "chern.enumeration_calls", "chern.tableaux", "chern.ceiling_skips",
        "chern.closed_form_calls", "cache.lines_loaded", "cache.lookups", "cache.hits",
        "cache.appends", "cache.file_bytes", "tables.rows")}
    metrics.update({k: v for k, v in times.items() if k != "trace.wall_s"})
    metrics.update({
        "cli.interp_start_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "weights.yield": ratio(counts["weights.generators"], counts["weights.irreducibility_tests"]),
        "chern.tableaux_per_s": ratio(counts["chern.tableaux"], times["chern.enumeration_s"]),
        "chern.crosscheck_coverage": ratio(counts["tables.cross_checked_rows"], counts["tables.rows"]),
        "chern.closed_form_us_per_call": 1e6 * ratio(times["chern.closed_form_s"],
                                                     counts["chern.closed_form_calls"]),
        "cache.hit_ratio": ratio(counts["cache.hits"], counts["cache.lookups"]),
        "cache.replay_hit_ratio": ratio(counts["replay.hits"], counts["replay.lookups"]),
        "trace.inprocess_s": statistics.median(plain),
        "trace.overhead_s": times["trace.wall_s"] - statistics.median(plain),
    })
    return metrics


# -------------------------------------------------------------------- main

def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["certify", "conjecture", "query-replay"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a tiny command list per workload, for the self-test")
    args = p.parse_args()

    if not (SRC / "schern" / "cli.py").is_file():
        print(f"error: no schern source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "code": code_identity(), "machine": machine_facts(args.seed)}
    measure = per_layer if args.trace else end_to_end
    values = measure(args.workload, args.seed, args.seconds, args.smoke, tally, record)
    if missing := {m["name"] for m in wanted} - set(values):
        raise RuntimeError(f"metrics {sorted(missing)} named in BENCHMARK.json not measured")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(result, problems=tally.problems)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for problem in tally.problems[:20]:
        print("problem:", problem, file=sys.stderr)
    for m in wanted:
        print(f"{m['name']:32s} {values[m['name']]:>14.6g} {m['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"{name:32s} {values[name]:>14.6g} (recorded only)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
