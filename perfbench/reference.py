"""Fixed reference task that run.py times next to the workload's commands.

Like a schern CLI command it starts a fresh interpreter, imports the
standard-library modules the CLI imports, and runs pure-Python integer,
tuple and generator work.  It runs none of schern's code, so no change to
`src/` can change its time.  Dividing a command's time by this task's time,
measured moments apart on the same machine, cancels most of the drift in
machine speed between and within runs.
"""
import argparse  # noqa: F401  (imported for their start-up cost)
import collections.abc  # noqa: F401
import concurrent.futures  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import fcntl  # noqa: F401
import fractions  # noqa: F401
import io  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import math  # noqa: F401
import pathlib  # noqa: F401
import threading  # noqa: F401
import typing  # noqa: F401


def tuples(n: int) -> int:
    total = 0
    for i in range(n):
        a = (i, i + 1, i % 7)
        total += a[0] * a[2] - a[1]
    return total


def squares(k: int):
    for v in range(k):
        yield v * v


if __name__ == "__main__":
    print(tuples(200_000) + sum(squares(100_000)))
