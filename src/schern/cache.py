"""Append-only cache of sub-shape sums.

A record holds the one fact a hit saves: the sub-shape sum of (n, lam),
stored only for an index that chern.c2 cross-checked.  One JSON object per
line, keys sorted, no timestamps, so identical runs produce byte-identical
files.  Appends take an advisory lock; concurrent writers interleave whole
lines.  Records carry the package version and are ignored on version
mismatch, as are lines whose keys are not exactly those of a record.  A
path that cannot be read or appended to raises InputError, as a bad
--cache argument.
"""
from pathlib import Path

from . import __version__
from .partitions import InputError, Partition

CacheKey = tuple[int, Partition]
_KEYS = {"n", "partition", "subshape", "version"}


def _decode(line: bytes) -> tuple[CacheKey, int] | None:
    import json  # only a cache file needs it; keep it off every start-up

    try:
        rec = json.loads(line.decode())
    except ValueError:  # not UTF-8, or not JSON
        return None
    # exactly the keys put() writes: a line with any other field was not
    # written by this format
    if not isinstance(rec, dict) or rec.keys() != _KEYS:
        return None
    if rec["version"] != __version__:
        return None
    n, lam, subshape = rec["n"], rec["partition"], rec["subshape"]
    # exact types only: True == 1, 2.0 == 2 and "11" iterates to (1, 1), so
    # any coercion would let a foreign line alias a real key
    if type(lam) is not list:
        return None
    if any(type(v) is not int for v in [n, subshape, *lam]):
        return None
    return (n, tuple(lam)), subshape


class ResultCache:
    """In-memory view of one cache file: the recorded sub-shape sum of each
    (n, lam); later lines win on duplicate keys.

    The cache trusts no record: chern.c2 lets a sum stand in for the
    sub-shape sum only when it equals the closed form.
    """

    def __init__(self, path: Path):
        self.path = path
        self._data: dict[CacheKey, int] = {}
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return
        except OSError as exc:  # a directory, a path under a file, ...
            raise InputError(f"unusable cache path: {exc}") from exc
        for line in blob.splitlines():
            if decoded := _decode(line):
                self._data[decoded[0]] = decoded[1]

    def get(self, n: int, lam: Partition) -> int | None:
        return self._data.get((n, tuple(lam)))

    def put(self, n: int, lam: Partition, subshape: int) -> None:
        rec = {"n": n, "partition": list(lam), "subshape": subshape,
               "version": __version__}
        self._data[(n, tuple(lam))] = subshape
        try:
            self._append(rec)
        except OSError as exc:  # a parent that is a file, a full disk, ...
            raise InputError(f"unusable cache path: {exc}") from exc

    def _append(self, rec: dict) -> None:
        import fcntl  # only an append needs these; keep them off start-up
        import json

        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        with open(self.path, "ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                # a torn last line (no newline) would swallow this record
                if fh.seek(0, 2) > 0:
                    fh.seek(-1, 2)
                    if fh.read(1) != b"\n":
                        line = "\n" + line
                fh.write(line.encode())
                fh.flush()
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)


__all__ = ["ResultCache"]
