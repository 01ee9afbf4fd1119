"""Append-only result cache.

One JSON object per line, keys sorted, no timestamps, so identical runs
produce byte-identical files.  Appends take an advisory lock; concurrent
writers interleave whole lines.  Records carry the package version and
are ignored on version mismatch.  A path that cannot be read or appended
to raises InputError, as a bad --cache argument.
"""
from pathlib import Path

from . import __version__
from .chern import ChernResult
from .partitions import InputError, Partition

CacheKey = tuple[int, int | None, Partition]


def _key(n: int, d: int | None, lam: Partition) -> CacheKey:
    return (n, d, tuple(lam))


def _decode(line: bytes) -> tuple[CacheKey, dict] | None:
    import json  # only a cache file needs it; keep it off every start-up

    try:
        rec = json.loads(line.decode())
    except ValueError:  # not UTF-8, or not JSON
        return None
    if not isinstance(rec, dict) or rec.get("version") != __version__:
        return None
    try:
        n, d, lam, method = rec["n"], rec["d"], rec["partition"], rec["method"]
        values = [n, rec["n_lambda"], rec["dim"]]
    except KeyError:
        return None
    # exact types only: True == 1, 2.0 == 2 and "11" iterates to (1, 1), so
    # any coercion would let a foreign line alias a real key
    if type(lam) is not list or type(method) is not str:
        return None
    if any(type(v) is not int for v in values + lam):
        return None
    if d is not None and (type(d) is not int or d < 1):
        return None
    return _key(n, d, tuple(lam)), rec


class ResultCache:
    """In-memory view of one cache file; later lines win on duplicate keys.

    The cache stores records and trusts none: tables.cached_c2 decides
    whether a record may be served.
    """

    def __init__(self, path: Path):
        self.path = path
        self._data: dict[CacheKey, dict] = {}
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return
        except OSError as exc:  # a directory, a path under a file, ...
            raise InputError(f"unusable cache path: {exc}") from exc
        for line in blob.splitlines():
            if decoded := _decode(line):
                self._data[decoded[0]] = decoded[1]

    def get(self, n: int, d: int | None, lam: Partition) -> dict | None:
        return self._data.get(_key(n, d, lam))

    def put(self, n: int, d: int | None, lam: Partition, res: ChernResult) -> None:
        rec = {
            "n": n,
            "d": d,
            "partition": list(lam),
            "n_lambda": res.n_lambda,
            "dim": res.dim,
            "method": res.method,
            "version": __version__,
        }
        self._data[_key(n, d, lam)] = rec
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
