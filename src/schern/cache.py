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

    With ``verify`` set, :meth:`result` misses on purpose so that every
    value is recomputed, and :meth:`record` raises StaleCacheError when a
    recomputed value disagrees with the file.
    """

    def __init__(self, path: Path, verify: bool = False):
        self.path = path
        self.verify = verify
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

    def result(self, n: int, d: int | None, lam: Partition) -> ChernResult | None:
        if self.verify:
            return None
        rec = self.get(n, d, lam)
        if rec is None:
            return None
        return ChernResult(
            n_lambda=rec["n_lambda"],
            method=rec["method"],
            cross_checked=rec["method"] == "both",
            dim=rec["dim"],
        )

    def record(self, n: int, d: int | None, lam: Partition, res: ChernResult) -> None:
        """Append a freshly computed result unless the file already holds it
        by the same route."""
        old = self.get(n, d, lam)
        if old is not None and old["n_lambda"] != res.n_lambda:
            raise StaleCacheError(n, d, lam, old["n_lambda"], res.n_lambda)
        if old is None or old["method"] != res.method:
            self.put(n, d, lam, res)

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


class StaleCacheError(Exception):
    """A cached value disagrees with a fresh computation."""

    def __init__(self, n: int, d: int | None, lam: Partition, cached: int, fresh: int):
        self.n, self.d, self.lam = n, d, lam
        self.cached, self.fresh = cached, fresh
        super().__init__(
            f"cache disagrees for n={n} d={d} partition={lam}: "
            f"cached {cached}, recomputed {fresh}"
        )


__all__ = ["ResultCache", "StaleCacheError"]
