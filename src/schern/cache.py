"""Append-only cache of cross-checked indices.

A record holds the one fact a hit saves: the index n_lam of (n, lam) that
the Jacobi-Trudi determinant gave.  chern.c2 is the one reader and writer:
it looks up the reduced lam, and puts an index only after its determinant
confirmed it; nothing here decides whether a record may stand in.  The
key stays "subshape", as the earlier sub-shape sum gave the same integer,
so older files read as before.  A record is one line,
{"n":8,"partition":[2,2,2],"subshape":700,"version":"0.1.0"}: the bytes of
json.dumps(rec, sort_keys=True, separators=(",", ":")), no timestamps, so
identical runs produce byte-identical files.  A line is read only if it is
exactly the line its fields write: a hand-edited or respaced line, another
version or another field is skipped and its index recomputed.  Appends take
an advisory lock; concurrent writers interleave whole lines.  The path is a
str or any path-like, used as given.  A path that is absent reads as an
empty cache; one that ends in "/" or is not a regular file (a directory, a
FIFO, a device), or cannot be read or appended to, raises InputError, as a
bad --cache argument.
"""
import os
from stat import S_ISREG

from . import __version__
from .partitions import InputError, Partition

CacheKey = tuple[int, Partition]


def _line(n: int, lam: Partition, subshape: int) -> bytes:
    parts = ",".join(map(str, lam))
    return (f'{{"n":{n},"partition":[{parts}],"subshape":{subshape},'
            f'"version":"{__version__}"}}').encode()


def _decode(line: bytes) -> tuple[CacheKey, int] | None:
    head, _, rest = line.partition(b',"partition":[')
    parts, _, rest = rest.partition(b'],"subshape":')
    subshape, _, _ = rest.partition(b',"version":"')
    try:
        n = int(head[5:])
        lam = tuple(map(int, parts.split(b","))) if parts else ()
        subshape = int(subshape)
    except ValueError:  # not an int, or past the digit limit
        return None
    # int() forgives " ", "+", "_" and leading zeros; the round trip does not
    if _line(n, lam, subshape) != line:
        return None
    return (n, lam), subshape


class ResultCache:
    """In-memory view of one cache file: the recorded index of each
    (n, lam); later lines win on duplicate keys.

    The cache trusts no record: chern.c2 lets an index stand in for the
    determinant only when it equals the closed form.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = path
        self._data: dict[CacheKey, int] = {}
        try:
            # a FIFO would block the read and /dev/zero never end it; a
            # trailing "/" names a directory, whether or not one is there
            if not os.path.basename(path) or not S_ISREG(os.stat(path).st_mode):
                raise InputError(f"unusable cache path: {path} is not a regular file")
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return
        except OSError as exc:  # a path under a file, no read permission, ...
            raise InputError(f"unusable cache path: {exc}") from exc
        for line in blob.splitlines():
            if decoded := _decode(line):
                self._data[decoded[0]] = decoded[1]

    def get(self, n: int, lam: Partition) -> int | None:
        return self._data.get((n, tuple(lam)))

    def put(self, n: int, lam: Partition, subshape: int) -> None:
        lam = tuple(lam)
        self._data[(n, lam)] = subshape
        try:
            self._append(_line(n, lam, subshape) + b"\n")
        except OSError as exc:  # a parent that is a file, a full disk, ...
            raise InputError(f"unusable cache path: {exc}") from exc

    def _append(self, line: bytes) -> None:
        import fcntl  # only an append needs it; keep it off start-up

        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                # a torn last line (no newline) would swallow this record
                if fh.seek(0, 2) > 0:
                    fh.seek(-1, 2)
                    if fh.read(1) != b"\n":
                        line = b"\n" + line
                fh.write(line)
                fh.flush()
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)


__all__ = ["ResultCache"]
