"""A small virtual file system with mounts and chroot.

Each node owns a :class:`VFS` with a memory-backed root; shared storage
(the SAN of the paper's blade cluster) is a :class:`FileSystem` instance
mounted at the same path on every node, so pods see their files after
migrating — the paper's "shared storage infrastructure" assumption that
lets ZapC exclude file contents from checkpoint images.

Pods get their own namespace via a chroot prefix, mirroring Zap's
"chroot utility with file system stacking".
"""

from __future__ import annotations

import posixpath
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import SyscallError, VosError


def normalize(path: str) -> str:
    """Normalize to an absolute, ``..``-free POSIX path."""
    if not path.startswith("/"):
        path = "/" + path
    norm = posixpath.normpath(path)
    return "/" if norm == "//" else norm


def frozen(parts: Iterable[Any]) -> Tuple[bytes, ...]:
    """``parts`` as immutable fragments: ``bytes`` kept by reference, a
    mutable one (a bytearray, an array's view) copied once."""
    return tuple(p if isinstance(p, bytes) else bytes(p) for p in parts)


class File:
    """Regular file contents, in one of two forms.

    The mutable form is :attr:`data`, a bytearray.  A file written whole
    from ``parts`` (:meth:`FileSystem.create`) holds instead the tuple of
    immutable fragments whose join is its bytes — a sink's container, the
    image among them, kept by reference.  The first access to
    :attr:`data` joins them into the bytearray (copy-on-write); readers
    that only read use :attr:`fragments` and never do.
    """

    __slots__ = ("_buf", "_parts")

    def __init__(self, parts: Optional[Iterable[Any]] = None) -> None:
        self._buf = bytearray() if parts is None else None
        self._parts = None if parts is None else frozen(parts)

    @property
    def data(self) -> bytearray:
        """The contents as a mutable bytearray."""
        if self._buf is None:
            self._buf = bytearray().join(self._parts)
            self._parts = None
        return self._buf

    @data.setter
    def data(self, value: bytes) -> None:
        # ``file.data += chunk`` extends in place, then lands here
        self._buf = value if isinstance(value, bytearray) else bytearray(value)
        self._parts = None

    @property
    def fragments(self) -> Tuple[Any, ...]:
        """The contents as fragments whose join is the file, never
        copied: the stored tuple, or the bytearray as the one fragment.
        Read-only — a writer goes through :attr:`data`."""
        return self._parts if self._parts is not None else (self._buf,)

    def read(self, pos: int, n: int) -> bytes:
        """Up to ``n`` bytes from offset ``pos``, in either form."""
        if self._parts is None:
            return bytes(self._buf[pos:pos + n])
        out = []
        for part in self._parts:
            if n <= 0:
                break
            if pos < len(part):
                piece = part[pos:pos + n]
                out.append(piece)
                n -= len(piece)
                pos = 0
            else:
                pos -= len(part)
        return b"".join(out)


class FileSystem:
    """One mountable file system: a flat path→file map plus a dir set.

    ``bandwidth`` (bytes/sec of simulated time) and ``latency`` model the
    backing store; the kernel charges them per read/write syscall.  A
    memory-backed root uses high bandwidth; the SAN uses Fibre-Channel
    figures.
    """

    def __init__(self, name: str, bandwidth: float = 4e9, latency: float = 0.0) -> None:
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.files: Dict[str, File] = {}
        self.dirs = {"/"}

    def transfer_delay(self, nbytes: int) -> float:
        """Simulated seconds to move ``nbytes`` to/from this store."""
        return self.latency + nbytes / self.bandwidth

    # -- structure ------------------------------------------------------
    def mkdir(self, path: str) -> None:
        """Create a directory (parents must exist)."""
        path = normalize(path)
        parent = posixpath.dirname(path)
        if parent not in self.dirs:
            raise SyscallError("ENOENT", f"parent of {path} missing")
        if path in self.files:
            raise SyscallError("EEXIST", path)
        self.dirs.add(path)

    def exists(self, path: str) -> bool:
        """True when ``path`` names a file or directory."""
        path = normalize(path)
        return path in self.files or path in self.dirs

    def listdir(self, path: str) -> List[str]:
        """Names of entries directly under directory ``path``."""
        path = normalize(path)
        if path not in self.dirs:
            raise SyscallError("ENOTDIR", path)
        prefix = path if path.endswith("/") else path + "/"
        names = set()
        for candidate in list(self.files) + list(self.dirs):
            if candidate != path and candidate.startswith(prefix):
                rest = candidate[len(prefix):]
                names.add(rest.split("/", 1)[0])
        return sorted(names)

    # -- file ops --------------------------------------------------------
    def create(self, path: str, parts: Optional[Iterable[Any]] = None) -> File:
        """Create (or truncate) a regular file; with ``parts``, one that
        holds those fragments by reference (see :class:`File`)."""
        path = normalize(path)
        parent = posixpath.dirname(path)
        if parent not in self.dirs:
            raise SyscallError("ENOENT", f"parent of {path} missing")
        f = File(parts=parts)
        self.files[path] = f
        return f

    def lookup(self, path: str) -> File:
        """Return the file at ``path``; ENOENT if missing."""
        path = normalize(path)
        f = self.files.get(path)
        if f is None:
            raise SyscallError("ENOENT", path)
        return f

    def unlink(self, path: str) -> None:
        """Remove a regular file."""
        path = normalize(path)
        if path not in self.files:
            raise SyscallError("ENOENT", path)
        del self.files[path]


class OpenFile:
    """A file descriptor's view of an open regular file."""

    kind = "file"

    def __init__(self, fs: FileSystem, path: str, file: File, mode: str) -> None:
        self.fs = fs
        self.path = path
        self.file = file
        self.mode = mode
        self.pos = 0

    def read(self, n: int) -> bytes:
        """Read up to ``n`` bytes from the current position."""
        if "r" not in self.mode and "+" not in self.mode:
            raise SyscallError("EBADF", f"{self.path} not open for reading")
        data = self.file.read(self.pos, n)
        self.pos += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write at the current position (overwrites then extends).  At
        or past end-of-file the file is extended in place, a gap left by
        a position beyond the end reading as zeros."""
        if "w" not in self.mode and "a" not in self.mode and "+" not in self.mode:
            raise SyscallError("EBADF", f"{self.path} not open for writing")
        buf = self.file.data
        size = len(buf)
        pos = size if "a" in self.mode else self.pos
        if pos >= size:
            if pos > size:
                buf += bytes(pos - size)
            buf += data
        else:
            buf[pos:pos + len(data)] = data
        self.pos = pos + len(data)
        return len(data)


class VFS:
    """Per-node view: a root file system plus mounted file systems."""

    def __init__(self, root: Optional[FileSystem] = None) -> None:
        self.root = root if root is not None else FileSystem("rootfs")
        #: mount point -> file system, longest-prefix wins.
        self.mounts: Dict[str, FileSystem] = {}

    def mount(self, path: str, fs: FileSystem) -> None:
        """Attach ``fs`` at ``path`` (which is created on the root)."""
        path = normalize(path)
        if path != "/" and not self.root.exists(path):
            # auto-create the mount point directory chain
            parts = path.strip("/").split("/")
            cur = ""
            for part in parts:
                cur += "/" + part
                if not self.root.exists(cur):
                    self.root.mkdir(cur)
        self.mounts[path] = fs

    def resolve(self, path: str, chroot: str = "/") -> Tuple[FileSystem, str]:
        """Map a (possibly chrooted) path to ``(filesystem, inner path)``."""
        if chroot != "/":
            path = normalize(chroot) + "/" + path.lstrip("/")
        path = normalize(path)
        best: Tuple[str, FileSystem] = ("/", self.root)
        for mp, fs in self.mounts.items():
            if (path == mp or path.startswith(mp + "/")) and len(mp) > len(best[0]):
                best = (mp, fs)
        mp, fs = best
        inner = path[len(mp):] if mp != "/" else path
        return fs, normalize(inner or "/")

    def open(self, path: str, mode: str, chroot: str = "/") -> OpenFile:
        """Open (creating for ``w``/``a``) and return an OpenFile."""
        fs, inner = self.resolve(path, chroot)
        if "w" in mode:
            f = fs.create(inner)
        elif "a" in mode:
            f = fs.files.get(inner) or fs.create(inner)
        else:
            f = fs.lookup(inner)
        return OpenFile(fs, inner, f, mode)


def ensure_dirs(fs: FileSystem, path: str) -> None:
    """mkdir -p equivalent for tests and pod setup."""
    path = normalize(path)
    if path == "/":
        return
    cur = ""
    for part in path.strip("/").split("/"):
        cur += "/" + part
        if cur not in fs.dirs:
            if cur in fs.files:
                raise VosError(f"{cur} is a file")
            fs.mkdir(cur)
