"""VFS unit tests: mounts, chroot resolution, file semantics."""

import pytest

from repro.errors import SyscallError
from repro.vos.filesystem import FileSystem, OpenFile, VFS, ensure_dirs, normalize


class TestNormalize:
    def test_absolute(self):
        assert normalize("/a/b") == "/a/b"

    def test_relative_gets_rooted(self):
        assert normalize("a/b") == "/a/b"

    def test_dotdot_collapses(self):
        assert normalize("/a/../b/./c") == "/b/c"

    def test_root(self):
        assert normalize("/") == "/"


class TestFileSystem:
    def test_create_lookup_unlink(self):
        fs = FileSystem("t")
        f = fs.create("/x")
        f.data.extend(b"abc")
        assert bytes(fs.lookup("/x").data) == b"abc"
        fs.unlink("/x")
        with pytest.raises(SyscallError):
            fs.lookup("/x")

    def test_create_requires_parent_dir(self):
        fs = FileSystem("t")
        with pytest.raises(SyscallError):
            fs.create("/no/such/parent")

    def test_mkdir_and_listdir(self):
        fs = FileSystem("t")
        fs.mkdir("/d")
        fs.mkdir("/d/e")
        fs.create("/d/a")
        fs.create("/d/b")
        assert fs.listdir("/d") == ["a", "b", "e"]
        assert fs.listdir("/d/e") == []

    def test_listdir_on_file_fails(self):
        fs = FileSystem("t")
        fs.create("/f")
        with pytest.raises(SyscallError):
            fs.listdir("/f")

    def test_mkdir_over_file_fails(self):
        fs = FileSystem("t")
        fs.create("/f")
        with pytest.raises(SyscallError):
            fs.mkdir("/f")

    def test_transfer_delay_scales(self):
        fs = FileSystem("t", bandwidth=1e6, latency=0.001)
        assert fs.transfer_delay(1_000_000) == pytest.approx(1.001)

    def test_ensure_dirs(self):
        fs = FileSystem("t")
        ensure_dirs(fs, "/a/b/c")
        assert fs.exists("/a/b/c")
        ensure_dirs(fs, "/a/b/c")  # idempotent


class TestOpenFile:
    def test_read_write_positions(self):
        fs = FileSystem("t")
        f = fs.create("/x")
        h = OpenFile(fs, "/x", f, "w")
        assert h.write(b"hello") == 5
        h2 = OpenFile(fs, "/x", f, "r")
        assert h2.read(3) == b"hel"
        assert h2.read(100) == b"lo"
        assert h2.read(10) == b""

    def test_append_mode(self):
        fs = FileSystem("t")
        f = fs.create("/x")
        OpenFile(fs, "/x", f, "w").write(b"one")
        OpenFile(fs, "/x", f, "a").write(b"two")
        assert bytes(f.data) == b"onetwo"

    def test_mode_enforcement(self):
        fs = FileSystem("t")
        f = fs.create("/x")
        with pytest.raises(SyscallError):
            OpenFile(fs, "/x", f, "r").write(b"nope")
        with pytest.raises(SyscallError):
            OpenFile(fs, "/x", f, "w").read(1)

    def test_overwrite_middle(self):
        fs = FileSystem("t")
        f = fs.create("/x")
        h = OpenFile(fs, "/x", f, "w")
        h.write(b"abcdef")
        h.pos = 2
        h.write(b"XY")
        assert bytes(f.data) == b"abXYef"

    def test_overwrite_runs_past_the_end(self):
        vfs = VFS()
        h = vfs.open("/f", "w")
        h.write(b"abcdef")
        h.pos = 4
        assert h.write(b"WXYZ") == 4 and h.pos == 8
        assert bytes(h.file.data) == b"abcdWXYZ"

    def test_write_past_the_end_leaves_a_zero_filled_hole(self):
        # a restored process's descriptor keeps the position its image
        # recorded, and the file may have been rewritten shorter since
        vfs = VFS()
        h = vfs.open("/f", "w")
        h.write(b"abc")
        h.pos = 10
        assert h.write(b"xy") == 2 and h.pos == 12
        assert bytes(h.file.data) == b"abc" + bytes(7) + b"xy"
        reader = vfs.open("/f", "r")
        reader.pos = 10
        assert reader.read(2) == b"xy"

    def test_write_at_the_end_extends_the_file_in_place(self):
        vfs = VFS()
        h = vfs.open("/f", "w")
        buffer = h.file.data
        for piece in (b"head", memoryview(b"-body-"), bytearray(b"tail")):
            h.write(piece)
        assert h.file.data is buffer and bytes(buffer) == b"head-body-tail"
        assert h.pos == 14


class TestVFS:
    def test_longest_prefix_mount_wins(self):
        vfs = VFS()
        outer = FileSystem("outer")
        inner = FileSystem("inner")
        vfs.mount("/san", outer)
        vfs.mount("/san/deep", inner)
        fs, path = vfs.resolve("/san/deep/file")
        assert fs is inner and path == "/file"
        fs, path = vfs.resolve("/san/other")
        assert fs is outer and path == "/other"

    def test_chroot_prefixes_paths(self):
        vfs = VFS()
        san = FileSystem("san")
        vfs.mount("/san", san)
        ensure_dirs(san, "/pods/p0")
        fs, path = vfs.resolve("/data.txt", chroot="/san/pods/p0")
        assert fs is san and path == "/pods/p0/data.txt"

    def test_open_creates_through_mounts(self):
        vfs = VFS()
        san = FileSystem("san")
        vfs.mount("/san", san)
        handle = vfs.open("/san/f.bin", "w")
        handle.write(b"z")
        assert san.exists("/f.bin")

    def test_root_paths_stay_on_rootfs(self):
        vfs = VFS()
        vfs.mount("/san", FileSystem("san"))
        fs, path = vfs.resolve("/etc/conf")
        assert fs is vfs.root and path == "/etc/conf"
