from __future__ import annotations

import posixpath
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sealkit.tree import DirNode, FileNode, FileTree, MissingPath, TreeError, normalize
from sealkit.util import pack_bytes


def sample_tree():
    tree = FileTree()
    tree.write_file("/etc/passwd", b"root:x:0:0::/root:/bin/bash\n")
    tree.write_file("/etc/ssh/sshd_config", b"Port 22\n")
    tree.symlink("/usr/bin/X11", ".")
    tree.mkdir("/tmp")
    return tree


def test_paths_are_normalized():
    tree = FileTree()
    tree.write_file("/a/b/../c", b"x")
    assert tree.is_file("/a/c")
    with pytest.raises(TreeError):
        tree.write_file("relative/path", b"x")


def test_writing_the_same_content_keeps_the_node_and_its_record():
    tree = sample_tree()
    node, link = tree.node("/etc/passwd"), tree.node("/usr/bin/X11")
    encoded = tree.encode()
    record = tree._records["/etc/passwd"]
    tree.write_file("/etc/passwd", bytearray(node.data))
    tree.write_file("//etc/./passwd", node.data)
    tree.symlink("/usr/bin/X11", ".")
    assert tree.node("/etc/passwd") is node
    assert tree.node("/usr/bin/X11") is link
    assert tree.encode() == encoded
    assert tree._records["/etc/passwd"] is record
    tree.write_file("/etc/passwd", node.data + b"x")
    assert tree.read_file("/etc/passwd") == node.data + b"x"
    with pytest.raises(TreeError, match="is a directory"):
        tree.write_file("/tmp", b"")


def test_leading_slashes_collapse_to_root():
    assert normalize("//etc/x") == "/etc/x"
    tree = FileTree()
    tree.write_file("//etc/x", b"1")
    tree.mkdir("///srv/d")
    tree.symlink("//usr/bin/X11", ".")
    assert tree.paths() == ["/", "/etc", "/etc/x", "/srv", "/srv/d", "/usr", "/usr/bin",
                            "/usr/bin/X11"]


@settings(max_examples=2000)
@given(st.text(alphabet="/.ab", max_size=12))
def test_normalize_equals_the_normpath_reference(path):
    if path.startswith("/"):
        assert normalize(path) == posixpath.normpath("/" + path.lstrip("/"))
    else:
        with pytest.raises(TreeError):
            normalize(path)


def test_file_bytes_is_none_unless_a_regular_file():
    tree = sample_tree()
    for path in ("/etc/passwd", "//etc/passwd", "/etc/./passwd", "//etc/ssh/../passwd",
                 "/etc/passwd/"):
        assert tree.file_bytes(path) == tree.read_file("/etc/passwd")
    for path in ("/etc", "/etc/", "/usr/bin/X11", "/missing"):
        assert tree.file_bytes(path) is None
    for path in ("etc/passwd", "passwd", ""):
        with pytest.raises(TreeError):
            tree.file_bytes(path)


def test_parents_created_automatically():
    tree = sample_tree()
    assert tree.is_dir("/etc/ssh")
    assert tree.is_dir("/etc")


def test_remove_directory_removes_subtree():
    tree = sample_tree()
    tree.remove("/etc/ssh")
    assert not tree.exists("/etc/ssh/sshd_config")
    assert tree.is_file("/etc/passwd")


def test_remove_missing_raises():
    with pytest.raises(MissingPath):
        sample_tree().remove("/nope")


def test_under_and_children():
    tree = sample_tree()
    assert "/etc/ssh/sshd_config" in tree.under("/etc")
    assert tree.children("/etc") == ["/etc/passwd", "/etc/ssh"]
    with pytest.raises(MissingPath):
        tree.under("/missing")


def test_encode_decode_round_trip():
    tree = sample_tree()
    blob = tree.encode()
    assert blob.startswith(b"TSTREE1\n")
    clone = FileTree.decode(blob)
    assert clone == tree
    assert clone.read_file("/etc/passwd") == tree.read_file("/etc/passwd")
    assert clone.node("/usr/bin/X11").target == "."


def test_encoding_is_deterministic_and_order_independent():
    a = FileTree()
    a.write_file("/x", b"1")
    a.write_file("/y", b"2")
    b = FileTree()
    b.write_file("/y", b"2")
    b.write_file("/x", b"1")
    assert a.encode() == b.encode()


def test_decode_tolerates_zero_padding():
    tree = sample_tree()
    padded = tree.encode() + b"\x00" * 512
    assert FileTree.decode(padded) == tree


def test_decode_reads_zeros_past_the_buffer_up_to_size():
    tree = sample_tree()
    tree.write_file("/var/zeros", bytes(600))  # the last record ends in a zero run
    blob = tree.encode()
    head = blob.rstrip(b"\x00")
    assert FileTree.decode(head, len(blob) + 512) == tree
    with pytest.raises(TreeError):
        FileTree.decode(head)
    with pytest.raises(TreeError):
        FileTree.decode(head, len(blob) - 1)


def encoding(*records: tuple[str | bytes, int, bytes]) -> bytes:
    """A TSTREE1 encoding of (path, kind, data) records, as given."""
    out = [b"TSTREE1\n", len(records).to_bytes(4, "big")]
    for path, kind, data in records:
        raw_path = path.encode() if isinstance(path, str) else path
        out += [pack_bytes(raw_path), bytes([kind]), pack_bytes(data)]
    return b"".join(out)


ROOT = ("/", 0, b"")


def test_encoding_helper_matches_encode():
    tree = FileTree()
    tree.write_file("/a", b"1")
    assert encoding(ROOT, ("/a", 1, b"1")) == tree.encode()


@pytest.mark.parametrize("blob", [
    b"",
    b"TSTREE1\n",
    encoding(),
    encoding(("/", 1, b"")),
    encoding(ROOT, ROOT),
    encoding(ROOT, ("/d", 0, b"data")),
    encoding(ROOT, ("/a", 3, b"")),
    encoding(ROOT, ("/a", 1, b"1"))[:-1],
    encoding(ROOT, (b"/\xff", 1, b"")),
    encoding(ROOT, ("/a", 2, b"\xff")),
], ids=["empty", "magic-only", "no-records", "root-file", "root-twice", "dir-with-data",
        "unknown-kind", "truncated", "path-not-utf8", "target-not-utf8"])
def test_decode_rejects_malformed_encodings(blob):
    with pytest.raises(TreeError):
        FileTree.decode(blob)


@pytest.mark.parametrize("first, second", [
    ("/b", "/a"),  # out of order
    ("/a", "/a"),  # duplicate
    ("/a", "/a/../b"),  # not normalized
    ("/a", "//b"),  # doubled leading slash
    ("/a", "/c/d"),  # no parent
    ("/a", "/a/x"),  # parent is a file
    ("/a", "b"),  # relative
])
def test_decode_rejects_non_canonical_paths(first, second):
    with pytest.raises(TreeError):
        FileTree.decode(encoding(ROOT, (first, 1, b"1"), (second, 1, b"2")))


SAMPLE_ENCODING = sample_tree().encode()


@settings(max_examples=1000)
@given(st.integers(0, len(SAMPLE_ENCODING) - 1), st.integers(1, 255))
def test_one_byte_mutation_decodes_canonically_or_raises_tree_error(index, flip):
    blob = bytearray(SAMPLE_ENCODING)
    blob[index] ^= flip
    try:
        tree = FileTree.decode(bytes(blob))
    except TreeError:
        return
    assert bytes(blob).startswith(tree.encode())


def test_copy_is_independent():
    tree = sample_tree()
    clone = tree.copy()
    clone.write_file("/etc/passwd", b"changed")
    clone.remove("/etc/ssh")
    assert tree.read_file("/etc/passwd") != b"changed"
    assert tree.is_file("/etc/ssh/sshd_config")


def test_nodes_are_immutable():
    tree = sample_tree()
    with pytest.raises(FrozenInstanceError):
        tree.node("/etc/passwd").data = b"changed"
    with pytest.raises(FrozenInstanceError):
        tree.node("/usr/bin/X11").target = "/"


def test_mount_grafts_other_tree():
    root = sample_tree()
    boot = FileTree()
    boot.write_file("/keyfile", b"k" * 8)
    view = root.mount("/boot", boot)
    assert view.read_file("/boot/keyfile") == b"k" * 8
    assert not root.exists("/boot/keyfile")  # view is a copy
    view.write_file("/boot/keyfile", b"changed")
    view.append_text("/etc/passwd", "extra:x:1:1::/:/bin/sh\n")
    assert boot.read_file("/keyfile") == b"k" * 8
    assert root.read_text("/etc/passwd") == "root:x:0:0::/root:/bin/bash\n"


def test_failed_write_below_a_file_leaves_the_tree_unchanged():
    tree = FileTree()
    tree.write_file("/a", b"1")
    before = (tree.paths(), tree.encode())
    for op, args in (("write_file", (b"2",)), ("mkdir", ()), ("symlink", (".",))):
        with pytest.raises(TreeError, match="parent is not a directory: /a"):
            getattr(tree, op)("/a/b/c", *args)
        assert (tree.paths(), tree.encode()) == before
    assert FileTree.decode(tree.encode()) == tree


def test_mount_merges_directories_and_lets_a_grafted_file_hide_a_subtree():
    single = FileTree()
    single.write_file("/a", b"1")
    view = FileTree().mount("/a/a", single)
    assert view.paths() == ["/", "/a", "/a/a", "/a/a/a"]
    view = view.mount("/a", single)
    assert view.paths() == ["/", "/a", "/a/a"] and view.read_file("/a/a") == b"1"
    assert FileTree.decode(view.encode()) == view
    # directories merge: a root-tree file under the mount point stays visible
    root = sample_tree()
    root.write_file("/boot/grub/grub.cfg", b"menu")
    boot = FileTree()
    boot.write_file("/keyfile", b"k")
    boot.write_file("/grub/x", b"x")
    view = root.mount("/boot", boot)
    assert view.read_file("/boot/grub/grub.cfg") == b"menu"
    assert view.read_file("/boot/grub/x") == b"x" and view.read_file("/boot/keyfile") == b"k"
    assert FileTree.decode(view.encode()) == view


def test_mount_at_root_grafts_without_a_double_slash():
    other = FileTree()
    other.write_file("/etc/passwd", b"replaced")
    view = sample_tree().mount("/", other)
    assert view.read_file("/etc/passwd") == b"replaced"
    assert view.is_file("/etc/ssh/sshd_config")
    assert all(normalize(p) == p for p in view.paths())


# -- the record cache ------------------------------------------------------------


def reference_encode(tree: FileTree) -> bytes:
    """TSTREE1 built from the tree's nodes alone, with no cached record."""
    records = []
    for path in tree.paths():
        node = tree.node(path)
        if isinstance(node, DirNode):
            records.append((path, 0, b""))
        elif isinstance(node, FileNode):
            records.append((path, 1, node.data))
        else:
            records.append((path, 2, node.target.encode()))
    return encoding(*records)


# Paths up to three deep, so writes and grafts land above, below and beside
# files and directories alike.
_PATHS = st.sampled_from([f"/{a}" for a in "abc"]
                         + [f"/{a}/{b}" for a in "abc" for b in "abc"]
                         + [f"/{a}/{b}/{c}" for a in "ab" for b in "ab" for c in "ab"])
_WRITES = st.one_of(
    st.tuples(st.just("write_file"), _PATHS, st.binary(max_size=6)),
    st.tuples(st.just("mkdir"), _PATHS),
    st.tuples(st.just("symlink"), _PATHS, st.sampled_from(["", ".", "/a/b"])),
)
_OPS = st.one_of(
    _WRITES,
    st.tuples(st.just("append_text"), _PATHS, st.text(alphabet="xy\n", max_size=4)),
    st.tuples(st.just("remove"), _PATHS),
    st.tuples(st.just("copy")),
    st.tuples(st.just("mount"), st.one_of(st.just("/"), _PATHS),
              st.lists(_WRITES, max_size=4)),
    st.tuples(st.just("decode")),
    st.tuples(st.just("encode")),
)


def tree_from(writes) -> FileTree:
    tree = FileTree()
    for name, *args in writes:
        try:
            getattr(tree, name)(*args)
        except TreeError:
            pass
    return tree


@settings(max_examples=500)
@given(st.lists(_OPS, max_size=30))
def test_encode_with_reused_records_equals_the_reference_encoding(ops):
    tree = FileTree()
    frozen: list[tuple[FileTree, bytes]] = []  # trees no later op may change
    for name, *args in ops:
        if name == "copy":
            frozen.append((tree, tree.encode()))
            tree = tree.copy()
        elif name == "mount":
            other = tree_from(args[1])
            before = [(tree, tree.encode()), (other, other.encode())]
            try:
                view = tree.mount(args[0], other)
            except TreeError:
                continue
            frozen += before
            tree = view
        elif name == "decode":
            tree = FileTree.decode(tree.encode())
        elif name == "encode":
            assert tree.encode() == reference_encode(tree)
        else:
            before = (tree.paths(), tree.encode())
            try:
                getattr(tree, name)(*args)
            except TreeError:
                assert (tree.paths(), tree.encode()) == before  # a failed op changes nothing
                continue
            if name == "remove":
                assert not [p for p in tree._records if p == args[0] or p.startswith(args[0] + "/")]
        assert set(tree._records) <= set(tree.paths())
        assert FileTree.decode(tree.encode()).encode() == tree.encode()  # still canonical
    assert tree.encode() == reference_encode(tree)
    for original, encoded in frozen:
        assert original.encode() == encoded == reference_encode(original)
        assert set(original._records) <= set(original.paths())
