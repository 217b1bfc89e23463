"""In-memory file trees with a deterministic canonical encoding.

A tree maps normalized absolute paths to directory, file, or symlink nodes.
The canonical encoding (magic ``TSTREE1\\n``, sorted length-prefixed records)
is both the plaintext layout of encrypted root volumes and the on-disk
``boot.tree`` image format. Decoding accepts only that encoding, so a decoded
tree encodes back to the same bytes; anything else raises :class:`TreeError`.

A tree keeps each path's encoded record beside the node it encodes, and
:meth:`FileTree.encode` reuses a record while its path still holds that very
node. Nodes are frozen, so the identity test is the whole validation: a
write-through after a one-file change encodes one record and joins the rest.

Writing a file's own bytes back is a no-op: the path keeps its node, so the
encoded record, and any parse a reader keyed on the node's bytes object,
stays valid across the write.
"""

from __future__ import annotations

import posixpath
import struct
from dataclasses import dataclass

from .util import pack_bytes

TREE_MAGIC = b"TSTREE1\n"

_KIND_DIR = 0
_KIND_FILE = 1
_KIND_SYMLINK = 2


class TreeError(Exception):
    pass


class MissingPath(TreeError):
    pass


# Nodes are immutable, so tree copies and mounted views share them.


@dataclass(frozen=True)
class DirNode:
    pass


@dataclass(frozen=True)
class FileNode:
    data: bytes


@dataclass(frozen=True)
class SymlinkNode:
    target: str


Node = DirNode | FileNode | SymlinkNode


def _text(raw: bytes) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError:
        raise TreeError("path or link target is not UTF-8") from None


def normalize(path: str) -> str:
    if not path or not path.startswith("/"):
        raise TreeError(f"path must be absolute: {path!r}")
    # With no "//", no "." or ".." component and no trailing "/", normpath
    # would return the path unchanged.
    if "//" not in path and "/." not in path and (path == "/" or path[-1] != "/"):
        return path
    # normpath keeps a leading "//" (POSIX leaves its meaning open); here it is "/"
    return posixpath.normpath("/" + path.lstrip("/"))


def _record(path: str, node: Node) -> bytes:
    """The TSTREE1 record of one node: length-prefixed path, kind, length-prefixed data."""
    if isinstance(node, DirNode):
        kind, data = _KIND_DIR, b""
    elif isinstance(node, FileNode):
        kind, data = _KIND_FILE, node.data
    else:
        kind, data = _KIND_SYMLINK, node.target.encode()
    return b"".join((pack_bytes(path.encode()), bytes([kind]), pack_bytes(data)))


class FileTree:
    def __init__(self):
        self._nodes: dict[str, Node] = {"/": DirNode()}
        # path -> (node, its record); an entry is valid while _nodes[path] is node
        self._records: dict[str, tuple[Node, bytes]] = {}

    # -- structure ----------------------------------------------------------

    def _ensure_parents(self, path: str) -> None:
        """Create the missing parents of ``path``, or raise and create none.

        The nearest existing ancestor is checked before anything is created,
        so a write that fails here leaves the tree as it was.
        """
        missing = []
        parent = posixpath.dirname(path)
        while parent not in self._nodes:  # "/" is always present
            missing.append(parent)
            parent = posixpath.dirname(parent)
        if not isinstance(self._nodes[parent], DirNode):
            raise TreeError(f"parent is not a directory: {parent}")
        for parent in missing:
            self._nodes[parent] = DirNode()

    def mkdir(self, path: str) -> None:
        path = normalize(path)
        existing = self._nodes.get(path)
        if existing is not None and not isinstance(existing, DirNode):
            raise TreeError(f"exists and is not a directory: {path}")
        self._ensure_parents(path)
        self._nodes[path] = DirNode()

    def _put(self, path: str, node: Node) -> None:
        """Store a file or symlink node at ``path``, which must not be a directory.

        An equal node already at ``path`` stays in place.
        """
        path = normalize(path)
        existing = self._nodes.get(path)
        if isinstance(existing, DirNode):
            raise TreeError(f"is a directory: {path}")
        if existing == node:
            return
        self._ensure_parents(path)
        self._nodes[path] = node

    def write_file(self, path: str, data: bytes) -> None:
        self._put(path, FileNode(bytes(data)))

    def symlink(self, path: str, target: str) -> None:
        self._put(path, SymlinkNode(target))

    def remove(self, path: str) -> None:
        """Remove a node; directories are removed with their subtree."""
        path = normalize(path)
        if path == "/":
            raise TreeError("cannot remove root")
        if path not in self._nodes:
            raise MissingPath(path)
        prefix = path + "/"
        for p in list(self._nodes):
            if p == path or p.startswith(prefix):
                del self._nodes[p]
                self._records.pop(p, None)

    # -- queries ------------------------------------------------------------

    def node(self, path: str) -> Node:
        path = normalize(path)
        try:
            return self._nodes[path]
        except KeyError:
            raise MissingPath(path) from None

    def exists(self, path: str) -> bool:
        return normalize(path) in self._nodes

    def is_dir(self, path: str) -> bool:
        return isinstance(self._nodes.get(normalize(path)), DirNode)

    def is_file(self, path: str) -> bool:
        return isinstance(self._nodes.get(normalize(path)), FileNode)

    def file_bytes(self, path: str) -> bytes | None:
        """A regular file's bytes, or None when ``path`` is not a regular file."""
        node = self._nodes.get(path)  # an exact hit is a normal path already
        if node is None:
            node = self._nodes.get(normalize(path))
        return node.data if isinstance(node, FileNode) else None

    def read_file(self, path: str) -> bytes:
        node = self.node(path)
        if not isinstance(node, FileNode):
            raise TreeError(f"not a regular file: {path}")
        return node.data

    def read_text(self, path: str) -> str:
        return self.read_file(path).decode()

    def append_text(self, path: str, text: str) -> None:
        self.write_file(path, (self.file_bytes(path) or b"") + text.encode())

    def paths(self) -> list[str]:
        return sorted(self._nodes)

    def under(self, root: str) -> list[str]:
        """All paths at or below root, sorted. Raises MissingPath if absent."""
        root = normalize(root)
        if root not in self._nodes:
            raise MissingPath(root)
        prefix = "/" if root == "/" else root + "/"
        return sorted(p for p in self._nodes if p == root or p.startswith(prefix))

    def children(self, root: str) -> list[str]:
        root = normalize(root)
        if root not in self._nodes:
            raise MissingPath(root)
        prefix = "/" if root == "/" else root + "/"
        return sorted(p for p in self._nodes if p.startswith(prefix) and "/" not in p[len(prefix):])

    # -- copies and views ----------------------------------------------------

    def copy(self) -> "FileTree":
        clone = FileTree()
        clone._nodes = dict(self._nodes)
        clone._records = dict(self._records)
        return clone

    def mount(self, mount_point: str, other: "FileTree") -> "FileTree":
        """Copy of this tree with ``other`` grafted below ``mount_point``.

        Directories merge: what this tree holds below a grafted directory
        stays visible. A grafted file or symlink hides what this tree holds
        below its path, so the view is always a canonical tree.
        """
        mount_point = normalize(mount_point)
        view = self.copy()
        view.mkdir(mount_point)
        base = "" if mount_point == "/" else mount_point
        for path, node in other._nodes.items():
            grafted = base + path if path != "/" else mount_point
            # only a directory of this tree can hold paths below a grafted file;
            # ``other`` is canonical, so nothing it grafts lies below that file
            if not isinstance(node, DirNode) and isinstance(view._nodes.get(grafted), DirNode):
                view.remove(grafted)
            view._nodes[grafted] = node
        return view

    # -- canonical encoding ---------------------------------------------------

    def encode(self) -> bytes:
        nodes, cache = self._nodes, self._records
        records = [TREE_MAGIC, struct.pack(">I", len(nodes))]
        for path in sorted(nodes):
            node = nodes[path]
            entry = cache.get(path)
            if entry is None or entry[0] is not node:
                entry = cache[path] = (node, _record(path, node))
            records.append(entry[1])
        return b"".join(records)

    @classmethod
    def decode(cls, blob: bytes | bytearray, size: int | None = None) -> "FileTree":
        """Inverse of :meth:`encode`; bytes after the encoding are ignored.

        ``size`` is the length of the image ``blob`` begins, such as a volume
        read without its zero tail: bytes from ``len(blob)`` up to ``size``
        read as zeros, since an encoding may end in a zero run that spills into
        that tail. Anything but a canonical encoding raises :class:`TreeError`.
        """
        end = max(len(blob), size or 0)
        offset = 0

        def take(n: int) -> bytes | bytearray:
            nonlocal offset
            start, offset = offset, offset + n
            if offset > end:
                raise TreeError(f"tree encoding truncated at byte {start}")
            return blob[start:offset].ljust(n, b"\x00")

        if take(len(TREE_MAGIC)) != TREE_MAGIC:
            raise TreeError("bad tree magic")
        count = int.from_bytes(take(4), "big")
        nodes: dict[str, Node] = {}
        previous = ""
        for _ in range(count):
            path = _text(take(int.from_bytes(take(4), "big")))
            kind = take(1)[0]
            data = take(int.from_bytes(take(4), "big"))
            if not nodes:
                if path != "/" or kind != _KIND_DIR:
                    raise TreeError("tree encoding does not start with the root directory")
            elif (path <= previous or normalize(path) != path
                  or not isinstance(nodes.get(posixpath.dirname(path)), DirNode)):
                raise TreeError(f"path out of canonical order or without a parent: {path!r}")
            if kind == _KIND_DIR and not data:
                nodes[path] = DirNode()
            elif kind == _KIND_FILE:
                nodes[path] = FileNode(bytes(data))  # a bytearray blob slices to bytearrays
            elif kind == _KIND_SYMLINK:
                nodes[path] = SymlinkNode(_text(data))
            else:
                raise TreeError(f"bad node record (kind {kind}) at {path!r}")
            previous = path
        if not nodes:
            raise TreeError("tree encoding has no root directory")
        tree = cls()
        tree._nodes = nodes
        return tree

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FileTree):
            return NotImplemented
        return self.encode() == other.encode()
