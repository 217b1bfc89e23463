"""SHA3-512 hash manifests over file trees.

Rendering matches rhash line format: lowercase hex digest, two spaces, path,
sorted bytewise by path. Symlinks are hashed by their target string and never
followed, so link cycles cannot recurse.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass

from .tree import FileNode, FileTree, MissingPath, SymlinkNode


class ManifestError(Exception):
    pass


class MissingRoot(ManifestError):
    pass


@dataclass(frozen=True)
class RootSpec:
    path: str
    recursive: bool = True


def _digest(data: bytes) -> str:
    return hashlib.sha3_512(data).hexdigest()


Manifest = dict[str, str]  # path -> hex digest, in sorted path order


def render_manifest(manifest: Manifest) -> str:
    return "".join(f"{digest}  {path}\n" for path, digest in manifest.items())


@dataclass(frozen=True)
class ManifestDiff:
    added: frozenset[str]
    removed: frozenset[str]
    changed: frozenset[str]


def hash_lines(tree: FileTree, root: str, recursive: bool) -> list[str]:
    """Manifest lines for one root, in sorted path order."""
    paths = tree.under(root) if recursive else tree.children(root)
    lines = []
    for path in paths:
        node = tree.node(path)
        if isinstance(node, FileNode):
            lines.append(f"{_digest(node.data)}  {path}\n")
        elif isinstance(node, SymlinkNode):
            lines.append(f"{_digest(node.target.encode())}  {path}\n")
    return lines


def compute_manifest(tree: FileTree, roots: list[RootSpec]) -> Manifest:
    """One entry per regular file and symlink under the given roots."""
    lines: list[str] = []
    for spec in roots:
        try:
            lines += hash_lines(tree, spec.path, spec.recursive)
        except MissingPath:
            raise MissingRoot(f"hash root {spec.path} does not exist") from None
    return manifest_from_lines(lines)


def diff_manifests(pre: Mapping[str, object], post: Mapping[str, object]) -> ManifestDiff:
    """Paths added, removed and changed between two ``path -> value`` mappings."""
    return ManifestDiff(
        added=frozenset(post.keys() - pre.keys()),
        removed=frozenset(pre.keys() - post.keys()),
        changed=frozenset(p for p in pre.keys() & post.keys() if pre[p] != post[p]),
    )


def manifest_from_lines(lines: list[str]) -> Manifest:
    entries: dict[str, str] = {}
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        digest, sep, path = line.partition("  ")
        if not sep:
            raise ManifestError(f"manifest line lacks the two-space separator: {line!r}")
        entries[path] = digest
    return dict(sorted(entries.items()))
