"""Verifying traces: what a run built, kept so that a later run can trust it.

A record, <config_dir>/.safereq/<name>.json, names a key (a digest of
what its files were built from), the directory of its files, the files,
each by label with its name under that directory and its sha256, and any
facts its writer adds. A later run trusts a record only for the key and
directory it was made for, and only while every file it lists still
hashes as recorded: the verifying traces of Mokhov, Mitchell and Peyton
Jones, "Build Systems à la Carte" (ICFP 2018). A record also holds a
seal, the sha256 of its content and the package version, so a record
that was edited, or written by another version, is not trusted either.
Writers record the digests the file writers took as they wrote, so
recording reads no file back.

This module alone knows the record's layout, and verify alone hashes a
recorded file. Callers hand record, and get from load and verify, each
file as a path under the directory and its sha256. run_task records
every file a backend task wrote as it executed, or coverage as it
computed, under its task key, with its item count, its score and score
key: the raw file, and beside it a classification's joined CSV and a
quarantine file; run_all records the report set under its report key.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__
from .reporting import _write_json


BLOCK_BYTES = 256 * 1024


def file_sha256(path: Path) -> str:
    """The sha256 of the file at path, read in BLOCK_BYTES blocks, so no file is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(BLOCK_BYTES):
            digest.update(block)
    return digest.hexdigest()


def _seal(body: dict) -> str:
    return hashlib.sha256(json.dumps([__version__, body], sort_keys=True).encode()).hexdigest()


def record(
    path: Path, key: str, directory: Path, files: dict[str, tuple[Path, str]], **facts
) -> None:
    """Record at path that key was built into files, under directory, with facts.

    files gives each label's file, a path under directory, and its sha256.

    Raises:
        OSError: path cannot be written.
        UnicodeError: the directory, a name or a fact is not UTF-8 text.
    """
    names = {
        label: [file.relative_to(directory).as_posix(), sha] for label, (file, sha) in files.items()
    }
    body = {"key": key, "dir": str(directory), "files": names, **facts}
    _write_json(path, {**body, "seal": _seal(body)})


def load(path: Path, key: str | None, directory: Path) -> dict | None:
    """The record at path, without its seal, if it is intact and was made
    for key (any key if None) and directory; its files as record takes
    them. A missing, unreadable, malformed or edited record, and one that
    names a file outside directory, gives None."""
    try:
        body = json.loads(path.read_bytes())
        seal = body.pop("seal")
        if key not in (None, body["key"]) or body["dir"] != str(directory) or _seal(body) != seal:
            return None
        files = {}
        for label, (name, sha) in body["files"].items():
            if Path(name).is_absolute() or ".." in Path(name).parts:
                return None
            files[label] = (directory / name, sha)
        return {**body, "files": files}
    except (OSError, ValueError, TypeError, KeyError, AttributeError, RecursionError):
        return None


def verify(path: Path, key: str, directory: Path) -> dict | None:
    """The record load gives, if every file it lists still hashes as recorded; else None."""
    saved = load(path, key, directory)
    try:
        if saved and all(file_sha256(file) == sha for file, sha in saved["files"].values()):
            return saved
    except (OSError, ValueError):  # a name holding a NUL raises ValueError
        pass
    return None
