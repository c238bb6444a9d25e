"""Verifying traces: what a run built, kept so that a later run can trust it.

A record, <config_dir>/.safereq/<name>.json, names a key (a digest of
what its files were built from), the directory of its files, the files,
each by name and sha256, and any facts its writer adds. A later run
trusts a record only for the key and directory it was made for, and
only while every file it lists still hashes as recorded: the verifying
traces of Mokhov, Mitchell and Peyton Jones, "Build Systems à la Carte"
(ICFP 2018). A record also holds a seal, the sha256 of its content and
the package version, so a record that was edited, or written by
another version, is not trusted either. Writers record the digests the
file writers took as they wrote, so recording reads no file back.

run_task records the raw file a backend task executed into, or coverage
computed, under its task key, with its item count, its score and score
key, and the joined CSV a classification wrote with it as a second file;
run_all records the report set under its report key.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__
from .reporting import ReportSet, _write_json


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _seal(body: dict) -> str:
    return hashlib.sha256(json.dumps([__version__, body], sort_keys=True).encode()).hexdigest()


def record(
    path: Path, key: str, directory: Path, files: dict[str, tuple[str, str]], **facts
) -> None:
    """Record at path that key was built into files in directory, with facts.

    files gives each label's file name, relative to directory, and sha256.

    Raises:
        OSError: path cannot be written.
        UnicodeError: the directory, a name or a fact is not UTF-8 text.
    """
    files = {label: list(entry) for label, entry in files.items()}
    body = {"key": key, "dir": str(directory), "files": files, **facts}
    _write_json(path, {**body, "seal": _seal(body)})


def load(path: Path, key: str | None, directory: Path) -> dict | None:
    """The record at path, without its seal, if it is intact and was made
    for key (any key if None) and directory. A missing, unreadable,
    malformed or edited record gives None."""
    try:
        body = json.loads(path.read_bytes())
        seal = body.pop("seal")
        made_for = key in (None, body["key"]) and body["dir"] == str(directory)
        return body if made_for and _seal(body) == seal else None
    except (OSError, ValueError, TypeError, KeyError, AttributeError, RecursionError):
        return None


def verify(path: Path, key: str, directory: Path) -> dict[str, Path] | None:
    """Each file of the record at path by label, if load gives the record and
    every file it lists still hashes as recorded; else None."""
    saved = load(path, key, directory)
    if saved is None:
        return None
    files = {}
    try:
        for label, (name, sha256) in saved["files"].items():
            if Path(name).name != name or file_sha256(directory / name) != sha256:
                return None
            files[label] = directory / name
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return None
    return files


def write_report_record(path: Path, key: str, report_set: ReportSet, reports_dir: Path) -> None:
    """Record that report_set, written to reports_dir, holds the reports of key."""
    files = {name: (file.name, report_set.digests[name]) for name, file in report_set.files.items()}
    record(path, key, reports_dir, files)


def reused_report_set(path: Path, key: str, reports_dir: Path) -> ReportSet | None:
    """The report set recorded at path, if it still holds the reports of key in reports_dir."""
    files = verify(path, key, reports_dir)
    return None if files is None else ReportSet(files, reused=True)
