"""Result tables: CSV emission with round-trip precision plus a run manifest.

The CSV (and any SVG) written for a command is byte-deterministic given the
configuration and seed; the manifest is the one deliberately nondeterministic
artifact (it records wall time and environment versions).
"""

from __future__ import annotations

import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def format_cell(value) -> str:
    """Full round-trip text for one cell (shortest repr for floats)."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, check=False,
            cwd=Path(__file__).resolve().parent)
        text = out.stdout.strip()
        return text if out.returncode == 0 and text else "unknown"
    except OSError:
        return "unknown"


@dataclass
class ResultTable:
    """Column schema, rows, and the manifest entries of one command run."""

    schema: tuple[str, ...]
    rows: list[tuple]
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.schema):
                raise ValueError(
                    f"row width {len(row)} does not match schema width "
                    f"{len(self.schema)}")

    def to_csv(self) -> str:
        lines = [",".join(self.schema)]
        lines.extend(",".join(format_cell(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv())

    def write_manifest(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        entries = dict(self.manifest)
        entries.setdefault("git_describe", git_describe())
        entries.setdefault("python_version", platform.python_version())
        entries.setdefault("numpy_version", np.__version__)
        lines = [f"{key} = {value}" for key, value in entries.items()]
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")


def print_lines(lines) -> None:
    for line in lines:
        sys.stdout.write(line + "\n")
