"""Content-addressed result store: one JSON file per (command, inputs).

Re-running a command with identical inputs, parameters and seed is a
cache hit and reproduces the stored record byte for byte.  Writes are
atomic (temp file + rename), so concurrent commands cannot tear records.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

TOOL_VERSION = "0.1.1"


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj):
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class ResultStore:
    def __init__(self, root):
        self.root = root
        try:
            os.makedirs(root, exist_ok=True)
        except OSError:
            pass        # no store there: every load misses, no save stores

    def path_for(self, key):
        return os.path.join(self.root, f"{key}.json")

    def load(self, key):
        """The stored record, or None on a miss; a record that cannot be
        read or decoded counts as a miss, so the command recomputes and
        rewrites it."""
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def save(self, key, record):
        """Write the record under key; a record that cannot be written
        (its path a directory, say) is not stored."""
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(canonical_json(record))
                os.replace(tmp, self.path_for(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            pass
        return record


def default_store_root():
    env = os.environ.get("HOTRING_HOME")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".hotring")
