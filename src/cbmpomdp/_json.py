"""JSON files: the one writer, and the save/load pair that every model class
binds as ``save = _json.save`` and ``load = classmethod(_json.load)``."""
from __future__ import annotations

import json

from .errors import DataError


def write_json(path, obj) -> None:
    """Sorted keys and a trailing newline, so equal objects give equal bytes."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def save(self, path) -> None:
    write_json(path, self.to_dict())


def load(cls, path):
    """Read a model file; malformed JSON, a missing key or a bad value raises DataError."""
    with open(path) as fh:
        try:
            return cls.from_dict(json.load(fh))
        except DataError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:  # JSONDecodeError too
            raise DataError(f"{path}: malformed {cls.__name__} file ({exc!r})") from exc
