"""Run manifests, and the one writer (``write_lines``) and JSON form (``json_text``) of every output."""

from __future__ import annotations

import hashlib
import json
import os
import typing
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import ValidationError


def write_lines(path: Path | str, lines: typing.Iterable[str]) -> None:
    """Write ``lines`` in order as UTF-8 to ``path``, created if missing and cut at their end.

    ``open(path, "w")`` without its truncation on open (``O_WRONLY |
    O_CREAT``; through a symlink, and raising where that raises): on ext4,
    closing a file truncated to zero on open starts a flush (``auto_da_alloc``),
    about 46 ms a file, where cutting it to its new length afterwards does not.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8",
              newline="\n") as handle:
        handle.writelines(lines)
        handle.truncate()


def json_text(payload) -> str:
    """The JSON form of every JSON file written: sorted keys, two-space indent, final newline.

    It equals ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``
    (``tests/test_manifest.py::test_json_text_is_json_dumps`` draws the trees).
    ``json.dumps`` with an indent runs CPython's pure-Python encoder; here
    each container whose items are all scalars is one call of the C encoder,
    with the indented line break in its item separator, and only a container
    holding containers is walked in Python.
    """
    return _indented(payload, "\n") + "\n"


_CONTAINERS = (list, tuple, dict)
_UNSERIALIZABLE = json.JSONEncoder().default  # raises the TypeError json.dumps raises


def _indented(value, newline: str) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it where ``newline`` starts its lines."""
    inner = newline + "  "
    if isinstance(value, dict) and any(isinstance(v, _CONTAINERS) for v in value.values()):
        items = (_key(k) + ": " + _indented(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and any(isinstance(v, _CONTAINERS) for v in value):
        return "[" + inner + ("," + inner).join(_indented(v, inner) for v in value) + newline + "]"
    text = "".join(json.encoder.c_make_encoder(None, _UNSERIALIZABLE, json.encoder.encode_basestring_ascii, None,
                                               ": ", "," + inner, True, False, True)(value, 0))
    if len(text) > 2 and text[0] in "[{":  # a container of scalars: its first item and its end on their lines
        return text[0] + inner + text[1:-1] + newline + text[-1]
    return text


def _key(key) -> str:
    """A dict key as ``json.dumps`` writes it: a str, or an int, float, bool or None as its JSON text, quoted."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
        key = _indented(key, "")
    return json.encoder.encode_basestring_ascii(key)


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    parameters: dict
    tool_version: str
    timestamp: str
    input_hashes: dict = field(default_factory=dict)
    output_files: list = field(default_factory=list)

    @classmethod
    def create(cls, command: str, parameters: dict, tool_version: str,
               inputs: dict[str, str | Path] | None = None) -> "RunManifest":
        hashes = {name: sha256_file(p) for name, p in (inputs or {}).items()}
        return cls(
            command=command,
            parameters={k: parameters[k] for k in sorted(parameters)},
            tool_version=tool_version,
            timestamp=datetime.now(timezone.utc).isoformat(),
            input_hashes=hashes,
        )

    def record_output(self, path: Path | str, base_dir: Path | str) -> None:
        """Hash an emitted file and list it relative to the output directory."""
        path = Path(path)
        rel = path.relative_to(base_dir)
        self.output_files.append({"path": str(rel), "sha256": sha256_file(path)})

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path: Path | str) -> None:
        """Validate the fields and write them as ``json_text``; unlike ``to_dict``, no copy is made."""
        payload = vars(self)
        validate_manifest(payload)
        write_lines(path, [json_text(payload)])


MANIFEST_SCHEMA = typing.get_type_hints(RunManifest)  # required keys and their types


def validate_manifest(payload: dict) -> None:
    """Check a manifest dict against the schema; raise on any defect."""
    for key, typ in MANIFEST_SCHEMA.items():
        if key not in payload:
            raise ValidationError(f"manifest missing key {key!r}")
        if not isinstance(payload[key], typ):
            raise ValidationError(f"manifest key {key!r} must be {typ.__name__}")
    for entry in payload["output_files"]:
        if not isinstance(entry, dict) or set(entry) != {"path", "sha256"}:
            raise ValidationError(f"malformed output entry {entry!r}")
        if len(entry["sha256"]) != 64:
            raise ValidationError(f"not a sha256 digest: {entry['sha256']!r}")


def verify_outputs(payload: dict, base_dir: Path | str) -> None:
    """Re-hash the listed outputs and raise if any digest disagrees."""
    for entry in payload["output_files"]:
        actual = sha256_file(Path(base_dir) / entry["path"])
        if actual != entry["sha256"]:
            raise ValidationError(f"hash mismatch for {entry['path']}")
