import hashlib

import pytest

from opflow.errors import ValidationError
from opflow.manifest import RunManifest, validate_manifest, verify_outputs


def written_manifest(tmp_path):
    """A manifest that lists one output file, and the file."""
    out = tmp_path / "data.csv"
    out.write_text("x,y\n1,2\n", encoding="utf-8")
    manifest = RunManifest.create("specgraph", {"grid": 40, "samples": 16}, "0.1.0")
    manifest.record_output(out, tmp_path)
    return manifest.to_dict()


def test_a_recorded_manifest_validates_and_verifies(tmp_path):
    payload = written_manifest(tmp_path)
    validate_manifest(payload)
    verify_outputs(payload, tmp_path)
    digest = hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest()
    assert payload["output_files"] == [{"path": "data.csv", "sha256": digest}]
    assert list(payload["parameters"]) == ["grid", "samples"]


@pytest.mark.parametrize("key", ["command", "parameters", "tool_version", "timestamp",
                                 "input_hashes", "output_files"])
def test_missing_key_rejected(tmp_path, key):
    payload = written_manifest(tmp_path)
    del payload[key]
    with pytest.raises(ValidationError, match=f"missing key '{key}'"):
        validate_manifest(payload)


@pytest.mark.parametrize("key, value, typ", [
    ("command", 1, "str"), ("parameters", [], "dict"), ("output_files", {}, "list")])
def test_key_of_the_wrong_type_rejected(tmp_path, key, value, typ):
    payload = written_manifest(tmp_path)
    payload[key] = value
    with pytest.raises(ValidationError, match=f"key '{key}' must be {typ}"):
        validate_manifest(payload)


@pytest.mark.parametrize("entry", [
    "data.csv", {"path": "data.csv"}, {"path": "data.csv", "sha256": "0" * 64, "size": 8}])
def test_malformed_output_entry_rejected(tmp_path, entry):
    payload = written_manifest(tmp_path)
    payload["output_files"].append(entry)
    with pytest.raises(ValidationError, match="malformed output entry"):
        validate_manifest(payload)


@pytest.mark.parametrize("digest", ["", "0" * 63, "0" * 65])
def test_digest_of_the_wrong_length_rejected(tmp_path, digest):
    payload = written_manifest(tmp_path)
    payload["output_files"][0]["sha256"] = digest
    with pytest.raises(ValidationError, match="not a sha256 digest"):
        validate_manifest(payload)


def test_changed_output_is_a_hash_mismatch(tmp_path):
    payload = written_manifest(tmp_path)
    (tmp_path / "data.csv").write_text("x,y\n1,3\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="hash mismatch for data.csv"):
        verify_outputs(payload, tmp_path)


def test_write_validates_before_writing(tmp_path):
    manifest = RunManifest.create("specgraph", {}, "0.1.0")
    manifest.output_files.append({"path": "data.csv"})
    with pytest.raises(ValidationError, match="malformed output entry"):
        manifest.write(tmp_path / "manifest.json")
    assert not (tmp_path / "manifest.json").exists()
