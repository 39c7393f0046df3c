import hashlib
import json
import math
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opflow.errors import ValidationError
from opflow.manifest import RunManifest, json_text, validate_manifest, verify_outputs, write_lines


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


def test_the_json_form_is_sorted_two_space_indented_and_ends_in_one_newline():
    assert json_text({"b": [1, 2.5], "a": {}}) == '{\n  "a": {},\n  "b": [\n    1,\n    2.5\n  ]\n}\n'


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**80).map(lambda k: -k)
                | st.integers(2**63, 2**80) | st.floats() | st.sampled_from([-0.0, math.inf, -math.inf, math.nan])
                | st.text(st.characters(codec="utf-8"), max_size=8))
JSON_TREES = st.recursive(JSON_SCALARS, lambda children: (
    st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=6), children, max_size=5)), max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(payload=JSON_TREES)
def test_json_text_is_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    {1: [2], 2.5: {"a": 1}, True: [], -0.0: [[]]}, {None: [1]}, {math.nan: [1]}, {-math.inf: {"b": [1]}},
    {(1, 2): [1]}, {1: [1], "a": [2]}])
def test_keys_that_are_not_str_are_written_or_refused_as_json_dumps_does(payload):
    def outcome(render):
        try:
            return render(payload)
        except TypeError as exc:
            return str(exc)

    assert outcome(json_text) == outcome(lambda p: json.dumps(p, indent=2, sort_keys=True) + "\n")


def test_to_dict_is_a_copy_and_write_writes_the_fields(tmp_path):
    manifest = RunManifest.create("specgraph", {"grid": 40}, "0.1.0")
    copy = manifest.to_dict()
    copy["parameters"]["grid"] = 0
    manifest.write(tmp_path / "manifest.json")
    written = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert written == manifest.to_dict() and written["parameters"] == {"grid": 40}


def test_lines_are_written_in_order_from_any_iterable(tmp_path):
    write_lines(tmp_path / "out.csv", (f"{k}\n" for k in range(3)))
    assert (tmp_path / "out.csv").read_bytes() == b"0\n1\n2\n"


def write_text(path, text):
    write_lines(path, [text])


def test_a_shorter_rewrite_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.json"
    write_text(path, "a much longer first version\n" * 3)
    write_text(path, "short\u00e9\n")
    assert path.read_bytes() == "short\u00e9\n".encode("utf-8")
    write_text(path, "")
    assert path.read_bytes() == b""


def test_a_new_file_gets_the_mode_a_truncating_open_gives(tmp_path):
    write_text(tmp_path / "new.csv", "x\n")
    with open(tmp_path / "ref.csv", "w") as handle:
        handle.write("x\n")
    assert os.stat(tmp_path / "new.csv").st_mode == os.stat(tmp_path / "ref.csv").st_mode


def test_a_symlinked_output_is_written_through_the_link(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old contents, longer than the new\n", encoding="utf-8")
    link.symlink_to(target)
    write_text(link, "new\n")
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "new\n"


@pytest.mark.parametrize("kind", ["read-only file", "directory", "missing parent"])
def test_an_unwritable_output_raises_where_a_truncating_open_raises(tmp_path, kind):
    path = tmp_path / "out.csv"
    if kind == "read-only file":
        path.write_text("kept\n", encoding="utf-8")
        path.chmod(stat.S_IRUSR)
    elif kind == "directory":
        path.mkdir()
    else:
        path = tmp_path / "missing" / "out.csv"

    def outcome(write):
        try:
            write()
        except OSError as exc:
            return type(exc)
        return None

    def truncating():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("new\n")

    expected = outcome(truncating)  # None for a read-only file only where the user bypasses modes
    assert outcome(lambda: write_text(path, "new\n")) is expected
    if kind != "read-only file":
        assert expected is not None
