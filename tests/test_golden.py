"""Every CLI output of tools/golden.py's run list, byte for byte.

A failure names each file that moved and, where only numbers moved, the
largest absolute and relative difference.  A change that moves bytes on
purpose regenerates the set with `tools/golden.py --update` and lists
each changed file in CHANGES.md.
"""
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "golden", os.path.join(ROOT, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(golden.GOLDEN, golden.MANIFEST),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_records_the_run_list(manifest):
    # the list a set was written from is the list the test reruns
    assert manifest["runs"] == golden.RUNS


@pytest.mark.parametrize("case", golden.RUNS)
def test_outputs_match_the_golden_set(case, manifest, tmp_path):
    files = golden.run_case(golden.RUNS[case], str(tmp_path))
    moved = golden.mismatches(case, files)
    written = {k: manifest[k] for k in golden.platform_record()}
    assert not moved, "\n".join(
        [*moved, f"golden set written with {written}, "
                 f"rerun with {golden.platform_record()}"])


class TestNumericDifference:
    def test_reports_the_largest_differences(self):
        assert golden.numeric_difference(
            b'{"a": 1.0, "b": [2.0, -4.0]}',
            b'{"a": 1.5, "b": [2.0, -4.25]}') == (0.5, 0.5)

    @pytest.mark.parametrize("expected, actual", [
        (b"x = 1.0", b"y = 1.0"), (b"1.0, 2.0", b"1.0")],
        ids=["text", "count"])
    def test_text_changes_have_no_numeric_difference(self, expected, actual):
        assert golden.numeric_difference(expected, actual) is None

    def test_a_file_on_one_side_is_named(self, tmp_path):
        (tmp_path / "case").mkdir()
        (tmp_path / "case" / "a.csv").write_bytes(b"1\n")
        assert golden.mismatches("case", {"a.csv": b"1\n", "b.csv": b""},
                                 golden=str(tmp_path)) == [
            "case/b.csv: only the rerun has it"]

    def test_a_moved_number_is_measured(self, tmp_path):
        (tmp_path / "case").mkdir()
        (tmp_path / "case" / "a.csv").write_bytes(b"x,2.0\n")
        assert golden.mismatches("case", {"a.csv": b"x,2.5\n"},
                                 golden=str(tmp_path)) == [
            "case/a.csv: bytes differ; largest numeric difference 0.5 "
            "absolute, 0.25 relative"]
