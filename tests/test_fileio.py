import numpy as np
import pytest

import qdtune as q
from qdtune.fileio import check_header, checked, decode_blob, encode_blob, read_json, write_json


class TestBlobs:
    def test_round_trip_is_bit_exact(self):
        arr = np.array([[0.1, -0.0], [np.pi, 1e-300]])
        back = decode_blob("x", encode_blob(arr, "<f8"), "<f8", arr.size).reshape(arr.shape)
        assert back.tobytes() == arr.tobytes()

    def test_encode_casts_and_flattens_row_major(self):
        arr = np.arange(6).reshape(2, 3).T  # not C-contiguous
        back = decode_blob("x", encode_blob(arr, "<i1"), "<i1", 6)
        np.testing.assert_array_equal(back, [0, 3, 1, 4, 2, 5])

    @pytest.mark.parametrize(
        "text, message",
        [(None, "must be a base64 string"), ("!!", "not valid base64"), ("é", "not valid base64"), ("AAAA", "holds 3 bytes")],
    )
    def test_decode_rejects_bad_blobs(self, text, message):
        with pytest.raises(q.ScanFormatError, match=message) as exc:
            decode_blob("values", text, "<f8", 1)
        assert "'values'" in str(exc.value)


class TestReadJson:
    def test_reads_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": 1}')
        assert read_json(path, "thing") == {"a": 1}

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read thing file"),
            (b'{"a": ', "thing file is not valid JSON"),
            (b"\xff\xfe{}", "thing file is not valid JSON"),
            (b"[1, 2]", "thing file must contain a JSON object"),
        ],
        ids=["missing", "truncated", "not_utf8", "not_object"],
    )
    def test_failures_are_format_errors(self, tmp_path, content, message):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(q.ScanFormatError, match=message):
            read_json(path, "thing")


class TestChecked:
    @pytest.mark.parametrize(
        "value, kind, expect",
        [(3, int, 3), (3, float, 3.0), (True, bool, True), ("a", str, "a"), ([1, 2.5], 2, (1.0, 2.5)),
         ([], list, []), ({}, dict, {})],
    )
    def test_accepts_its_kind(self, value, kind, expect):
        got = checked("field 'x'", value, kind, q.ScanFormatError)
        assert got == expect and type(got) is type(expect)

    @pytest.mark.parametrize(
        "value, kind",
        [(True, int), (2.0, int), (True, float), (float("nan"), float), (float("inf"), float), ("1", float),
         (1, bool), (None, str), ("ab", 2), ([1.0], 2), ([1.0, float("nan")], 2), ((1.0, 2.0), 2),
         ("[]", list), ([], dict)],
    )
    def test_refuses_other_values_with_the_given_error(self, value, kind):
        with pytest.raises(q.ConfigurationError, match=r"^config key 'x' must be "):
            checked("config key 'x'", value, kind, q.ConfigurationError)


class TestCheckHeader:
    HEADER = {"format": "thing", "version": "1"}

    def test_matching_header_passes(self):
        check_header({**self.HEADER, "data": 1}, "thing", self.HEADER)

    @pytest.mark.parametrize(
        "doc, error",
        [({"version": "1"}, q.ScanFormatError), ({"format": "other", "version": "1"}, q.ScanFormatError),
         ({"format": "thing"}, q.ScanVersionError), ({"format": "thing", "version": 1}, q.ScanVersionError)],
    )
    def test_wrong_field_names_it(self, doc, error):
        with pytest.raises(error, match="thing field '(format|version)'") as exc:
            check_header(doc, "thing", self.HEADER)
        assert type(exc.value) is error


class TestWriteJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": 1, "a": [1, 2]})
        assert path.read_text() == '{"a": [1, 2], "b": 1}\n'

    def test_indent(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": 1, "a": 2}, indent=2)
        assert path.read_text() == '{\n  "a": 2,\n  "b": 1\n}\n'
        assert read_json(path, "doc") == {"a": 2, "b": 1}
