import numpy as np
import pytest

import qdtune as q
from qdtune.fileio import decode_blob, encode_blob, read_json, write_json


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
