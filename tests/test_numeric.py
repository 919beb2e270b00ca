import ast
import struct
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import bmrnn
from bmrnn.cells import _sigmoid
from bmrnn.errors import DataError, ShapeMismatchError
from bmrnn.numeric import (
    SeededRng, Sequence, decode_tensor, encode_tensor, init_params, read_file, write_file,
)


class TestElementwise:
    """The cell activations: the sign-split sigmoid of `bmrnn.cells` and tanh."""

    def test_sigmoid_at_zero(self):
        npt.assert_array_equal(_sigmoid(np.array([0.0])), [0.5])

    def test_ranges_strict(self):
        # float64 tanh saturates to exactly +-1 beyond |x| ~ 19, so the
        # strict-open-interval check uses a non-saturating domain
        x = np.linspace(-30, 30, 1001)
        s = _sigmoid(x)
        assert np.all(s > 0) and np.all(s < 1)
        t = np.tanh(np.linspace(-15, 15, 1001))
        assert np.all(t > -1) and np.all(t < 1)

    def test_sigmoid_extreme_inputs_finite(self):
        s = _sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(s))
        npt.assert_allclose(s, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_bits_match_the_two_branch_form(self):
        def two_branch(x):   # one exp per sign branch, each on its own subset
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        tiny = np.finfo(float).smallest_subnormal
        edges = [0.0, tiny, 1e-310, 2.2e-308, 1e-16, 36.7, 709.0, 744.0, 745.0, 746.0, 1e4,
                 np.inf, np.nan]
        half = np.concatenate([np.linspace(0, 800, 100_001), np.geomspace(tiny, 1e4, 20_001),
                               edges])
        grid = np.concatenate([half, -half])     # -0.0 and negative subnormals too
        npt.assert_array_equal(_sigmoid(grid), two_branch(grid))


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = init_params(2, 2, SeededRng(7))
        b = init_params(2, 2, SeededRng(7))
        npt.assert_array_equal(a, b)

    def test_default_scale_bound(self):
        m = init_params(4, 100, SeededRng(3))
        assert np.all(np.abs(m) <= 0.1)  # 1/sqrt(100)

    def test_mean_for_seed_1(self):
        # empirical value for this exact seed, frozen
        m = init_params(50, 50, SeededRng(1))
        npt.assert_allclose(m.mean(), -0.0009397966486783469, atol=1e-15)
        assert abs(m.mean()) < 0.02

    def test_all_finite(self):
        assert np.all(np.isfinite(init_params(20, 30, SeededRng(11))))


class TestSeededRng:
    def test_identical_streams(self):
        a, b = SeededRng(123), SeededRng(123)
        npt.assert_array_equal(a.normal(shape=100), b.normal(shape=100))
        npt.assert_array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))

    def test_spawn_is_deterministic_and_distinct(self):
        a = SeededRng(9).spawn(4)
        b = SeededRng(9).spawn(4)
        c = SeededRng(9).spawn(5)
        npt.assert_array_equal(a.uniform(0, 1, 10), b.uniform(0, 1, 10))
        assert not np.array_equal(a.uniform(0, 1, 10), c.uniform(0, 1, 10))

    def test_choice_without_replacement(self):
        picks = SeededRng(2).choice_without_replacement(10, 10)
        assert sorted(picks.tolist()) == list(range(10))


class TestSequence:
    """A story's photo stream and its sentences are both one Sequence."""

    def test_a_list_of_rows_is_stacked(self):
        seq = Sequence(story_id="s", rows=[np.ones(2), np.array([1, 2])])
        assert seq.N == 2 and seq.rows.dtype == np.float64
        npt.assert_array_equal(seq.rows, [[1.0, 1.0], [1.0, 2.0]])

    def test_a_float_array_is_kept(self):
        rows = np.zeros((3, 4))
        assert Sequence(story_id="s", rows=rows).rows is rows

    @pytest.mark.parametrize("rows", [np.zeros(3), [1.0, 2.0], np.zeros((2, 3, 4))])
    def test_steps_of_wrong_rank_rejected(self, rows):
        with pytest.raises(ShapeMismatchError, match="sequence"):
            Sequence(story_id="s", rows=rows)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeMismatchError,
                           match=r"sequence: incompatible shapes \(2,\) and \(3,\)"):
            Sequence(story_id="s", rows=[np.zeros(2), np.zeros(3)])


class TestTensorRecord:
    """The tensor record shared by .bmt and model files."""

    @pytest.mark.parametrize("shape", [(), (0,), (7,), (3, 4), (2, 3, 2)])
    def test_round_trip_at_an_offset(self, shape):
        a = np.random.default_rng(1).normal(size=shape)
        raw = b"head" + encode_tensor(a) + b"tail"
        back, end = decode_tensor(raw, 4, "f.bin")
        assert back.dtype == np.float64 and back.shape == shape
        npt.assert_array_equal(back, a.astype(np.float32))
        assert raw[end:] == b"tail"

    @pytest.mark.parametrize("raw, message", [
        (struct.pack("<3I", 2, 1 << 20, 1 << 20) + bytes(16),
         "payload is 16 bytes, expected 4398046511104"),
        (struct.pack("<I", 0xFFFFFFFF) + bytes(16), "implausible rank 4294967295"),
        (struct.pack("<4I", 8, 1, 1, 1), "truncated header"),
        (b"\x02\x00", "truncated header"),
    ])
    def test_sizes_checked_before_allocating(self, raw, message):
        # the declared sizes would need terabytes; only the bytes present are read
        with pytest.raises(DataError, match=message) as e:
            decode_tensor(raw, 0, "m.bin", name="fwd.W_zx")
        assert "'fwd.W_zx'" in str(e.value) and "m.bin" in str(e.value)

    def test_non_finite_names_story(self):
        raw = encode_tensor(np.array([1.0, np.nan]))
        with pytest.raises(DataError, match="non-finite.*f.bmt.*story: s1"):
            decode_tensor(raw, 0, "f.bmt", story_id="s1")


class TestFileBoundary:
    """read_file/write_file: every file the package touches goes through them."""

    def test_bytes_and_text_round_trip(self, tmp_path):
        write_file(tmp_path / "b.bin", b"\x00\xff", "blob")
        assert read_file(tmp_path / "b.bin", "blob") == b"\x00\xff"
        write_file(tmp_path / "t.txt", "caf\u00e9\n", "note")
        assert (tmp_path / "t.txt").read_bytes() == b"caf\xc3\xa9\n"
        assert read_file(tmp_path / "t.txt", "note", text=True) == "caf\u00e9\n"

    @pytest.mark.parametrize("name", ["ghost.txt", "."], ids=["missing", "directory"])
    def test_unreadable_path_names_file_and_story(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(DataError, match=r"^cannot read skip file \(") as e:
            read_file(path, "skip file", text=True, story_id="s7")
        assert str(path) in str(e.value) and "story: s7" in str(e.value)

    def test_not_utf8_names_the_byte(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"a": 1}\n\xff\xfe')
        assert read_file(path, "manifest") == b'{"a": 1}\n\xff\xfe'
        with pytest.raises(DataError, match=r"manifest is not UTF-8 text \(byte 9\)") as e:
            read_file(path, "manifest", text=True)
        assert str(path) in str(e.value)

    @pytest.mark.parametrize("name", ["nodir/out.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_path_names_file(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(DataError, match=r"^cannot write report \(") as e:
            write_file(path, "{}\n", "report")
        assert str(path) in str(e.value)


FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def file_calls_outside_boundary(src_dir) -> list[str]:
    """Calls that touch a file anywhere in ``src_dir`` but in numeric.read_file/write_file."""
    found = []
    for path in sorted(Path(src_dir).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        if path.name == "numeric.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name in ("read_file", "write_file"):
                    inside.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside:
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in FILE_CALLS:
                    found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_files_are_touched_only_at_the_boundary():
    assert file_calls_outside_boundary(Path(bmrnn.__file__).parent) == []
