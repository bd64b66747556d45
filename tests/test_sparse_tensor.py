import math
from unittest import mock

import numpy as np
import pytest

from tensortopics import AxisMap, SparseTensorCOO, load_tensor, save_tensor

from conftest import (
    TENSOR_PAYLOAD_FAULTS, from_entries, random_sparse, rewrite_tensor_payload, to_dense,
)


def _set(rows, field, row, value, column=None):
    """A copy of payload rows with one coordinate or value replaced."""
    rows = rows.copy()
    if column is None:
        rows[field][row] = value
    else:
        rows[field][row, column] = value
    return rows


class TestFromEntries:
    def test_coalesces_duplicates_by_summation(self):
        t = from_entries([((0, 0), 1.0), ((0, 0), 2.0), ((1, 1), 5.0)], (2, 2))
        assert t.nnz == 2
        assert dict(t.entries()) == {(0, 0): 3.0, (1, 1): 5.0}

    def test_entries_summing_to_zero_are_dropped(self):
        t = from_entries([((0, 0), 1.5), ((0, 0), -1.5), ((1, 0), 2.0)], (2, 2))
        assert t.nnz == 1
        assert dict(t.entries()) == {(1, 0): 2.0}

    def test_empty_entry_list_gives_empty_tensor(self):
        t = from_entries([], (3, 4, 5))
        assert t.nnz == 0
        assert t.frobenius_norm() == 0.0
        assert t.coords.shape == (0, 3)

    def test_input_order_is_irrelevant(self, rng):
        entries = [
            (tuple(int(rng.integers(0, 4)) for _ in range(3)), float(v))
            for v in rng.uniform(0.5, 2.0, size=30)
        ]
        a = from_entries(entries, (4, 4, 4))
        b = from_entries(list(reversed(entries)), (4, 4, 4))
        assert a == b

    def test_coords_are_lexicographically_sorted(self, rng):
        t = random_sparse(rng, (5, 4, 3), 40)
        rows = [tuple(r) for r in t.coords]
        assert rows == sorted(rows)

    def test_out_of_bounds_names_the_mode(self):
        with pytest.raises(ValueError, match="mode 1"):
            from_entries([((0, 7), 1.0)], (3, 4))
        with pytest.raises(ValueError, match="mode 0"):
            from_entries([((-1, 0), 1.0)], (3, 4))

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            from_entries([((0, 0), float("nan"))], (2, 2))
        with pytest.raises(ValueError, match="finite"):
            from_entries([((0, 0), float("inf"))], (2, 2))

    def test_negative_totals_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            from_entries([((0, 0), -2.0)], (2, 2))

    def test_coordinate_width_and_count_must_match(self):
        with pytest.raises(ValueError, match=r"^coords must be \(nnz, 2\) for an order-2 tensor, got \(1, 3\)$"):
            SparseTensorCOO([[0, 0, 0]], [1.0], (2, 2))
        with pytest.raises(ValueError, match="^2 coordinates but 1 values$"):
            SparseTensorCOO([[0, 0], [1, 1]], [1.0], (2, 2))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="positive extents"):
            from_entries([], (3, 0, 2))
        with pytest.raises(ValueError, match="order"):
            from_entries([], ())


class TestQueries:
    def test_norm_three_four_five(self):
        # {1, 2, 2} -> sqrt(9) = 3 exactly
        t = from_entries([((0, 0), 1.0), ((1, 0), 2.0), ((1, 1), 2.0)], (2, 2))
        assert t.frobenius_norm() == 3.0

    def test_norm_matches_dense_oracle(self, rng):
        for _ in range(10):
            t = random_sparse(rng, (4, 4, 4, 4), 25)
            dense = to_dense(t)
            assert t.frobenius_norm() == pytest.approx(
                float(np.sqrt((dense**2).sum())), abs=1e-12
            )

    def test_immutable_arrays(self):
        t = from_entries([((0, 0), 1.0)], (2, 2))
        with pytest.raises((ValueError, RuntimeError)):
            t.values[0] = 9.0


class TestAxisMap:
    def test_round_trip(self):
        axis = AxisMap(["alpha", "beta", "gamma"])
        assert len(axis) == 3
        assert axis.labels.index("beta") == 1
        assert axis.labels[2] == "gamma"
        assert "alpha" in axis and "delta" not in axis

    def test_repr_counts_the_labels(self):
        assert repr(AxisMap(["alpha", "beta"])) == "AxisMap(2 labels)"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AxisMap(["a", "b", "a"])


class TestTensorFile:
    def _make(self, rng):
        t = random_sparse(rng, (3, 4, 2, 5), 14)
        axes = [AxisMap([f"m{k}_{i}" for i in range(t.shape[k])]) for k in range(4)]
        names = ["first_author", "document", "journal", "words"]
        return t, axes, names

    def test_round_trip(self, tmp_path, rng):
        t, axes, names = self._make(rng)
        save_tensor(t, axes, names, tmp_path / "tensor")
        loaded, loaded_axes, loaded_names = load_tensor(tmp_path / "tensor")
        assert loaded == t
        assert loaded_axes == axes
        assert loaded_names == names

    def test_values_round_trip_bitwise(self, tmp_path):
        values = [math.log1p(1), math.log1p(2), 1.0 / 3.0, 0.1 + 0.2]
        entries = [((i, 0), v) for i, v in enumerate(values)]
        t = from_entries(entries, (4, 1))
        axes = [AxisMap(["a", "b", "c", "d"]), AxisMap(["w"])]
        save_tensor(t, axes, ["doc", "word"], tmp_path / "t")
        loaded, _, _ = load_tensor(tmp_path / "t")
        assert np.array_equal(loaded.values, t.values)

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        t, axes, names = self._make(rng)
        save_tensor(t, axes, names, tmp_path / "a")
        save_tensor(t, axes, names, tmp_path / "b")
        for name in ("header.json", "entries.tsv", "mode0.labels.txt", "mode3.labels.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_label_count_mismatch_rejected(self, tmp_path, rng):
        t, axes, names = self._make(rng)
        save_tensor(t, axes, names, tmp_path / "t")
        labels = tmp_path / "t" / "mode2.labels.txt"
        labels.write_text("only-one-label\n", encoding="utf-8")
        with pytest.raises(ValueError, match="mode 2") as info:
            load_tensor(tmp_path / "t")
        assert "mode2.labels.txt" in str(info.value)

    def test_wrong_axis_sizes_rejected_on_save(self, tmp_path, rng):
        t, axes, names = self._make(rng)
        axes[1] = AxisMap(["too", "few"])
        with pytest.raises(ValueError, match="mode 1"):
            save_tensor(t, axes, names, tmp_path / "t")

    @pytest.mark.parametrize("newline", ["\n", "\r"])
    def test_label_with_a_newline_rejected_on_save(self, tmp_path, rng, newline):
        # One label a line: a newline inside a label would split it in two.
        t, axes, names = self._make(rng)
        axes[2] = AxisMap(["j0", f"j{newline}1"])
        with pytest.raises(ValueError, match="contains a newline"):
            save_tensor(t, axes, names, tmp_path / "t")
        assert not (tmp_path / "t").exists()

    def test_label_with_a_lone_surrogate_rejected_on_save(self, tmp_path, rng):
        # UTF-8 cannot encode it: no file of the container may be written.
        t, axes, names = self._make(rng)
        axes[0] = AxisMap([f"a{i}" for i in range(len(axes[0]) - 1)] + ["Ann \ud800 Lee"])
        with pytest.raises(ValueError, match=r"^axis label 'Ann \\ud800 Lee' in mode 0 is not UTF-8 text$"):
            save_tensor(t, axes, names, tmp_path / "t")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("drop", ["axes", "mode_names"])
    def test_wrong_axis_count_rejected_on_save(self, tmp_path, rng, drop):
        t, axes, names = self._make(rng)
        args = {"axes": axes, "mode_names": names}
        args[drop] = args[drop][:-1]
        with pytest.raises(ValueError, match="expected 4 axes and mode names"):
            save_tensor(t, out_dir=tmp_path / "t", **args)
        assert not (tmp_path / "t").exists()

    def test_unknown_format_rejected(self, tmp_path, rng):
        t, axes, names = self._make(rng)
        save_tensor(t, axes, names, tmp_path / "t")
        header = tmp_path / "t" / "header.json"
        header.write_text(header.read_text().replace("sparse-tensor-coo", "other"), "utf-8")
        with pytest.raises(ValueError, match="format"):
            load_tensor(tmp_path / "t")

    def test_out_of_bounds_entry_rejected_on_load(self, tmp_path, rng):
        t, axes, names = self._make(rng)
        save_tensor(t, axes, names, tmp_path / "t")
        rewrite_tensor_payload(tmp_path / "t", lambda r: _set(r, "c", 0, 99, column=0), restamp=True)
        with pytest.raises(ValueError, match="mode 0"):
            load_tensor(tmp_path / "t")

    def test_missing_container_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="missing"):
            load_tensor(tmp_path / "nope")

    def test_empty_label_preserved(self, tmp_path):
        t = from_entries([((0, 0), 1.0), ((1, 0), 2.0)], (2, 1))
        axes = [AxisMap(["kept title", ""]), AxisMap(["word"])]
        save_tensor(t, axes, ["document", "words"], tmp_path / "t")
        _, loaded_axes, _ = load_tensor(tmp_path / "t")
        assert loaded_axes[0].labels == ["kept title", ""]


class TestTensorPayload:
    """load_tensor reads its numbers from entries.npy and checks them."""

    def _saved(self, tmp_path, rng):
        t = random_sparse(rng, (3, 4, 2, 5), 14)
        axes = [AxisMap([f"m{k}_{i}" for i in range(t.shape[k])]) for k in range(4)]
        save_tensor(t, axes, ["first_author", "document", "journal", "words"], tmp_path / "t")
        return t, tmp_path / "t"

    def test_payload_is_the_sorted_rows(self, tmp_path, rng):
        t, tdir = self._saved(tmp_path, rng)
        rows = np.load(tdir / "entries.npy", allow_pickle=False)
        assert rows.dtype == np.dtype([("c", "<i8", (4,)), ("v", "<f8")])
        assert rows["c"].tobytes() == t.coords.tobytes()
        assert rows["v"].tobytes() == t.values.tobytes()

    @pytest.mark.parametrize("fault", sorted(TENSOR_PAYLOAD_FAULTS))
    def test_payload_fault_is_a_named_error(self, tmp_path, rng, fault):
        _t, tdir = self._saved(tmp_path, rng)
        damage, phrase = TENSOR_PAYLOAD_FAULTS[fault]
        damage(tdir)
        with pytest.raises(ValueError, match=phrase) as info:
            load_tensor(tdir)
        named = "header.json" if fault == "schema_1" else "entries.npy"
        assert named in str(info.value)

    @pytest.mark.parametrize(
        "header, phrase",
        [
            ("[1, 2]", "unrecognized tensor format None"),
            ('{"format": "sparse-tensor-coo"', "unreadable tensor header"),
            ('{"format": "sparse-tensor-coo", "schema_version": 2}', "no 'shape' field"),
            (
                '{"format": "sparse-tensor-coo", "schema_version": 2, "shape": [2, "x"],'
                ' "mode_names": ["a", "b"], "nnz": 1}',
                "malformed tensor header",
            ),
            (
                '{"format": "sparse-tensor-coo", "schema_version": 2, "shape": [2, 3.9],'
                ' "mode_names": ["a", "b"], "nnz": 1}',
                "malformed tensor header: expected int, got 3.9",
            ),
            (
                '{"format": "sparse-tensor-coo", "schema_version": 2, "shape": [2, 3],'
                ' "mode_names": ["a", "b"], "nnz": 1.0}',
                "malformed tensor header: expected int, got 1.0",
            ),
            (
                '{"format": "sparse-tensor-coo", "schema_version": 2, "shape": [true, 3],'
                ' "mode_names": ["a", "b"], "nnz": 1}',
                "malformed tensor header: expected int, got True",
            ),
            *(
                (
                    '{"format": "sparse-tensor-coo", "schema_version": 2, "shape": [%d, 3],'
                    ' "mode_names": ["a", "b"], "nnz": 1}' % extent,
                    f"malformed tensor header: expected an extent >= 1, got {extent}",
                )
                for extent in (0, -1)
            ),
        ],
    )
    def test_bad_header_is_a_named_error(self, tmp_path, rng, header, phrase):
        _t, tdir = self._saved(tmp_path, rng)
        (tdir / "header.json").write_text(header + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=phrase) as info:
            load_tensor(tdir)
        assert "header.json" in str(info.value)

    @pytest.mark.parametrize("mode", range(4))
    def test_out_of_bounds_coordinate_names_the_mode(self, tmp_path, rng, mode):
        t, tdir = self._saved(tmp_path, rng)
        row = t.nnz - 1
        rewrite_tensor_payload(
            tdir, lambda r: _set(r, "c", row, t.shape[mode], column=mode), restamp=True
        )
        with pytest.raises(ValueError, match=f"out of bounds for mode {mode}"):
            load_tensor(tdir)

    @pytest.mark.parametrize(
        "value, phrase",
        [
            # the constructor drops an exact zero, so one entry goes missing
            (0.0, "header says {nnz} entries, the payload holds {less} distinct nonzero ones"),
            (-1.0, "must be positive"),
            (float("nan"), "must be finite"),
        ],
    )
    def test_bad_value_has_the_constructor_result(self, tmp_path, rng, value, phrase):
        t, tdir = self._saved(tmp_path, rng)
        rewrite_tensor_payload(tdir, lambda r: _set(r, "v", 5, value), restamp=True)
        with pytest.raises(ValueError, match=phrase.format(nnz=t.nnz, less=t.nnz - 1)):
            load_tensor(tdir)

    def test_duplicated_row_is_an_nnz_mismatch(self, tmp_path, rng):
        t, tdir = self._saved(tmp_path, rng)

        def duplicate(rows):
            rows = rows.copy()
            rows[1] = rows[0]
            return rows

        rewrite_tensor_payload(tdir, duplicate, restamp=True)
        with pytest.raises(ValueError, match=f"header says {t.nnz} entries") as info:
            load_tensor(tdir)
        assert "entries.npy" in str(info.value)

    def test_unsorted_unique_rows_load_sorted(self, tmp_path, rng):
        t, tdir = self._saved(tmp_path, rng)
        rewrite_tensor_payload(tdir, lambda r: r[rng.permutation(r.shape[0])], restamp=True)
        loaded, _, _ = load_tensor(tdir)
        assert loaded.coords.tobytes() == t.coords.tobytes()
        assert loaded.values.tobytes() == t.values.tobytes()

    def test_numbers_come_from_the_payload(self, tmp_path, rng):
        t, tdir = self._saved(tmp_path, rng)
        entries = tdir / "entries.tsv"
        lines = entries.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit("\t", 1)[0] + "\t123.25"
        entries.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded, _, _ = load_tensor(tdir)
        assert loaded == t

    def test_saved_rows_are_not_sorted_again(self, tmp_path, rng):
        t, tdir = self._saved(tmp_path, rng)
        with mock.patch.object(np, "lexsort", side_effect=AssertionError("sorted again")):
            loaded, _, _ = load_tensor(tdir)
        assert loaded == t
