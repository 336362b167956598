"""Unit tests for tensor metadata (DataType, TensorInfo, Initializer)."""
import numpy as np
import pytest

from repro.ir.tensor import DataType, Initializer, TensorInfo, tensor_bytes


class TestDataType:
    def test_itemsizes(self):
        assert DataType.FLOAT32.itemsize == 4
        assert DataType.FLOAT16.itemsize == 2
        assert DataType.BFLOAT16.itemsize == 2
        assert DataType.INT8.itemsize == 1
        assert DataType.INT64.itemsize == 8
        assert DataType.BOOL.itemsize == 1

    def test_is_float(self):
        assert DataType.FLOAT32.is_float
        assert DataType.FLOAT16.is_float
        assert DataType.BFLOAT16.is_float
        assert not DataType.INT8.is_float
        assert not DataType.BOOL.is_float

    def test_is_quantized(self):
        assert DataType.INT8.is_quantized
        assert DataType.UINT8.is_quantized
        assert not DataType.INT32.is_quantized
        assert not DataType.FLOAT16.is_quantized

    @pytest.mark.parametrize("alias,expected", [
        ("fp32", DataType.FLOAT32), ("fp16", DataType.FLOAT16),
        ("half", DataType.FLOAT16), ("bf16", DataType.BFLOAT16),
        ("int8", DataType.INT8), ("i8", DataType.INT8),
        ("float32", DataType.FLOAT32), ("FP16", DataType.FLOAT16),
    ])
    def test_parse(self, alias, expected):
        assert DataType.parse(alias) is expected

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            DataType.parse("fp13")

    def test_numpy_roundtrip(self):
        for dt in DataType:
            if dt is DataType.BFLOAT16:
                continue  # no numpy equivalent
            assert DataType.from_numpy(dt.to_numpy()) is dt

    def test_bfloat16_emulated_as_float32(self):
        assert DataType.BFLOAT16.to_numpy() == np.dtype(np.float32)

    def test_from_numpy_unknown(self):
        with pytest.raises(ValueError):
            DataType.from_numpy(np.dtype(np.complex64))


class TestTensorInfo:
    def test_basic(self):
        t = TensorInfo("x", (2, 3, 4))
        assert t.numel == 24
        assert t.nbytes == 96
        assert t.rank == 3
        assert t.dtype is DataType.FLOAT32

    def test_scalar(self):
        t = TensorInfo("s", ())
        assert t.numel == 1
        assert t.rank == 0

    def test_fp16_bytes(self):
        t = TensorInfo("x", (10,), DataType.FLOAT16)
        assert t.nbytes == 20

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            TensorInfo("x", (2, -1))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TensorInfo("", (1,))

    def test_dtype_coercion_from_string(self):
        t = TensorInfo("x", (1,), "fp16")
        assert t.dtype is DataType.FLOAT16

    def test_with_helpers(self):
        t = TensorInfo("x", (2, 3))
        assert t.with_name("y").name == "y"
        assert t.with_dtype(DataType.INT8).dtype is DataType.INT8
        assert t.with_shape((6,)).shape == (6,)
        # originals untouched (frozen)
        assert t.name == "x" and t.shape == (2, 3)

    def test_zero_dim_allowed(self):
        t = TensorInfo("x", (0, 4))
        assert t.numel == 0


class TestInitializer:
    def test_virtual_until_materialized(self):
        init = Initializer(TensorInfo("w", (4, 4)))
        assert init.is_virtual
        data = init.materialize()
        assert not init.is_virtual
        assert data.shape == (4, 4)
        assert data.dtype == np.float32

    def test_materialize_deterministic_per_name(self):
        a = Initializer(TensorInfo("w", (8,))).materialize()
        b = Initializer(TensorInfo("w", (8,))).materialize()
        np.testing.assert_array_equal(a, b)

    def test_materialize_differs_across_names(self):
        a = Initializer(TensorInfo("w1", (64,))).materialize()
        b = Initializer(TensorInfo("w2", (64,))).materialize()
        assert not np.array_equal(a, b)

    def test_fallback_weights_ignore_the_hash_seed(self, run_python):
        """Passes that draw weights without an rng (``fold_batchnorm``
        at level 2) give the same graph in every process."""
        script = (
            "from repro.ir.fingerprint import graph_fingerprint\n"
            "from repro.ir.passes import optimize_graph\n"
            "from repro.models.registry import build_model\n"
            "g = build_model('resnet50', batch_size=1, image_size=64)\n"
            "print(graph_fingerprint(optimize_graph(g, level=2)))\n")
        fingerprints = {
            run_python("-c", script,
                       env={"PYTHONHASHSEED": seed}).stdout.strip()
            for seed in ("1", "2")}
        assert len(fingerprints) == 1, fingerprints

    def test_data_shape_checked(self):
        with pytest.raises(ValueError, match="data shape"):
            Initializer(TensorInfo("w", (2, 2)), np.zeros((3,)))

    def test_integer_materializes_zeros(self):
        init = Initializer(TensorInfo("idx", (5,), DataType.INT64))
        assert (init.materialize() == 0).all()

    def test_float_values_bounded(self):
        # small-variance init: deep nets must not overflow fp16
        data = Initializer(TensorInfo("w", (256, 256))).materialize()
        assert float(np.abs(data).max()) < 1.0


def test_tensor_bytes_sums():
    infos = [TensorInfo("a", (10,)), TensorInfo("b", (5,), DataType.FLOAT16)]
    assert tensor_bytes(infos) == 40 + 10
