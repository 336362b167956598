"""Tensor metadata for the graph IR.

The IR mirrors the subset of ONNX that DNN inference deployment uses:
statically-shaped tensors of a small set of element types.  Shapes are
always concrete (tuples of non-negative ints) once shape inference has
run; model builders bake the batch size into the graph, which matches
how inference runtimes compile a model for a fixed profile.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DataType", "TensorInfo", "Initializer"]


class DataType(Enum):
    """Element types supported by the IR.

    The values are stable identifiers used by the JSON serializer, so
    they must never be renumbered.
    """

    FLOAT32 = "float32"
    FLOAT16 = "float16"
    BFLOAT16 = "bfloat16"
    INT8 = "int8"
    UINT8 = "uint8"
    INT32 = "int32"
    INT64 = "int64"
    BOOL = "bool"

    @property
    def itemsize(self) -> int:
        """Size in bytes of one element."""
        return _ITEMSIZE[self]

    @property
    def is_float(self) -> bool:
        return self in (DataType.FLOAT32, DataType.FLOAT16, DataType.BFLOAT16)

    @property
    def is_integer(self) -> bool:
        return self in (DataType.INT8, DataType.UINT8, DataType.INT32, DataType.INT64)

    @property
    def is_quantized(self) -> bool:
        """True for the narrow integer types used by quantized inference."""
        return self in (DataType.INT8, DataType.UINT8)

    def to_numpy(self) -> np.dtype:
        """The numpy dtype used by the reference executor.

        bfloat16 has no numpy equivalent; the executor computes it in
        float32, which is how most CPUs emulate it anyway.
        """
        return _NUMPY[self]

    @classmethod
    def from_numpy(cls, dt: np.dtype) -> "DataType":
        dt = np.dtype(dt)
        for ours, theirs in _NUMPY.items():
            if ours is not DataType.BFLOAT16 and theirs == dt:
                return ours
        raise ValueError(f"no IR DataType for numpy dtype {dt!r}")

    @classmethod
    def parse(cls, name: str) -> "DataType":
        """Parse a user-facing dtype string such as ``fp16`` or ``int8``."""
        key = name.strip().lower()
        aliases = {
            "fp32": cls.FLOAT32, "float": cls.FLOAT32, "f32": cls.FLOAT32,
            "fp16": cls.FLOAT16, "half": cls.FLOAT16, "f16": cls.FLOAT16,
            "bf16": cls.BFLOAT16,
            "i8": cls.INT8, "i32": cls.INT32, "i64": cls.INT64,
        }
        if key in aliases:
            return aliases[key]
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown dtype string {name!r}") from None


_ITEMSIZE = {
    DataType.FLOAT32: 4,
    DataType.FLOAT16: 2,
    DataType.BFLOAT16: 2,
    DataType.INT8: 1,
    DataType.UINT8: 1,
    DataType.INT32: 4,
    DataType.INT64: 8,
    DataType.BOOL: 1,
}

_NUMPY = {
    DataType.FLOAT32: np.dtype(np.float32),
    DataType.FLOAT16: np.dtype(np.float16),
    DataType.BFLOAT16: np.dtype(np.float32),  # emulated
    DataType.INT8: np.dtype(np.int8),
    DataType.UINT8: np.dtype(np.uint8),
    DataType.INT32: np.dtype(np.int32),
    DataType.INT64: np.dtype(np.int64),
    DataType.BOOL: np.dtype(np.bool_),
}


def _check_shape(shape: Sequence[int]) -> Tuple[int, ...]:
    out = tuple(int(d) for d in shape)
    for d in out:
        if d < 0:
            raise ValueError(f"negative dimension in shape {out}")
    return out


@dataclass(frozen=True)
class TensorInfo:
    """Static metadata of one tensor: name, shape and element type."""

    name: str
    shape: Tuple[int, ...]
    dtype: DataType = DataType.FLOAT32

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tensor name must be non-empty")
        object.__setattr__(self, "shape", _check_shape(self.shape))
        if not isinstance(self.dtype, DataType):
            object.__setattr__(self, "dtype", DataType.parse(str(self.dtype)))

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def numel(self) -> int:
        """Number of elements (product of dims; 1 for a scalar)."""
        return int(math.prod(self.shape))

    @property
    def nbytes(self) -> int:
        """Dense size in bytes."""
        return self.numel * self.dtype.itemsize

    def with_name(self, name: str) -> "TensorInfo":
        return TensorInfo(name, self.shape, self.dtype)

    def with_dtype(self, dtype: DataType) -> "TensorInfo":
        return TensorInfo(self.name, self.shape, dtype)

    def with_shape(self, shape: Sequence[int]) -> "TensorInfo":
        return TensorInfo(self.name, tuple(shape), self.dtype)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(d) for d in self.shape) or "scalar"
        return f"{self.name}:{self.dtype.value}[{dims}]"


@dataclass
class Initializer:
    """A weight/constant tensor attached to a graph.

    Large models (e.g. the Stable-Diffusion UNet, ~860 M parameters)
    would need gigabytes if every weight were materialized eagerly, and
    the profiler only ever needs the *metadata*.  ``data`` is therefore
    optional; :meth:`materialize` fills it on demand (used only by the
    reference executor and by constant folding).
    """

    info: TensorInfo
    data: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.data is not None:
            self.data = np.asarray(self.data)
            if tuple(self.data.shape) != self.info.shape:
                raise ValueError(
                    f"initializer {self.info.name!r}: data shape "
                    f"{tuple(self.data.shape)} != declared {self.info.shape}"
                )

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def is_virtual(self) -> bool:
        """True while the tensor's contents have not been materialized."""
        return self.data is None

    def materialize(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return the tensor contents, generating deterministic values lazily.

        Weights are drawn from a small-variance normal so that executing a
        deep network does not overflow fp16; integer tensors default to
        zeros (they are almost always shape/index constants that builders
        provide explicitly).  Without ``rng`` the seed comes from the
        SHA-256 of the tensor name, so values do not depend on the
        process or its hash seed.

        Only the name-seeded draw is cached in ``data``.  A draw from a
        caller's ``rng`` is returned without being stored: it belongs to
        that caller (an executor or plan with its own seed), and caching
        it would hand one seed's weights to every later runtime built
        over the same graph.
        """
        if self.data is not None:
            return self.data
        cache = rng is None
        if cache:
            digest = hashlib.sha256(self.info.name.encode()).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:4], "little"))
        np_dt = self.info.dtype.to_numpy()
        if self.info.dtype.is_float:
            fan_in = max(1, self.info.numel // max(1, self.info.shape[0] if self.info.shape else 1))
            scale = 1.0 / math.sqrt(fan_in)
            data = rng.normal(0.0, scale, self.info.shape).astype(np_dt)
        else:
            data = np.zeros(self.info.shape, dtype=np_dt)
        if cache:
            self.data = data
        return data


def tensor_bytes(infos: Iterable[TensorInfo]) -> int:
    """Total dense bytes over a collection of tensors."""
    return sum(t.nbytes for t in infos)
