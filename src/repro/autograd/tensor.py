"""The Tensor class: NumPy array + gradient tape.

Every differentiable operation records ``(parent, grad_fn)`` edges, where
``grad_fn`` maps the upstream gradient to this parent's gradient
contribution. ``backward()`` runs a topological sweep accumulating grads.

Broadcasting follows NumPy semantics; gradients of broadcast operands are
reduced back to the operand's shape (:func:`unbroadcast`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

#: Global default dtype. float64 keeps gradient checks tight; training code
#: is precision-insensitive at the scales used here.
DEFAULT_DTYPE = np.float64

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (evaluation passes)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def grad_enabled() -> bool:
    """Whether operations currently record the tape."""
    return _GRAD_ENABLED[-1]


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got a Tensor")
    return np.asarray(value, dtype=dtype or DEFAULT_DTYPE)


class Tensor:
    """An n-d array that participates in reverse-mode differentiation.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.
    requires_grad:
        Leaf tensors with ``requires_grad=True`` accumulate into ``.grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_op_name")
    __array_priority__ = 100  # make ndarray defer to Tensor in mixed ops

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[tuple["Tensor", Callable], ...] = ()
        self._op_name = "leaf"

    # -- construction -------------------------------------------------------
    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence[tuple["Tensor", Callable]],
        op_name: str,
    ) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        recorded = tuple((p, fn) for p, fn in parents if p.requires_grad)
        if grad_enabled() and recorded:
            out.requires_grad = True
            out._parents = recorded
            out._op_name = op_name
        else:
            out.requires_grad = False
            out._parents = ()
            out._op_name = op_name
        return out

    # -- basic properties ---------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op_name}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # -- backward -----------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Accumulate gradients of this tensor w.r.t. all tape leaves.

        ``grad`` defaults to ones (i.e. this must be a scalar unless you
        pass an explicit upstream gradient).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError(
                    f"backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} != tensor shape {self.shape}"
                )

        # Topological order (iterative DFS — graphs can be deep).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _fn in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if not node._parents:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad += node_grad
                continue
            for parent, fn in node._parents:
                contribution = fn(node_grad)
                existing = grads.get(id(parent))
                if existing is None:
                    grads[id(parent)] = contribution
                else:
                    existing += contribution

    # -- arithmetic ---------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data
        return Tensor._from_op(
            out_data,
            [
                (self, lambda g: unbroadcast(g, self.shape)),
                (other, lambda g: unbroadcast(g, other.shape)),
            ],
            "add",
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._from_op(-self.data, [(self, lambda g: -g)], "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data
        return Tensor._from_op(
            out_data,
            [
                (self, lambda g: unbroadcast(g * other.data, self.shape)),
                (other, lambda g: unbroadcast(g * self.data, other.shape)),
            ],
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data
        return Tensor._from_op(
            out_data,
            [
                (self, lambda g: unbroadcast(g / other.data, self.shape)),
                (
                    other,
                    lambda g: unbroadcast(
                        -g * self.data / (other.data**2), other.shape
                    ),
                ),
            ],
            "div",
        )

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        return Tensor._from_op(
            out_data,
            [(self, lambda g: g * exponent * self.data ** (exponent - 1))],
            "pow",
        )

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def grad_a(g):
            ga = g @ np.swapaxes(other.data, -1, -2)
            return unbroadcast(ga, self.shape)

        def grad_b(g):
            gb = np.swapaxes(self.data, -1, -2) @ g
            return unbroadcast(gb, other.shape)

        return Tensor._from_op(out_data, [(self, grad_a), (other, grad_b)], "matmul")

    # -- elementwise math ----------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor._from_op(out_data, [(self, lambda g: g * out_data)], "exp")

    def log(self) -> "Tensor":
        return Tensor._from_op(
            np.log(self.data), [(self, lambda g: g / self.data)], "log"
        )

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return Tensor._from_op(
            out_data, [(self, lambda g: g / (2.0 * out_data))], "sqrt"
        )

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return Tensor._from_op(
            out_data, [(self, lambda g: g * (1.0 - out_data**2))], "tanh"
        )

    def relu(self) -> "Tensor":
        # A float mask: multiplying by it is exact, and a bool operand makes
        # numpy cast it on every multiply (4x slower in the backward).
        mask = (self.data > 0).astype(self.data.dtype)
        return Tensor._from_op(
            self.data * mask, [(self, lambda g: g * mask)], "relu"
        )

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._from_op(
            out_data,
            [(self, lambda g: g * out_data * (1.0 - out_data))],
            "sigmoid",
        )

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return Tensor._from_op(
            np.abs(self.data), [(self, lambda g: g * sign)], "abs"
        )

    # -- reductions -----------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            if axis is None:
                return np.broadcast_to(g, self.shape).copy()
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_exp, self.shape).copy()

        return Tensor._from_op(out_data, [(self, grad_fn)], "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                return mask * g
            g_exp = g if keepdims else np.expand_dims(g, axis)
            out_exp = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (self.data == out_exp).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return mask * g_exp

        return Tensor._from_op(out_data, [(self, grad_fn)], "max")

    # -- shape manipulation ----------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        return Tensor._from_op(
            out_data, [(self, lambda g: g.reshape(self.shape))], "reshape"
        )

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)
        return Tensor._from_op(
            out_data, [(self, lambda g: g.transpose(inverse))], "transpose"
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def grad_fn(g):
            full = np.zeros_like(self.data)
            np.add.at(full, index, g)
            return full

        return Tensor._from_op(out_data, [(self, grad_fn)], "getitem")

    # -- comparisons (non-differentiable, return arrays) ----------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concatenate() needs at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    parents = []
    offset = 0
    for t in tensors:
        width = t.shape[axis]
        slicer = [slice(None)] * out_data.ndim
        slicer[axis] = slice(offset, offset + width)
        slicer = tuple(slicer)
        parents.append((t, lambda g, s=slicer: g[s]))
        offset += width
    return Tensor._from_op(out_data, parents, "concatenate")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)
    parents = []
    for i, t in enumerate(tensors):
        slicer = [slice(None)] * out_data.ndim
        slicer[axis] = i
        slicer = tuple(slicer)
        parents.append((t, lambda g, s=slicer: g[s]))
    return Tensor._from_op(out_data, parents, "stack")


__all__ = [
    "DEFAULT_DTYPE",
    "Tensor",
    "concatenate",
    "grad_enabled",
    "no_grad",
    "stack",
    "unbroadcast",
]
