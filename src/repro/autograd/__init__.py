"""Tape-based reverse-mode automatic differentiation on NumPy.

A deliberately small but complete autodiff engine: enough to train the
convnets and the tiny transformer used in the accuracy experiments, with
vectorised NumPy kernels throughout (conv2d via im2col, attention via
batched matmul).

Example
-------
>>> from repro.autograd import Tensor
>>> import numpy as np
>>> x = Tensor(np.ones((2, 3)), requires_grad=True)
>>> y = (x * 3).sum()
>>> y.backward()
>>> x.grad
array([[3., 3., 3.],
       [3., 3., 3.]])
"""

from repro._lazy import lazy_exports

__all__ = ["Tensor", "functional", "grad_check", "no_grad"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".tensor": ("Tensor", "no_grad"),
        ".gradcheck": ("grad_check",),
    },
)
