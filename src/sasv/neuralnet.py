"""Dense network kernel: float64 layers with hand-written backward passes.

Training-mode forward passes record their activations on an explicit
GradientTape; backward walks the tape in reverse, and each layer writes its
parameter gradients into its gradient views and returns its input gradient.
The tape holds no gradients. A layer may be recorded at most once per tape,
because its backward overwrites its gradients instead of adding to them.
Eval-mode forward (tape=None) is pure and touches no state, so concurrent
scoring is safe.

A layer's parameters are views into one ParameterBuffer, and its gradients
views into the buffer's gradient vector of the same layout. A layer built on
its own holds a small buffer of its own; the integration model rebinds its
layers to one buffer for the whole net, so the optimizer updates one vector.
"""

from __future__ import annotations

import numpy as np

from .core import NumericError

LEAKY_SLOPE = 0.01
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


class ParameterBuffer:
    """Named float64 arrays stored as views into one contiguous vector.

    `data` holds every value and `grad` every gradient, in the same layout
    and in the order the arrays were given. `values[name]` and `grads[name]`
    are views of the name's slice, shaped like the array it was built from
    (a 0-d array stays 0-d). The gradient vector is made, zeroed, at first
    use and dropped by free_grad(), so a model that is only scored, or whose
    training has returned, holds none.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        self._slots: dict[str, tuple[int, int, tuple]] = {}
        start = 0
        for name, a in arrays.items():
            self._slots[name] = (start, start + a.size, a.shape)
            start += a.size
        self.data = np.empty(start)
        self.values = self._views(self.data)
        for name, a in arrays.items():
            self.values[name][...] = a
        self._grad = self._grads = None

    def _views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        return {name: vector[a:b].reshape(shape) for name, (a, b, shape) in self._slots.items()}

    def free_grad(self) -> None:
        self._grad = self._grads = None

    def _make_grad(self) -> None:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
            self._grads = self._views(self._grad)

    @property
    def grad(self) -> np.ndarray:
        self._make_grad()
        return self._grad

    @property
    def grads(self) -> dict[str, np.ndarray]:
        self._make_grad()
        return self._grads


class GradientTape:
    """Stack of (layer, cache) entries recorded by training-mode forwards.

    backward(upstream) consumes the stack in reverse order and returns the
    gradient with respect to the network input; each layer's backward has
    written its parameter gradients into that layer's gradient views.
    """

    def __init__(self):
        self._stack: list[tuple] = []

    def push(self, layer, cache) -> None:
        self._stack.append((layer, cache))

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if not self._stack:
            raise RuntimeError("backward() called with no recorded forward pass")
        grad = upstream
        for layer, cache in reversed(self._stack):
            grad = layer.backward(cache, grad)
        self._stack.clear()
        return grad


class _Layer:
    """Parameters as attributes that are views into a ParameterBuffer."""

    PARAMS: tuple[str, ...] = ()

    def _own(self, arrays: dict[str, np.ndarray]) -> None:
        self.bind(ParameterBuffer(arrays))

    def bind(self, buffer: ParameterBuffer, prefix: str = "") -> None:
        """Point each parameter and its gradient at `buffer`'s views named
        prefix + parameter name; the buffer already holds the values."""
        for pname in self.PARAMS:
            setattr(self, pname, buffer.values[prefix + pname])
        self._buffer, self._prefix = buffer, prefix

    def parameters(self) -> dict[str, np.ndarray]:
        return {pname: getattr(self, pname) for pname in self.PARAMS}

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """The gradient view of each parameter."""
        grads = self._buffer.grads
        return {pname: grads[self._prefix + pname] for pname in self.PARAMS}


class LinearLayer(_Layer):
    """y = x @ W^T + b with W of shape [out, in]."""

    PARAMS = ("weight", "bias")

    def __init__(self, weight, bias, name: str = "linear"):
        weight = np.array(weight, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64)
        if weight.ndim != 2 or bias.shape != (weight.shape[0],):
            raise ValueError("weight must be [out, in] and bias [out]")
        self.name = name
        self._own({"weight": weight, "bias": bias})

    @classmethod
    def init(cls, rng: np.random.Generator, fan_in: int, fan_out: int,
             name: str = "linear") -> "LinearLayer":
        # Xavier-uniform weights, zero biases
        return cls(xavier_uniform(rng, fan_in, fan_out), np.zeros(fan_out), name)

    def forward(self, x: np.ndarray, tape: GradientTape | None = None) -> np.ndarray:
        y = x @ self.weight.T
        y += self.bias
        if tape is not None:
            tape.push(self, x)
        return y

    def backward(self, x, gy):
        grads = self.grads
        np.matmul(gy.T, x, out=grads["weight"])
        grads["bias"][...] = gy.sum(axis=0)
        return gy @ self.weight


class LeakyReluLayer(_Layer):
    """max(x, LEAKY_SLOPE * x) elementwise; no parameters."""

    def __init__(self, name: str = "lrelu"):
        self.name = name
        self._own({})

    def forward(self, x: np.ndarray, tape: GradientTape | None = None) -> np.ndarray:
        # The bits of x * (1.0 if x >= 0 else LEAKY_SLOPE), the kink at zero
        # (-0.0 too) on the positive branch, without a per-element branch: a
        # product by 0.01 never exceeds its input in magnitude, so the larger
        # of x and 0.01 * x is x for x >= 0 and 0.01 * x below.
        y = LEAKY_SLOPE * x
        np.maximum(x, y, out=y)
        if tape is not None:
            tape.push(self, x)
        return y

    def backward(self, x, gy):
        return gy * np.maximum(x >= 0.0, LEAKY_SLOPE)  # factors exactly 1.0 or LEAKY_SLOPE


class BatchNormLayer(_Layer):
    """Batch normalization over the batch axis.

    Training mode normalizes with biased batch statistics (divisor N) and
    updates running stats as running <- (1-m)*running + m*batch with
    m = BN_MOMENTUM; both modes add BN_EPS to the variance. A batch variance
    that overflows (entries beyond about 1e154) is a NumericError.
    Eval mode normalizes with the running stats and mutates nothing.
    """

    PARAMS = ("gamma", "beta")

    def __init__(self, dim: int, name: str = "bn"):
        self._own({"gamma": np.ones(dim), "beta": np.zeros(dim)})
        self.running_mean = np.zeros(dim, dtype=np.float64)
        self.running_var = np.ones(dim, dtype=np.float64)
        self.name = name

    def forward(self, x: np.ndarray, tape: GradientTape | None = None) -> np.ndarray:
        if tape is None:
            inv_std = 1.0 / np.sqrt(self.running_var + BN_EPS)
            return self.gamma * (x - self.running_mean) * inv_std + self.beta
        n = x.shape[0]
        if n < 2:
            raise NumericError("batch norm needs at least 2 rows in training mode")
        mean = x.mean(axis=0)
        x_centered = x - mean
        with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
            var = (x_centered * x_centered).sum(axis=0) / n  # biased, as x.var(axis=0)
        if not np.all(np.isfinite(var)):
            raise NumericError("batch norm variance overflowed: the batch's inputs are "
                               "too large to square")
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = x_centered * inv_std
        y = self.gamma * x_hat + self.beta
        m = BN_MOMENTUM
        self.running_mean *= 1.0 - m
        self.running_mean += m * mean
        self.running_var *= 1.0 - m
        self.running_var += m * var
        tape.push(self, (x_hat, x_centered, inv_std))
        return y

    def backward(self, cache, gy):
        x_hat, x_centered, inv_std = cache
        n = x_hat.shape[0]
        grads = self.grads
        grads["gamma"][...] = (gy * x_hat).sum(axis=0)
        grads["beta"][...] = gy.sum(axis=0)
        dx_hat = gy * self.gamma
        # chain rule through the batch statistics, not just the affine part
        dvar = (dx_hat * x_centered).sum(axis=0) * -0.5 * inv_std**3
        dmean = -(dx_hat.sum(axis=0)) * inv_std + dvar * (-2.0 / n) * x_centered.sum(axis=0)
        gx = dx_hat * inv_std + dvar * (2.0 / n) * x_centered + dmean / n
        return gx


class CosineHead(_Layer):
    """Cosine of each row against a trained direction vector."""

    PARAMS = ("direction",)

    def __init__(self, direction, name: str = "head"):
        direction = np.array(direction, dtype=np.float64)
        if direction.ndim != 1:
            raise ValueError("direction must be 1-D")
        self.name = name
        self._own({"direction": direction})

    @classmethod
    def init(cls, rng: np.random.Generator, dim: int, name: str = "head") -> "CosineHead":
        limit = np.sqrt(6.0 / (dim + 1))
        return cls(rng.uniform(-limit, limit, size=dim), name)

    def forward(self, e: np.ndarray, tape: GradientTape | None = None) -> np.ndarray:
        w = self.direction
        # the 2-norms as np.linalg.norm computes them, without its wrapper
        norm_w = np.sqrt(w @ w)
        norms_e = np.sqrt((e * e).sum(axis=1))
        norms = norms_e * norm_w
        if not np.all((norms > 0.0) & (norms < np.inf)):  # a NaN fails too
            raise NumericError("cosine head hit a zero-norm or overflowing vector")
        scores = (e @ w) / norms
        if tape is not None:
            tape.push(self, (e, scores, norms_e, norm_w))
        return scores

    def backward(self, cache, gs):
        e, scores, norms_e, norm_w = cache
        w = self.direction
        ge = gs[:, None] * (w[None, :] / (norms_e[:, None] * norm_w)
                            - scores[:, None] * e / norms_e[:, None] ** 2)
        gw = (gs / norms_e) @ e / norm_w - float(gs @ scores) * w / norm_w**2
        self.grads["direction"][...] = gw
        return ge
