"""Minimal dense feed-forward kernel with reverse-mode gradients.

Small enough to audit: affine layers, tanh on every layer but the
last, which is linear; a cached forward pass, and a backward pass
returning the exact gradient of ``<output_grad, output>`` with respect
to every parameter, summed over a batch.  A network is its layer widths
and one flat parameter vector, which every layer is a view of, and
which round-trips losslessly.
"""

import numpy as np

from .errors import ContractViolation, NumericError


class DenseNet:
    """Stack of affine layers of widths ``dims`` (the input, each hidden layer, the output).

    ``weights[i]``, of shape (out, in), and ``biases[i]`` are views of ``params``,
    the flat ``vec`` given, in :meth:`param_vector` order; a copy gets its own vector.
    """

    def __init__(self, dims, vec):  # the layers are views of vec, which is not copied
        if np.shape(vec) != (param_count(dims),):
            raise ContractViolation(f"{np.size(vec)} parameters do not fill layer widths {dims}")
        self.dims, self.params, self.weights, self.biases, pos = tuple(dims), vec, [], [], 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            self.weights.append(vec[pos:pos + fan_in * fan_out].reshape(fan_out, fan_in))
            pos += fan_in * fan_out
            self.biases.append(vec[pos:pos + fan_out])
            pos += fan_out

    def __reduce__(self):  # a copy or pickle rebuilds the views over its own vector
        return DenseNet, (self.dims, self.params)

    @property
    def input_dim(self):
        return self.dims[0]

    @property
    def output_dim(self):
        return self.dims[-1]

    @property
    def n_params(self):
        return self.params.size

    def forward_cached(self, x):
        """Forward pass: every layer's output, the input first and the head output last."""
        z = np.asarray(x, dtype=float)
        if z.shape != (self.input_dim,):
            raise ContractViolation(
                f"input has shape {z.shape}, expected ({self.input_dim},)"
            )
        outputs = [z]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = w @ z + b
            if i < last:
                z = np.tanh(z)
            outputs.append(z)
        # tanh maps +/-inf to +/-1: a hidden layer is non-finite only as NaN, which reaches the head
        if not np.isfinite(z).all():
            bad = next(i for i, out in enumerate(outputs[1:]) if not np.isfinite(out).all())
            raise NumericError(f"non-finite value at layer {bad}")
        return outputs

    def backward(self, cache, output_grad):
        """Gradient of <output_grad, output> w.r.t. params, over a batch.

        ``output_grad`` is a (K, out) batch and ``cache`` the (K, width) layer
        outputs.  Returns the sum of the K parameter gradients, flat in
        :meth:`param_vector` order: one ``(out, K) @ (K, in)`` product per layer.
        """
        g = np.asarray(output_grad, dtype=float)
        if g.ndim != 2 or g.shape[1] != self.output_dim:
            raise ContractViolation(
                f"output_grad has shape {g.shape}, expected (K, {self.output_dim})"
            )
        flat = np.empty(self.n_params)
        grad = DenseNet(self.dims, flat)  # each layer's gradient, a view of flat
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            da = g if i == last else g * (1.0 - cache[i + 1] * cache[i + 1])
            np.matmul(da.T, cache[i], out=grad.weights[i])
            da.sum(axis=0, out=grad.biases[i])
            if i:
                g = da @ self.weights[i]
        return flat

    def param_vector(self):
        return self.params.copy()


def param_count(dims):
    """Length of the flat parameter vector of a network of layer widths ``dims``."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def make_dense(dims, rng):
    """Fresh network of layer widths ``dims``: weights uniform in
    +/-1/sqrt(fan_in), biases zero."""
    net = DenseNet(dims, np.zeros(param_count(dims)))
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[1])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return net
