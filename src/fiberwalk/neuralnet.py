"""Minimal dense feed-forward kernel with reverse-mode gradients.

Small enough to audit: affine layers, tanh on every layer but the
last, which is linear; a cached forward pass, and a backward pass
returning the exact gradient of ``<output_grad, output>`` with respect
to every parameter and to the input, summed over a batch.  A network
is its layer widths and one flat parameter vector, which round-trips losslessly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError


@dataclass
class DenseNet:
    """Stack of affine layers; ``weights[i]`` has shape (out, in)."""

    weights: list
    biases: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ContractViolation("layer lists must have equal length")
        for i in range(1, len(self.weights)):
            if self.weights[i].shape[1] != self.weights[i - 1].shape[0]:
                raise ContractViolation(f"layer {i} does not chain with layer {i - 1}")

    @property
    def input_dim(self):
        return self.weights[0].shape[1]

    @property
    def output_dim(self):
        return self.weights[-1].shape[0]

    @property
    def dims(self):
        """Layer widths: the input, each hidden layer, the output."""
        return (self.input_dim, *(w.shape[0] for w in self.weights))

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def forward_cached(self, x):
        """Forward pass; the cache is every layer's output, the input first."""
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
            if not np.all(np.isfinite(z)):
                raise NumericError(f"non-finite value at layer {i}")
            outputs.append(z)
        return z, outputs

    def backward(self, cache, output_grad):
        """Gradient of <output_grad, output> w.r.t. params and input.

        Returns ``(param_grad, input_grad)`` with ``param_grad`` flat
        in the same order as :meth:`param_vector`.  A (K, out) batch over
        (K, width) layer outputs sums its K parameter gradients, one
        ``(out, K) @ (K, in)`` product per layer, and returns (K, in)
        input gradients; an (out,) gradient is the batch of one.
        """
        g = np.atleast_2d(np.asarray(output_grad, dtype=float))
        if np.ndim(output_grad) not in (1, 2) or g.shape[-1] != self.output_dim:
            raise ContractViolation(
                f"output_grad has shape {np.shape(output_grad)}, expected ([K,] {self.output_dim})"
            )
        outputs = [np.atleast_2d(z) for z in cache]
        flat = np.empty(self.n_params)
        grad = dense_from_vector(self.dims, flat)  # each layer's gradient, a view of flat
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            da = g if i == last else g * (1.0 - outputs[i + 1] * outputs[i + 1])
            np.matmul(da.T, outputs[i], out=grad.weights[i])
            da.sum(axis=0, out=grad.biases[i])
            g = da @ self.weights[i]
        return flat, g[0] if np.ndim(output_grad) == 1 else g

    def param_vector(self):
        return np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)]
        )

    def set_param_vector(self, vec):
        vec = np.array(vec, dtype=float)  # a copy: the network owns its parameters
        if vec.shape != (self.n_params,):
            raise ContractViolation(
                f"parameter vector has length {vec.size}, expected {self.n_params}"
            )
        fresh = dense_from_vector(self.dims, vec)
        self.weights[:], self.biases[:] = fresh.weights, fresh.biases


def dense_from_vector(dims, vec):
    """Network of layer widths ``dims`` whose layers are views of the flat
    ``vec``, in :meth:`DenseNet.param_vector` order."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(vec[pos:pos + fan_in * fan_out].reshape(fan_out, fan_in))
        pos += fan_in * fan_out
        biases.append(vec[pos:pos + fan_out])
        pos += fan_out
    return DenseNet(weights=weights, biases=biases)


def make_dense(dims, rng):
    """Fresh network of layer widths ``dims``: weights uniform in
    +/-1/sqrt(fan_in), biases zero."""
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNet(weights=weights, biases=biases)


def project_to_ball(vec, radius):
    """Euclidean projection onto the origin-centered ball."""
    norm = float(np.linalg.norm(vec))
    if norm <= radius or norm == 0.0:
        return vec
    return vec * (radius / norm)
