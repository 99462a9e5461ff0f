"""Minimal dense feed-forward kernel with reverse-mode gradients.

Small enough to audit: affine layers with tanh/identity
activations, a cached forward pass, and a backward pass returning the
exact gradient of ``<output_grad, forward(x)>`` with respect to every
parameter and to the input.  Parameters round-trip losslessly through
a flat vector and through the text format (shortest-repr decimals).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError, ValidationError

ACTIVATIONS = ("tanh", "identity")


def _apply_activation(name, pre):
    if name == "tanh":
        return np.tanh(pre)
    if name == "identity":
        return pre
    raise ContractViolation(f"unknown activation {name!r}")


def _activation_slope(name, pre, post):
    if name == "tanh":
        return 1.0 - post * post
    if name == "identity":
        return np.ones_like(pre)
    raise ContractViolation(f"unknown activation {name!r}")


@dataclass
class DenseNet:
    """Stack of affine layers; ``weights[i]`` has shape (out, in)."""

    weights: list
    biases: list
    activations: list

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ContractViolation("layer lists must have equal length")
        for i, act in enumerate(self.activations):
            if act not in ACTIVATIONS:
                raise ContractViolation(f"layer {i}: unknown activation {act!r}")
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
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def layout(self):
        return tuple(
            (w.shape[1], w.shape[0], act)
            for w, act in zip(self.weights, self.activations)
        )

    def forward(self, x):
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        """Forward pass keeping per-layer values for the backward pass."""
        z = np.asarray(x, dtype=float)
        if z.shape != (self.input_dim,):
            raise ContractViolation(
                f"input has shape {z.shape}, expected ({self.input_dim},)"
            )
        pres, posts = [], [z]
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            pre = w @ z + b
            z = _apply_activation(act, pre)
            if not np.all(np.isfinite(z)):
                raise NumericError(f"non-finite value at layer {i}")
            pres.append(pre)
            posts.append(z)
        return z, (pres, posts)

    def backward(self, cache, output_grad):
        """Gradient of <output_grad, output> w.r.t. params and input.

        Returns ``(param_grad, input_grad)`` with ``param_grad`` flat
        in the same order as :meth:`param_vector`.
        """
        pres, posts = cache
        g = np.asarray(output_grad, dtype=float)
        if g.shape != (self.output_dim,):
            raise ContractViolation(
                f"output_grad has shape {g.shape}, expected ({self.output_dim},)"
            )
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            da = g * _activation_slope(self.activations[i], pres[i], posts[i + 1])
            grads_w[i] = np.outer(da, posts[i])
            grads_b[i] = da
            g = self.weights[i].T @ da
        flat = np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(grads_w, grads_b)]
        )
        return flat, g

    def param_vector(self):
        return np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)]
        )

    def set_param_vector(self, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_params,):
            raise ContractViolation(
                f"parameter vector has length {vec.size}, expected {self.n_params}"
            )
        pos = 0
        for i, w in enumerate(self.weights):
            size = w.size
            self.weights[i] = vec[pos:pos + size].reshape(w.shape).copy()
            pos += size
            size = self.biases[i].size
            self.biases[i] = vec[pos:pos + size].copy()
            pos += size


def make_dense(dims, activations, rng):
    """Fresh network: weights uniform in +/-1/sqrt(fan_in), biases zero."""
    if len(dims) != len(activations) + 1:
        raise ContractViolation("need one activation per layer")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNet(weights=weights, biases=biases, activations=list(activations))


def project_to_ball(vec, radius):
    """Euclidean projection onto the origin-centered ball."""
    norm = float(np.linalg.norm(vec))
    if norm <= radius or norm == 0.0:
        return vec
    return vec * (radius / norm)


# ------------------------------------------------------------------
# Text serialization (version 1)
# ------------------------------------------------------------------

def serialize_dense(net):
    """Portable text form; decimal values chosen to round-trip exactly."""
    lines = ["fiberwalk-densenet v1", f"layers={len(net.weights)}"]
    for in_dim, out_dim, act in net.layout():
        lines.append(f"layer in={in_dim} out={out_dim} act={act}")
    vec = net.param_vector()
    lines.append(f"params={vec.size}")
    lines.extend(map(repr, vec.tolist()))
    return "\n".join(lines) + "\n"


def line_field(lines, i, key, cast=int):
    """``cast(value)`` of ``lines[i]``, which must read ``key=value``."""
    name, _, value = lines[i].partition("=") if i < len(lines) else ("", "", "")
    try:
        if name == key:
            return cast(value)
    except ValueError:
        pass
    raise ValidationError(f"line {i + 1}: expected {key}=...")


def line_floats(lines, start, count):
    """The numbers on the ``count`` lines from ``lines[start]`` on."""
    if count < 0 or start + count > len(lines):
        raise ValidationError("parameter block shorter than its header promises")
    values = []
    for i in range(start, start + count):
        try:
            values.append(float(lines[i]))
        except ValueError:
            raise ValidationError(f"line {i + 1}: expected a number") from None
    return values


def parse_dense(lines, pos):
    """The dense-network block starting at ``lines[pos]``; returns ``(net, end)``."""
    if lines[pos:pos + 1] != ["fiberwalk-densenet v1"]:
        raise ValidationError(f"line {pos + 1}: not a v1 dense-network block")
    n_layers = line_field(lines, pos + 1, "layers")
    dims, acts = [], []
    for i in range(pos + 2, pos + 2 + n_layers):
        try:
            parts = dict(p.split("=") for p in lines[i].split()[1:])
            if not dims:
                dims.append(int(parts["in"]))
            dims.append(int(parts["out"]))
            acts.append(parts["act"])
        except (IndexError, KeyError, ValueError):
            raise ValidationError(f"line {i + 1}: expected layer in=... out=... act=...") from None
    count = line_field(lines, pos + 2 + n_layers, "params")
    values = line_floats(lines, pos + 3 + n_layers, count)
    net = make_dense(dims, acts, np.random.default_rng(0))
    net.set_param_vector(np.array(values))
    return net, pos + 3 + n_layers + count
