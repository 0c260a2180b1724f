"""Optimization utilities: AdamW with decoupled weight decay, global
gradient-norm clipping, a linear warmup/decay schedule, and the flat
buffers that let AdamW update many tensors in a few whole-array passes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm.
    Returns the pre-clip norm, summed in float64 without float64 copies."""
    total = 0.0
    for g in grads.values():
        flat = g.reshape(-1)
        total += float(np.einsum("i,i->", flat, flat, dtype=np.float64))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def linear_schedule(step: int, total_steps: int, warmup_ratio: float) -> float:
    """Learning-rate factor in [0, 1]: linear ramp over the warmup fraction,
    then linear decay to zero at total_steps.  ``step`` is 1-based."""
    warmup = int(warmup_ratio * total_steps)
    if warmup > 0 and step <= warmup:
        return step / warmup
    if total_steps <= warmup:
        return 1.0
    return max(0.0, (total_steps - step) / (total_steps - warmup))


def _decays(name: str) -> bool:
    # Decoupled weight decay applies to weight matrices and embedding tables,
    # not to biases or layernorm parameters.
    leaf = name.rsplit(".", 1)[-1]
    return leaf.startswith("w") or leaf.endswith("emb")


def flat_buffers(*tensor_dicts: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Move every tensor of the dicts into contiguous 1-D buffers, one per
    dtype and weight-decay class, and rebind each dict entry to its view.

    A buffer is named ``<dtype>.w`` when its tensors decay and ``<dtype>.b``
    when they do not, so ``_decays`` classifies a buffer as it classifies
    every tensor in it.  Within a buffer, tensors follow the dicts in
    argument order and each dict's names in sorted order, so two calls on
    dicts that mirror each other key for key (the parameters and their
    gradients) give buffers that line up element for element, whatever
    order the keys were inserted in.
    """
    groups: dict[str, list[tuple[dict, str]]] = {}
    for tensors in tensor_dicts:
        for name in sorted(tensors):
            key = f"{tensors[name].dtype}.{'w' if _decays(name) else 'b'}"
            groups.setdefault(key, []).append((tensors, name))
    buffers = {}
    for key, members in groups.items():
        arrays = [tensors[name] for tensors, name in members]
        buf = np.concatenate([a.ravel() for a in arrays])
        at = 0
        for (tensors, name), a in zip(members, arrays):
            tensors[name] = buf[at:at + a.size].reshape(a.shape)
            at += a.size
        buffers[key] = buf
    return buffers


@dataclass
class AdamW:
    lr: float
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    # Two scratch arrays per tensor, reused every step.
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr_factor: float = 1.0) -> None:
        """One update, in place.  ``lr_factor`` is the schedule multiplier.

        Every intermediate goes to a scratch array with ``out=``, so a step
        allocates nothing after the first; the operations and their order
        are those of ``m += (1 - b1) (g - m)``, ``v += (1 - b2) (g^2 - v)``,
        ``p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p)``, so each
        element rounds as that formula does."""
        self.step_count += 1
        t = self.step_count
        lr = self.lr * lr_factor
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
                self.scratch[name] = (np.empty_like(p), np.empty_like(p))
            m, v = self.m[name], self.v[name]
            u, s = self.scratch[name]
            np.subtract(g, m, out=u)
            u *= 1.0 - self.beta1
            m += u
            np.multiply(g, g, out=u)
            u -= v
            u *= 1.0 - self.beta2
            v += u
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, bc1, out=u)
            u /= s
            if self.weight_decay and _decays(name):
                np.multiply(p, self.weight_decay, out=s)
                u += s
            u *= lr
            p -= u
