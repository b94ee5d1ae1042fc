"""Reverse-mode autodiff on dense numpy tensors.

A Tape records every operation as it runs (define-by-run). Each node stores
its op kind, input node ids and forward value; backward() walks the records in
reverse and accumulates gradients with hand-written per-op rules, only along
paths from the requested tensors to the output. Training
uses float32 tapes; the gradient-check suite runs the same graphs in float64.

Shape conventions
-----------------
Images and feature maps are (N, C, H, W), C-contiguous. conv2d uses zero
padding k//2 per side, so stride 1 with an odd kernel preserves H and W, and
stride s gives H_out = (H + 2*(k//2) - k)//s + 1 (H/2 for even H, k=3, s=2).
transposed-conv2d with stride s, padding k//2 and implicit output padding s-1
maps H to exactly H*s; it takes odd kernels only. dense flattens all trailing
axes of its input to (N, K) before the matrix product. All three take a bias
per output channel. prelu takes one slope per channel of an (N, C, H, W)
input; mean-pool is 2x2. add and mul broadcast equal-rank operands along size-1
axes only; sum and mean reduce over a tuple of axes, or all axes for None.

Kernels
-------
Both convolutions run on zero-padded NHWC copies of their operands. Three
helpers do all of it: _correlate (conv2d forward), its adjoint _scatter_add
(conv2d's input gradient) and _weight_grad. transposed-conv2d is the adjoint
of a strided conv2d, so it reuses them with the roles swapped: its forward is
a scatter-add, its input gradient a correlation.

Each pass contracts c channels into o (_weight_grad: A input channels against
B output channels), and _form picks its loop from those two counts alone:
- offsets, when neither side is thin. Every middle layer runs this way.
  _correlate and _weight_grad run one GEMM per block of whole samples against
  the block's window matrix, (rows, k*k*c): a copy of the sliding-window view
  of the padded map, at most _WINDOW_BLOCK values unless one sample alone is
  larger. One product with K = k*k*c replaces k*k products with K = c that each
  re-read and re-accumulate the whole output, and the block stays in cache
  while its GEMM reads it. Unblocked, the window matrix of the whole batch is
  written out to memory and read back: at batch 32, 32 -> 32 channels, 16x16
  (one BLAS thread), the forward measured 7.3 ms as k*k GEMMs, 6.5 ms as one
  whole-batch GEMM, 5.6 ms in 1024-row blocks and 5.0 ms in 128 Ki blocks.
  _scatter_add at stride 1 is the correlation of its padded rows with the
  flipped, transposed taps, so it runs the same way. At stride 2 those rows
  would be dilated by zeros, 4x the GEMM work (the decoder's ds1 forward
  measured 8.7 -> 14.8 ms), so a strided scatter keeps one GEMM per kernel
  offset, each adding into that offset's strided block of the padded output.
- columns, when 4*c <= o (the RGB input of a conv2d): one GEMM per sample
  against its (k*k*c, ho*wo) column matrix, K = 27 for RGB, instead of k*k
  GEMMs with K = 3 that each move a whole feature map for almost no
  arithmetic. _weight_grad uses the same matrix. _scatter_add runs as the
  stride-1 correlation of its thin rows, dilated by the stride and padded,
  with the flipped, transposed taps.
- taps, when 4*o <= c (an RGB output, or the saliency gradient of an RGB
  input): one GEMM per sample gives every tap at every pixel, (k*k*o, H*W),
  and k*k shifted adds sum them into place. _weight_grad places its thin
  rows at each offset's block and runs one GEMM against all of x.
  _scatter_add could also take the correlation route here, but padding its
  wide rows is one more feature-map copy: at batch 64 it was slower and
  raised the peak memory of weight-map extraction by about 9 MB.
The blocked window matrix measured slower than both thin forms (conv0 forward
3.9 -> 6.2 ms, the decoder's ds2 input gradient 2.5 -> 3.7 ms): with K = k*k*c
small, copying the windows costs more than the products save.
The thin-side forms return NCHW memory behind an NHWC view, so the op's
_nchw copy after them costs nothing. Each form adds in its own order, so
float32 results differ between forms by rounding only.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested op."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf, or was fed a non-finite gradient."""


def _unbroadcast(grad, shape):
    """Sum `grad` down to the equal-rank `shape` along the axes broadcast from size 1."""
    axes = tuple(i for i, (s, n) in enumerate(zip(shape, grad.shape)) if s == 1 and n != 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _contig(a, dtype):
    # ascontiguousarray promotes 0-d to (1,); keep scalars 0-d
    a = np.asarray(a, dtype=dtype)
    return a if a.ndim == 0 else np.ascontiguousarray(a)


class Node:
    __slots__ = ("kind", "inputs", "value", "attrs")

    def __init__(self, kind, inputs, value, attrs):
        self.kind = kind
        self.inputs = inputs
        self.value = value
        self.attrs = attrs


class Tensor:
    """Handle to one node on a tape. Immutable once recorded."""

    __slots__ = ("tape", "nid")

    def __init__(self, tape, nid):
        self.tape = tape
        self.nid = nid

    @property
    def value(self):
        return self.tape.nodes[self.nid].value

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def __repr__(self):
        return f"Tensor(nid={self.nid}, shape={self.shape})"


# ---------------------------------------------------------------------------
# op kernels: forward(attrs, *input_arrays) -> array
#             backward(attrs, grad, input_arrays, out_array, need) -> per-input
#             grads; need[i] is False when input i's gradient is never read,
#             and a rule may return None for it instead of computing it
# ---------------------------------------------------------------------------


def _nhwc(a, ph=0, pw=0):
    """(N, C, H, W) -> contiguous (N, H + 2*ph, W + 2*pw, C), zero-padded."""
    n, c, h, w = a.shape
    out = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=a.dtype)
    out[:, ph:ph + h, pw:pw + w] = a.transpose(0, 2, 3, 1)
    return out


def _nchw(a):
    """(N, H, W, C) -> contiguous (N, C, H, W)."""
    return np.ascontiguousarray(a.transpose(0, 3, 1, 2))


def _taps(w):
    """Conv weight (B, A, kh, kw) -> (kh, kw, A, B): per offset, A channels to B."""
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0))


def _blocks(ho, wo, kh, kw, s):
    """Per kernel offset (i, j): the stride-s row and column slices of the (ho, wo) block it reads."""
    return [(i, j, np.s_[i:i + s * ho:s], np.s_[j:j + s * wo:s]) for i in range(kh) for j in range(kw)]


def _form(c, o):
    """The loop of a pass that contracts c channels into o: see Kernels above."""
    if 4 * c <= o:
        return "columns"
    if 4 * o <= c:
        return "taps"
    return "offsets"


# window-matrix values per block of samples in the offsets form: of budgets
# from 16 Ki to 2 Mi values, 128 Ki (512 KB of float32) measured fastest
_WINDOW_BLOCK = 128 * 1024


def _windows(xp, kh, kw, s):
    """Padded NHWC xp -> (N, ho, wo, kh, kw, A) view: the window each output pixel reads."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::s, ::s]
    return win.transpose(0, 1, 2, 4, 5, 3)


def _columns(xp, kh, kw, s):
    """Padded NHWC xp -> (N, kh*kw*A, ho*wo): per sample, the column of each output pixel's window."""
    win = _windows(xp, kh, kw, s).transpose(0, 3, 4, 5, 1, 2)
    return win.reshape(xp.shape[0], kh * kw * xp.shape[3], -1)


def _window_blocks(xp, kh, kw, s):
    """Per block of whole samples: its slice of the batch and its (rows, kh*kw*A) window matrix."""
    win = _windows(xp, kh, kw, s)
    n, ho, wo = win.shape[:3]
    k = kh * kw * xp.shape[3]
    step = max(1, _WINDOW_BLOCK // (ho * wo * k))
    for i in range(0, n, step):
        yield np.s_[i:i + step], win[i:i + step].reshape(-1, k)


def _correlate(xp, taps, s):
    """Stride-s correlation of padded NHWC xp with (kh, kw, A, B) taps -> NHWC, B channels."""
    kh, kw, a, b = taps.shape
    n, hp, wp, _ = xp.shape
    ho, wo = (hp - kh) // s + 1, (wp - kw) // s + 1
    form = _form(a, b)
    if form == "columns":
        return (taps.reshape(-1, b).T @ _columns(xp, kh, kw, s)).reshape(n, b, ho, wo).transpose(0, 2, 3, 1)
    if form == "taps":
        # every tap at every padded pixel, then one shifted add per offset
        taps_t = taps.transpose(0, 1, 3, 2).reshape(-1, a)
        y = (taps_t @ xp.reshape(n, -1, a).transpose(0, 2, 1)).reshape(n, kh, kw, b, hp, wp)
        out = np.zeros((n, b, ho, wo), dtype=xp.dtype)
        for i, j, r, c in _blocks(ho, wo, kh, kw, s):
            out += y[:, i, j, :, r, c]
        return out.transpose(0, 2, 3, 1)
    out = np.empty((n, ho, wo, b), dtype=xp.dtype)
    taps = taps.reshape(-1, b)
    for blk, cols in _window_blocks(xp, kh, kw, s):
        np.matmul(cols, taps, out=out[blk].reshape(-1, b))
    return out


def _scatter_add(rows, taps, s, h, w):
    """Adjoint of _correlate: NHWC rows (B channels) -> (N, h, w, A), padding cropped."""
    n, ho, wo, b = rows.shape
    kh, kw, a, _ = taps.shape
    ph, pw = kh // 2, kw // 2
    form = _form(b, a)
    if form == "columns" or form == "offsets" and s == 1:
        # a stride-1 correlation of the rows, dilated by s and padded, with the flipped transposed taps
        lh, lw = kh - 1 - ph, kw - 1 - pw
        gd = np.zeros((n, h + kh - 1, w + kw - 1, b), dtype=rows.dtype)
        gd[:, lh:lh + s * (ho - 1) + 1:s, lw:lw + s * (wo - 1) + 1:s] = rows
        return _correlate(gd, taps[::-1, ::-1].transpose(0, 1, 3, 2), 1)
    if form == "taps":
        y = (taps.reshape(-1, b) @ rows.reshape(n, -1, b).transpose(0, 2, 1)).reshape(n, kh, kw, a, ho, wo)
        buf = np.zeros((n, a, h + 2 * ph, w + 2 * pw), dtype=rows.dtype)
        for i, j, r, c in _blocks(ho, wo, kh, kw, s):
            buf[:, :, r, c] += y[:, i, j]
        return buf[:, :, ph:ph + h, pw:pw + w].transpose(0, 2, 3, 1)
    buf = np.zeros((n, h + 2 * ph, w + 2 * pw, a), dtype=rows.dtype)
    flat = rows.reshape(-1, b)
    for i, j, r, c in _blocks(ho, wo, kh, kw, s):
        buf[:, r, c] += (flat @ taps[i, j].T).reshape(n, ho, wo, a)
    return buf[:, ph:ph + h, pw:pw + w]


def _weight_grad(xp, rows, kh, kw, s):
    """Gradient of _correlate's taps for upstream NHWC rows, in (B, A, kh, kw) layout."""
    n, ho, wo, b = rows.shape
    _, hp, wp, a = xp.shape
    form = _form(a, b)
    if form == "columns":
        gw = (_columns(xp, kh, kw, s) @ rows.reshape(n, -1, b)).sum(axis=0).reshape(kh, kw, a, b)
    elif form == "taps":
        # the rows placed at each offset's block of padded pixels, against all of xp
        g = np.ascontiguousarray(rows.transpose(0, 3, 1, 2))
        gs = np.zeros((n, kh, kw, b, hp, wp), dtype=xp.dtype)
        for i, j, r, c in _blocks(ho, wo, kh, kw, s):
            gs[:, i, j, :, r, c] = g
        gw = (gs.reshape(n, kh * kw * b, -1) @ xp.reshape(n, -1, a)).sum(axis=0)
        gw = gw.reshape(kh, kw, b, a).transpose(0, 1, 3, 2)
    else:
        gw = sum(cols.T @ rows[blk].reshape(-1, b) for blk, cols in _window_blocks(xp, kh, kw, s))
        gw = gw.reshape(kh, kw, a, b)
    return np.ascontiguousarray(gw.transpose(3, 2, 0, 1))


def _check_conv(kind, x, w, cin_axis):
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"{kind} wants 4-d input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[cin_axis]:
        raise ShapeError(f"{kind} channel mismatch: input {x.shape} vs weight {w.shape}")


def _check_bias(kind, b, w, cout_axis):
    if b.shape != (w.shape[cout_axis],):
        raise ShapeError(f"{kind} wants one bias per output channel: bias {b.shape} vs weight {w.shape}")


def _conv2d(attrs, x, w, b):
    _check_conv("conv2d", x, w, 1)
    _check_bias("conv2d", b, w, 0)
    out = _correlate(_nhwc(x, w.shape[2] // 2, w.shape[3] // 2), _taps(w), attrs["stride"])
    out += b  # in place: `+ b` would allocate one more feature map per layer
    return _nchw(out)


def _conv2d_grad(attrs, g, inputs, out, need):
    x, w, _ = inputs
    s = attrs["stride"]
    kh, kw = w.shape[2], w.shape[3]
    g_rows = _nhwc(g)
    return [
        _nchw(_scatter_add(g_rows, _taps(w), s, x.shape[2], x.shape[3])) if need[0] else None,
        _weight_grad(_nhwc(x, kh // 2, kw // 2), g_rows, kh, kw, s) if need[1] else None,
        g.sum(axis=(0, 2, 3)) if need[2] else None,
    ]


def _tconv2d(attrs, x, w, b):
    # weight layout (Cin, Cout, kh, kw); the adjoint of the stride-s conv2d
    # that maps (N, Cout, H*s, W*s) to x's (N, Cin, H, W)
    _check_conv("transposed-conv2d", x, w, 0)
    _check_bias("transposed-conv2d", b, w, 1)
    if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
        raise ShapeError(f"transposed-conv2d needs an odd kernel, got weight {w.shape}")
    s = attrs["stride"]
    out = _scatter_add(_nhwc(x), _taps(w), s, x.shape[2] * s, x.shape[3] * s)
    out += b
    return _nchw(out)


def _tconv2d_grad(attrs, g, inputs, out, need):
    x, w, _ = inputs
    s = attrs["stride"]
    kh, kw = w.shape[2], w.shape[3]
    gp = _nhwc(g, kh // 2, kw // 2)
    return [
        _nchw(_correlate(gp, _taps(w), s)) if need[0] else None,
        _weight_grad(gp, _nhwc(x), kh, kw, s) if need[1] else None,
        g.sum(axis=(0, 2, 3)) if need[2] else None,
    ]


def _dense_fwd(attrs, x, w, b):
    x2 = x.reshape(x.shape[0], -1)
    if x2.shape[1] != w.shape[0]:
        raise ShapeError(f"dense mismatch: input {x.shape} flattens to {x2.shape} vs weight {w.shape}")
    _check_bias("dense", b, w, 1)
    out = x2 @ w
    out += b
    return out


def _dense_bwd(attrs, g, inputs, out, need):
    x, w, _ = inputs
    return [
        (g @ w.T).reshape(x.shape) if need[0] else None,
        x.reshape(x.shape[0], -1).T @ g if need[1] else None,
        g.sum(axis=0) if need[2] else None,
    ]


def _prelu_fwd(attrs, x, slope):
    if x.ndim != 4 or slope.shape != (x.shape[1],):
        raise ShapeError(f"prelu wants (N, C, H, W) input and one slope per channel, got {x.shape} and {slope.shape}")
    # equals np.where(x > 0, x, x * s) exactly; np.where is about 4x slower here
    return np.maximum(x, 0) + slope.reshape(1, -1, 1, 1) * np.minimum(x, 0)


def _prelu_bwd(attrs, g, inputs, out, need):
    x, slope = inputs
    s = slope.reshape(1, -1, 1, 1)
    # per-element factor 1 where x > 0 and s elsewhere, exact (1 + s*0, 0 + s*1)
    return [g * ((x > 0) + s * (x <= 0)), (g * np.minimum(x, 0)).sum(axis=(0, 2, 3))]


def _mean_pool_fwd(attrs, x):
    if x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError(f"2x2 mean-pool needs even H and W, got {x.shape}")
    out = x[:, :, ::2, ::2] + x[:, :, ::2, 1::2]
    out += x[:, :, 1::2, ::2]
    out += x[:, :, 1::2, 1::2]
    out *= 0.25
    return out


def _mean_pool_bwd(attrs, g, inputs, out, need):
    return [np.repeat(np.repeat(g / 4, 2, axis=2), 2, axis=3)]


def _ce_fwd(attrs, logits):
    labels = attrs["labels"]
    if logits.ndim != 2 or len(labels) != logits.shape[0]:
        raise ShapeError(f"cross-entropy wants (N,C) logits matching {len(labels)} labels, got {logits.shape}")
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    picked = logits[np.arange(logits.shape[0]), labels]
    return np.asarray((lse - picked).mean(), dtype=logits.dtype)


def _ce_bwd(attrs, g, inputs, out, need):
    logits = inputs[0]
    labels = attrs["labels"]
    p = _softmax(logits)
    p[np.arange(logits.shape[0]), labels] -= 1.0
    return [p * (g / logits.shape[0])]


def _concat_bwd(attrs, g, inputs, out, need):
    axis = attrs["axis"]
    sizes = [a.shape[axis] for a in inputs]
    return list(np.split(g, np.cumsum(sizes)[:-1], axis=axis))


def _reduce_fwd(attrs, x, mean):
    axis = attrs["axis"]
    keepdims = attrs["keepdims"]
    r = x.mean(axis=axis, keepdims=keepdims) if mean else x.sum(axis=axis, keepdims=keepdims)
    return np.asarray(r, dtype=x.dtype)


def _reduce_bwd(attrs, g, inputs, out, mean):
    x = inputs[0]
    axes = tuple(range(x.ndim)) if attrs["axis"] is None else tuple(a % x.ndim for a in attrs["axis"])
    if not attrs["keepdims"]:
        g = np.expand_dims(g, axes)
    gg = np.broadcast_to(g, x.shape)
    return [gg / int(np.prod([x.shape[a] for a in axes])) if mean else gg.copy()]


def _slice_fwd(attrs, x):
    axis, start, stop = attrs["axis"], attrs["start"], attrs["stop"]
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    return np.ascontiguousarray(x[tuple(idx)])


def _slice_bwd(attrs, g, inputs, out, need):
    x = inputs[0]
    gx = np.zeros_like(x)
    idx = [slice(None)] * x.ndim
    idx[attrs["axis"]] = slice(attrs["start"], attrs["stop"])
    gx[tuple(idx)] = g
    return [gx]


def _binary_shape_check(kind, a, b):
    if a.ndim != b.ndim or any(m != n and 1 not in (m, n) for m, n in zip(a.shape, b.shape)):
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not broadcast (equal rank, size-1 axes only)")


_OPS = {
    "add": (
        lambda at, a, b: (_binary_shape_check("add", a, b), a + b)[1],
        lambda at, g, ins, out, need: [_unbroadcast(g, ins[0].shape), _unbroadcast(g, ins[1].shape)],
    ),
    "mul": (
        lambda at, a, b: (_binary_shape_check("mul", a, b), a * b)[1],
        lambda at, g, ins, out, need: [
            _unbroadcast(g * ins[1], ins[0].shape),
            _unbroadcast(g * ins[0], ins[1].shape),
        ],
    ),
    "scalar-mul": (
        lambda at, a: a * at["c"],
        lambda at, g, ins, out, need: [g * at["c"]],
    ),
    "relu": (
        lambda at, a: np.maximum(a, 0),
        lambda at, g, ins, out, need: [g * (ins[0] > 0)],
    ),
    "prelu": (_prelu_fwd, _prelu_bwd),
    "sigmoid": (
        lambda at, a: _stable_sigmoid(a),
        lambda at, g, ins, out, need: [g * out * (1.0 - out)],
    ),
    "sqrt": (
        lambda at, a: np.sqrt(a),
        lambda at, g, ins, out, need: [g / (2.0 * out)],
    ),
    "reciprocal": (
        lambda at, a: 1.0 / a,
        lambda at, g, ins, out, need: [-g * out * out],
    ),
    "conv2d": (_conv2d, _conv2d_grad),
    "transposed-conv2d": (_tconv2d, _tconv2d_grad),
    "dense": (_dense_fwd, _dense_bwd),
    "mean-pool": (_mean_pool_fwd, _mean_pool_bwd),
    "concat": (
        lambda at, *arrs: np.concatenate(arrs, axis=at["axis"]),
        _concat_bwd,
    ),
    "sum": (
        lambda at, a: _reduce_fwd(at, a, mean=False),
        lambda at, g, ins, out, need: _reduce_bwd(at, g, ins, out, mean=False),
    ),
    "mean": (
        lambda at, a: _reduce_fwd(at, a, mean=True),
        lambda at, g, ins, out, need: _reduce_bwd(at, g, ins, out, mean=True),
    ),
    "cross-entropy-with-logits": (_ce_fwd, _ce_bwd),
    "reshape": (
        lambda at, a: a.reshape(at["shape"]),
        lambda at, g, ins, out, need: [g.reshape(ins[0].shape)],
    ),
    "slice": (_slice_fwd, _slice_bwd),
    # forward: hard threshold at 0.5; backward: straight-through identity
    "ste-threshold": (
        lambda at, a: (a > 0.5).astype(a.dtype),
        lambda at, g, ins, out, need: [g.copy()],
    ),
}

OP_KINDS = tuple(sorted(_OPS))


class Tape:
    """Ordered record of ops plus a registry of named parameters."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.nodes = []
        self.params = {}  # name -> node id

    # -- construction -------------------------------------------------------

    def leaf(self, value):
        """Record a constant/input tensor (gradient sink, no inputs)."""
        arr = _contig(value, self.dtype)
        self.nodes.append(Node("leaf", (), arr, None))
        return Tensor(self, len(self.nodes) - 1)

    def parameter(self, name, value):
        """Record a named parameter leaf; backward can be queried by name."""
        if name in self.params:
            raise ValueError(f"parameter {name!r} already on tape")
        t = self.leaf(value)
        self.params[name] = t.nid
        return t

    def apply(self, kind, inputs, **attrs):
        """Run one op and append it to the tape.

        `inputs` is a sequence of Tensors living on this tape. Raises
        ShapeError on incompatible operands and NonFiniteError if the op
        produces NaN/Inf.
        """
        if kind not in _OPS:
            raise ValueError(f"unknown op kind {kind!r}; valid: {OP_KINDS}")
        for t in inputs:
            if t.tape is not self:
                raise ValueError("input tensor belongs to a different tape")
        arrays = [self.nodes[t.nid].value for t in inputs]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _OPS[kind][0](attrs, *arrays)
        out = _contig(out, self.dtype)
        if not np.isfinite(out).all():
            raise NonFiniteError(f"op {kind!r} produced non-finite values")
        self.nodes.append(Node(kind, tuple(t.nid for t in inputs), out, attrs))
        return Tensor(self, len(self.nodes) - 1)

    # -- convenience wrappers -----------------------------------------------

    def add(self, a, b):
        return self.apply("add", (a, b))

    def mul(self, a, b):
        return self.apply("mul", (a, b))

    def scalar_mul(self, a, c):
        return self.apply("scalar-mul", (a,), c=float(c))

    def relu(self, a):
        return self.apply("relu", (a,))

    def prelu(self, a, slope):
        return self.apply("prelu", (a, slope))

    def sigmoid(self, a):
        return self.apply("sigmoid", (a,))

    def sqrt(self, a):
        return self.apply("sqrt", (a,))

    def reciprocal(self, a):
        return self.apply("reciprocal", (a,))

    def conv2d(self, x, w, b, stride):
        return self.apply("conv2d", (x, w, b), stride=int(stride))

    def tconv2d(self, x, w, b, stride):
        return self.apply("transposed-conv2d", (x, w, b), stride=int(stride))

    def dense(self, x, w, b):
        return self.apply("dense", (x, w, b))

    def mean_pool(self, x):
        return self.apply("mean-pool", (x,))

    def concat(self, tensors, axis):
        return self.apply("concat", tuple(tensors), axis=int(axis))

    def reduce_sum(self, x, axis=None, keepdims=False):
        return self.apply("sum", (x,), axis=axis, keepdims=keepdims)

    def reduce_mean(self, x, axis=None, keepdims=False):
        return self.apply("mean", (x,), axis=axis, keepdims=keepdims)

    def cross_entropy(self, logits, labels):
        labels = np.asarray(labels, dtype=np.int64)
        return self.apply("cross-entropy-with-logits", (logits,), labels=labels)

    def reshape(self, x, shape):
        return self.apply("reshape", (x,), shape=tuple(shape))

    def slice(self, x, axis, start, stop):
        return self.apply("slice", (x,), axis=int(axis), start=int(start), stop=int(stop))

    def ste_threshold(self, x):
        return self.apply("ste-threshold", (x,))

    # -- execution ----------------------------------------------------------

    def backward(self, output, seed=None, wrt=()):
        """Gradients of `output` w.r.t. each tensor in `wrt`.

        `seed` defaults to 1.0 for scalar outputs and must otherwise match the
        output shape. Gradients accumulate across all paths; tensors that do
        not feed `output` get zeros. A `wrt` tensor may be an intermediate
        node: it gets the gradient of `output` w.r.t. its value, summed over
        every path from it to `output`.

        The sweep is pruned: one forward pass over the nodes first marks each
        node that depends on a `wrt` tensor, and gradients are computed,
        stored and accumulated only for those. So an input-gradient query
        computes no conv or dense weight gradient, and a parameter query
        computes no input gradient for a layer whose input is a constant.
        """
        out_node = self.nodes[output.nid]
        if seed is None:
            if out_node.value.ndim != 0:
                raise ShapeError(f"non-scalar output {out_node.value.shape} needs an explicit seed gradient")
            seed = np.asarray(1.0, dtype=self.dtype)
        else:
            seed = np.asarray(seed, dtype=self.dtype)
            if seed.shape != out_node.value.shape:
                raise ShapeError(f"seed gradient shape {seed.shape} != output shape {out_node.value.shape}")
        for t in wrt:
            if t.tape is not self:
                raise ValueError("wrt tensor not on this tape")

        wanted = {t.nid for t in wrt}
        need = []  # need[nid]: node nid lies downstream of some wrt tensor
        for nid in range(output.nid + 1):
            need.append(nid in wanted or any(need[i] for i in self.nodes[nid].inputs))

        grads = {output.nid: seed.astype(self.dtype, copy=True)}
        kept = {}
        for nid in range(output.nid, -1, -1):
            g = grads.pop(nid, None)
            if g is None:
                continue
            if nid in wanted:
                kept[nid] = g  # complete: every consumer has a larger id
            node = self.nodes[nid]
            if node.kind == "leaf":
                continue
            if not np.isfinite(g).all():
                raise NonFiniteError(f"non-finite gradient flowing into op {node.kind!r}")
            flags = [need[i] for i in node.inputs]
            if not any(flags):
                continue
            arrays = [self.nodes[i].value for i in node.inputs]
            in_grads = _OPS[node.kind][1](node.attrs, g, arrays, node.value, flags)
            for iid, ig, flag in zip(node.inputs, in_grads, flags):
                if not flag:
                    continue
                if iid in grads:
                    grads[iid] = grads[iid] + ig
                else:
                    grads[iid] = ig.astype(self.dtype, copy=False)
        return [kept.get(t.nid, np.zeros_like(self.nodes[t.nid].value)) for t in wrt]

    def grad_by_name(self, output, seed=None, names=None):
        """backward() keyed by parameter name; `names` defaults to all."""
        if names is None:
            names = sorted(self.params)
        tensors = [Tensor(self, self.params[n]) for n in names]
        gs = self.backward(output, seed=seed, wrt=tensors)
        return dict(zip(names, gs))

