"""Sentence encoder: embeddings, Bi-LSTM, word-level attention.

Shapes follow the model config: a sentence of n tokens gives n input rows
of width V = d_w + d_p * M, the Bi-LSTM emits n x 2B hidden states, and
attention rescales each row by its softmax weight, keeping the
per-position sequence for the capsule layer. Each layer takes the rows of
N sentences packed one after another; the Bi-LSTM and attention also
require `lengths`, the rows of each. Nothing is padded or masked. Each
layer is one tape node with a hand-written backward. The Bi-LSTM runs
the numpy kernel `_lstm` once per direction: one loop over the steps that
advances every sentence still running together, longest first, so a step
is one product with `Wh` for all of them. `_bptt` builds the backward of
a run (one reverse sweep, then one product per weight), whether the run
is fresh or is the part of an earlier pass's run that `sentence_runs`
cuts out. The step product is taken in column blocks of `Wh`, visited in
the reverse order of the step before: at B = 300 `Wh` is 2.88 MB, more
than a 2 MB L2, and each step then starts on the blocks the last one left
there. A step activates its four gate blocks with one in-place tanh,
using sigmoid(z) = 1/2 tanh(z/2) + 1/2 for the input, forget and output
blocks. Word attention scores each row as h_t (A r), one mat-vec, and
normalises each sentence's scores on its own with `softmax`, the numpy
kernel over axis 0.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractViolation, ShapeError, Tensor, recording


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def embed(word_ids: np.ndarray, position_ids: np.ndarray,
          word_emb: Tensor, pos_embs: list[Tensor]) -> Tensor:
    """Build the n x V input matrix of the n packed tokens of N sentences.

    Row t is token t's word embedding concatenated with its M
    position-bucket embeddings. One tape node, whose backward scatter-adds
    each column block of the gradient into its table's rows, once per read,
    in place: each call then adds its n rows, not a table-sized array.
    """
    tables = [word_emb, *pos_embs]
    word_ids = np.asarray(word_ids, dtype=np.int64)
    position_ids = np.asarray(position_ids, dtype=np.int64)
    if word_ids.ndim != 1 or position_ids.shape != (len(word_ids), len(pos_embs)) \
            or any(len(t.shape) != 2 for t in tables):
        raise ShapeError(
            f"embed shapes do not conform: word_ids {word_ids.shape}, "
            f"position_ids {position_ids.shape}, word_emb {word_emb.shape}, "
            f"pos_embs {[t.shape for t in pos_embs]}")
    ids = [word_ids, *position_ids.T]
    names = ["the word table",
             *(f"position slot {m}" for m in range(len(pos_embs)))]
    for name, table, rows in zip(names, tables, ids):
        if np.any(rows < 0) or np.any(rows >= table.shape[0]):
            raise ContractViolation(f"row index out of range for {name}, "
                                    f"which has {table.shape[0]} rows")
    edges = np.cumsum([t.shape[1] for t in tables])[:-1]

    def bw(g):
        for table, rows, part in zip(tables, ids, np.split(g, edges, axis=1)):
            if table.requires_grad:
                if table.grad is None:
                    table.grad = np.zeros_like(table.data)
                np.add.at(table.grad, rows, part)
    return Tensor._from_op(
        np.concatenate([t.data[rows] for t, rows in zip(tables, ids)], axis=1),
        tables, bw)


# per gate block (input, forget, cell, output): the scale before and after
# the one tanh of `_activate_gates`, and the shift after it
_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])[:, None]
_GATE_SHIFT = np.array([0.5, 0.5, 0.0, 0.5])[:, None]


def _activate_gates(z: np.ndarray) -> np.ndarray:
    """Activate n x 4 x B gate pre-activations (input, forget, cell,
    output) in place with one tanh and return them: sigmoid(z) =
    1/2 tanh(z/2) + 1/2 on the input, forget and output blocks, tanh(z) on
    the cell block. tanh saturates at +-1, so nothing overflows."""
    z *= _GATE_SCALE
    np.tanh(z, out=z)
    z *= _GATE_SCALE
    z += _GATE_SHIFT
    return z


def sentence_lengths(lengths, rows: int, node: str) -> np.ndarray:
    """`lengths`, the rows of each sentence in `rows` packed rows, as an
    array. Raises `ShapeError` naming `node` unless they are integers of
    at least 1 that add up to `rows`."""
    out = np.asarray(lengths)
    if (out.ndim != 1 or not len(out) or out.dtype.kind not in "iu"
            or out.min() < 1 or out.sum() != rows):
        raise ShapeError(f"{node} lengths {out.tolist()} do "
                         f"not split {rows} rows into sentences of at least "
                         "one row")
    return out


def sentence_bounds(lengths: np.ndarray) -> list[tuple[int, int]]:
    """(first row, end row) of each sentence in the packed rows."""
    ends = np.cumsum(lengths).tolist()
    return list(zip([0] + ends[:-1], ends))


def _schedule(lengths: np.ndarray, reverse: bool):
    """The order one LSTM direction visits the packed rows of N sentences.

    Step s advances every sentence longer than s; sorted longest first,
    those are a prefix of the sentences. A forward direction reads token
    s of each, a reversed one the s-th token from its own end. Returns
    the packed row read at each position of the step-major order, the
    (first position, sentences) of each step, and the position that holds
    each position's previous state (len(rows) at step 0: a zero row).
    """
    order = np.argsort(-lengths, kind="stable")
    by_length = lengths[order]
    first_row = (np.cumsum(lengths) - lengths)[order]
    step, k = np.nonzero(np.arange(by_length[0])[:, None] < by_length)
    counts = np.bincount(step)
    starts = np.cumsum(counts) - counts
    token = by_length[k] - 1 - step if reverse else step
    prev = np.where(step > 0, starts[step - 1] + k, len(step))
    return first_row[k] + token, list(zip(starts.tolist(), counts.tolist())), prev


# columns of `Wh` per block of `_lstm`'s step product, 480 KB at B = 300.
# Measured at B = 300 on one OpenBLAS 0.3.31 thread (Xeon, 2 MB L2 a core),
# in us per product over 118-step loops, one product -> 200-column blocks
# in alternating order: 118 -> 110 at 1 row, 228 -> 177 at 2, 286 -> 171 at
# 4, 308 -> 216 at 8. Widths of 120, 160, 200 and 240 columns gave results
# bit-equal to the one product for 1-64 rows; 100, 150, 250 and 300 did not.
_WH_BLOCK = 200


def _lstm(X: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray,
          schedule):
    """One LSTM direction over the packed rows of X in the order of a
    `_schedule`: its step-major run (gates, cells, states), one row per
    step and sentence, the cells and states with a last, zero row, the
    start.

    The 4B gate columns are ordered input, forget, cell, output, and each
    sentence's state starts at zero. The input projection runs once over
    every row. Each step then multiplies the states of all sentences still
    running by `Wh` at once, into one buffer, one block of `_WH_BLOCK`
    columns at a time: the blocks are contiguous copies made once per call
    (never kept past it, since the optimizer updates `Wh` in place), and
    each step visits them in the reverse order of the step before, so it
    starts on the blocks the last step left in L2. `_activate_gates`
    activates all four gate blocks in place with one tanh between a scale
    and a shift: sigmoid(z) = 1/2 tanh(z/2) + 1/2 on the input, forget and
    output blocks (scale 1/2, shift 1/2), tanh(z) on the cell block (scale
    1, shift 0). The cells and states are written straight into the rows
    they keep.
    """
    rows, steps, _ = schedule
    N, T, B = steps[0][1], len(rows), Wh.shape[0]     # N: sentences
    # every array below holds one row per step and sentence, in step order;
    # each step turns its rows of the hoisted input projection into gates
    gates = X[rows] @ Wx
    gates += b
    hs, cs = np.zeros((T + 1, B)), np.zeros((T + 1, B))     # row T: the start
    recurrent, ig = np.empty((N, 4 * B)), np.empty((N, B))
    c = np.zeros((N, B))
    blocks = [(slice(lo, lo + _WH_BLOCK),
               np.ascontiguousarray(Wh[:, lo:lo + _WH_BLOCK]))
              for lo in range(0, 4 * B, _WH_BLOCK)]
    for at, n in steps:
        z = gates[at:at + n]
        if at:              # step 0 has no product: the start state is zero
            blocks.reverse()    # start on the blocks the last step ended on
            for cols, block in blocks:
                np.matmul(h[:n], block, out=recurrent[:n, cols])
            z += recurrent[:n]
        i, f, g, o = _activate_gates(z.reshape(n, 4, B)).transpose(1, 0, 2)
        np.multiply(f, c[:n], out=cs[at:at + n])
        c = cs[at:at + n]
        c += np.multiply(i, g, out=ig[:n])
        h = np.tanh(c, out=hs[at:at + n])
        h *= o
    return gates.reshape(T, 4, B), cs, hs


def _bptt(X: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, schedule, run):
    """The backward of a step-major `run` of `_lstm` over the steps of
    `schedule`, taking the states' gradient dH, in row order, to (dX, dWx,
    dWh, db): one reverse BPTT sweep fills dZ, the gradient of the gate
    pre-activations, then dX, dWx and dWh take one product each and db one
    sum."""
    rows, steps, prev = schedule
    gates, cs, hs = run
    N, T, B = steps[0][1], len(rows), Wh.shape[0]     # N: sentences

    def backward(dH):
        dH = dH[rows]
        i, f, g, o = gates.transpose(1, 0, 2)
        tanh_c = np.tanh(cs[:T])
        slope = gates * (1.0 - gates)           # sigmoid'(z) = a (1 - a)
        slope[:, 2] = 1.0 - g * g               # tanh'(z) = 1 - a^2
        # dZ[s] = [dc g, dc c_prev, dc i, dh tanh(c)] * slope[s]
        by_dc = np.stack([g, cs[prev], i], axis=1) * slope[:, :3]
        by_dh = tanh_c * slope[:, 3]
        dc_by_dh = o * (1.0 - tanh_c * tanh_c)
        dZ = np.empty((T, 4, B))
        # a sentence's rows stay zero until its last step is reached
        dh_next, dc_next = np.zeros((N, B)), np.zeros((N, B))
        for at, n in reversed(steps):
            dh = dH[at:at + n] + dh_next[:n]
            dc = dh * dc_by_dh[at:at + n] + dc_next[:n]
            np.multiply(dc[:, None], by_dc[at:at + n], out=dZ[at:at + n, :3])
            np.multiply(dh, by_dh[at:at + n], out=dZ[at:at + n, 3])
            dc_next[:n] = dc * f[at:at + n]
            dh_next[:n] = dZ[at:at + n].reshape(n, 4 * B) @ Wh.T
        dZ = dZ.reshape(T, 4 * B)
        dWh = hs[prev].T @ dZ
        dZ = dZ[np.argsort(rows)]               # step order -> row order
        return dZ @ Wx.T, X.T @ dZ, dWh, dZ.sum(axis=0)
    return backward


def sentence_runs(runs, lengths, k: int) -> list:
    """Sentence k's part of each step-major run of a pass over sentences
    of `lengths`, as a pass over it alone holds it: step s < n_k is at
    starts[s] + its rank, longest first, and the zero start row stays last."""
    lengths = np.asarray(lengths)
    steps = _schedule(lengths, False)[1][:lengths[k]]
    rank = np.argsort(np.argsort(-lengths, kind="stable"))[k]
    at = np.array([start for start, _ in steps]) + rank
    with_start = np.append(at, lengths.sum())
    return [(gates[at], cs[with_start], hs[with_start])
            for gates, cs, hs in runs]


def bilstm(X: Tensor, fwd: tuple[Tensor, Tensor, Tensor],
           bwd: tuple[Tensor, Tensor, Tensor], lengths, runs=None) -> Tensor:
    """Hidden sequence, one 2B row per row of X: forward states beside
    backward states, each sentence of `lengths` run on its own.

    One tape node over X and the six weights, (Wx, Wh, b) per direction,
    both of unit size B. Each direction runs `_lstm` over its `_schedule`
    and, on the tape only, has `_bptt` build the backward of that run; the
    backward gives each direction its B columns of the gradient and adds
    both dX terms into X once. Off the tape, an empty list as `runs`
    receives the two directions' runs, and otherwise each run is freed
    before the next direction runs. A pair of runs over these rows, as
    `sentence_runs` cuts them, is adopted in place of `_lstm`'s, and no
    LSTM runs.
    """
    weights = (*fwd, *bwd)
    V = X.shape[1] if len(X.shape) == 2 else -1
    B = fwd[1].shape[0] if len(fwd[1].shape) == 2 else -1
    if [W.shape for W in weights] != 2 * [(V, 4 * B), (B, 4 * B), (4 * B,)]:
        raise ShapeError(
            "bilstm shapes do not conform: X {}, forward Wx {}, Wh {}, b {}, "
            "backward Wx {}, Wh {}, b {}".format(X.shape,
                                                 *(W.shape for W in weights)))
    lengths = sentence_lengths(lengths, X.shape[0], "bilstm")
    on_tape = recording((X, *weights))
    hand_over = runs == [] and not on_tape      # a pass that keeps its runs
    states, backwards = [], []
    for (Wx, Wh, b), reverse, run in zip((fwd, bwd), (False, True),
                                         runs or (None, None)):
        schedule = _schedule(lengths, reverse)
        if run is None:
            run = _lstm(X.data, Wx.data, Wh.data, b.data, schedule)
            if hand_over:
                runs.append(run)
        states.append(run[2][np.argsort(schedule[0])])
        if on_tape:         # a node off the tape needs no backward
            backwards.append(_bptt(X.data, Wx.data, Wh.data, schedule, run))
        del run             # off the tape, one direction's run at a time

    def bw(g):
        (dX_fwd, *d_fwd), (dX_bwd, *d_bwd) = (
            backward(part) for backward, part in zip(backwards,
                                                     (g[:, :B], g[:, B:])))
        X._accumulate(dX_fwd + dX_bwd)
        for W, dW in zip(weights, (*d_fwd, *d_bwd)):
            W._accumulate(dW)
    return Tensor._from_op(np.concatenate(states, axis=1),
                           (X, *weights), bw)


def softmax(x: np.ndarray):
    """Softmax of an array along axis 0, shifted by its max before exp, and
    the function taking its output gradient to x's."""
    e = np.exp(x - x.max(axis=0, keepdims=True))
    p = e / e.sum(axis=0, keepdims=True)
    return p, lambda g: p * (g - (g * p).sum(axis=0, keepdims=True))


def word_attention(H: Tensor, A: Tensor, r: Tensor,
                   lengths) -> tuple[Tensor, Tensor]:
    """Scale each hidden row by its bilinear-score softmax weight.

    Scores are h_t (A r), one mat-vec, normalised over the positions of
    each sentence of `lengths`. The weighted rows are one tape node; the
    weights alpha come back as a constant.
    """
    if len(H.shape) != 2 or len(A.shape) != 2 or A.shape[0] != H.shape[1] \
            or r.shape != A.shape[1:]:
        raise ShapeError(f"word_attention shapes do not conform: H {H.shape}, "
                         f"A {A.shape}, r {r.shape}")
    bounds = sentence_bounds(sentence_lengths(lengths, H.shape[0],
                                              "word_attention"))
    Ar = A.data @ r.data
    scores = H.data @ Ar
    parts = [softmax(scores[lo:hi]) for lo, hi in bounds]
    alpha = np.concatenate([p for p, _ in parts])

    def bw(g):
        g_alpha = (g * H.data).sum(axis=1)
        g_score = np.concatenate([alpha_backward(g_alpha[lo:hi]) for
                                  (_, alpha_backward), (lo, hi)
                                  in zip(parts, bounds)])
        h_score = H.data.T @ g_score
        H._accumulate(alpha[:, None] * g + np.outer(g_score, Ar))
        A._accumulate(np.outer(h_score, r.data))
        r._accumulate(A.data.T @ h_score)
    return Tensor._from_op(alpha[:, None] * H.data, (H, A, r), bw), Tensor(alpha)
