"""One differential per registered capture op kind.

Every entry of ``repro.grad.capture._OPS`` is one builder that serves
serial and stacked programs alike, so each kind gets (at least) one row
below: a tiny module that exercises it, run eagerly, as a compiled
program with and without the arena planner, and as each slice of a
stacked program at ``K = 1`` and ``K = 3`` — compared on the loss and
every parameter gradient over two consecutive steps.  The case list must
cover every table key, so an op cannot be registered untested.
"""

import numpy as np
import pytest

from repro.grad import capture
from repro.grad import functional as F
from repro.grad import nn
from repro.grad import tensor as tensor_mod
from repro.grad.capture import stacked_matmul_is_exact
from repro.grad.nn.module import Parameter
from repro.grad.tensor import Tensor

pytestmark = [pytest.mark.capture, pytest.mark.stacked, pytest.mark.kernels]

BATCH, DIM, CLASSES = 4, 6, 3
VECTOR = (DIM,)
IMAGE = (2, 6, 6)
STEPS = 2
MAX_STACK = 3

#: bitwise when the host's batched kernels are slice-exact, else the
#: documented tolerance mode
EXACT = stacked_matmul_is_exact()


class Probe(nn.Module):
    """``body(x, *params)`` over freshly drawn parameters of ``shapes``."""

    def __init__(self, body, shapes, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.body = body
        for index, shape in enumerate(shapes):
            value = (0.5 * rng.standard_normal(shape)).astype(np.float32)
            setattr(self, f"p{index}", Parameter(value))

    def forward(self, x):
        return self.body(x, *self.parameters())


def mean_ce(logits, labels):
    return F.cross_entropy(logits, labels)


def positive(h):
    return h * h + 1.0


def centered(h, **sum_kwargs):
    return h - h.sum(**sum_kwargs) * 0.25


def conv_features(x, w, b, head, pool, plant=lambda h: h):
    h = pool(plant(F.conv2d(x, w, b, stride=1, padding=1)).relu())
    return h.reshape(BATCH, -1) @ head


#: spots of a conv output: 0 keeps the value, 1/2/3 plant NaN/-inf/±0.0
_SPOTS = np.random.default_rng(7).integers(0, 4, (BATCH, 3) + IMAGE[1:])
#: ``h * keep + planted``: ``h * 0.0 + -0.0`` is -0.0 where ``h < 0``
_KEEP = np.where(_SPOTS == 3, 0.0, 1.0).astype(np.float32)
_PLANTED = np.choose(_SPOTS, [0.0, np.nan, -np.inf, -0.0]).astype(np.float32)


def nonfinite(h):
    """``h`` with NaN, -inf and -0.0 planted where ReLU reads it."""
    return h * Tensor(_KEEP) + Tensor(_PLANTED)


class Case:
    def __init__(self, name, kinds, body, shapes, input_shape=VECTOR, loss=mean_ce):
        self.name = name
        self.kinds = set(kinds) | {"cross_entropy"}
        self.body = body
        self.shapes = shapes
        self.input_shape = input_shape
        self.loss = loss


W, B = (DIM, CLASSES), (CLASSES,)
CONV = ((3, 2, 3, 3), (3,))

CASES = [
    Case("add", {"matmul", "add"}, lambda x, w, b: x @ w + b, (W, B)),
    Case("sub", {"sub"}, lambda x, w, b: x @ w - b, (W, B)),
    Case("mul", {"mul"}, lambda x, w, b: (x @ w) * b, (W, B)),
    Case("div", {"div"}, lambda x, w, b: (x @ w) / positive(b), (W, B)),
    Case("neg", {"neg"}, lambda x, w: -(x @ w), (W,)),
    Case("exp", {"exp"}, lambda x, w: (x @ w * 0.1).exp(), (W,)),
    Case("log", {"log"}, lambda x, w: positive(x @ w).log(), (W,)),
    Case("sqrt", {"sqrt"}, lambda x, w: positive(x @ w).sqrt(), (W,)),
    Case("tanh", {"tanh"}, lambda x, w: (x @ w).tanh(), (W,)),
    Case("sigmoid", {"sigmoid"}, lambda x, w: (x @ w).sigmoid(), (W,)),
    Case("relu", {"relu"}, lambda x, w, b: (x @ w + b).relu(), (W, B)),
    Case("pow", {"pow"}, lambda x, w: (x @ w) ** 3, (W,)),
    Case(
        "sum-axis-keepdims",
        {"sum"},
        lambda x, w: centered(x @ w, axis=1, keepdims=True),
        (W,),
    ),
    Case(
        "sum-negative-axis",
        {"sum"},
        lambda x, w: centered(x @ w, axis=-1, keepdims=True),
        (W,),
    ),
    Case("sum-axis", {"sum"}, lambda x, w: centered(x @ w, axis=0), (W,)),
    Case(
        "sum-axes-tuple",
        {"sum"},
        lambda x, w: centered(x @ w, axis=(0, 1), keepdims=True),
        (W,),
    ),
    Case("sum-none", {"sum"}, lambda x, w: centered(x @ w), (W,)),
    Case(
        "sum-none-keepdims",
        {"sum"},
        lambda x, w: centered(x @ w, keepdims=True),
        (W,),
    ),
    Case(
        "reshape",
        {"reshape"},
        lambda x, w: x.reshape(BATCH, 2, 3).reshape(BATCH, DIM) @ w.reshape(W),
        ((2, 3, CLASSES),),
    ),
    Case(
        "transpose",
        {"transpose"},
        lambda x, w, v: x @ w.transpose(1, 0) + (x @ v.transpose(-1, -2)),
        ((CLASSES, DIM), (CLASSES, DIM)),
    ),
    Case(
        "conv2d-padded-strided",
        {"conv2d"},
        lambda x, w, b, head: (
            F.conv2d(x, w, b, stride=2, padding=1).reshape(BATCH, -1) @ head
        ),
        CONV + ((27, CLASSES),),
        IMAGE,
    ),
    Case(
        "conv2d-stack-no-bias",
        {"conv2d"},
        lambda x, w, b, w2, head: (
            F.conv2d(F.conv2d(x, w, b).relu(), w2).reshape(BATCH, -1) @ head
        ),
        CONV + ((2, 3, 3, 3), (8, CLASSES)),
        IMAGE,
    ),
    Case(
        "max_pool2d",
        {"max_pool2d"},
        lambda *args: conv_features(*args, pool=lambda h: F.max_pool2d(h, 2)),
        CONV + ((27, CLASSES),),
        IMAGE,
    ),
    Case(
        "max_pool2d-overlapping",
        {"max_pool2d"},
        lambda *args: conv_features(*args, pool=lambda h: F.max_pool2d(h, 3, 1)),
        CONV + ((48, CLASSES),),
        IMAGE,
    ),
    Case(
        "relu-max_pool2d-nonfinite",
        {"mul", "add", "relu", "max_pool2d"},
        lambda *args: conv_features(
            *args, pool=lambda h: F.max_pool2d(h, 2), plant=nonfinite
        ),
        CONV + ((27, CLASSES),),
        IMAGE,
    ),
    Case(
        "avg_pool2d",
        {"avg_pool2d"},
        lambda *args: conv_features(*args, pool=lambda h: F.avg_pool2d(h, 2)),
        CONV + ((27, CLASSES),),
        IMAGE,
    ),
    Case(
        "cross_entropy-sum",
        set(),
        lambda x, w, b: x @ w + b,
        (W, B),
        loss=lambda logits, y: F.cross_entropy(logits, y, reduction="sum"),
    ),
    Case(
        "cross_entropy-none",
        {"sum"},
        lambda x, w, b: x @ w + b,
        (W, B),
        loss=lambda logits, y: (
            F.cross_entropy(logits, y, reduction="none").sum() * 0.25
        ),
    ),
]


def test_cases_cover_every_registered_kind():
    covered = set().union(*(case.kinds for case in CASES))
    assert covered == set(capture._OPS)


def test_registering_without_planner_facts_is_a_type_error():
    with pytest.raises(TypeError):
        capture._op("ghost", bwd_reads=(), planned=False)
    with pytest.raises(ValueError):
        capture._op("add", may_alias=True, bwd_reads=(), planned=True)(None)
    assert "ghost" not in capture._OPS


def draw_inputs(case, seed=1):
    """``[step][client] -> (params, features, labels)``, all distinct."""
    rng = np.random.default_rng(seed)

    def one():
        params = [
            (0.5 * rng.standard_normal(shape)).astype(np.float32)
            for shape in case.shapes
        ]
        features = rng.standard_normal((BATCH,) + case.input_shape)
        labels = rng.integers(0, CLASSES, size=BATCH).astype(np.int64)
        return params, features.astype(np.float32), labels

    return [[one() for _ in range(MAX_STACK)] for _ in range(STEPS)]


def load_params(model, values):
    for param, value in zip(model.parameters(), values):
        param.data = value.copy()
        param.grad = None


def trace(case, model, features, labels):
    tape = capture.Tape()
    x = Tensor(features)
    previous = tensor_mod._set_tape(tape)
    try:
        loss = case.loss(model(x), labels)
    finally:
        tensor_mod._set_tape(previous)
    assert tape.failed is None, tape.failed
    return tape, x, loss


def eager_step(case, model, params, features, labels):
    load_params(model, params)
    loss = case.loss(model(Tensor(features)), labels)
    loss.backward()
    return np.float32(loss.data), [p.grad.copy() for p in model.parameters()]


def assert_step_equal(got, want, exact, where):
    got_loss, got_grads = got
    want_loss, want_grads = want
    if exact:
        assert got_loss == want_loss, where
    else:
        np.testing.assert_allclose(got_loss, want_loss, rtol=1e-5, err_msg=where)
    for index, (g, w) in enumerate(zip(got_grads, want_grads)):
        message = f"{where} param {index}"
        assert g.shape == w.shape and g.dtype == w.dtype, message
        if exact:
            np.testing.assert_array_equal(g, w, err_msg=message)
        else:
            np.testing.assert_allclose(g, w, rtol=1e-4, atol=1e-6, err_msg=message)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_eager_compiled_and_stacked_agree(case):
    model = Probe(case.body, case.shapes)
    model.train()
    inputs = draw_inputs(case)
    _, features0, labels0 = inputs[0][0]
    tape, _, _ = trace(case, model, features0, labels0)
    recorded = {entry.kind for kind, entry in tape.entries if kind == "op"}
    assert case.kinds <= recorded, "case does not exercise the kinds it claims"

    reference = [
        [eager_step(case, model, *client) for client in step] for step in inputs
    ]

    for optimize in (True, False):
        tape, x, loss = trace(case, model, features0, labels0)
        program = capture._Compiler(
            tape, x, loss, labels0, optimize=optimize
        ).compile(with_backward=True)
        # Client-major, so each client's two steps replay back to back.
        for k in range(MAX_STACK):
            for step in range(STEPS):
                params, features, labels = inputs[step][k]
                load_params(model, params)
                got_loss = np.float32(program.replay_step(features, labels))
                got = got_loss, [p.grad.copy() for p in model.parameters()]
                assert_step_equal(
                    got, reference[step][k], True,
                    f"compiled optimize={optimize} step {step} client {k}",
                )

    for stack in (1, MAX_STACK):
        for optimize in (True, False):
            tape, x, loss = trace(case, model, features0, labels0)
            program = capture._Compiler(
                tape, x, loss, labels0,
                optimize=optimize, stack=stack, params=model.parameters(),
            ).compile(with_backward=True)
            for step in range(STEPS):
                for k in range(stack):
                    params, features, labels = inputs[step][k]
                    for index, value in enumerate(params):
                        program.param_stack(index)[k] = value
                    program.features[k] = features
                    program.labels[k] = labels
                losses = program.step()
                grads = program.grads()
                assert losses.shape == (stack,)
                for k in range(stack):
                    got = np.float32(losses[k]), [grad[k] for grad in grads]
                    assert_step_equal(
                        got, reference[step][k], EXACT,
                        f"stacked K={stack} optimize={optimize} "
                        f"step {step} client {k}",
                    )
