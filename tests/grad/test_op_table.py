"""One differential per registered op kind.

Every entry of ``repro.grad.ops.OPS`` is one op object that eager
autograd and serial and stacked programs all run, so each kind gets (at
least) one row below: a tiny module that exercises it, run eagerly, as a
compiled program, and as each slice of a stacked program at ``K = 1`` and ``K = 3`` — compared on the loss
and every parameter gradient over two consecutive steps; and each kind's
kernels are counted on all three paths, so none of them can run a copy.
The case list must cover every table key, so an op cannot be registered
untested, and the registered models must reach every key, so none stays
registered unused.
"""

from collections import Counter

import numpy as np
import pytest

from repro.data.dataset import DatasetInfo
from repro.grad import capture
from repro.grad import functional as F
from repro.grad import nn, ops
from repro.grad import tensor as tensor_mod
from repro.grad.capture import stacked_matmul_is_exact
from repro.grad.nn.module import Parameter
from repro.grad.tensor import Tensor
from repro.models import MODEL_NAMES, build_model

pytestmark = [pytest.mark.capture, pytest.mark.stacked, pytest.mark.kernels]

BATCH, DIM, CLASSES = 4, 6, 3
VECTOR = (DIM,)
IMAGE = (2, 6, 6)
STEPS = 2
MAX_STACK = 3

#: bitwise when the host's batched kernels are slice-exact, else within
#: float rounding
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
    return F.linear(h.reshape(BATCH, -1), head)


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


W, B = (CLASSES, DIM), (CLASSES,)
CONV = ((3, 2, 3, 3), (3,))

CASES = [
    Case("add", {"linear", "add"}, lambda x, w, b: F.linear(x, w) + b, (W, B)),
    Case("sub", {"sub"}, lambda x, w, b: F.linear(x, w) - b, (W, B)),
    Case("mul", {"mul"}, lambda x, w, b: F.linear(x, w) * b, (W, B)),
    Case("div", {"div"}, lambda x, w, b: F.linear(x, w) / positive(b), (W, B)),
    Case("relu", {"relu"}, lambda x, w, b: (F.linear(x, w) + b).relu(), (W, B)),
    Case("pow", {"pow"}, lambda x, w: F.linear(x, w) ** 3, (W,)),
    Case(
        "sum-axis-keepdims",
        {"sum"},
        lambda x, w: centered(F.linear(x, w), axis=1, keepdims=True),
        (W,),
    ),
    Case(
        "sum-negative-axis",
        {"sum"},
        lambda x, w: centered(F.linear(x, w), axis=-1, keepdims=True),
        (W,),
    ),
    Case("sum-axis", {"sum"}, lambda x, w: centered(F.linear(x, w), axis=0), (W,)),
    Case(
        "sum-axes-tuple",
        {"sum"},
        lambda x, w: centered(F.linear(x, w), axis=(0, 1), keepdims=True),
        (W,),
    ),
    Case("sum-none", {"sum"}, lambda x, w: centered(F.linear(x, w)), (W,)),
    Case(
        "sum-none-keepdims",
        {"sum"},
        lambda x, w: centered(F.linear(x, w), keepdims=True),
        (W,),
    ),
    Case(
        "reshape",
        {"reshape"},
        lambda x, w: F.linear(x.reshape(BATCH, 2, 3).reshape(BATCH, DIM), w.reshape(W)),
        ((CLASSES, 2, 3),),
    ),
    Case(
        "linear",
        {"linear"},
        lambda x, w, b: F.linear(x, w, b),
        ((CLASSES, DIM), B),
    ),
    Case(
        "linear-no-bias-hidden",
        {"linear", "relu"},
        lambda x, w, v: F.linear(F.linear(x, w).relu(), v),
        ((4, DIM), (CLASSES, 4)),
    ),
    Case(
        "linear-3d-input",
        {"linear", "sum"},
        lambda x, w, b: F.linear(x, w, b).sum(axis=1),
        ((CLASSES, 3), B),
        (2, 3),
    ),
    Case(
        "conv2d-padded-strided",
        {"conv2d"},
        lambda x, w, b, head: F.linear(
            F.conv2d(x, w, b, stride=2, padding=1).reshape(BATCH, -1), head
        ),
        CONV + ((CLASSES, 27),),
        IMAGE,
    ),
    Case(
        "conv2d-stack-no-bias",
        {"conv2d"},
        lambda x, w, b, w2, head: F.linear(
            F.conv2d(F.conv2d(x, w, b).relu(), w2).reshape(BATCH, -1), head
        ),
        CONV + ((2, 3, 3, 3), (CLASSES, 8)),
        IMAGE,
    ),
    Case(
        "max_pool2d",
        {"max_pool2d"},
        lambda *args: conv_features(*args, pool=lambda h: F.max_pool2d(h, 2)),
        CONV + ((CLASSES, 27),),
        IMAGE,
    ),
    Case(
        "max_pool2d-overlapping",
        {"max_pool2d"},
        lambda *args: conv_features(*args, pool=lambda h: F.max_pool2d(h, 3, 1)),
        CONV + ((CLASSES, 48),),
        IMAGE,
    ),
    Case(
        "relu-max_pool2d-nonfinite",
        {"mul", "add", "relu", "max_pool2d"},
        lambda *args: conv_features(
            *args, pool=lambda h: F.max_pool2d(h, 2), plant=nonfinite
        ),
        CONV + ((CLASSES, 27),),
        IMAGE,
    ),
    Case(
        "cross_entropy-sum",
        set(),
        lambda x, w, b: F.linear(x, w) + b,
        (W, B),
        loss=lambda logits, y: F.cross_entropy(logits, y, reduction="sum"),
    ),
    Case(
        "cross_entropy-none",
        {"sum"},
        lambda x, w, b: F.linear(x, w) + b,
        (W, B),
        loss=lambda logits, y: (
            F.cross_entropy(logits, y, reduction="none").sum() * 0.25
        ),
    ),
]


def test_cases_cover_every_registered_kind():
    covered = set().union(*(case.kinds for case in CASES))
    assert covered == set(ops.OPS)


#: the smallest input each registered model builds for
TABULAR_MODELS = {"mlp", "logistic"}
SMALLEST_IMAGE = (3, 8, 8)
#: the models that take a ``norm`` option
NORM_MODELS = {"resnet8", "resnet20"}


def model_variants():
    """``(name, kwargs)`` for every model, under each norm it offers."""
    for name in MODEL_NAMES:
        norms = ("batch", "group") if name in NORM_MODELS else (None,)
        for norm in norms:
            yield name, {} if norm is None else {"norm": norm}


def test_every_registered_kind_is_reached_by_a_model():
    """A registered kind no model emits is dead weight in both halves of
    the engine; a model op without a kind would fail its tape."""
    reached = set()
    for name, kwargs in model_variants():
        shape = VECTOR if name in TABULAR_MODELS else SMALLEST_IMAGE
        info = DatasetInfo(
            name="probe", modality="tabular" if shape == VECTOR else "image",
            num_classes=CLASSES, input_shape=shape, num_train=BATCH, num_test=BATCH,
        )
        model = build_model(name, info, seed=0, **kwargs)
        rng = np.random.default_rng(0)
        features = rng.standard_normal((BATCH,) + shape).astype(np.float32)
        labels = rng.integers(0, CLASSES, size=BATCH).astype(np.int64)
        for training in (True, False):
            model.train(training)
            tape = capture.Tape()
            previous = tensor_mod._set_tape(tape)
            try:
                F.cross_entropy(model(Tensor(features)), labels)
            finally:
                tensor_mod._set_tape(previous)
            assert tape.failed is None, (name, kwargs, training, tape.failed)
            reached |= {rec.kind for kind, rec in tape.entries if kind == "op"}
    assert reached == set(ops.OPS)


def test_registering_a_kind_twice_is_a_value_error():
    add = ops.OPS["add"]
    with pytest.raises(ValueError):
        ops._op("add")(ops.Op)
    assert ops.OPS["add"] is add


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

    tape, x, loss = trace(case, model, features0, labels0)
    program = capture._Compiler(tape, x, loss, labels0).compile(with_backward=True)
    # Client-major, so each client's two steps replay back to back.
    for k in range(MAX_STACK):
        for step in range(STEPS):
            params, features, labels = inputs[step][k]
            load_params(model, params)
            got_loss = np.float32(program.replay_step(features, labels))
            got = got_loss, [p.grad.copy() for p in model.parameters()]
            assert_step_equal(
                got, reference[step][k], True, f"compiled step {step} client {k}"
            )

    for stack in (1, MAX_STACK):
        tape, x, loss = trace(case, model, features0, labels0)
        program = capture._Compiler(
            tape, x, loss, labels0, stack=stack, params=model.parameters()
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
                    f"stacked K={stack} step {step} client {k}",
                )


@pytest.mark.parametrize("kind", sorted(ops.OPS))
def test_every_path_runs_the_one_op_object(kind, monkeypatch):
    """Eager, compiled and stacked (``K = 3``) steps of the kind's first
    case all run the table's object for ``kind``: its forward and backward
    kernels are the only definition of the op."""
    case = next(case for case in CASES if kind in case.kinds)
    op, hits, path = ops.OPS[kind], Counter(), ["trace"]
    for name in ("forward", "backward"):

        def counted(*args, kernel=getattr(op, name), name=name):
            hits[path[0], name] += 1
            return kernel(*args)

        monkeypatch.setattr(op, name, counted)
    model = Probe(case.body, case.shapes)
    model.train()
    inputs = draw_inputs(case)[0]
    params, features, labels = inputs[0]

    path[0] = "eager"
    eager_step(case, model, params, features, labels)

    path[0] = "trace"
    tape, x, loss = trace(case, model, features, labels)
    program = capture._Compiler(tape, x, loss, labels).compile(with_backward=True)
    path[0] = "compiled"
    program.replay_step(features, labels)

    path[0] = "trace"
    tape, x, loss = trace(case, model, features, labels)
    program = capture._Compiler(
        tape, x, loss, labels, stack=MAX_STACK, params=model.parameters()
    ).compile(with_backward=True)
    for k, (params, features, labels) in enumerate(inputs):
        for index, value in enumerate(params):
            program.param_stack(index)[k] = value
        program.features[k] = features
        program.labels[k] = labels
    path[0] = "stacked"
    program.step()

    for where in ("eager", "compiled", "stacked"):
        for name in ("forward", "backward"):
            assert hits[where, name] > 0, (where, name)
