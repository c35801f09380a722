"""The compiled tapes give the bits of the tree evaluation they replaced.

``GOLDEN`` holds, per expression and size, a digest of the value, the first
partials and the second partials from ``FunctorExpr.partials``, and, per
model and size, a digest of the hex floats of the likelihood pass (value,
gradient, S^T S and exact Hessian), the same at every worker count.  They were recorded with the
tree evaluation that the tapes replaced; like ``tests/test_golden.py`` they
pin numpy's exp and log kernels (numpy 2.4.6, x86-64 with AVX-512), and a
host whose kernels round differently needs them re-recorded.
"""

import hashlib

import numpy as np
import pytest

import hepkit as hk
from hepkit.fitting import _likelihood_pass
from hepkit.parallel import CHUNK

SIZES = (1, CHUNK - 1, 73_805)
WORKERS = (1, 2, 8)


def _expressions():
    """name -> (expression, arity, second order): every node type, a
    parameter shared between two nodes, a closure and compositions."""
    mean, s1, s2 = hk.Parameter("mean", 4.2), hk.Parameter("s1", 1.3), hk.Parameter("s2", 2.4)
    tau = hk.Parameter("tau", 2.6)
    gauss = hk.shape_gaussian(mean, s1)
    expo = hk.shape_exponential(tau)
    k = hk.Parameter("k", 0.7)
    closure = hk.wrap_closure(lambda x, p: 1.0 + p["k"].value * np.sin(x[0]), [k])
    inner = hk.compose(hk.shape_exponential(tau), [hk.coordinate(1, 2)])
    g2 = hk.shape_gaussian(hk.Parameter("m2", 0.6), hk.Parameter("s3", 0.3))
    product = hk.wrap_closure(lambda x, p: p["a"].value * x[0] * np.sqrt(x[1]),
                              [hk.Parameter("a", 1.5)], arity=2)
    p = hk.Parameter("p", 1.4)
    return {
        "gauss": (gauss, 1, True),
        "exp": (expo, 1, True),
        "coordinate": (hk.identity(), 1, True),
        "+": (gauss + expo, 1, True),
        "-": (gauss - expo, 1, True),
        "*": (gauss * expo, 1, True),
        "/": (gauss / expo, 1, True),
        "shared": (gauss * hk.shape_gaussian(mean, s2) / (hk.identity() + expo), 1, True),
        "mean_is_sigma": (hk.shape_gaussian(p, p), 1, True),
        "closure": (closure * gauss + expo, 1, False),
        "composition": (hk.compose(hk.shape_gaussian(mean, s2), [expo]) + gauss, 1, False),
        "chained": (hk.compose(g2, [inner]) * hk.compose(product, [hk.compose(g2, [inner]), inner]),
                    2, False),
    }


def _points(n: int, arity: int) -> tuple:
    rng = np.random.default_rng(17)
    return tuple(rng.uniform(0.5, 9.5, n) for _ in range(arity))


def _by_name(expr, out) -> tuple:
    """``partials``' output keyed by parameter names: (value, {name: first},
    {(name, name): second}), the pair sorted."""
    names = {id(p): p.name for p in expr.leaf_params()}
    first = {names[k]: v for k, v in out[1].items()}
    second = {tuple(sorted((names[a], names[b]))): v for (a, b), v in out[2].items()} if len(out) > 2 else {}
    return out[0], first, second


def expression_digest(name: str, n: int) -> str:
    """sha256 of the value, then each first partial, then each second
    partial, in parameter-name order."""
    expr, arity, second = _expressions()[name]
    value, first, pairs = _by_name(expr, expr.partials(_points(n, arity), second=second))
    h = hashlib.sha256(np.asarray(value, dtype=float).tobytes())
    for key in sorted(first):
        h.update(key.encode() + np.asarray(first[key], dtype=float).tobytes())
    for key in sorted(pairs):
        h.update(",".join(key).encode() + np.asarray(pairs[key], dtype=float).tobytes())
    return h.hexdigest()


def _models():
    region = hk.BoundedRegion(((0.0, 10.0),))
    mean, s1, tau = hk.Parameter("mean", 4.6), hk.Parameter("s1", 0.8), hk.Parameter("tau", 3.1)
    gauss = hk.shape_gaussian(mean, s1)
    expo = hk.shape_exponential(tau)
    # tree: a shared mean in a product, a closure and a composition, each
    # normalized numerically (so their Hessian rows are differenced: NaN)
    s2 = hk.Parameter("s2", 2.2)
    k = hk.Parameter("k", 0.4)
    tree = hk.shape_gaussian(mean, s1) * hk.shape_gaussian(mean, s2)
    bump = hk.wrap_closure(lambda x, p: 1.0 + p["k"].value * np.cos(x[0]), [k])
    chain = hk.compose(hk.shape_gaussian(hk.Parameter("m3", 6.0), hk.Parameter("s3", 1.7)),
                       [hk.identity() + hk.shape_exponential(tau)])
    return {
        "gauss+exp": hk.add_pdfs(
            [hk.Parameter("n1", 0.4), hk.Parameter("n2", 0.6)],
            [hk.make_pdf(gauss, hk.gaussian_norm(gauss), region),
             hk.make_pdf(expo, hk.exponential_norm(expo), region)]),
        "tree": hk.add_pdfs(
            [hk.Parameter("n1", 0.3), hk.Parameter("n2", 0.3), hk.Parameter("n3", 0.4)],
            [hk.make_pdf(tree, None, region),
             hk.make_pdf(bump * expo, None, region),
             hk.make_pdf(chain, None, region)]),
    }


def pass_digest(name: str, n: int, workers: int) -> str:
    """sha256 of the hex floats of the value, gradient and S^T S of the
    first-order pass, then value, gradient and Hessian of the exact pass;
    the yields scale with n so that the extended terms stay in proportion."""
    model = _models()[name]
    for y in model.yields():
        y.set(y.value * n)
    data = hk.ColumnStore.from_columns(hk.ColumnSchema.real64("x0"), list(_points(n, 1)))
    free = model.param_set().free()
    out = []
    for kw in ({"outer": True}, {"second": True}):
        value, grad, hess = _likelihood_pass(model, data, ["x0"], workers, free, **kw)
        out += [value.hex(), *(float(g).hex() for g in grad), *(float(h).hex() for h in hess.ravel())]
    return hashlib.sha256(",".join(out).encode()).hexdigest()


GOLDEN = {
    "expr": {
        "gauss": {
            "1": "347ad47a2badc840a9dbb4fc2ed213f6304d9a69c9e5eab6c2eed85aaabd0858",
            "4095": "9027a1fbf600200b897ed67dadbe28601aa7ca965c4d856ca68e3355beb722b1",
            "73805": "0dadc3a043f48a682187f07a867b2261e42ca6bfef870d7c9849b1155d41fef5",
        },
        "exp": {
            "1": "75542c77387d5062dd0766c7237de8fd9d9c064a7d8a0d35f730e30f583c5b5e",
            "4095": "f732c887388bb0d2e80498fe81d04a79ba30d4c74b69d98cd28d902673f67aeb",
            "73805": "d5b678c06e60136e1730088cc30dc8a84e950e569959c434d746eec2fca4452d",
        },
        "coordinate": {
            "1": "a58eb226e3049a69f20ea1d4ae23a6281d65bc28ac4d7ac31274643527b167ce",
            "4095": "86fbe4cbd0e23b5a8e19db7da8686f62f1b60b3c37b470aba6aae202aa87c2f3",
            "73805": "d333fb52624ea165700e35746d02f38c2dd87f11872acf5e4a6f741a1d47dfc9",
        },
        "+": {
            "1": "0f6e4daa781ae0779b4d7d6b3b7d777f8b21e5308fc96732f68148789fbdceb1",
            "4095": "e2801607458c05a21c01c4933987f717d82c349e1e41d2b8a842a67695263470",
            "73805": "c4c8ed58b44fbdbbda6d49581e9b21836cd7b10292c505f83f1deeefa147babe",
        },
        "-": {
            "1": "71470aca95a707cd3cf54f851eb598d1fc7eacb48b161248536298098f7f9350",
            "4095": "5e3fecaef3cc8578150b494a5f61c6acb9bc27a2315f454cf65bd2a829b9e0ab",
            "73805": "334ef00c01a64024b9a60a50927d7715f3d8ed57ca58ef10252641abb26850d5",
        },
        "*": {
            "1": "c7ee44eaa0233dd89bf003109e800c887b0ba69f0d36f2d3f00bbde4637986e3",
            "4095": "83f0517949202407606aad2d4e48917a564ad707526558dc325bc9bca0eb0a0e",
            "73805": "9ffc4e1308a8911f86b0fa7c578b9f67c30d9f1cd7a3e1f4e510c278c2aa792e",
        },
        "/": {
            "1": "40e22244c1c8174cce515ac3e9c7cabe33db169b279449183bed7b5e2cbb2872",
            "4095": "c1822b298742081fda2770d6e4bd76692b9b98de30148cf081ba8d6d8afb0391",
            "73805": "0ac39a08e82dbec3ad757f67083220f9dc27e0825f0f720ad721fd22f6989718",
        },
        "shared": {
            "1": "f8fcb6575f44ecc763d0b3577a15dbb28189d4699ae750005ac53947605c5525",
            "4095": "967c6e46c69c9487cf08ec2ebbc4924fc210b316cb9e566ed48d73bd36e3cd58",
            "73805": "d0750953f76603a09b3dcccca74faf4e6399c3b75b47f402b8235cfa82a38a84",
        },
        "mean_is_sigma": {
            "1": "7d6ef7479db7e5f2bfe2c7b8c9a395daff4732463e47eb735026a15bc36d44d8",
            "4095": "5192e884ff48426e7cb42a6e50c4fb1dda52d7ef2bdafb48b0841c4cb14a539f",
            "73805": "bc017c1eaab640d9efc8ea17b7c1ca9725ac7770bd7c31f88f4c7c6849e1d84f",
        },
        "closure": {
            "1": "2e83e8aca9bfc5a4b63946a635fec9657f1e90d705a5fa29b098ac3a8aedbce7",
            "4095": "a10a4a16aee4d8ab7371ea538ac7261b3bb04747dbf06ffb8c572ea43e4cd5e3",
            "73805": "26493f760b4c9f2bd254c50267af3b911d0282248410c9ee222b5145b2540dbe",
        },
        "composition": {
            "1": "7793bf63dcbc8e8056bbaf06590a7e2f0359e5087292fcdd1587274d766df9e9",
            "4095": "8083dbb249d0095ffe0e8a30469a71286e7d78ca4c07462589d0b39def637a1d",
            "73805": "fc36edb477b200eafd3aada2edf862934f8c6947f82e85ee0852f485d0b175d2",
        },
        "chained": {
            "1": "7caeaa0fa5a17691095d0b30107769676bb0a5d0fa7e15798eafac62f243c44e",
            "4095": "49cd7a66d21bd5819d52ac20d15fef754e13acb5dede3f3effe7f94fe241a383",
            "73805": "6f427b297452cdebaac54c0e62c53d7d60acb111e49cf202f579299728fe8c46",
        },
    },
    "pass": {
        "gauss+exp": {
            "1": "d31a9877414af3094a2a5883b5182507bfc55f595ebab8f4ede3d5871b2f603e",
            "4095": "4deac142539c5535b2074dd505a3b0d52d598c83e07d985d584b8c407d38d8d8",
            "73805": "0307b439a8661b37a3a8126d58aa74f38a076de792e32d58c6a9c35c5a842020",
        },
        "tree": {
            "1": "4e6ea260cfe30cecc10db752c765b54b60f69018f4210d247c9745e1f86da146",
            "4095": "ec1c2f999c79b534409d074d3b35d489f43738d870883856db0ff7502fdb9d3e",
            "73805": "9b18498ddeeb6a9b8b763a7e3f1175fc4a52d1873e9bcb24ebcb52c7898fad75",
        },
    },
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", list(_expressions()))
def test_expression_bits(name, n):
    assert expression_digest(name, n) == GOLDEN["expr"][name][str(n)]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", list(_models()))
def test_pass_bits(name, n, workers):
    assert pass_digest(name, n, workers) == GOLDEN["pass"][name][str(n)]


def test_tape_reads_parameters_when_it_runs():
    args = _points(50, 1)
    expr = _expressions()["shared"][0]
    expr.partials(args, second=True)    # compile the tape at the old values
    for p in expr.leaf_params():
        p.set(p.value * 1.1)
    fresh = _expressions()["shared"][0]
    for p, q in zip(fresh.leaf_params(), expr.leaf_params()):
        p.set(q.value)
    got = _by_name(expr, expr.partials(args, second=True))
    want = _by_name(fresh, fresh.partials(args, second=True))
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert g.keys() == w.keys()
        assert all(np.array_equal(g[k], w[k]) for k in g)


def test_pass_reads_parameters_when_it_runs():
    model = _models()["gauss+exp"]
    data = hk.ColumnStore.from_columns(hk.ColumnSchema.real64("x0"), list(_points(5000, 1)))
    free = model.param_set().free()
    _likelihood_pass(model, data, ["x0"], 1, free, second=True)
    for p in free:
        p.set(p.value * 1.05)
    fresh = _models()["gauss+exp"]
    for p, q in zip(fresh.param_set().free(), free):
        p.set(q.value)
    got = _likelihood_pass(model, data, ["x0"], 1, free, second=True)
    want = _likelihood_pass(fresh, data, ["x0"], 1, fresh.param_set().free(), second=True)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
