import random
from fractions import Fraction as Q

from orbitq.sparse import Reducer, axpy
from polyref import sweep_seed


def test_axpy_deletes_cancelled_keys():
    v = {"a": Q(1), "b": Q(2)}
    axpy(v, Q(-2), {"b": Q(1), "c": Q(3)})
    assert v == {"a": Q(1), "c": Q(-6)}
    axpy(v, Q(0), {"d": Q(5)})
    assert v == {"a": Q(1), "c": Q(-6)}


def test_axpy_never_leaves_zeros():
    # the model digests hash Grams and structure constants with zeros absent
    rng = random.Random(sweep_seed() + 11)
    acc, dense = {}, [Q(0)] * 6
    for _ in range(300):
        src = {k: Q(rng.randrange(-2, 3)) for k in rng.sample(range(6), 3)}
        src = {k: v for k, v in src.items() if v}
        a = Q(rng.randrange(-2, 3), rng.randrange(1, 3))
        axpy(acc, a, src)
        for k, v in src.items():
            dense[k] += a * v
        assert all(acc.values())
        assert acc == {k: v for k, v in enumerate(dense) if v}


def test_reducer_rank_deficiency_and_solve():
    red = Reducer()
    u, v = {0: Q(1), 1: Q(2)}, {1: Q(1), 2: Q(-1)}
    assert red.add("u", u) and red.add("v", v)
    assert not red.add("w", {0: Q(1), 1: Q(4), 2: Q(-2)})  # u + 2v
    assert red.rank == 2
    assert red.solve({0: Q(3), 1: Q(5), 2: Q(1)}) == {"u": Q(3), "v": Q(-1)}
    assert red.solve({2: Q(1)}) is None
    assert red.solve({}) == {}


def test_reducer_keeps_int_vectors_exact():
    # dividing by the pivot 7 must not turn the vector into floats, which
    # would put it outside its own span; the pivot vector is stored
    # unscaled, so it stays `int`
    red = Reducer()
    assert red.add("v", {0: 7, 1: 29})
    assert red.solve({0: 7, 1: 29}) == {"v": 1}
    for _, vec, combo in red.pivots:
        assert all(type(x) in (int, Q) for x in (*vec.values(), *combo.values()))
    assert red.pivots[0][1] == {0: 7, 1: 29}
    assert red.solve({0: 1, 1: Q(29, 7)}) == {"v": Q(1, 7)}

