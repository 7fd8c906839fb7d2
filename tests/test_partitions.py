from spinwreath.gammadata import builtin
from spinwreath.partitions import (MultiPartition, big_z, dominates, multipartitions,
                                   partitions_of, z_factor)


def count(n, k, kind):
    return sum(1 for _ in multipartitions(n, k, kind))


def test_partition_enumeration_order():
    assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions_of(3, "OP")) == [(3,), (1, 1, 1)]
    assert list(partitions_of(3, "SP")) == [(3,), (2, 1)]
    assert list(partitions_of(0)) == [()]


def test_spec_enumeration_examples():
    assert count(3, 1, "OP") == 2
    assert count(3, 1, "SP") == 2
    assert list(multipartitions(2, 1, "SP")) == [MultiPartition([(2,)])]


def test_euler_property():
    for n in range(13):
        for k in (1, 2, 3):
            assert count(n, k, "OP") == count(n, k, "SP")


def test_big_z_examples():
    g1, _ = builtin("trivial")
    assert big_z(MultiPartition([(1, 1)]), g1.centralizer_orders) == 2
    assert big_z(MultiPartition([(3,)]), g1.centralizer_orders) == 3
    g2, _ = builtin("cyclic:2")
    rho = MultiPartition([(1, 1), (3,)])
    assert big_z(rho, g2.centralizer_orders) == 48
    assert z_factor((1, 1, 1)) == 6


def test_bar_relabel():
    g2, _ = builtin("cyclic:2")
    perm2 = [g2.dual_class(i) for i in range(2)]
    rho = MultiPartition([(2,), (1,)])
    assert rho.relabel(perm2) == rho  # real classes
    g3, _ = builtin("cyclic:3")
    perm3 = [g3.dual_class(i) for i in range(3)]
    rho = MultiPartition.single(3, 1, (1,))
    bar = rho.relabel(perm3)
    assert bar == MultiPartition.single(3, 2, (1,))
    assert bar.relabel(perm3) == rho
    fixed = MultiPartition.single(3, 0, (2, 1))
    assert fixed.relabel(perm3) == fixed


def test_dominance():
    assert dominates((3,), (2, 1)) and not dominates((2, 1), (3,))
    assert dominates((3, 1), (2, 2)) and not dominates((2, 2), (3, 1))
    assert dominates((2, 1), (2, 1))
    assert dominates((3, 1), (2, 1, 1)) and dominates((2, 2), (2, 1, 1))
    assert not dominates((2,), (1,))  # different weights
    assert not dominates((3, 3), (4, 1, 1)) and not dominates((4, 1, 1), (3, 3))


def test_serialization():
    rho = MultiPartition([(2, 1), (), (3,)])
    names = ["e", "a", "b"]
    assert rho.to_doc(names) == {"e": [2, 1], "b": [3]}


def test_canonical_order_deterministic():
    seq = [mp.parts for mp in multipartitions(3, 2, "OP")]
    assert seq == [((3,), ()), ((1, 1, 1), ()), ((1, 1), (1,)), ((1,), (1, 1)),
                   ((), (3,)), ((), (1, 1, 1))]
    asc = [mp.parts for mp in multipartitions(3, 1, "OP", per_index_ascending=True)]
    assert asc == [((1, 1, 1),), ((3,),)]
