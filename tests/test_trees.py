"""Planar binary tree combinatorics against closed forms and brute force."""

import pytest
from hypothesis import given, strategies as st

from kgcharge.trees import (
    CapExceeded,
    DegenerateTree,
    GrowSpec,
    LengthMismatch,
    Tree,
    enumerate_trees,
    graft,
    grow,
    internal_count,
    leaf,
    leaf_count,
    signed_grow_sum,
    to_dyck,
)
from oracles import ParseError, brute_force_signed_grow_sum, catalan, decompose, from_dyck, prune_cherries

trees = st.recursive(
    st.just(leaf()), lambda children: st.builds(graft, children, children), max_leaves=24
)


def all_trees_up_to(order):
    for n in range(order + 1):
        yield from enumerate_trees(n)


def test_enumeration_matches_catalan():
    for order in range(7):
        forest = enumerate_trees(order)
        assert len(forest) == catalan(order)
        assert len(forest) <= 4**order


def test_enumeration_is_exact_and_distinct():
    for order in range(6):
        forest = enumerate_trees(order)
        assert all(internal_count(b) == order for b in forest)
        assert len({to_dyck(b) for b in forest}) == len(forest)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_trees(11)


@given(trees, trees)
def test_graft_decompose_roundtrip(b1, b2):
    assert decompose(graft(b1, b2)) == (b1, b2)


def test_decompose_leaf_is_an_error():
    with pytest.raises(DegenerateTree):
        decompose(leaf())


def test_half_built_vertex_is_rejected():
    with pytest.raises(ValueError):
        Tree(leaf(), None)
    with pytest.raises(ValueError):
        Tree(None, leaf())


@given(trees)
def test_leaf_count_exceeds_internal_count_by_one(b):
    assert leaf_count(b) == internal_count(b) + 1


@given(trees)
def test_dyck_roundtrip(b):
    assert from_dyck(to_dyck(b)) == b


def test_dyck_rejects_malformed_input():
    for bad in ("", "N", "NL", "LL", "X", "NLLX"):
        with pytest.raises(ParseError):
            from_dyck(bad)
    with pytest.raises(ParseError) as err:
        from_dyck("NXL")
    assert err.value.position == 1


def test_trees_are_hashable_values():
    y = graft(leaf(), leaf())
    assert y == graft(leaf(), leaf())
    assert len({leaf(), y, graft(y, leaf()), graft(leaf(), y)}) == 4


def test_grow_identity_spec_is_a_no_op():
    for b in all_trees_up_to(4):
        spec = GrowSpec((leaf(),) * leaf_count(b))
        assert grow(spec, b) == b


def test_grow_length_mismatch():
    with pytest.raises(LengthMismatch):
        grow(GrowSpec((leaf(), leaf())), leaf())


def test_grow_entries_are_validated():
    big = graft(graft(leaf(), leaf()), leaf())
    with pytest.raises(ValueError):
        GrowSpec((big,))


@given(trees, st.data())
def test_grow_adds_one_leaf_per_cherry_entry(b, data):
    cherry = graft(leaf(), leaf())
    entries = tuple(
        data.draw(st.sampled_from((leaf(), cherry))) for _ in range(leaf_count(b))
    )
    spec = GrowSpec(entries)
    assert leaf_count(grow(spec, b)) == leaf_count(b) + spec.n_y


def test_prune_cherries_inverts_grow():
    for b in all_trees_up_to(5):
        a, spec = prune_cherries(b)
        assert grow(spec, a) == b


def test_prune_cherries_is_maximal():
    # Every cherry of b must be recorded as a cherry entry of the spec.
    def cherry_count(b):
        if b.is_leaf:
            return 0
        if b.left.is_leaf and b.right.is_leaf:
            return 1
        return cherry_count(b.left) + cherry_count(b.right)

    for b in all_trees_up_to(5):
        _, spec = prune_cherries(b)
        assert spec.n_y == cherry_count(b)


def test_prune_cherries_of_leaf_is_trivial():
    a, spec = prune_cherries(leaf())
    assert a == leaf()
    assert tuple(spec) == (leaf(),)


def test_signed_grow_sum_vanishes():
    for order in range(1, 8):
        for b in enumerate_trees(order):
            assert signed_grow_sum(b) == 0


def test_signed_grow_sum_against_brute_force():
    for b in all_trees_up_to(4):
        if leaf_count(b) < 2:
            continue
        assert signed_grow_sum(b) == brute_force_signed_grow_sum(b)
        assert signed_grow_sum(b, min_growth=1) == brute_force_signed_grow_sum(
            b, min_growth=1
        )


def test_signed_grow_sum_without_identity_term():
    # Dropping the identity growing leaves minus its own sign.
    for b in all_trees_up_to(4):
        if leaf_count(b) < 2:
            continue
        assert signed_grow_sum(b, min_growth=1) == -((-1) ** internal_count(b))


def test_signed_grow_sum_needs_two_leaves():
    with pytest.raises(DegenerateTree):
        signed_grow_sum(leaf())
