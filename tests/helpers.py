"""Measures that only the tests use: the leaf count, grade and D-freeness
of an expression tree, and the generator sequence of a normal word."""

from confgsb.words import ExprTree, Leaf, NormalWord


def tree_leaves(tree: ExprTree) -> int:
    if isinstance(tree, Leaf):
        return 1
    return tree_leaves(tree.left) + tree_leaves(tree.right)


def tree_grade(tree: ExprTree, t: int) -> int:
    """t-grading of a tree: node labels count +1 each, leaf exponents -1.

    Matches NormalWord.grade — every word in the normal form of a tree
    carries exactly this grade, coordinate by coordinate.
    """
    if isinstance(tree, Leaf):
        return -tree.dexp[t]
    return tree.label[t] + tree_grade(tree.left, t) + tree_grade(tree.right, t)


def tree_is_dfree(tree: ExprTree) -> bool:
    if isinstance(tree, Leaf):
        return not any(tree.dexp)
    return tree_is_dfree(tree.left) and tree_is_dfree(tree.right)


def word_gens(w: NormalWord) -> tuple[int, ...]:
    """The generators of w, its links' and then its tail."""
    return tuple(g for g, _ in w.links) + (w.tail,)
