"""The full grid's nested dissection of a partition's free dofs: the
numbering the tests factor a whole free system on, as a reference for the
folded factors the package uses."""

import numpy as np

from igarad.assembly import nested_dissection


def full_tree(space, partition):
    """``(tree, perm)``: the nested dissection of ``space``'s whole grid
    without the Dirichlet dofs, and its unknown ``u`` as the grid-order free
    dof ``perm[u]``, so ``renumbered(A, perm)`` is numbered by the tree."""
    is_free = np.ones(space.size, dtype=bool)
    is_free[partition.dirichlet] = False
    tree = nested_dissection(space.n, space.m, space.kv_xi.order, space.kv_eta.order).restrict(is_free)
    return tree, np.searchsorted(partition.free, tree.order)


def renumbered(A, perm):
    """``A[perm][:, perm]`` with sorted indices."""
    A = A[perm][:, perm].tocsr()
    A.sort_indices()
    return A
