"""A store observer for tests: a copy of every state a walk shows it."""

import numpy as np


class States:
    """Observer keeping a copy of every state's modes and nodal v.

    :meth:`trajectories` stacks the modes seen into the (2, B, n+1, K)
    array of a stored trajectory (fewer states if the walk stopped
    early); ``v`` lists each state's (B, n_nodes) nodal v.
    """

    def __init__(self):
        self.modal, self.v = [], []

    def observe(self, view, dt):
        self.modal.append(view.modal.copy())
        self.v.append(view.v_nodal.copy())

    def trajectories(self):
        return np.stack(self.modal, axis=2)
