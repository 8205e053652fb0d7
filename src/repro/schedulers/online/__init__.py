"""Online scheduling policies for the DAG runtime simulator (Section 6.2).

The seven algorithms compared in the paper's Figure 7:

* HeteroPrio with ``avg`` and ``min`` ranking (:class:`HeteroPrioPolicy`);
* HEFT with ``avg`` and ``min`` ranking (:class:`HeftPolicy`);
* DualHP with ``avg``, ``min`` and ``fifo`` ranking (:class:`DualHPPolicy`).

Ranking schemes are applied beforehand by
:func:`repro.dag.priorities.assign_priorities`; the policies only read
``task.priority``.  Use :func:`make_policy` to build a policy from the
paper's algorithm names.
"""

from repro.schedulers.online.base import Action, OnlinePolicy, RunningView, Spoliate, StartTask
from repro.schedulers.online.heteroprio import HeteroPrioPolicy
from repro.schedulers.online.heteroprio_buckets import BucketHeteroPrioPolicy
from repro.schedulers.online.heft import HeftPolicy
from repro.schedulers.online.dualhp import DualHPPolicy

__all__ = [
    "Action",
    "OnlinePolicy",
    "RunningView",
    "StartTask",
    "Spoliate",
    "HeteroPrioPolicy",
    "BucketHeteroPrioPolicy",
    "HeftPolicy",
    "DualHPPolicy",
    "PAPER_ALGORITHMS",
    "POLICIES",
    "make_policy",
]

#: The seven (algorithm, ranking) pairs of Figure 7, by paper name.
PAPER_ALGORITHMS = (
    "heteroprio-avg",
    "heteroprio-min",
    "heft-avg",
    "heft-min",
    "dualhp-avg",
    "dualhp-min",
    "dualhp-fifo",
)


#: Algorithm prefix -> policy class: the :func:`make_policy` dispatch.
POLICIES: dict[str, type[OnlinePolicy]] = {
    "heteroprio": HeteroPrioPolicy,
    "buckets": BucketHeteroPrioPolicy,
    "heft": HeftPolicy,
    "dualhp": DualHPPolicy,
}


def make_policy(name: str) -> OnlinePolicy:
    """Instantiate one of the Figure 7 policies from its paper name.

    Names are ``"<algorithm>-<ranking>"`` with algorithm in
    ``heteroprio``/``heft``/``dualhp`` — the ranking part only selects
    which priorities the caller must assign (see
    :func:`repro.dag.priorities.assign_priorities`); it does not change
    the policy object except for documentation purposes.
    """
    policy = POLICIES.get(name.split("-", 1)[0])
    if policy is None:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of {PAPER_ALGORITHMS}"
        )
    return policy()
