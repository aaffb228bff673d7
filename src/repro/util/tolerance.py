"""Single source of truth for float tolerances.

Before this module existed, every layer carried its own literal:
``util/intervals.py`` compared reservations with ``EPS = 1e-9`` while
``schedule/validator.py`` hard-coded ``_TOL = 1e-6`` (and ``gantt.py``,
``cpop.py`` and ``graph/analysis.py`` had private copies). A schedule
could therefore pass the engine's overlap check yet be judged
differently by validation for discrepancies in the 1e-9..1e-6 band —
e.g. a hop starting 5e-7 before its data was ready would be *built*
by no engine but *accepted* by the validator. Unifying the constants
closes that band: the validator now rejects exactly what the engine
would never produce.

Constants
---------
``EPS``
    The engine's interval slack: two reservations are considered
    non-overlapping when they overlap by no more than ``EPS``. Also the
    slack used when comparing candidate finish times in BSA.
``TOL``
    The validator's acceptance tolerance for times and durations.
    Deliberately the *same value* as ``EPS`` so the engine and the
    validator agree on what "equal" means (the 1e-9..1e-6 gap was the
    bug). Kept as a separate name so the two roles stay documented.
``TIE_EPS``
    Tolerance for priority/level tie detection (critical-path walks,
    CPOP's critical-path membership test). Ties are compared on sums of
    input costs, the same magnitude regime as schedule times, so the
    same slack applies.
``DRT_EPS``
    The migration evaluator's epsilon-max slack when selecting the
    data-ready time and VIP among predecessor arrivals: an arrival must
    beat the running maximum by more than ``DRT_EPS`` to displace it.
    This one is *deliberately much tighter* than ``EPS`` (1e-12 vs
    1e-9): it only breaks exact-arithmetic ties, while BSA's candidate
    pruning compares *whole finish times* with the coarser ``EPS``
    margin — which therefore absorbs ``DRT_EPS`` noise by three orders
    of magnitude, keeping the pruned search bit-identical to exhaustive
    evaluation (see ``core/bsa.py::_evaluate_candidates``).
    Before this constant existed the value was hard-coded twice in
    ``core/migration.py``, invisible to exactly that soundness argument.

``EPS``/``TOL``/``TIE_EPS`` are intentionally equal today; they are
distinct names so a future recalibration of one role cannot silently
change another. ``DRT_EPS`` is intentionally smaller — see above.
"""

from __future__ import annotations

#: engine interval slack (overlap / gap comparisons)
EPS = 1e-9

#: validator acceptance tolerance — unified with the engine's EPS
TOL = EPS

#: tie-detection slack for priority / level comparisons
TIE_EPS = EPS

#: epsilon-max slack for DRT/VIP selection over predecessor arrivals
#: (must stay well below EPS — BSA's pruning margin absorbs it)
DRT_EPS = 1e-12
