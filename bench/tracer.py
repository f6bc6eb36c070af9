"""Outside-in spans around zoht's layers.

The tracer replaces module attributes where zoht's own callers look them
up (``zoht.solvers.hard_threshold``, not only ``zoht.ht.hard_threshold``)
and the ``component``/``mean_value`` methods of one problem instance, so
no code under ``src/zoht`` changes. Spans are aggregated in memory by
(parent span, span): a grid makes millions of component calls, too many
to keep one record each. Self time is a span's duration minus the time
covered by its child spans.
"""

import functools
import time

# (module, attribute, span). One span may hook several modules because
# ``from .zo import zo_gradient`` copies the name into the caller's module.
HOOKS = [
    ("zoht.zo", "sample_directions", "zo.sample_directions"),
    ("zoht.vr", "sample_directions", "zo.sample_directions"),
    ("zoht.zo", "zo_gradient", "zo.zo_gradient"),
    ("zoht.vr", "zo_gradient", "zo.zo_gradient"),
    ("zoht.solvers", "zo_gradient", "zo.zo_gradient"),
    ("zoht.solvers", "take_snapshot", "vr.take_snapshot"),
    ("zoht.solvers", "sarah_init", "vr.sarah_init"),
    ("zoht.solvers", "init_gradient_memory", "vr.init_gradient_memory"),
    ("zoht.solvers", "svrg_gradient", "vr.svrg_gradient"),
    ("zoht.solvers", "sarah_step", "vr.sarah_step"),
    ("zoht.solvers", "pm_gradient", "vr.pm_gradient"),
    ("zoht.solvers", "memory_update", "vr.memory_update"),
    ("zoht.solvers", "hard_threshold", "ht.hard_threshold"),
    ("zoht.harness", "run_solver", "solvers.run_solver"),
    ("zoht.harness", "run_experiment", "harness.run_experiment"),
    ("zoht.harness", "emit_csv", "harness.emit_csv"),
    ("zoht.harness", "emit_svg", "harness.emit_svg"),
]
PROBLEM_HOOKS = [
    ("component", "problems.component"),
    ("mean_value", "problems.mean_value"),
]
# Work units counted at a span's boundary: sample_directions(d, s2, q, rng)
# draws q directions.
UNITS = {"zo.sample_directions": lambda args, kwargs: kwargs.get("q", args[2])}
FIELDS = ("calls", "total_s", "self_s", "units")
_ABSENT = object()


class Tracer:
    def __init__(self):
        # (parent, span) -> [calls, total_s, self_s, units], as in FIELDS
        self.edges = {}
        self._stack = []
        self._undo = []
        self.missing = []

    def wrap(self, span, fn):
        edges, stack, clock = self.edges, self._stack, time.perf_counter
        units = UNITS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                rec = edges.get((parent, span))
                if rec is None:
                    rec = edges[(parent, span)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if units is not None:
                    rec[3] += units(args, kwargs)

        return traced

    def _patch(self, owner, attr, span, label):
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(label)
            return
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, self.wrap(span, original))

    def install(self, modules):
        """Hook every (module, attribute) in HOOKS; ``modules`` maps a
        module name to the imported module."""
        for module, attr, span in HOOKS:
            self._patch(modules[module], attr, span, "%s.%s" % (module, attr))

    def attach_problem(self, problem):
        """Hook component and mean_value on one problem instance; the
        instance attribute shadows the class method for every caller."""
        for attr, span in PROBLEM_HOOKS:
            self._patch(problem, attr, span, "problem.%s" % attr)

    def uninstall(self):
        for owner, attr, previous in reversed(self._undo):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()

    def stat(self, span, field, parents=None):
        """Sum one field ("calls", "total_s", "self_s" or "units") over the
        edges into ``span``, or only over those from ``parents``."""
        i = FIELDS.index(field)
        return sum(
            rec[i] for (parent, name), rec in self.edges.items()
            if name == span and (parents is None or parent in parents)
        )

    def spans(self):
        return [
            dict(parent=parent, span=span, **dict(zip(FIELDS, rec)))
            for (parent, span), rec in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
