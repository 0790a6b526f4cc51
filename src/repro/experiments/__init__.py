"""The experiment harness: one plan per table/figure of the paper.

``figures``, ``sensitivity``, ``ablations``, ``serving`` and ``tables``
each expose ``plan_<name>()`` functions returning a
:class:`~repro.experiments.runner.Plan`: the experiment's RunSpecs at
reproduction scale plus a pure ``render(results)`` that builds an
:class:`~repro.experiments.runner.Experiment` whose ``rows`` mirror the
series the paper reports, plus a ``check()`` on the qualitative shape
(who wins, roughly by how much, where the knees fall). ``Plan.run(pool)``
executes one plan on an :class:`~repro.experiments.pool.ExperimentPool`.

``python -m repro.experiments <name>`` (or the ``leviathan-repro``
entry point) runs them from the command line.
"""

from repro.experiments.runner import Experiment, ExperimentRegistry

registry = ExperimentRegistry()

__all__ = ["Experiment", "registry"]
