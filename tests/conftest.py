"""Shared test configuration: hypothesis settings profiles.

Two profiles are registered:

* ``ci`` (default) — moderate example counts, keeps the tier-1 suite
  fast; ``derandomize=True`` pins the example stream so two CI runs of
  the same tree always see the same inputs (no flaky-only-on-main
  failures from a fresh random seed);
* ``nightly`` — a much deeper *randomized* search for the property
  tests, with ``print_blob=True`` so a failure prints the
  ``@reproduce_failure`` blob needed to replay it locally.

Select with the ``HYPOTHESIS_PROFILE`` environment variable::

    HYPOTHESIS_PROFILE=nightly python -m pytest tests/test_properties.py

See :mod:`tests.helpers` for how to replay a nightly failure.
"""

import asyncio
import inspect
import os

import pytest
from hypothesis import HealthCheck, settings

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

settings.register_profile(
    "ci", max_examples=100, derandomize=True, **_COMMON
)
settings.register_profile(
    "nightly", max_examples=600, print_blob=True, **_COMMON
)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def pytest_pyfunc_call(pyfuncitem):
    """Run ``async def`` tests on a fresh event loop per test.

    The container has no pytest-asyncio; this minimal hook covers the
    serving suite (plain coroutine tests, no async fixtures).  Hypothesis
    tests stay synchronous and call :func:`asyncio.run` per example.

    The loop's exception handler records every context it is given and
    the test fails if any were: an exception raised in a done callback
    or a task nobody awaits would otherwise only be logged."""
    func = pyfuncitem.obj
    if inspect.iscoroutinefunction(func):
        kwargs = {
            name: pyfuncitem.funcargs[name]
            for name in pyfuncitem._fixtureinfo.argnames
        }
        reported = []
        with asyncio.Runner() as runner:
            runner.get_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            runner.run(func(**kwargs))
        if reported:
            pytest.fail(
                f"the event loop reported {len(reported)} error(s), "
                "the first: "
                + "; ".join(
                    f"{c.get('message')} {c.get('exception')!r}"
                    for c in reported[:3]
                ),
                pytrace=False,
            )
        return True
    return None
