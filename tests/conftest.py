"""Hypothesis settings shared by the suite: a fixed example sequence and no
per-example deadline, so a slow or shared machine cannot turn a property test
into a flaky one."""

from hypothesis import settings

settings.register_profile("tpcsim", derandomize=True, deadline=None)
settings.load_profile("tpcsim")
