"""A deterministic hypothesis profile: fixed examples, no example database
and no deadline, so every run of the suite draws the same inputs."""

from hypothesis import settings

settings.register_profile("kroncoef", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("kroncoef")
