"""Shared fixtures and deterministic test helpers."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import rankspectral
from rankspectral import SymmetricMatrix

settings.register_profile(
    "repeatable",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repeatable")


def random_symmetric(n, seed, low=0.0, high=1.0):
    """Symmetric matrix with iid pair values drawn from Uniform(low, high)."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, size=n * (n - 1) // 2)
    return SymmetricMatrix(n, values)


def checkout_env():
    """Child-process environment with the imported package first on PYTHONPATH,
    so the child runs the code under test."""
    package_root = str(Path(rankspectral.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the worker processes forked during the test."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids
