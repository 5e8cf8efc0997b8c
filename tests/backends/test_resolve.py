"""Policy resolution: auto degradation chain, strict explicit names."""

import pytest

from repro.backends import (
    BackendDegradationWarning,
    BackendUnavailable,
    CLI_BACKEND_CHOICES,
    ForkBackend,
    PoolBackend,
    SerialBackend,
    fork_available,
    make_backend,
    resolve_backend,
)
needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")


class TestMakeBackend:
    @pytest.mark.parametrize(
        ("policy", "cls"),
        [("serial", SerialBackend), ("fork", ForkBackend)],
    )
    def test_names_map_to_classes(self, policy, cls):
        assert isinstance(make_backend(policy, jobs=2), cls)

    def test_pool_policy_builds_a_persistent_backend(self):
        backend = make_backend("pool", jobs=2)
        assert isinstance(backend, PoolBackend)
        backend.close()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend policy"):
            make_backend("threads")

    def test_numba_is_not_a_policy(self):
        from repro.backends import BACKEND_POLICIES

        assert "numba" not in BACKEND_POLICIES
        with pytest.raises(ValueError, match="unknown backend policy"):
            make_backend("numba", jobs=2)

    def test_spawn_is_not_a_policy(self):
        from repro.backends import BACKEND_POLICIES

        assert BACKEND_POLICIES == ("auto", "serial", "fork", "pool")
        with pytest.raises(ValueError, match="unknown backend policy"):
            make_backend("spawn", jobs=2)


class TestResolveAuto:
    def test_jobs_one_resolves_serial(self):
        backend, owned = resolve_backend("auto", jobs=1, n_tasks=10)
        assert isinstance(backend, SerialBackend) and owned

    def test_single_task_resolves_serial(self):
        backend, owned = resolve_backend("auto", jobs=4, n_tasks=1)
        assert isinstance(backend, SerialBackend) and owned

    def test_none_means_auto(self):
        backend, _owned = resolve_backend(None, jobs=1)
        assert isinstance(backend, SerialBackend)

    @needs_fork
    def test_parallel_prefers_fork(self):
        backend, owned = resolve_backend("auto", jobs=4, n_tasks=8)
        assert isinstance(backend, ForkBackend) and owned
        assert backend.workers == 4

    def test_auto_without_fork_degrades_to_serial_loudly(self, monkeypatch):
        monkeypatch.setattr("repro.backends.pools.fork_available", lambda: False)
        with pytest.warns(BackendDegradationWarning, match="jobs=4.*unavailable"):
            backend, owned = resolve_backend("auto", jobs=4, n_tasks=8)
        assert isinstance(backend, SerialBackend) and owned

    def test_resolve_takes_no_context(self):
        import inspect

        assert "context" not in inspect.signature(resolve_backend).parameters


class TestResolveExplicit:
    def test_instance_passes_through_unowned(self):
        instance = SerialBackend()
        backend, owned = resolve_backend(instance, jobs=4)
        assert backend is instance
        assert not owned

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend policy"):
            resolve_backend("threads", jobs=2)

    def test_numba_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend policy"):
            resolve_backend("numba", jobs=2)

    def test_spawn_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend policy"):
            resolve_backend("spawn", jobs=2)

    def test_non_string_policy_raises(self):
        with pytest.raises(TypeError, match="policy"):
            resolve_backend(42, jobs=2)

    def test_explicit_fork_is_strict_about_availability(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(BackendUnavailable, match="fork"):
            resolve_backend("fork", jobs=2)

    def test_explicit_serial_honored_despite_jobs(self):
        backend, owned = resolve_backend("serial", jobs=8, n_tasks=8)
        assert isinstance(backend, SerialBackend) and owned


def test_cli_choices_are_a_subset_of_the_policies():
    from repro.backends import BACKEND_POLICIES

    assert set(CLI_BACKEND_CHOICES) <= set(BACKEND_POLICIES)
