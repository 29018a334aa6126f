"""The construction facade: ClusterSpec, build_cluster, Outcome.

The API-redesign acceptance criteria:

- one :class:`ClusterSpec` drives all three kernels through
  :func:`build_cluster`;
- both in-process kernels take exactly ``(spec, transport)`` -- a
  typed signature with no ``*args, **kwargs`` swallowing;
- one :class:`Outcome` enum spans ``ClusterResult`` and
  ``WindowOutcome``, and ``try_submit`` maps unavailability into it
  instead of making callers fingerprint exceptions.
"""

import inspect

import pytest

from repro.protocol.concurrent import ConcurrentCluster
from repro.protocol.config import KERNELS, ClusterSpec, build_cluster
from repro.protocol.homeostasis import HomeostasisCluster, Unavailable
from repro.protocol.messages import Outcome
from repro.workloads.micro import MicroWorkload


def _spec(**kwargs):
    return MicroWorkload(num_items=6, refill=6, num_sites=2).cluster_spec(
        strategy="equal-split", **kwargs
    )


class TestClusterSpec:
    def test_spec_is_frozen(self):
        spec = _spec()
        with pytest.raises(AttributeError):
            spec.validate = True

    def test_make_generator_is_fresh_per_call(self):
        spec = _spec()
        assert spec.make_generator() is not spec.make_generator()

    def test_workloads_expose_specs(self):
        from repro.workloads.geo import GeoMicroWorkload
        from repro.workloads.tpcc import TpccWorkload

        assert isinstance(_spec(), ClusterSpec)
        assert isinstance(
            GeoMicroWorkload().cluster_spec(strategy="equal-split"), ClusterSpec
        )
        assert isinstance(
            TpccWorkload().cluster_spec(strategy="equal-split"), ClusterSpec
        )


class TestBuildCluster:
    def test_sequential_kernel(self):
        cluster = build_cluster(_spec())
        assert type(cluster) is HomeostasisCluster
        assert cluster.submit("Buy@s0", {"item": 0}).status is Outcome.COMMITTED

    def test_concurrent_kernel(self):
        cluster = build_cluster(_spec(), kernel="concurrent")
        assert type(cluster) is ConcurrentCluster

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            build_cluster(_spec(), kernel="quantum")
        assert set(KERNELS) == {"sequential", "concurrent", "async"}

    def test_in_process_kernels_reject_async_options(self):
        with pytest.raises(TypeError, match="takes no extra options"):
            build_cluster(_spec(), kernel="sequential", timeout_s=1.0)

    def test_construction_emits_no_deprecation_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build_cluster(_spec())
            build_cluster(_spec(), kernel="concurrent")

    def test_kernels_take_spec_and_transport(self):
        for cls in (HomeostasisCluster, ConcurrentCluster):
            params = inspect.signature(cls.__init__).parameters
            assert list(params) == ["self", "spec", "transport"]
            assert params["transport"].default is None


class TestOutcome:
    def test_committed_result(self):
        cluster = build_cluster(_spec())
        result = cluster.submit("Buy@s0", {"item": 0})
        assert result.status is Outcome.COMMITTED

    def test_try_submit_maps_refusal(self):
        cluster = build_cluster(_spec())
        cluster.crash_site(0)
        result = cluster.try_submit("Buy@s0", {"item": 0})
        assert result.status is Outcome.REFUSED
        assert result.log == ()

    def test_submit_still_raises_with_status(self):
        cluster = build_cluster(_spec())
        cluster.crash_site(0)
        with pytest.raises(Unavailable) as exc_info:
            cluster.submit("Buy@s0", {"item": 0})
        assert exc_info.value.status is Outcome.REFUSED

    def test_window_outcomes_share_the_enum(self):
        cluster = build_cluster(_spec(), kernel="concurrent")
        result = cluster.submit_window(
            [("Buy@s0", {"item": 0}), ("Buy@s1", {"item": 1})]
        )
        for outcome in result.outcomes:
            assert outcome.status is Outcome.COMMITTED
            assert outcome.failed is False

    def test_window_refusal_on_crashed_origin(self):
        cluster = build_cluster(_spec(), kernel="concurrent")
        cluster.crash_site(1)
        result = cluster.submit_window(
            [("Buy@s0", {"item": 0}), ("Buy@s1", {"item": 1})]
        )
        statuses = [o.status for o in result.outcomes]
        assert statuses[0] is Outcome.COMMITTED
        assert statuses[1] is Outcome.REFUSED
        assert result.outcomes[1].failed is True

    def test_enum_values_are_wire_stable(self):
        assert {o.value for o in Outcome} == {
            "committed",
            "aborted",
            "unavailable",
            "refused",
        }
