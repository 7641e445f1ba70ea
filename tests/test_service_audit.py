"""The online accuracy auditor: reservoir, admission, violations, metrics."""

import asyncio
from fractions import Fraction

import pytest

from repro.engine import EngineConfig
from repro.errors import ServiceError
from repro.obs.registry import MetricRegistry
from repro.service import QuantileClient, QuantileService, ServiceConfig
from repro.service.audit import AccuracyAuditor, AuditConfig


def make_auditor(**config) -> AccuracyAuditor:
    defaults = dict(fraction=1.0, reservoir=64, seed=0)
    defaults.update(config)
    return AccuracyAuditor(
        MetricRegistry(), epsilon=0.02, config=AuditConfig(**defaults)
    )


class TestConfig:
    def test_validate_rejects_bad_fraction(self):
        with pytest.raises(ServiceError, match="fraction"):
            AuditConfig(fraction=1.5).validate()
        with pytest.raises(ServiceError, match="fraction"):
            AuditConfig(fraction=-0.1).validate()

    def test_validate_rejects_bad_reservoir(self):
        with pytest.raises(ServiceError, match="reservoir"):
            AuditConfig(reservoir=0).validate()

    def test_service_config_validates_audit_knobs(self):
        with pytest.raises(ServiceError, match="fraction"):
            ServiceConfig(audit_fraction=2.0).validate()

    @pytest.mark.parametrize("timeout", [0, -1])
    def test_service_config_rejects_non_positive_drain_timeout(self, timeout):
        # A zero budget would cancel the ingest loop before it flushed
        # what was already admitted.
        with pytest.raises(ServiceError, match="drain_timeout_s"):
            ServiceConfig(drain_timeout_s=timeout).validate()


class TestReservoir:
    def test_fills_to_capacity_then_stays_bounded(self):
        auditor = make_auditor(reservoir=16)
        auditor.observe_batch([Fraction(i) for i in range(100)])
        assert len(auditor.sample) == 16
        assert auditor.seen == 100

    def test_same_seed_same_sample(self):
        one, two = make_auditor(seed=5), make_auditor(seed=5)
        values = [Fraction(i) for i in range(500)]
        one.observe_batch(values)
        two.observe_batch(values)
        assert one.sample == two.sample

    def test_batch_splitting_does_not_change_the_sample(self):
        whole, split = make_auditor(seed=3), make_auditor(seed=3)
        values = [Fraction(i) for i in range(300)]
        whole.observe_batch(values)
        for start in range(0, 300, 7):
            split.observe_batch(values[start:start + 7])
        assert whole.sample == split.sample

    def test_disabled_auditor_ignores_everything(self):
        auditor = make_auditor(fraction=0.0)
        auditor.observe_batch([Fraction(1)])
        assert not auditor.enabled
        assert auditor.sample == []
        assert auditor.maybe_audit([(0.5, Fraction(1))]) is False

    def test_estimated_rank_fraction(self):
        auditor = make_auditor(reservoir=100)
        auditor.observe_batch([Fraction(i) for i in range(1, 101)])
        assert auditor.estimated_rank_fraction(Fraction(50)) == Fraction(1, 2)
        assert make_auditor().estimated_rank_fraction(Fraction(1)) is None


class TestAuditing:
    def test_accurate_answers_do_not_violate(self):
        auditor = make_auditor(reservoir=1000)
        values = [Fraction(i) for i in range(1, 1001)]
        auditor.observe_batch(values)
        audited = auditor.maybe_audit(
            [(0.25, Fraction(250)), (0.5, Fraction(500)), (0.9, Fraction(900))]
        )
        assert audited is True
        registry = auditor.registry
        assert registry.get("service_audits_total").value == 1
        assert registry.get("service_rank_error_violations_total").value == 0
        assert registry.get("service_rank_error").observations == 3

    def test_garbage_answers_violate(self):
        auditor = make_auditor(reservoir=1000)
        auditor.observe_batch([Fraction(i) for i in range(1, 1001)])
        auditor.maybe_audit([(0.9, Fraction(1)), (0.1, Fraction(1000))])
        assert (
            auditor.registry.get("service_rank_error_violations_total").value
            == 2
        )

    def test_admission_fraction_zero_vs_one(self):
        eager = make_auditor(fraction=1.0)
        eager.observe_batch([Fraction(1)])
        assert eager.maybe_audit([(0.5, Fraction(1))]) is True
        # fraction just over 0: the admission RNG decides; seeded, so the
        # sequence of decisions is reproducible.
        one, two = make_auditor(fraction=0.3, seed=9), make_auditor(
            fraction=0.3, seed=9
        )
        for auditor in (one, two):
            auditor.observe_batch([Fraction(i) for i in range(10)])
        decisions_one = [
            one.maybe_audit([(0.5, Fraction(5))]) for _ in range(50)
        ]
        decisions_two = [
            two.maybe_audit([(0.5, Fraction(5))]) for _ in range(50)
        ]
        assert decisions_one == decisions_two
        assert any(decisions_one) and not all(decisions_one)

    def test_empty_reservoir_never_audits(self):
        auditor = make_auditor(fraction=1.0)
        assert auditor.maybe_audit([(0.5, Fraction(1))]) is False

    def test_slack_shrinks_with_sample_size(self):
        auditor = make_auditor(reservoir=400)
        assert auditor.slack == 1.0
        auditor.observe_batch([Fraction(i) for i in range(400)])
        assert auditor.slack == pytest.approx(0.1)


class TestServiceIntegration:
    def run(self, coroutine):
        return asyncio.run(coroutine)

    def make_service(self, **audit) -> QuantileService:
        return QuantileService(
            engine_config=EngineConfig(summary="gk", epsilon=0.02, shards=2),
            config=ServiceConfig(port=0, **audit),
        )

    def test_service_feeds_auditor_and_exposes_metrics(self):
        async def scenario():
            service = self.make_service(audit_fraction=1.0, audit_seed=4)
            await service.start()
            try:
                async with QuantileClient("127.0.0.1", service.port) as client:
                    await client.insert(list(range(1, 501)))
                    for _ in range(5):
                        await client.query((0.25, 0.5, 0.75))
                    metrics = await client.fetch_metrics()
            finally:
                await service.stop()
            return service, metrics

        service, metrics = self.run(scenario())
        assert service.auditor.seen == 500
        registry = service.registry
        assert registry.get("service_audits_total").value == 5
        assert registry.get("service_rank_error_violations_total").value == 0
        assert "service_rank_error" in metrics
        assert "service_audits_total 5" in metrics
        assert "service_audit_shadow_items 500" in metrics
        # The summary-style quantile series from the PR's export extension.
        assert 'service_rank_error{quantile="0.99"}' in metrics

    def test_audit_fraction_zero_disables(self):
        async def scenario():
            service = self.make_service(audit_fraction=0.0)
            await service.start()
            try:
                async with QuantileClient("127.0.0.1", service.port) as client:
                    await client.insert([1, 2, 3])
                    await client.query((0.5,))
            finally:
                await service.stop()
            return service

        service = self.run(scenario())
        assert service.auditor.seen == 0
        assert service.registry.get("service_audits_total").value == 0
