"""Trace representation, integration, transfer times, parsing, synthesis."""

import math

import numpy as np
import pytest

from abrbench import (
    DomainError,
    ParseError,
    Trace,
    TraceModel,
    integrate_throughput,
    load_trace,
    save_trace,
    synth_trace,
    transfer_time,
)
from abrbench.trace import MAX_SAMPLES


def riemann_integral(trace: Trace, t0: float, d: float, dt: float = 1e-4) -> float:
    """Independent fine-step oracle for the throughput integral."""
    steps = int(round(d / dt))
    total = 0.0
    for k in range(steps):
        total += trace.bandwidth_at(t0 + (k + 0.5) * dt) * dt
    return total


# the period is far beyond every time queried, so the last bandwidth holds
TWO_PHASE_HOLD = Trace(samples=((0.0, 2.0), (1.0, 1.0)), id="two-phase", duration=1e6)
CONSTANT_1 = Trace(samples=((0.0, 1.0),), id="const-1")


class TestIntegrate:
    def test_constant_trace(self):
        assert integrate_throughput(CONSTANT_1, 0.0, 4.0) == 4.0

    def test_zero_duration(self):
        assert integrate_throughput(TWO_PHASE_HOLD, 0.5, 0.0) == 0.0

    def test_two_phase_hold_last(self):
        # 2 Mbps for 1 s, then 1 Mbps held: 2 + 1 + 1 = 4 Mb over 3 s
        got = integrate_throughput(TWO_PHASE_HOLD, 0.0, 3.0)
        assert got == pytest.approx(4.0, abs=1e-12)
        assert got == pytest.approx(riemann_integral(TWO_PHASE_HOLD, 0.0, 3.0), rel=1e-3)

    def test_wrap_mode_repeats(self):
        wrapped = Trace(samples=((0.0, 2.0), (1.0, 1.0)), id="w", duration=2.0)
        # one period carries 3 Mb
        assert integrate_throughput(wrapped, 0.0, 2.0) == pytest.approx(3.0)
        assert integrate_throughput(wrapped, 0.0, 6.0) == pytest.approx(9.0)
        assert integrate_throughput(wrapped, 1.5, 1.0) == pytest.approx(
            riemann_integral(wrapped, 1.5, 1.0), rel=1e-3
        )

    def test_negative_start_rejected(self):
        with pytest.raises(DomainError):
            integrate_throughput(CONSTANT_1, -0.1, 1.0)
        with pytest.raises(DomainError):
            integrate_throughput(CONSTANT_1, 0.0, -1.0)

    def test_additivity_property(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            trace = synth_trace(seed, TraceModel(mean_mbps=2.0, volatility=0.4, duration_s=50.0))
            t0 = float(rng.uniform(0.0, 80.0))
            d1 = float(rng.uniform(0.0, 40.0))
            d2 = float(rng.uniform(0.0, 40.0))
            whole = integrate_throughput(trace, t0, d1 + d2)
            parts = integrate_throughput(trace, t0, d1) + integrate_throughput(trace, t0 + d1, d2)
            assert whole == pytest.approx(parts, rel=1e-9)

    def test_monotone_in_duration(self):
        trace = synth_trace(9, TraceModel(mean_mbps=1.5, volatility=0.3, duration_s=40.0))
        values = [integrate_throughput(trace, 3.0, d) for d in np.linspace(0.0, 60.0, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_riemann_oracle_on_random_traces(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            trace = synth_trace(seed, TraceModel(mean_mbps=3.0, volatility=0.5, duration_s=30.0))
            t0 = float(rng.uniform(0.0, 50.0))
            d = float(rng.uniform(0.1, 10.0))
            assert integrate_throughput(trace, t0, d) == pytest.approx(
                riemann_integral(trace, t0, d), rel=1e-3
            )


class TestTransferTime:
    def test_constant_rate(self):
        assert transfer_time(CONSTANT_1, 0.0, 4.0, 0.0) == 4.0

    def test_two_phase(self):
        # 2 Mb in the first second, the remaining 2 Mb at 1 Mbps
        assert transfer_time(TWO_PHASE_HOLD, 0.0, 4.0, 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_rtt_offset(self):
        assert transfer_time(CONSTANT_1, 0.0, 4.0, 0.08) == pytest.approx(4.08, abs=1e-12)

    def test_invalid_volume(self):
        with pytest.raises(DomainError):
            transfer_time(CONSTANT_1, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            transfer_time(CONSTANT_1, 0.0, -1.0, 0.0)

    def test_inverse_of_integration(self):
        rng = np.random.default_rng(5)
        for seed in range(25):
            trace = synth_trace(seed, TraceModel(mean_mbps=2.5, volatility=0.45, duration_s=60.0))
            t0 = float(rng.uniform(0.0, 100.0))
            volume = float(rng.uniform(0.05, 30.0))
            rtt = float(rng.choice([0.0, 0.08, 0.104]))
            tau = transfer_time(trace, t0, volume, rtt)
            recovered = integrate_throughput(trace, t0 + rtt, tau - rtt)
            assert recovered == pytest.approx(volume, rel=1e-9)

    def test_scaling_law_doubled_trace_doubled_volume(self):
        # doubling every bandwidth delivers double the volume in the exact
        # same data-phase duration (bit-for-bit, since both sides scale)
        rng = np.random.default_rng(6)
        for seed in range(10):
            trace = synth_trace(seed, TraceModel(mean_mbps=2.0, volatility=0.4, duration_s=40.0))
            doubled = trace.scaled(2.0)
            t0 = float(rng.uniform(0.0, 60.0))
            volume = float(rng.uniform(0.1, 20.0))
            assert transfer_time(doubled, t0, 2.0 * volume, 0.0) == transfer_time(
                trace, t0, volume, 0.0
            )

    def test_doubling_constant_bandwidth_halves_data_phase(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = float(rng.uniform(0.5, 8.0))
            trace = Trace(samples=((0.0, c),), id="c")
            doubled = trace.scaled(2.0)
            t0 = float(rng.uniform(0.0, 20.0))
            volume = float(rng.uniform(0.1, 20.0))
            rtt = 0.08
            d1 = transfer_time(trace, t0, volume, rtt) - rtt
            d2 = transfer_time(doubled, t0, volume, rtt) - rtt
            assert d2 == pytest.approx(d1 / 2.0, rel=1e-12)

    def test_clock_beyond_float_range_rejected(self):
        # the volume delivered by t0 = 1e308 overflows to inf
        trace = Trace(samples=((0.0, 2.0),), id="c")
        with pytest.raises(DomainError, match="representable"):
            transfer_time(trace, 1e308, 1.0, 0.0)


class TestTraceInvariants:
    def test_timestamps_must_start_at_zero(self):
        with pytest.raises(DomainError):
            Trace(samples=((1.0, 1.0),))

    def test_timestamps_strictly_increasing(self):
        with pytest.raises(DomainError):
            Trace(samples=((0.0, 1.0), (0.0, 2.0)))

    def test_positive_bandwidth(self):
        with pytest.raises(DomainError):
            Trace(samples=((0.0, 0.0),))

    def test_wrap_duration_must_cover_samples(self):
        with pytest.raises(DomainError):
            Trace(samples=((0.0, 1.0), (5.0, 2.0)), duration=5.0)

    @pytest.mark.parametrize("samples", [((0.0, 0.05), (5e-324, 0.05)), ((0.0, 1e308), (2.0, 1.0))])
    def test_a_period_carries_a_positive_finite_volume(self, samples):
        with pytest.raises(DomainError, match="one period"):
            Trace(samples=samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_samples_must_be_finite(self, bad):
        for samples in (((0.0, bad),), ((0.0, 1.0), (bad, 2.0)), ((0.0, 1.0), (1.0, bad))):
            with pytest.raises(DomainError):
                Trace(samples=samples)
        with pytest.raises(DomainError):
            Trace(samples=((0.0, 1.0),), duration=bad)


class TestLoadTrace:
    def test_two_rows(self):
        trace = load_trace("0.0,1.0\n1.0,2.0")
        assert trace.samples == ((0.0, 1.0), (1.0, 2.0))

    def test_nonpositive_bandwidth_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            load_trace("0.0,-1.0")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_trace("")

    def test_non_monotone_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_trace("0.0,1.0\n1.0,1.0\n0.5,1.0")

    def test_malformed_row(self):
        with pytest.raises(ParseError, match="line 2"):
            load_trace("0.0,1.0\n1.0;2.0")
        with pytest.raises(ParseError, match="line 1"):
            load_trace("zero,1.0")

    def test_round_trip(self):
        trace = synth_trace(4, TraceModel(mean_mbps=1.7, volatility=0.2, duration_s=12.0))
        again = load_trace(save_trace(trace), id=trace.id)
        assert again.samples == trace.samples


class TestSynthTrace:
    def test_zero_volatility_is_constant(self):
        trace = synth_trace(1, TraceModel(mean_mbps=2.0, volatility=0.0, duration_s=10.0))
        assert all(bw == 2.0 for _, bw in trace.samples)

    def test_deterministic_in_seed(self):
        model = TraceModel(mean_mbps=2.0, volatility=0.3, duration_s=40.0)
        assert synth_trace(7, model).samples == synth_trace(7, model).samples

    def test_different_seeds_differ(self):
        model = TraceModel(mean_mbps=2.0, volatility=0.3, duration_s=40.0)
        assert synth_trace(7, model).samples != synth_trace(8, model).samples

    def test_clamp_bounds(self):
        trace = synth_trace(7, TraceModel(mean_mbps=2.0, volatility=0.3, duration_s=400.0))
        bws = [bw for _, bw in trace.samples]
        assert min(bws) >= 0.1 and max(bws) <= 40.0

    def test_invalid_model(self):
        with pytest.raises(DomainError):
            synth_trace(0, TraceModel(mean_mbps=0.0))
        with pytest.raises(DomainError):
            synth_trace(0, TraceModel(volatility=1.0))
        with pytest.raises(DomainError):
            synth_trace(0, TraceModel(step_s=0.0))
        with pytest.raises(DomainError, match="seed"):
            synth_trace(-1, TraceModel())

    def test_sample_count_bounded(self):
        full = TraceModel(duration_s=MAX_SAMPLES / 4.0, step_s=0.25)
        assert len(synth_trace(0, full).samples) == MAX_SAMPLES
        for duration, step in ((MAX_SAMPLES + 0.5, 1.0), (1e18, 1.0), (1.0, 5e-324),
                               (math.inf, 1.0)):
            with pytest.raises(DomainError, match="samples"):
                TraceModel(duration_s=duration, step_s=step)
