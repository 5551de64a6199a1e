"""Impulse response, time gating, echo detection, and loss regression."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sawkit.errors import (
    ArgumentError,
    FitError,
    GridError,
    InconsistencyError,
    NonphysicalGrowthError,
    ResolutionError,
)
from sawkit.ingest import NetworkSweep
from sawkit.numerics import dft, grid_step
from sawkit.timedomain import (
    EchoTrain,
    ImpulseResponse,
    LossModel,
    _fast_length,
    _first_at_or_after,
    _refine_peak,
    _window_array,
    detect_echoes,
    echo_train_csv,
    fit_echo_decay,
    impulse_response,
    loss_model_summary,
    synthesize_echo_network,
    time_gate,
)

DB_MM_TO_PER_M = 1000.0 * math.log(10.0) / 10.0


def alpha_per_m(db_per_mm):
    return db_per_mm * DB_MM_TO_PER_M


REF_MODEL = LossModel(t=0.3, r=0.1, alpha=alpha_per_m(3.2), length=130e-6)
V_G = 6161.0


def smooth_at_least(m):
    """The first integer from m up with no prime factor above 5, by scanning."""
    k = m
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


def flat_sweep(value=1.0, band=(3.3e9, 4.3e9), n=2001):
    freqs = np.linspace(band[0], band[1], n)
    return NetworkSweep(freqs=freqs, s={(2, 1): np.full(n, value, complex)})


class TestImpulseResponse:
    def test_unity_spectrum_concentrates_at_zero(self):
        ir = impulse_response(flat_sweep(), edge_fraction=0)
        assert np.argmax(np.abs(ir.h)) == 0
        rest = np.abs(ir.h[1:])
        assert rest.max() < 1e-9 * abs(ir.h[0])

    def test_shift_theorem(self):
        tau0 = 10e-9
        freqs = np.linspace(3.3e9, 4.3e9, 2001)
        s21 = np.exp(-2j * np.pi * freqs * tau0)
        sweep = NetworkSweep(freqs=freqs, s={(2, 1): s21})
        ir = impulse_response(sweep, edge_fraction=0)
        d_tau = ir.tau[1] - ir.tau[0]
        peak_tau = ir.tau[np.argmax(np.abs(ir.h))]
        assert abs(peak_tau - tau0) <= d_tau / 2

    def test_grid_spacing_is_sample_rate_reciprocal(self):
        freqs = np.linspace(3.3e9, 4.3e9, 2001)
        sweep = NetworkSweep(freqs=freqs, s={(2, 1): np.ones(2001, complex)})
        ir = impulse_response(sweep, edge_fraction=0)
        n = len(freqs)
        df = freqs[1] - freqs[0]
        assert ir.tau[1] - ir.tau[0] == pytest.approx(1.0 / (n * df), rel=1e-12)
        assert ir.tau[0] == 0.0

    def test_non_uniform_grid_rejected(self):
        freqs = np.array([1e9, 1.1e9, 1.25e9, 1.3e9])
        sweep = NetworkSweep(freqs=freqs, s={(2, 1): np.ones(4, complex)})
        with pytest.raises(GridError, match="(?i)resampl"):
            impulse_response(sweep, edge_fraction=0)

    def test_parseval_with_no_window(self):
        rng = np.random.default_rng(5)
        freqs = np.linspace(3.3e9, 4.3e9, 512)
        s21 = rng.normal(size=512) + 1j * rng.normal(size=512)
        sweep = NetworkSweep(freqs=freqs, s={(2, 1): s21})
        ir = impulse_response(sweep, edge_fraction=0)
        assert np.sum(np.abs(ir.h) ** 2) == pytest.approx(
            np.sum(np.abs(s21) ** 2), rel=1e-10
        )

    def test_missing_pair(self):
        freqs = np.linspace(1e9, 2e9, 64)
        sweep = NetworkSweep(freqs=freqs, s={(1, 1): np.ones(64, complex)})
        with pytest.raises(ArgumentError):
            impulse_response(sweep)

    def test_oversample_refines_grid(self):
        # 4 x 2,001 = 8,004 = 2**2 * 3 * 23 * 29 rounds up to 8,100
        sweep = flat_sweep()
        n, df = sweep.freqs.size, grid_step(sweep.freqs)
        ir4 = impulse_response(sweep, edge_fraction=0, oversample=4)
        assert ir4.h.size == _fast_length(4 * n) == 8100
        assert ir4.step == pytest.approx(1.0 / (ir4.h.size * df), rel=1e-12)
        assert ir4.tau[-1] < 1.0 / df

    def test_non_finite_tau_rejected(self):
        # echo windows are found by index arithmetic on the step, which needs it finite
        for step in (math.nan, math.inf):
            with pytest.raises(ArgumentError, match="tau step must be positive and finite"):
                ImpulseResponse(h=np.ones(4, complex), step=step)

    @pytest.mark.parametrize("step", [0.0, -1e-9])
    def test_step_must_be_positive(self, step):
        with pytest.raises(ArgumentError, match="tau step must be positive and finite"):
            ImpulseResponse(h=np.ones(4, complex), step=step)

    @pytest.mark.parametrize("gain", [0.0, -1.0, math.nan, math.inf])
    def test_window_gain_must_be_positive_and_finite(self, gain):
        with pytest.raises(ArgumentError, match="window_gain must be positive and finite"):
            ImpulseResponse(h=np.ones(4, complex), step=1e-9, window_gain=gain)

    @pytest.mark.parametrize("h", [np.ones(1, complex), np.ones((2, 2), complex)])
    def test_h_must_be_one_dimensional_with_two_samples(self, h):
        with pytest.raises(ArgumentError, match="1-D array of at least two samples"):
            ImpulseResponse(h=h, step=1e-9)

    def test_tau_matches_the_grid_once_stored(self):
        # the float ramp scaled in place, as impulse_response built and stored it
        ir = impulse_response(flat_sweep(), edge_fraction=0, oversample=4)
        stored = np.arange(ir.h.size, dtype=float)
        stored *= ir.step
        assert ir.tau.tobytes() == stored.tobytes()


class TestFastLength:
    def test_matches_scan(self):
        assert [_fast_length(m) for m in range(1, 5001)] == [
            smooth_at_least(m) for m in range(1, 5001)
        ]

    def test_benchmark_lengths(self):
        # 4,001 and 64,001 points at oversample 16
        assert _fast_length(64016) == 64800
        assert _fast_length(1024016) == 1036800

    def test_monotone(self):
        ms = np.unique(np.random.default_rng(23).integers(1, 1 << 22, 3000)).tolist()
        lengths = [_fast_length(m) for m in ms]
        assert lengths == sorted(lengths)
        assert all(0 <= k - m < 0.1 * m + 2 for m, k in zip(ms, lengths))


class TestTimeGate:
    def test_full_support_identity(self):
        rng = np.random.default_rng(8)
        freqs = np.linspace(3.3e9, 4.3e9, 1024)
        s = {}
        for pair in ((1, 1), (2, 1)):
            s[pair] = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        sweep = NetworkSweep(freqs=freqs, s=s)
        n = len(freqs)
        df = freqs[1] - freqs[0]
        gated = time_gate(sweep, (0.0, (n - 1) / (n * df)))
        for pair in s:
            err = np.abs(gated.pair(pair) - sweep.pair(pair))
            assert err.max() <= 1e-10 * np.abs(sweep.pair(pair)).max()

    def test_gate_everything_out(self):
        sweep = flat_sweep()
        n = len(sweep.freqs)
        df = sweep.freqs[1] - sweep.freqs[0]
        t_max = (n - 1) / (n * df)
        gated = time_gate(sweep, (0.9 * t_max, t_max))
        assert np.abs(gated.pair((2, 1))).max() < 1e-12

    def test_inverted_gate_rejected(self):
        with pytest.raises(ArgumentError):
            time_gate(flat_sweep(), (2e-8, 1e-8))

    @pytest.mark.parametrize("where", ["before", "after", "between"])
    def test_empty_gate_rejected(self, where):
        # windows before the time axis, past its end, and between two of its samples
        sweep = flat_sweep()
        n = len(sweep.freqs)
        dtau = 1.0 / (n * (sweep.freqs[1] - sweep.freqs[0]))
        gate = {"before": (-1.0, -0.5), "after": (n * dtau, 1.0),
                "between": (10.25 * dtau, 10.75 * dtau)}[where]
        with pytest.raises(ArgumentError, match="keeps no sample of time axis"):
            time_gate(sweep, gate)

    def test_crosstalk_removal(self):
        # Arrivals sit exactly on DFT bins: tau1 = 42 bins with N = 2001,
        # df = 1 MHz, so a gate from tau1/2 leaves the echo spectrum alone.
        n, df = 2001, 1e6
        band = (2.8e9, 2.8e9 + (n - 1) * df)
        tau1 = 42.0 / (n * df)
        model = LossModel(t=0.3, r=0.1, alpha=alpha_per_m(3.2), length=V_G * tau1)
        with_xt = synthesize_echo_network(model, V_G, band, n, crosstalk=0.05)
        echo_only = synthesize_echo_network(model, V_G, band, n, crosstalk=0.0)
        gated = time_gate(with_xt, (tau1 / 2.0, 1.0))
        scale = np.abs(echo_only.pair((2, 1))).max()
        err = np.abs(gated.pair((2, 1)) - echo_only.pair((2, 1))).max()
        assert err <= 1e-3 * scale

    def test_gate_preserves_all_pairs(self):
        freqs = np.linspace(3.3e9, 4.3e9, 256)
        s = {
            (2, 1): np.ones(256, complex),
            (1, 2): 0.5 * np.ones(256, complex),
        }
        sweep = NetworkSweep(freqs=freqs, s=s)
        n, df = 256, freqs[1] - freqs[0]
        gated = time_gate(sweep, (0.0, (n - 1) / (n * df)))
        assert set(gated.s) == {(2, 1), (1, 2)}


def synth_ir(model=REF_MODEL, band=(2.8e9, 8.8e9), n=4001, **kw):
    sweep = synthesize_echo_network(model, V_G, band, n, **kw)
    return impulse_response(sweep, edge_fraction=0.5, oversample=16)


class TestDetectEchoes:
    def test_arrival_times(self):
        rt = 2 * REF_MODEL.length / V_G
        assert rt == pytest.approx(42.2e-9, rel=1e-3)
        ir = synth_ir()
        train = detect_echoes(ir, rt, 3)
        d_tau = ir.tau[1] - ir.tau[0]
        for peak in train.peaks:
            expected = (2 * peak.n + 1) * REF_MODEL.length / V_G
            assert abs(peak.tau - expected) <= d_tau
        assert train.round_trip == pytest.approx(rt, rel=1e-3)

    def test_single_echo(self):
        model = LossModel(t=0.3, r=0.0, alpha=alpha_per_m(3.2), length=130e-6)
        ir = synth_ir(model)
        train = detect_echoes(ir, 2 * model.length / V_G, 0)
        assert len(train.peaks) == 1
        assert train.peaks[0].n == 0

    @pytest.mark.parametrize("rt", [math.nan, math.inf, 0.0, -42e-9])
    def test_round_trip_must_be_positive_and_finite(self, rt):
        # an infinite round trip once surfaced as ResolutionError "no samples in echo window 0"
        with pytest.raises(ArgumentError, match="is not positive and finite"):
            detect_echoes(synth_ir(n=257), rt, 2)

    def test_round_trip_too_small(self):
        ir = synth_ir()
        d_tau = ir.tau[1] - ir.tau[0]
        with pytest.raises(ArgumentError):
            detect_echoes(ir, 1.5 * d_tau, 2)

    def test_window_beyond_grid(self):
        # Trace spans 1/df; a round trip far past it leaves window n=1 empty.
        sweep = synthesize_echo_network(REF_MODEL, V_G, (3.3e9, 4.3e9), 64)
        ir = impulse_response(sweep, edge_fraction=0.5)
        span = ir.tau[-1]
        with pytest.raises(ResolutionError):
            detect_echoes(ir, 0.9 * span, 3)

    def test_noise_flags_late_echoes(self):
        ir = synth_ir(band=(3.3e9, 4.3e9), noise_sigma=1e-4, seed=42)
        rt = 2 * REF_MODEL.length / V_G
        train = detect_echoes(ir, rt, 8)
        flags = [p.below_noise_floor for p in train.peaks]
        assert not any(flags[:3])
        assert any(flags)
        first_flagged = flags.index(True)
        amps = [p.h_max for p in train.peaks]
        assert amps[0] > amps[first_flagged]

    def test_magnitude_recurrence(self):
        ratio_true = REF_MODEL.r * math.exp(-REF_MODEL.alpha * REF_MODEL.length)
        ir = synth_ir()
        train = detect_echoes(ir, 2 * REF_MODEL.length / V_G, 3)
        for a, b in zip(train.peaks, train.peaks[1:]):
            assert b.h_max / a.h_max == pytest.approx(ratio_true, rel=1e-3)


class TestFirstAtOrAfter:
    """The window-edge index arithmetic against a binary search of the built grid."""

    @given(m=st.integers(min_value=2, max_value=5000),
           step=st.floats(min_value=1e-15, max_value=1e-6),
           j=st.integers(min_value=0, max_value=5001))
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted(self, m, step, j):
        tau = np.arange(m) * step
        t = j * step
        probes = [t, np.nextafter(t, -math.inf), np.nextafter(t, math.inf),
                  t + 0.5 * step, t - 0.5 * step, 1.0 / (1.0 / t) if t else 0.0]
        for p in probes:
            assert _first_at_or_after(float(p), step, m) == np.searchsorted(tau, p)

    def test_past_the_grid(self):
        assert _first_at_or_after(math.inf, 1e-9, 10) == 10
        assert _first_at_or_after(1e300, 1e-300, 10) == 10


def reference_impulse_response(sweep, edge_fraction=0.1, oversample=1, length=None):
    """impulse_response with an explicitly zero-padded spectrum and an integer tau ramp.

    Above oversample 1 the spectrum is padded to the first 2·3·5-smooth
    length at least n * oversample, found by scanning, unless length
    gives the padded length outright.
    """
    df = grid_step(sweep.freqs)
    s = sweep.pair((2, 1))
    n = s.size
    w = _window_array(n, edge_fraction)
    if length is None:
        length = n if oversample == 1 else smooth_at_least(n * oversample)
    padded = np.zeros(length, dtype=complex)
    padded[:n] = s * w
    h = dft(padded, "inverse")
    m = padded.size
    return ImpulseResponse(h=h, step=1.0 / (m * df), window_gain=float(w.sum()) / math.sqrt(m))


def reference_detect_echoes(ir, expected_round_trip, n_max):
    """detect_echoes with a boolean mask per window and per noise region."""
    if n_max < 0:
        raise ArgumentError("n_max must be nonnegative")
    dtau = ir.step
    if expected_round_trip < 2.0 * dtau:
        raise ArgumentError(
            f"round trip {expected_round_trip:.3g} s needs a time step of at most "
            f"half its length; have {dtau:.3g} s"
        )
    rt = expected_round_trip
    mag = np.abs(ir.h)
    floor_region = mag[ir.tau >= rt / 4.0]
    noise_floor = 3.0 * float(np.median(floor_region)) if floor_region.size else 0.0
    peaks = []
    for n in range(n_max + 1):
        lo = max(n * rt, rt / 4.0)
        hi = (n + 1) * rt
        mask = (ir.tau >= lo) & (ir.tau < hi)
        if not np.any(mask):
            raise ResolutionError(
                f"no samples in echo window {n} ([{lo:.3g}, {hi:.3g}) s); "
                "increase the band span or oversampling"
            )
        offset = int(np.argmax(np.where(mask, mag, -1.0)))
        tau_n, h_n = _refine_peak(mag, offset, dtau)
        tau_n = min(max(tau_n, lo), hi - dtau)
        peaks.append((n, tau_n, h_n / ir.window_gain, h_n < noise_floor))
    if len(peaks) >= 2:
        round_trip = float(np.median(np.diff([p[1] for p in peaks])))
    else:
        round_trip = rt
    return EchoTrain(peaks=peaks, round_trip=round_trip)


def train_bits(train):
    """Every field of an echo train, floats as their exact hex."""
    peaks = [(p.n, float(p.tau).hex(), float(p.h_max).hex(), p.below_noise_floor)
             for p in train.peaks]
    return peaks, float(train.round_trip).hex()


def outcome(fn, *args, **kw):
    """A call's result, or the type and text of the toolkit error it raised."""
    try:
        return fn(*args, **kw)
    except (ArgumentError, ResolutionError) as exc:
        return type(exc), str(exc)


class TestTimeDomainOracle:
    """impulse_response and detect_echoes against the full-length versions they replaced."""

    @given(
        n_points=st.integers(min_value=16, max_value=700),
        oversample=st.integers(min_value=1, max_value=16),
        edge_fraction=st.floats(min_value=0.0, max_value=0.5),
        r=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        length=st.floats(min_value=5e-6, max_value=400e-6),
        noise=st.sampled_from([0.0, 1e-3]),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_identical(self, n_points, oversample, edge_fraction, r, length,
                           noise, data):
        model = LossModel(t=0.3, r=r, alpha=alpha_per_m(3.2), length=length)
        sweep = synthesize_echo_network(model, V_G, (2.8e9, 8.8e9), n_points,
                                        noise_sigma=noise, seed=3)
        ir = impulse_response(sweep, edge_fraction=edge_fraction,
                              oversample=oversample)
        ref = reference_impulse_response(sweep, edge_fraction=edge_fraction,
                                         oversample=oversample)
        assert ir.step == ref.step
        assert ir.tau.tobytes() == ref.tau.tobytes()
        assert ir.magnitude.tobytes() == np.abs(ref.h).tobytes()
        assert ir.h.tobytes() == ref.h.tobytes()
        assert ir.window_gain == ref.window_gain

        # round trips from the smallest allowed (window 0 starts next to
        # tau = 0) to one grid period; whole multiples of the step put
        # window edges on samples
        dtau = ir.step
        period = ir.tau.size * dtau
        if data.draw(st.booleans(), label="on_grid"):
            steps = data.draw(st.integers(min_value=2, max_value=max(2, ir.tau.size // 2)))
            rt = steps * dtau
        else:
            rt = max(2.0 * dtau, period / data.draw(st.floats(min_value=1.0, max_value=60.0)))
        # past the last window that holds a sample, so exhaustion is reached
        n_max = data.draw(st.integers(min_value=0, max_value=int(period / rt) + 2), label="n_max")
        got = outcome(detect_echoes, ir, rt, n_max)
        want = outcome(reference_detect_echoes, ref, rt, n_max)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert train_bits(got) == train_bits(want)

    @pytest.mark.parametrize("rt_steps", [1.5, 2.0, 2.5, 3.0])
    def test_round_trip_near_two_steps(self, rt_steps):
        ir = synth_ir(n=257)
        rt = rt_steps * ir.step
        n_max = 200
        got = outcome(detect_echoes, ir, rt, n_max)
        want = outcome(reference_detect_echoes, ir, rt, n_max)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert train_bits(got) == train_bits(want)

    def test_windows_to_grid_end(self):
        # the last window runs past tau[-1] and is cut short; the next is empty
        ir = impulse_response(synthesize_echo_network(REF_MODEL, V_G, (2.8e9, 8.8e9), 4001),
                              edge_fraction=0.5)
        rt = 2 * REF_MODEL.length / V_G
        last = int(ir.tau[-1] // rt)
        train = detect_echoes(ir, rt, last)
        assert train_bits(train) == train_bits(reference_detect_echoes(ir, rt, last))
        with pytest.raises(ResolutionError, match=f"no samples in echo window {last + 1} "):
            detect_echoes(ir, rt, last + 1)


class TestTimeDomainMemory:
    """tracemalloc peaks at 64,001 points and oversample 16 (1,036,800 bins).

    tracemalloc sees numpy's array buffers but not pocketfft's own
    scratch, so these bound the temporaries sawkit allocates, not the
    process's peak.
    """

    N = 64001

    def test_impulse_response(self):
        sweep = synthesize_echo_network(REF_MODEL, V_G, BAND, self.N)
        tracemalloc.start()
        try:
            ir = impulse_response(sweep, edge_fraction=0.5, oversample=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # h (16.6 MB) and its magnitude (8.3 MB) are the result, and nothing else of full length
        assert ir.h.size == 1036800
        assert peak < 27e6

    def test_detect_echoes(self):
        sweep = synthesize_echo_network(REF_MODEL, V_G, BAND, self.N)
        ir = impulse_response(sweep, edge_fraction=0.5, oversample=16)
        tracemalloc.start()
        try:
            train = detect_echoes(ir, 2 * REF_MODEL.length / V_G, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the median's copy of |h| past a quarter round trip (8.2 MB), and nothing
        # else of full length
        assert len(train.peaks) == 13
        assert peak < 12e6


class TestEchoTrainType:
    def test_requires_consecutive_indices(self):
        peaks = [(0, 1e-8, 1.0, False), (2, 3e-8, 0.5, False)]
        with pytest.raises(ArgumentError):
            EchoTrain(peaks=peaks, round_trip=2e-8)

    def test_requires_increasing_tau(self):
        peaks = [(0, 3e-8, 1.0, False), (1, 1e-8, 0.5, False)]
        with pytest.raises(ArgumentError):
            EchoTrain(peaks=peaks, round_trip=2e-8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", [0, 1])
    def test_non_finite_tau_rejected(self, bad, row):
        peaks = [(0, 1e-8, 1.0, False), (1, 3e-8, 0.5, False)]
        peaks[row] = (row, bad, peaks[row][2], False)
        with pytest.raises(ArgumentError, match="arrival times must be finite"):
            EchoTrain(peaks=peaks, round_trip=2e-8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_h_max_rejected(self, bad):
        # NaN once reached fit_echo_decay and failed there as "T must lie in [0, 1]"
        peaks = [(0, 1e-8, 1.0, False), (1, 3e-8, bad, False)]
        with pytest.raises(ArgumentError, match="magnitudes must be finite and nonnegative"):
            EchoTrain(peaks=peaks, round_trip=2e-8)

    @pytest.mark.parametrize("round_trip", [math.nan, math.inf, 0.0, -2e-8])
    def test_bad_round_trip_rejected(self, round_trip):
        peaks = [(0, 1e-8, 1.0, False), (1, 3e-8, 0.5, False)]
        with pytest.raises(ArgumentError, match="round trip must be positive and finite"):
            EchoTrain(peaks=peaks, round_trip=round_trip)

    def test_tuples_coerced_to_table(self):
        train = EchoTrain(peaks=[(0, 1e-8, 1.0, False), (1, 3e-8, 0.5, True)], round_trip=2e-8)
        assert isinstance(train.peaks, np.recarray)
        assert train.peaks.n.tolist() == [0, 1]
        assert train.peaks.tau.tolist() == [1e-8, 3e-8]
        assert train.peaks.h_max.tolist() == [1.0, 0.5]
        assert train.peaks.below_noise_floor.tolist() == [False, True]

    @pytest.mark.parametrize("peaks", [[(0, 1e-8, 1.0)], [(0, "x", 1.0, False)],
                                       [(0, 1e-8, 1.0, False, 7)]])
    def test_malformed_rows_rejected(self, peaks):
        with pytest.raises(ArgumentError, match="malformed echo rows"):
            EchoTrain(peaks=peaks, round_trip=2e-8)

    def test_empty_list_is_an_empty_table(self):
        assert len(EchoTrain(peaks=[], round_trip=2e-8).peaks) == 0

    def test_rows_read_as_records(self):
        # the shape bench/spans.py reads a detected train in
        train = detect_echoes(synth_ir(band=(3.3e9, 4.3e9), noise_sigma=1e-4, seed=42),
                              2 * REF_MODEL.length / V_G, 8)
        assert len(train.peaks) == 9
        flags = [p.below_noise_floor for p in train.peaks]
        assert flags == train.peaks.below_noise_floor.tolist()
        assert sum(1 for p in train.peaks if not p.below_noise_floor) >= 3
        assert [p.n for p in train.peaks] == list(range(9))
        assert train.peaks[0].h_max == train.peaks.h_max[0]

    def test_csv_bytes(self):
        # the former per-row f-string writer is the byte reference
        magnitudes = [0.5, 0.0, 1e-300, 5e-324] + [0.3 ** n for n in range(4, 240)]
        peaks = [(n, (2 * n + 1) * 1.055e-8, h, False) for n, h in enumerate(magnitudes)]
        lines = ["n,tau_ns,h_max,2ln_h_max\n"]
        for n, tau, h, _ in peaks:
            two_ln = 2.0 * math.log(h) if h > 0 else -math.inf
            lines.append(f"{n},{tau * 1e9:.17g},{h:.17g},{two_ln:.17g}\n")
        train = EchoTrain(peaks=peaks, round_trip=2.11e-8)
        assert echo_train_csv(train) == "".join(lines).encode()
        assert b"\n1,31.650000000000002,0,-inf\n" in echo_train_csv(train)

    def test_csv_layout(self):
        peaks = [(0, 1.055e-8, 0.5, False), (1, 3.165e-8, 0.25, False)]
        train = EchoTrain(peaks=peaks, round_trip=2.11e-8)
        lines = echo_train_csv(train).decode().strip().splitlines()
        assert lines[0] == "n,tau_ns,h_max,2ln_h_max"
        row = lines[1].split(",")
        assert int(row[0]) == 0
        assert float(row[1]) == pytest.approx(10.55, rel=1e-9)
        assert float(row[3]) == pytest.approx(2 * math.log(0.5), rel=1e-9)


def ideal_train(model, n_echoes=5):
    peaks = []
    for n in range(n_echoes):
        amp = model.t * model.r**n * math.exp(-model.alpha * (2 * n + 1) * model.length / 2)
        peaks.append((n, (2 * n + 1) * model.length / V_G, amp, False))
    return EchoTrain(peaks=peaks, round_trip=2 * model.length / V_G)


class TestFitEchoDecay:
    def test_known_r_exact(self):
        train = ideal_train(REF_MODEL)
        fit = fit_echo_decay(train, REF_MODEL.length, known_r=REF_MODEL.r)
        assert fit.alpha == pytest.approx(REF_MODEL.alpha, rel=1e-10)
        assert fit.t == pytest.approx(REF_MODEL.t, rel=1e-10)
        assert fit.alpha_db_per_mm == pytest.approx(3.2, rel=1e-10)

    def test_known_alpha_exact(self):
        train = ideal_train(REF_MODEL)
        fit = fit_echo_decay(train, REF_MODEL.length, known_alpha=REF_MODEL.alpha)
        assert fit.r == pytest.approx(REF_MODEL.r, rel=1e-10)
        assert fit.t == pytest.approx(REF_MODEL.t, rel=1e-10)

    def test_room_temperature_alpha(self):
        model = LossModel(t=0.3, r=0.1, alpha=alpha_per_m(35.2), length=130e-6)
        fit = fit_echo_decay(ideal_train(model), model.length, known_r=model.r)
        assert fit.alpha_db_per_mm == pytest.approx(35.2, rel=1e-9)

    def test_flat_train_zero_alpha(self):
        model = LossModel(t=0.9, r=1.0, alpha=0.0, length=130e-6)
        fit = fit_echo_decay(ideal_train(model), model.length, known_r=1.0)
        assert fit.alpha == pytest.approx(0.0, abs=1e-9)
        assert fit.t == pytest.approx(0.9, rel=1e-9)

    def test_growth_rejected(self):
        peaks = [(n, (2 * n + 1) * 1e-8, 0.1 * 2.0**n, False) for n in range(4)]
        train = EchoTrain(peaks=peaks, round_trip=2e-8)
        with pytest.raises(NonphysicalGrowthError):
            fit_echo_decay(train, 130e-6, known_r=0.5)

    def test_recovered_t_above_one_rejected(self):
        # Decay much slower than R alone implies: T would exceed 1.
        peaks = [(n, (2 * n + 1) * 1e-8, 40.0 * 0.9**n, False) for n in range(4)]
        train = EchoTrain(peaks=peaks, round_trip=2e-8)
        with pytest.raises(InconsistencyError):
            fit_echo_decay(train, 130e-6, known_r=0.9)

    def test_exactly_one_known(self):
        train = ideal_train(REF_MODEL)
        with pytest.raises(ArgumentError):
            fit_echo_decay(train, REF_MODEL.length)
        with pytest.raises(ArgumentError):
            fit_echo_decay(train, REF_MODEL.length, known_r=0.1, known_alpha=1.0)

    def test_needs_two_echoes(self):
        train = EchoTrain(peaks=[(0, 1e-8, 0.5, False)], round_trip=2e-8)
        with pytest.raises(FitError):
            fit_echo_decay(train, 130e-6, known_r=0.1)

    def test_flagged_suffix_ignored(self):
        model = REF_MODEL
        peaks = ideal_train(model, 4).peaks.tolist()
        # Junk beyond the noise floor must not drag the slope.
        peaks.append((4, 9 * model.length / V_G, 0.02, True))
        train = EchoTrain(peaks=peaks, round_trip=2 * model.length / V_G)
        fit = fit_echo_decay(train, model.length, known_r=model.r)
        assert fit.alpha == pytest.approx(model.alpha, rel=1e-10)

    def test_loss_model_summary(self):
        text = loss_model_summary(REF_MODEL)
        assert "alpha" in text
        assert "db_per_mm" in text or "dB/mm" in text
        assert "3.2" in text


class TestSynthesizeEchoNetwork:
    def test_single_arrival_amplitude(self):
        model = LossModel(t=0.3, r=0.0, alpha=alpha_per_m(3.2), length=130e-6)
        ir = synth_ir(model)
        train = detect_echoes(ir, 2 * model.length / V_G, 0)
        expected = model.t * math.exp(-model.alpha * model.length / 2)
        assert train.peaks[0].h_max == pytest.approx(expected, rel=1e-3)

    def test_crosstalk_only_flat(self):
        model = LossModel(t=0.0, r=0.1, alpha=alpha_per_m(3.2), length=130e-6)
        sweep = synthesize_echo_network(model, V_G, (3.3e9, 4.3e9), 201, crosstalk=0.07)
        assert np.allclose(sweep.pair((2, 1)), 0.07, rtol=0, atol=1e-12)

    def test_idt_envelope_tapers_band_edges(self):
        sweep = synthesize_echo_network(
            REF_MODEL, V_G, (3.3e9, 4.3e9), 401, idt_response=(3.8e9, 0.2)
        )
        s = np.abs(sweep.pair((2, 1)))
        assert s[0] < 1e-6
        assert s[200] > 0.01

    def test_noise_needs_seed(self):
        with pytest.raises(ArgumentError):
            synthesize_echo_network(REF_MODEL, V_G, (3.3e9, 4.3e9), 64, noise_sigma=1e-3)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_noise_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(ArgumentError, match="seed must be a nonnegative integer"):
            synthesize_echo_network(REF_MODEL, V_G, (3.3e9, 4.3e9), 64, noise_sigma=1e-3, seed=seed)

    def test_noise_reproducible(self):
        a = synthesize_echo_network(REF_MODEL, V_G, (3.3e9, 4.3e9), 64, noise_sigma=1e-3, seed=9)
        b = synthesize_echo_network(REF_MODEL, V_G, (3.3e9, 4.3e9), 64, noise_sigma=1e-3, seed=9)
        assert np.array_equal(a.pair((2, 1)), b.pair((2, 1)))

    def test_minimum_points(self):
        with pytest.raises(ArgumentError):
            synthesize_echo_network(REF_MODEL, V_G, (3.3e9, 4.3e9), 8)

    def test_band_must_have_width(self):
        with pytest.raises(ArgumentError):
            synthesize_echo_network(REF_MODEL, V_G, (4.3e9, 3.3e9), 64)

    @pytest.mark.parametrize("crosstalk", [math.inf, -math.inf, math.nan, complex(0.1, math.nan)])
    def test_crosstalk_must_be_finite(self, crosstalk):
        with pytest.raises(ArgumentError, match="crosstalk must be finite"):
            synthesize_echo_network(REF_MODEL, V_G, (3.3e9, 4.3e9), 64, crosstalk=crosstalk)

    @pytest.mark.parametrize("sigma", [-1.0, -1e-12, math.inf, math.nan])
    def test_noise_must_be_nonnegative_and_finite(self, sigma):
        with pytest.raises(ArgumentError, match="noise_sigma must be nonnegative and finite"):
            synthesize_echo_network(REF_MODEL, V_G, (3.3e9, 4.3e9), 64, noise_sigma=sigma, seed=1)

    @pytest.mark.parametrize("v_g", [0.0, -V_G, math.inf, math.nan])
    def test_group_velocity_must_be_positive_and_finite(self, v_g):
        with pytest.raises(ArgumentError, match="group velocity must be positive and finite"):
            synthesize_echo_network(REF_MODEL, v_g, (3.3e9, 4.3e9), 64)

    @pytest.mark.parametrize("t", [0.0, 0.3])
    @pytest.mark.parametrize("idt", [(3.8e9, math.nan), (math.nan, 0.2), (3.8e9, math.inf),
                                     (math.inf, 0.2), (0.0, 0.2), (3.8e9, -0.2)])
    def test_idt_response_must_be_positive_and_finite(self, idt, t):
        # checked with T = 0 too, where no arrival is summed
        model = LossModel(t=t, r=0.1, alpha=1.0, length=1e-4)
        with pytest.raises(ArgumentError, match="idt_response needs positive, finite"):
            synthesize_echo_network(model, V_G, (3.3e9, 4.3e9), 64, idt_response=idt)


def reference_n_cut(model, v_g, df):
    """The echo series' last index N, by the rules synthesize_echo_network documents."""
    rho = model.r * math.exp(-model.alpha * model.length)
    if rho <= 0:
        n_cut = 0
    elif rho < 1:
        n_cut = int(math.ceil(math.log(1e-6) / math.log(rho)))
    else:
        n_cut = int(math.floor((v_g / (df * model.length) - 1.0) / 2.0))
    return max(0, min(n_cut, 10000))


def explicit_echo_sum(model, v_g, f, n_cut):
    """The echo series term by term, as a phase matrix over blocks of echoes."""
    ns = np.arange(n_cut + 1)
    amplitude = model.t * model.r**ns * np.exp(-model.alpha * (2 * ns + 1) * model.length / 2.0)
    delays = (2 * ns + 1) * model.length / v_g
    total = np.zeros(f.size, dtype=complex)
    block = max(1, (1 << 19) // f.size)
    for lo in range(0, ns.size, block):
        phases = np.exp(-2j * np.pi * np.outer(f, delays[lo:lo + block]))
        total += phases @ amplitude[lo:lo + block].astype(complex)
    return total


@functools.lru_cache(maxsize=None)
def _reference_arrivals(t, r, alpha, length, v_g, band, n_points):
    model = LossModel(t=t, r=r, alpha=alpha, length=length)
    f = np.linspace(band[0], band[1], n_points)
    arrivals = explicit_echo_sum(model, v_g, f, reference_n_cut(model, v_g, f[1] - f[0]))
    arrivals.flags.writeable = False
    return arrivals


def reference_synthesis(model, v_g, band, n_points, crosstalk=0.0, idt_response=None):
    """S21 of synthesize_echo_network from the explicit echo sum: the closed form's oracle."""
    f = np.linspace(band[0], band[1], n_points)
    arrivals = _reference_arrivals(model.t, model.r, model.alpha, model.length, v_g,
                                   tuple(band), n_points)
    if idt_response is not None:
        center, frac_bw = idt_response
        half = center * frac_bw / 2.0
        x = np.clip((f - center) / half, -1.0, 1.0)
        arrivals = arrivals * np.where(np.abs(f - center) <= half, np.cos(np.pi * x / 2.0) ** 2, 0.0)
    return np.full(n_points, complex(crosstalk)) + arrivals


def relative_error(sweep, reference):
    return float(np.max(np.abs(sweep.pair((2, 1)) - reference)) / np.max(np.abs(reference)))


def phase_rounding(model, v_g, band, n_points):
    """First-order change of the echo sum when theta moves by one rounding.

    Term n turns by (2n+1) theta eps; at worst the turns add up
    coherently. Both sums evaluate rounded phases, so they may differ by
    this much even where each is as exact as double precision allows.
    """
    n_cut = reference_n_cut(model, v_g, (band[1] - band[0]) / (n_points - 1))
    ns = np.arange(n_cut + 1)
    amplitude = model.t * model.r**ns * np.exp(-model.alpha * (2 * ns + 1) * model.length / 2.0)
    theta = 2.0 * np.pi * band[1] * model.length / v_g
    return np.finfo(float).eps * theta * float(np.sum(amplitude * (2 * ns + 1)))


def high_precision_sum(model, v_g, f, n_cut):
    """explicit_echo_sum in closed form and to 30 digits, via mpmath."""
    mp = pytest.importorskip("mpmath")
    m = n_cut + 1
    out = []
    with mp.workdps(30):
        length = mp.mpf(model.length)
        rho = mp.mpf(model.r) * mp.exp(-mp.mpf(model.alpha) * length)
        amplitude = model.t * mp.exp(-mp.mpf(model.alpha) * length / 2)
        for fi in f:
            theta = 2 * mp.pi * mp.mpf(fi) * length / mp.mpf(v_g)
            q = rho * mp.exp(-2j * theta)
            terms = (1 - q**m) / (1 - q) if q != 1 else m
            out.append(complex(amplitude * mp.exp(-1j * theta) * terms))
    return np.array(out)


PAPER_LENGTH = 58.565e-6
BAND = (2.8e9, 4.8e9)
# 2 L / v_g = 2**-23 s and a 2**13 Hz step make every phase exact and put
# a resonance on every 1,024th point; a lossless train keeps N + 1 = 1,024
# echoes (wrap-around rule)
DYADIC_LENGTH = 2.0**-12
DYADIC_V_G = 2.0**12
DYADIC_BAND = (300 * 2.0**23, 300 * 2.0**23 + 4000 * 2.0**13)


class TestClosedFormOracle:
    """The closed-form echo sum against the explicit sum it replaced."""

    @pytest.mark.parametrize("n_points", [16, 4001])
    @pytest.mark.parametrize("alpha_db", [0.0, 0.5, 3.2])
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.6, 0.95, 0.999999, 1.0])
    @pytest.mark.parametrize(
        "crosstalk, idt",
        [(0.0, None), (0.02 - 0.01j, None), (0.0, (3.8e9, 0.3)), (0.05, (3.6e9, 0.5))],
    )
    def test_matches_explicit_sum(self, r, alpha_db, n_points, crosstalk, idt):
        model = LossModel(t=0.3, r=r, alpha=alpha_per_m(alpha_db), length=130e-6)
        sweep = synthesize_echo_network(model, V_G, BAND, n_points, crosstalk=crosstalk,
                                        idt_response=idt)
        reference = reference_synthesis(model, V_G, BAND, n_points, crosstalk, idt)
        tolerance = 1e-11 + phase_rounding(model, V_G, BAND, n_points) / np.max(np.abs(reference))
        assert relative_error(sweep, reference) <= tolerance
        assert np.array_equal(sweep.pair((1, 2)), sweep.pair((2, 1)))

    @pytest.mark.parametrize(
        "r, n_points",
        # 10,001 echoes on a grid that misses every resonance, and on a
        # finer one; the lossless train keeps 47 (wrap-around rule)
        [(0.999999, 16), (0.999999, 4001), (1.0, 4001)],
    )
    def test_near_lossless_against_high_precision(self, r, n_points):
        # where phase_rounding allows the explicit sum a wide margin, a
        # 30-digit evaluation of the same truncated series holds the
        # closed form to 1e-9
        model = LossModel(t=0.3, r=r, alpha=0.0, length=130e-6)
        sweep = synthesize_echo_network(model, V_G, BAND, n_points)
        picks = np.arange(0, n_points, 97)
        n_cut = reference_n_cut(model, V_G, sweep.freqs[1] - sweep.freqs[0])
        exact = high_precision_sum(model, V_G, sweep.freqs[picks], n_cut)
        error = np.max(np.abs(sweep.pair((2, 1))[picks] - exact))
        assert error <= 1e-9 * np.max(np.abs(exact))

    @pytest.mark.parametrize(
        "model, n_points",
        [
            (REF_MODEL, 4001),  # README echo device, 7 arrivals
            (LossModel(t=0.3, r=0.95, alpha=alpha_per_m(0.5), length=PAPER_LENGTH), 4001),
            (LossModel(t=0.3, r=0.6, alpha=alpha_per_m(2.0), length=PAPER_LENGTH), 4001),
            (LossModel(t=0.3, r=0.95, alpha=alpha_per_m(0.5), length=PAPER_LENGTH), 64001),
        ],
        ids=["echo", "long_train", "paper_cavity", "long_train_64k"],
    )
    def test_benchmark_devices(self, model, n_points):
        sweep = synthesize_echo_network(model, V_G, BAND, n_points)
        assert relative_error(sweep, reference_synthesis(model, V_G, BAND, n_points)) <= 1e-11

    def test_seeded_noise_unchanged(self):
        quiet = synthesize_echo_network(REF_MODEL, V_G, BAND, 401)
        noisy = synthesize_echo_network(REF_MODEL, V_G, BAND, 401, noise_sigma=1e-3, seed=9)
        rng = np.random.default_rng(9)
        noise = 1e-3 * (rng.standard_normal(401) + 1j * rng.standard_normal(401))
        assert np.array_equal(noisy.pair((2, 1)), quiet.pair((2, 1)) + noise)

    def test_lossless_resonance_is_exact(self):
        model = LossModel(t=0.3, r=1.0, alpha=0.0, length=DYADIC_LENGTH)
        s21 = synthesize_echo_network(model, DYADIC_V_G, DYADIC_BAND, 4001).pair((2, 1))
        assert reference_n_cut(model, DYADIC_V_G, 2.0**13) + 1 == 1024
        assert np.isfinite(s21).all()
        hits = np.arange(0, 4001, 1024)
        assert np.array_equal(np.abs(s21[hits]), np.full(hits.size, 0.3 * 1024))
        assert np.array_equal(s21[hits].imag, np.zeros(hits.size))
        reference = reference_synthesis(model, DYADIC_V_G, DYADIC_BAND, 4001)
        assert np.max(np.abs(s21 - reference)) <= 1e-9 * np.max(np.abs(reference))

    @pytest.mark.parametrize("offset", [0.0, 2.0**-5])
    @pytest.mark.parametrize("r", [1.0, 1.0 - 1e-9, 1.0 - 2.0**-40])
    def test_resonances_on_exact_phases(self, r, offset):
        # with exact phases only the echo sum itself can round. Near
        # resonance 1 - rho cos(2 phi) and 1 - rho^m cos(2 m phi) would
        # lose eps / (1 - rho) without the sin² and expm1 forms; the
        # offset puts points at phi = pi 2**-28, where that shows
        model = LossModel(t=0.3, r=r, alpha=0.0, length=DYADIC_LENGTH)
        band = (DYADIC_BAND[0] + offset, DYADIC_BAND[1] + offset)
        sweep = synthesize_echo_network(model, DYADIC_V_G, band, 4001)
        picks = np.r_[np.arange(0, 4001, 1024), np.arange(1, 4001, 1024), np.arange(3, 4001, 97)]
        n_cut = reference_n_cut(model, DYADIC_V_G, 2.0**13)
        exact = high_precision_sum(model, DYADIC_V_G, sweep.freqs[picks], n_cut)
        error = np.max(np.abs(sweep.pair((2, 1))[picks] - exact))
        assert error <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize("r", [1.0, 0.999999])
    def test_memory_independent_of_echo_count(self, r):
        # a 5 um path at 64,001 points reaches the 10,000-echo cap both
        # losslessly (wrap-around rule) and near-losslessly (tail rule);
        # a phase matrix would take 64,001 x 10,001 x 16 B = 10 GB
        model = LossModel(t=0.3, r=r, alpha=0.0, length=5e-6)
        n = 64001
        df = (BAND[1] - BAND[0]) / (n - 1)
        assert reference_n_cut(model, V_G, df) == 10000
        tracemalloc.start()
        try:
            sweep = synthesize_echo_network(model, V_G, BAND, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        s21 = sweep.pair((2, 1))
        assert np.isfinite(s21).all()
        picks = np.arange(0, n, 1000)
        reference = explicit_echo_sum(model, V_G, sweep.freqs[picks], 10000)
        assert np.max(np.abs(s21[picks] - reference)) <= 1e-9 * np.max(np.abs(reference))


class TestLossModelType:
    def test_ranges(self):
        with pytest.raises(ArgumentError):
            LossModel(t=1.5, r=0.1, alpha=1.0, length=1e-4)
        with pytest.raises(ArgumentError):
            LossModel(t=0.3, r=-0.1, alpha=1.0, length=1e-4)
        with pytest.raises(ArgumentError):
            LossModel(t=0.3, r=0.1, alpha=1.0, length=0.0)

    @pytest.mark.parametrize("alpha", [-1.0, math.inf, math.nan])
    def test_alpha_must_be_nonnegative_and_finite(self, alpha):
        with pytest.raises(ArgumentError, match="alpha must be nonnegative and finite"):
            LossModel(t=0.3, r=0.1, alpha=alpha, length=1e-4)

    @pytest.mark.parametrize("length", [-1e-4, math.inf, math.nan])
    def test_length_must_be_positive_and_finite(self, length):
        with pytest.raises(ArgumentError, match="length must be positive and finite"):
            LossModel(t=0.3, r=0.1, alpha=1.0, length=length)

    def test_boundary_values_allowed(self):
        LossModel(t=0.0, r=0.0, alpha=0.0, length=1e-4)
        LossModel(t=1.0, r=1.0, alpha=0.0, length=1e-4)

    def test_db_per_mm_reporting(self):
        assert REF_MODEL.alpha_db_per_mm == pytest.approx(3.2, rel=1e-12)


class TestClosedLoop:
    def test_reference_device(self):
        ir = synth_ir()
        train = detect_echoes(ir, 2 * REF_MODEL.length / V_G, 3)
        fit = fit_echo_decay(train, REF_MODEL.length, known_r=REF_MODEL.r)
        assert fit.alpha_db_per_mm == pytest.approx(3.2, rel=0.005)
        assert fit.t == pytest.approx(REF_MODEL.t, rel=0.01)

    def test_seeded_family(self):
        rng = np.random.default_rng(777)
        kept = 0
        while kept < 20:
            t = rng.uniform(0.1, 0.5)
            r = rng.uniform(0.05, 0.3)
            a_db = rng.uniform(1.0, 40.0)
            length = rng.uniform(30e-6, 130e-6)
            model = LossModel(t=t, r=r, alpha=alpha_per_m(a_db), length=length)
            if model.r * math.exp(-model.alpha * model.length) < 0.1:
                continue
            kept += 1
            ir = synth_ir(model)
            train = detect_echoes(ir, 2 * model.length / V_G, 3)
            assert not any(p.below_noise_floor for p in train.peaks)
            fit = fit_echo_decay(train, model.length, known_r=model.r)
            assert fit.alpha == pytest.approx(model.alpha, rel=0.01)
            assert fit.t == pytest.approx(model.t, rel=0.02)

    def test_fast_length_against_exact_padding(self):
        # the README echo device: 4,001 points, R 0.1, 3.2 dB/mm, 130 um;
        # 64,800 bins against an explicit 16 x 4,001 = 64,016-bin zero-pad
        sweep = synthesize_echo_network(REF_MODEL, V_G, BAND, 4001)
        ir = impulse_response(sweep, edge_fraction=0.5, oversample=16)
        assert ir.h.size == 64800
        exact = reference_impulse_response(sweep, edge_fraction=0.5, length=16 * 4001)
        rt = 2 * REF_MODEL.length / V_G
        trains = [detect_echoes(x, rt, 4) for x in (ir, exact)]
        assert len(trains[0].peaks) == len(trains[1].peaks) == 5
        for a, b in zip(trains[0].peaks, trains[1].peaks):
            assert abs(a.tau - b.tau) <= 0.01 * ir.step
            assert a.h_max == pytest.approx(b.h_max, rel=1e-5)
        fast, ref = (fit_echo_decay(t, REF_MODEL.length, known_r=REF_MODEL.r) for t in trains)
        assert fast.alpha == pytest.approx(ref.alpha, rel=1e-4)
