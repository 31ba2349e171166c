"""The per-hop sampling kernel against the eigensolver/Cholesky oracles.

Both forms of the kernel -- closed-form entries for receive Gram forms of
at most two rows, the Bartlett factor above -- are checked on identical
Gram forms (the dense matrices formed from the drawn entries or factor,
the interference form of at most two rows as the diagonal of its
eigensolver spectrum, the frame the closed form reads the desired entries
in) against ``descending_spectra`` and conftest's ``logdet2_psd``, with the
pairing bounds and both mutual informations written out below as
differences of log-dets.  Where the formed matrices lose digits -- powers
far apart -- the factor route is checked against a rank-one closed form
and the pairing sandwich instead.  The Bartlett draw itself is checked in
law against drawn channels: those of at most two rows go through a
test-local closed form on their Gram entries, itself checked against the
kernel's factor route on shared channels, and larger ones through the
eigensolver/Cholesky reference on their formed Gram matrices, so the law
test never takes the code under test as its own reference.
"""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import LAW_CASES, PINNED_NUMPY, dense_gram, draw_channels, logdet2_psd

from relay_outage.cli import _ks_distance
from relay_outage.mutual_info import (
    APPROX_MI,
    EXACT,
    EXACT_MI,
    HOP_FIELDS,
    LN2,
    LOWER,
    MIDPOINT,
    UPPER,
    HopConfig,
    hop_fields,
    sample_hop_chunk,
    sample_hop_fields,
)
from relay_outage.randmat import MAX_CLOSED_FORM_RX, SmallGram, descending_spectra, sample_gram
from relay_outage.rng import chunk_streams, substream
from relay_outage.validation import hop_at_scales
from relay_outage.wishart_stats import expected_logdet

SEED = 606
N_DRAWS = 64
SCALES = (1e-3, 1.0, 50.0, 1e4)
LOGDET_ATOL = 1e-9  # bits
SPECTRUM_RTOL = 1e-9  # relative to max(1, largest eigenvalue)


def _grams(rx, tx, rsi_tx, *path):
    stream = substream(SEED, *path)
    return (
        sample_gram(N_DRAWS, rx, tx, stream),
        sample_gram(N_DRAWS, rx, rsi_tx, stream),
    )


def _assert_spectrum_matches(gram):
    got = np.stack(gram.spectrum, axis=-1)
    want = descending_spectra(dense_gram(gram))
    assert np.all(got >= 0.0)
    assert np.all(np.diff(got, axis=-1) <= 0.0)
    scale = np.maximum(want[:, :1], 1.0)
    assert np.all(np.abs(got - want) <= SPECTRUM_RTOL * scale)


def _pairing_bounds(alpha, beta, eta, rho):
    """Same-rank (lower) and opposite-rank (upper) pairing of descending spectra."""
    lower = np.log1p(rho * alpha + eta * beta).sum(axis=-1) / LN2
    upper = np.log1p(rho * alpha + eta * beta[..., ::-1]).sum(axis=-1) / LN2
    return lower, upper


def _reference_fields(w, wbar, eta, rho):
    rx = w.shape[-1]
    beta = descending_spectra(w)
    if wbar is None:
        wbar = np.zeros_like(w)
        alpha = np.zeros_like(beta)
    else:
        alpha = descending_spectra(wbar)
    lower, upper = _pairing_bounds(alpha, beta, eta, rho)
    base = np.eye(rx) + rho * wbar
    return {
        EXACT: logdet2_psd(base + eta * w),
        LOWER: lower,
        UPPER: upper,
        MIDPOINT: 0.5 * (lower + upper),
        EXACT_MI: logdet2_psd(base + eta * w) - logdet2_psd(base),
        APPROX_MI: 0.5 * (lower + upper) - logdet2_psd(base),
    }


def _assert_kernel_matches_reference(rx, tx, rsi_tx):
    gram, rsi_gram = _grams(rx, tx, rsi_tx, rx, tx, rsi_tx)
    if rx <= MAX_CLOSED_FORM_RX:
        _assert_spectrum_matches(gram)
        _assert_spectrum_matches(rsi_gram)
    w, wbar = dense_gram(gram), dense_gram(rsi_gram)
    if rx <= MAX_CLOSED_FORM_RX:
        # the closed form reads W's entries in Wbar's eigenframe, where Wbar
        # is the diagonal of its spectrum, taken here by the eigensolver
        wbar = descending_spectra(wbar)[..., np.newaxis] * np.eye(rx)
    for eta in SCALES:
        for rho in (0.0,) + SCALES:
            rsi = rsi_gram if rho > 0.0 else None
            got = dict(zip(HOP_FIELDS, hop_fields(gram, rsi, eta, rho, HOP_FIELDS)))
            want = _reference_fields(w, wbar if rho > 0.0 else None, eta, rho)
            for name in HOP_FIELDS:
                assert got[name].shape == (N_DRAWS,)
                np.testing.assert_allclose(
                    got[name], want[name], rtol=0.0, atol=LOGDET_ATOL,
                    err_msg=f"{name} at eta={eta}, rho={rho}",
                )


@pytest.mark.parametrize("rsi_tx", (1, 2, 3))
@pytest.mark.parametrize("tx", (1, 2, 3, 4))
@pytest.mark.parametrize("rx", (1, 2))
def test_closed_form_matches_reference(rx, tx, rsi_tx):
    _assert_kernel_matches_reference(rx, tx, rsi_tx)


# tall (tx < rx), square and wide (tx > rx) links and interferers
@pytest.mark.parametrize("rsi_tx", (1, 3, 5))
@pytest.mark.parametrize("tx", (1, 2, 3, 4, 5))
@pytest.mark.parametrize("rx", (3, 4))
def test_factor_route_matches_reference(rx, tx, rsi_tx):
    _assert_kernel_matches_reference(rx, tx, rsi_tx)


@pytest.mark.parametrize("rx, tx", ((4, 1), (3, 2)))
def test_rank_deficient_link_without_rsi_is_exact_at_high_snr(rx, tx):
    # no interference: both pairings, and so every field, equal the exact
    # log-det bit for bit, also where the formed W's null space would carry
    # round-off of about eta * eps * |W|
    hop = HopConfig(tx, rx, snr_db=100.0)
    exact, *others = sample_hop_chunk(hop, substream(SEED, 13), 2048, HOP_FIELDS)
    for name, value in zip(HOP_FIELDS[1:], others):
        assert np.array_equal(value, exact), name


@pytest.mark.parametrize(
    "snr_db, rsi_db",
    ((-100.0, 100.0), (-40.0, 100.0), (40.0, 100.0), (100.0, 100.0), (100.0, -100.0), (20.0, 8.0)),
)
@pytest.mark.parametrize("rx", (3, 4))
def test_rank_one_exact_mi_matches_lagrange_form(rx, snr_db, rsi_db):
    # one transmit and one interferer antenna, h = L and g = Lbar: Lagrange's
    # identity |h|^2 |g|^2 - |g^+ h|^2 = sum_{i<j} |h_i g_j - h_j g_i|^2 gives
    # EXACT_MI = log2(1 + eta (|h|^2 + rho X) / (1 + rho |g|^2)), X that sum,
    # with no cancellation at any power
    hop = HopConfig(1, rx, snr_db, rsi_db, 1)
    (got,) = sample_hop_chunk(hop, substream(SEED, 14), N_DRAWS, (EXACT_MI,))
    stream = substream(SEED, 14)
    h, g = (sample_gram(N_DRAWS, rx, 1, stream)[..., 0] for _ in range(2))
    i, j = np.triu_indices(rx, 1)
    cross = (np.abs(h[:, i] * g[:, j] - h[:, j] * g[:, i]) ** 2).sum(axis=-1)
    norm_h, norm_g = ((np.abs(v) ** 2).sum(axis=-1) for v in (h, g))
    want = np.log1p(hop.eta * (norm_h + hop.rho * cross) / (1.0 + hop.rho * norm_g)) / LN2
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rx", (2, 3))
def test_kernel_draws_desired_then_interference(rx):
    hop = HopConfig(
        tx_antennas=2, rx_antennas=rx, snr_db=10.0, rsi_snr_db=2.0, rsi_tx_antennas=3
    )
    got = sample_hop_chunk(hop, substream(SEED, 7), 100, HOP_FIELDS)
    stream = substream(SEED, 7)
    w = sample_gram(100, rx, 2, stream)
    wbar = sample_gram(100, rx, 3, stream)
    want = hop_fields(w, wbar, hop.eta, hop.rho, HOP_FIELDS)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_kernel_skips_interference_draw_without_rsi():
    hop = hop_at_scales(2, 2, 5.0)
    (got,) = sample_hop_chunk(hop, substream(SEED, 8), 100, (EXACT,))
    w = sample_gram(100, 2, 2, substream(SEED, 8))
    (want,) = hop_fields(w, None, hop.eta, 0.0, (EXACT,))
    assert np.array_equal(got, want)


# every subset a caller asks for (Monte Carlo and acceptance, moments,
# distribution, sandwich, log-det check), and one out of HOP_FIELDS order
CALLER_FIELDS = (
    (EXACT_MI,), (APPROX_MI,), (EXACT, MIDPOINT), (EXACT, LOWER, UPPER), (EXACT,), (APPROX_MI, EXACT),
)


@pytest.mark.parametrize("fields", CALLER_FIELDS, ids="-".join)
@pytest.mark.parametrize("rho", (0.0, 0.5), ids=("norsi", "rsi"))
@pytest.mark.parametrize("rx", (2, 3), ids=("closed-form", "factor"))
def test_kernel_returns_requested_fields_in_order(rx, rho, fields):
    # a subset computes only what it names, and each of its fields is, to
    # the bit, the same field of the call that asks for all of them
    hop = hop_at_scales(rx, rx, 5.0, rho)
    out = sample_hop_chunk(hop, substream(SEED, 9), 50, fields)
    full = dict(zip(HOP_FIELDS, sample_hop_chunk(hop, substream(SEED, 9), 50, HOP_FIELDS)))
    assert len(out) == len(fields)
    for name, value in zip(fields, out):
        assert np.array_equal(value, full[name]), name
    with pytest.raises(ValueError):
        sample_hop_chunk(hop, substream(SEED, 9), 50, ("spectrum",))


def _route_hops():
    """Every law shape at 10 dB with and without 5 dB RSI, and a 4x4 RSI hop:
    the one-row, two-row, rank-one, ``standard_gamma`` (tx = 4) and QR routes."""
    for rx, tx, rsi_tx in LAW_CASES:
        yield f"{rx}x{tx}-norsi", HopConfig(tx, rx, 10.0)
        yield f"{rx}x{tx}-rsi{rsi_tx}", HopConfig(tx, rx, 10.0, 5.0, rsi_tx)
    yield "4x4-rsi4", HopConfig(4, 4, 10.0, 5.0, 4)


# sha256 of every field of a 1000-draw chunk of each route hop, with its
# fields' bytes joined in HOP_FIELDS order; they hold on PINNED_NUMPY
ROUTE_SHA256 = {
    "1x1-norsi": "7a18e1f8ce89b4ec80009c38dea0bfe0e539e3160123d0481018a7163f181b91",
    "1x1-rsi1": "e21d7f6eafb3efa7efb0055fa908f0744eb5e2af8e6ec6038171ea368244c631",
    "2x2-norsi": "a1326aea4957da8d03883bb52cd37b7a49377299be8f6b4eda9d7a924d73c783",
    "2x2-rsi2": "f3f9a1349103474810f801fa52419eae9c7f5d1d5056895cbbef9fe532a835b4",
    "2x1-norsi": "c66dbd96425e482f142612ea5333fa788996799c57663afeb5b166ba3aa1c5a9",
    "2x1-rsi3": "b0518d7a42dc010e3fc1f7f590c4c3cea72a7eaef333d4f41ca7525915c80041",
    "2x4-norsi": "d421c07ffb8b14bba967400a67dc7f035f994aebf36aa55269030ff7f858f334",
    "2x4-rsi2": "f4381da5bbcf2baeff2b56e0e9faedd6473a22ee0e9f24e325dde466807c521e",
    "1x3-norsi": "bd8540960242fbd8d977632b008f9797fb0e57917b13314346d1d5b243b108fe",
    "1x3-rsi2": "1b789e82543f846f5bb922d128bc1f15da5d47937b59c03b8358c2f2ef8b7837",
    "3x2-norsi": "6e0267475c5e10b3a97aacf3d5f9f72d8004502cbc750738a813f93231a534c4",
    "3x2-rsi4": "90c9a9ee00371e3b9379a9019b248b39590dd439e67e8a10f5e56d3ac1022548",
    "4x4-rsi4": "1a11e672691d0aa2189ee3de9b7447f75a5e7538e21261371c0dd816547e9c7e",
}


def test_kernel_keeps_its_bytes_on_every_route():
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"bytes pinned on numpy {PINNED_NUMPY}, running {np.__version__}")
    got = {}
    for index, (name, hop) in enumerate(_route_hops()):
        fields = sample_hop_chunk(hop, substream(SEED, 15, index), 1000, HOP_FIELDS)
        got[name] = hashlib.sha256(b"".join(f.tobytes() for f in fields)).hexdigest()
    assert got == ROUTE_SHA256


def test_small_gram_degenerate_channels():
    # rank one (single transmit antenna): determinant and smaller eigenvalue
    # are exactly zero, never a negative round-off residue
    gram = sample_gram(200, 2, 1, substream(SEED, 10))
    assert np.all(gram.det == 0.0)
    _, smallest = gram.spectrum
    assert np.all(smallest == 0.0)
    # an all-zero Gram form has an all-zero spectrum, not NaN
    zeros = np.zeros(3)
    spectrum = SmallGram(rows=2, a=zeros, d=zeros, det=zeros).spectrum
    assert len(spectrum) == 2
    assert all(np.array_equal(rank, zeros) for rank in spectrum)


LAW_DRAWS = 1_000_000
# family-wise level of the law test over every field of every case (3 sigma)
LAW_ALPHA = 0.0027


def _gram_entries(h):
    """Diagonal and (0, 1) entries of ``W = H H^+`` of channels of one or two
    rows; each row's squared norm is the dot product of its real and
    imaginary parts with themselves."""
    parts = h.view(float)
    diag = np.einsum("nij,nij->ni", parts, parts)
    return diag[:, 0], diag[:, -1], np.einsum("nj,nj->n", h[:, 0], np.conj(h[:, -1]))


def _det2(p, r, q):
    """Determinant of Hermitian ``[[p, q], [q*, r]]``; a rank-one form's
    round-off is clamped at 0."""
    return np.maximum(p * r - (q.real**2 + q.imag**2), 0.0)


def _spectrum2(p, r, q):
    """Descending eigenvalues of Hermitian ``[[p, q], [q*, r]]``, the smaller
    as the determinant over the larger, so that it does not cancel."""
    top = 0.5 * (p + r) + np.hypot(0.5 * (p - r), np.abs(q))
    return top, _det2(p, r, q) / top


def _gram_entry_fields(h, h_rsi, eta, rho):
    """Every hop field, in ``HOP_FIELDS`` order, of channels of at most two
    rows, from their Gram forms' complex entries in the frame they are drawn in: det(I + rho*Wbar + eta*W)
    and det(I + rho*Wbar) in closed form, and each form's spectrum.  An
    independent route to the kernel's fields: it never reads ``W`` in the
    eigenframe of ``Wbar``, as the closed form of the kernel does."""
    (a, d, b), (abar, dbar, bbar) = _gram_entries(h), _gram_entries(h_rsi)
    if h.shape[-2] == 1:
        alpha, beta = abar[:, np.newaxis], a[:, np.newaxis]
        total, base = np.log1p(rho * abar + eta * a), np.log1p(rho * abar)
    else:
        alpha = np.stack(_spectrum2(abar, dbar, bbar), axis=-1)
        beta = np.stack(_spectrum2(a, d, b), axis=-1)
        x = (rho * abar + eta * a, rho * dbar + eta * d, rho * bbar + eta * b)
        total = np.log1p(x[0] + x[1] + _det2(*x))
        base = np.log1p(rho * (abar + dbar) + rho * rho * _det2(abar, dbar, bbar))
    lower, upper = _pairing_bounds(alpha, beta, eta, rho)
    midpoint = 0.5 * (lower + upper)
    exact, base = total / LN2, base / LN2
    fields = {
        EXACT: exact,
        LOWER: lower,
        UPPER: upper,
        MIDPOINT: midpoint,
        EXACT_MI: exact - base,
        APPROX_MI: midpoint - base,
    }
    return tuple(fields[name] for name in HOP_FIELDS)


def _channel_route_fields(hop, n, rng):
    """Every hop field of ``n`` draws of channels: by ``_gram_entry_fields``
    for at most two rows, else by ``_reference_fields`` on their formed Gram
    matrices (eigensolver and Cholesky), so no side runs the kernel."""
    chunks = []
    for stream, count in chunk_streams(n, rng):
        h = draw_channels(count, hop.rx_antennas, hop.tx_antennas, stream)
        h_rsi = draw_channels(count, hop.rx_antennas, hop.interferer_antennas, stream)
        if hop.rx_antennas <= MAX_CLOSED_FORM_RX:
            chunks.append(_gram_entry_fields(h, h_rsi, hop.eta, hop.rho))
        else:
            want = _reference_fields(dense_gram(h), dense_gram(h_rsi), hop.eta, hop.rho)
            chunks.append(tuple(want[name] for name in HOP_FIELDS))
    return tuple(np.concatenate(field) for field in zip(*chunks))


@pytest.mark.parametrize(
    "rx, tx, rsi_tx", [case for case in LAW_CASES if case[0] <= MAX_CLOSED_FORM_RX]
)
def test_gram_entry_route_matches_factor_route(rx, tx, rsi_tx):
    # the law test's channel side for rx <= 2 against the kernel's factor
    # route, on shared channels at the law test's powers
    hop = HopConfig(tx, rx, snr_db=10.0, rsi_snr_db=5.0, rsi_tx_antennas=rsi_tx)
    stream = substream(SEED, 16, rx, tx, rsi_tx)
    h, h_rsi = draw_channels(50_000, rx, tx, stream), draw_channels(50_000, rx, rsi_tx, stream)
    got = _gram_entry_fields(h, h_rsi, hop.eta, hop.rho)
    want = hop_fields(h, h_rsi, hop.eta, hop.rho, HOP_FIELDS)
    for name, g, w in zip(HOP_FIELDS, got, want):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12, err_msg=name)


MI_DRAWS = 20_000


@pytest.mark.parametrize("snr_db, rsi_db", ((-60.0, 100.0), (-100.0, 100.0), (100.0, -100.0)))
@pytest.mark.parametrize("rx, tx, rsi_tx", LAW_CASES)
def test_mutual_information_is_never_negative(rx, tx, rsi_tx, snr_db, rsi_db):
    # a link far below or far above its interference: the exact mutual
    # information is a difference of log-dets whose round-off must not
    # read below 0, and the approximated one is a sum of G >= 0 terms
    hop = HopConfig(tx, rx, snr_db, rsi_db, rsi_tx)
    exact_mi, approx_mi = sample_hop_fields(
        hop, MI_DRAWS, substream(SEED, 12), (EXACT_MI, APPROX_MI)
    )
    assert exact_mi.min() >= 0.0
    assert approx_mi.min() >= 0.0


@pytest.mark.parametrize("rx, tx, rsi_tx", LAW_CASES)
def test_bartlett_draw_has_the_channel_law(rx, tx, rsi_tx):
    # Two-sample KS distance of each field, Bartlett draw against channel
    # route, 10^6 draws a side.  Sidak over fields x cases holds the
    # family-wise false-alarm rate at LAW_ALPHA; the limit is the asymptotic
    # Kolmogorov quantile at the per-test level, over sqrt(n m / (n + m)).
    hop = HopConfig(tx, rx, snr_db=10.0, rsi_snr_db=5.0, rsi_tx_antennas=rsi_tx)
    per_test = 1.0 - (1.0 - LAW_ALPHA) ** (1.0 / (len(HOP_FIELDS) * len(LAW_CASES)))
    limit = stats.kstwobign.isf(per_test) / math.sqrt(LAW_DRAWS / 2.0)
    bartlett = sample_hop_fields(hop, LAW_DRAWS, substream(SEED, 11, 0), HOP_FIELDS)
    channels = _channel_route_fields(hop, LAW_DRAWS, substream(SEED, 11, 1))
    for name, a, b in zip(HOP_FIELDS, bartlett, channels):
        distance = _ks_distance(a, b)
        assert distance <= limit, f"{name}: KS {distance:.2e} > {limit:.2e}"


# Hops (rx, tx, interferer tx, snr_db) whose interference is as strong per
# antenna as the link, rho = eta: then rho Wbar + eta W is eta times the Gram
# form of the rx x (tx + tx_bar) channel [H Hbar], so EXACT has that
# channel's log-det law, whose mean the Laguerre route gives.  Closed-form
# route first, then the QR route.
EQUAL_POWER_HOPS = ((2, 2, 2, 10.0), (2, 1, 3, 20.0), (1, 2, 3, 0.0), (3, 3, 3, 10.0), (3, 2, 4, 20.0))
EQUAL_POWER_DRAWS = 200_000
# |z| limit of the mean tests: a family-wise false-alarm rate of 0.27 %
# (3 sigma), Sidak over both fields of every hop; about 3.642
EQUAL_POWER_Z_LIMIT = float(
    stats.norm.isf((1.0 - 0.9973 ** (1.0 / (2 * len(EQUAL_POWER_HOPS)))) / 2.0)
)
EQUAL_POWER_LAW_HOPS = tuple(c for c in EQUAL_POWER_HOPS if c[0] <= MAX_CLOSED_FORM_RX)


def _shape_id(shape):
    rx, tx, rsi_tx, snr_db = shape
    return f"{rx}x{tx}-rsi{rsi_tx}-{snr_db:g}dB"


def _equal_power_hop(rx, tx, rsi_tx, snr_db):
    """The hop of ``rho = eta`` (to a few ulp) and its ``eta``."""
    eta = 10.0 ** (snr_db / 10.0) / tx
    hop = HopConfig(tx, rx, snr_db, 10.0 * math.log10(eta * rsi_tx), rsi_tx)
    assert hop.rho == pytest.approx(eta, rel=1e-15, abs=0.0)
    return hop, eta


@pytest.mark.parametrize(
    "index, shape", enumerate(EQUAL_POWER_HOPS), ids=map(_shape_id, EQUAL_POWER_HOPS)
)
def test_exact_fields_at_equal_powers_have_the_joint_channel_mean(index, shape):
    # EXACT against E log2 det(I + eta [H Hbar][H Hbar]^+), and EXACT_MI
    # against that minus E log2 det(I + eta Hbar Hbar^+)
    rx, tx, rsi_tx, _ = shape
    hop, eta = _equal_power_hop(*shape)
    fields = sample_hop_fields(hop, EQUAL_POWER_DRAWS, substream(SEED, 13, index), (EXACT, EXACT_MI))
    joint = expected_logdet(rx, tx + rsi_tx, eta)
    for name, values, mean in zip(
        (EXACT, EXACT_MI), fields, (joint, joint - expected_logdet(rx, rsi_tx, eta))
    ):
        z = (values.mean() - mean) / (values.std(ddof=1) / math.sqrt(values.size))
        assert abs(z) <= EQUAL_POWER_Z_LIMIT, f"{name}: z = {z:.2f}"


@pytest.mark.parametrize(
    "index, shape", enumerate(EQUAL_POWER_LAW_HOPS), ids=map(_shape_id, EQUAL_POWER_LAW_HOPS)
)
def test_exact_field_at_equal_powers_has_the_joint_channel_law(index, shape):
    # Two-sample KS distance of EXACT, the RSI hop at rho = eta against the
    # RSI-free rx x (tx + tx_bar) hop at the same eta, 10^6 draws a side;
    # Sidak over the cases as in test_bartlett_draw_has_the_channel_law
    rx, tx, rsi_tx, _ = shape
    hop, eta = _equal_power_hop(*shape)
    per_test = 1.0 - (1.0 - LAW_ALPHA) ** (1.0 / len(EQUAL_POWER_LAW_HOPS))
    limit = stats.kstwobign.isf(per_test) / math.sqrt(LAW_DRAWS / 2.0)
    (rsi,) = sample_hop_fields(hop, LAW_DRAWS, substream(SEED, 14, index, 0), (EXACT,))
    (joint,) = sample_hop_fields(
        hop_at_scales(rx, tx + rsi_tx, eta), LAW_DRAWS, substream(SEED, 14, index, 1), (EXACT,)
    )
    distance = _ks_distance(rsi, joint)
    assert distance <= limit, f"KS {distance:.2e} > {limit:.2e}"


@st.composite
def hop_configs(draw):
    """Hops of up to 4 x 4 antennas with powers across +/-100 dB."""
    rx, tx = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rsi_tx = draw(st.one_of(st.none(), st.integers(1, 4)))
    powers = st.floats(-100.0, 100.0)
    rsi_db = draw(powers) if draw(st.booleans()) else None
    return HopConfig(tx, rx, draw(powers), rsi_db, rsi_tx)


@settings(max_examples=60, deadline=None)
@given(hop=hop_configs(), seed=st.integers(0, 2**32 - 1))
# an interferer with fewer antennas than rx >= 3 rows, far above the link:
# the null directions of a formed I + rho*Wbar read 1 + O(rho eps |Wbar|)
# and broke the sandwich by up to 1.7e-5 bits on these draws
@example(hop=HopConfig(1, 4, -100.0, 100.0, 1), seed=0)
@example(hop=HopConfig(1, 3, -40.0, 100.0, 1), seed=0)
@example(hop=HopConfig(3, 3, -100.0, 70.0, 2), seed=0)
def test_kernel_properties(hop, seed):
    fields = sample_hop_chunk(hop, substream(seed, 0), 256, HOP_FIELDS)
    values = dict(zip(HOP_FIELDS, fields))
    for name, value in values.items():
        assert np.all(np.isfinite(value)), name
    assert np.all(values[LOWER] <= values[EXACT] + 1e-9)
    assert np.all(values[EXACT] <= values[UPPER] + 1e-9)
    assert np.all(values[EXACT_MI] >= 0.0)
    assert np.all(values[APPROX_MI] >= 0.0)
