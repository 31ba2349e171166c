import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relay_outage.mutual_info import HopConfig
from relay_outage.outage import DuplexMode, NetworkConfig
from relay_outage.scenario import (
    _HOP_KEYS,
    _SECTIONS,
    MAX_CSV_ROWS,
    MAX_DRAWS,
    ScenarioError,
    load_preset,
    parse_scenario,
    parse_scenario_text,
    preset_names,
)

FULL_TEXT = """
# three-hop full-duplex chain
[network]
mode = fd
hops = 3

[hop]
tx_antennas = 2
rx_antennas = 2
snr_db = 20
rsi_snr_db = 8

[hop.2]
snr_db = 17.5

[rates]
start = 0
stop = 10
step = 0.5

[sampling]
moment_samples = 2000
mc_realizations = 3000
seed = 99

[output]
directory = out

[distribution]
hop = 1
bin_width = 0.2
samples = 5000
"""


def test_parse_full_scenario():
    s = parse_scenario_text(FULL_TEXT, name="demo")
    assert s.network.mode is DuplexMode.FULL_DUPLEX
    assert s.network.n_hops == 3
    assert s.network.hops[0].snr_db == 20.0
    assert s.network.hops[1].snr_db == 17.5
    # [hop] defaults stop at the terminal receiver
    assert s.network.hops[0].rsi_snr_db == 8.0
    assert s.network.hops[1].rsi_snr_db == 8.0
    assert s.network.hops[2].rsi_snr_db is None
    assert s.seed == 99
    assert s.n_moment_samples == 2000
    assert s.n_mc_realizations == 3000
    assert s.output_dir == "out"
    assert s.dist_hop == 1
    assert s.dist_bin_width == 0.2
    assert s.dist_samples == 5000
    np.testing.assert_allclose(s.rates, np.arange(0.0, 10.01, 0.5))


def test_defaults_without_optional_sections():
    s = parse_scenario_text(
        "[network]\nmode = hd\nhops = 1\n"
        "[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 20\n",
        name="bare",
    )
    assert s.seed == 12345
    assert s.n_moment_samples == 10_000
    assert s.n_mc_realizations == 10_000
    assert s.rate_step == 0.25
    assert s.rates[0] == 0.0 and s.rates[-1] == 14.0
    assert s.dist_hop is None


def test_last_hop_rsi_requires_override():
    text = (
        "[network]\nmode = fd\nhops = 2\n"
        "[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 20\nrsi_snr_db = 5\n"
        "[hop.2]\nrsi_snr_db = 3\n"
    )
    s = parse_scenario_text(text, name="override")
    assert s.network.hops[0].rsi_snr_db == 5.0
    assert s.network.hops[1].rsi_snr_db == 3.0
    # interferer defaults to the next transmitter's antenna count
    assert s.network.hops[0].rsi_tx_antennas == 2


def test_chain_sets_the_interferer_from_the_next_transmitter():
    # a 2x2 RSI hop in front of a 4-antenna transmitter: its interferer has
    # 4 antennas, whether the chain is built in code or parsed from text
    library = NetworkConfig(
        hops=(
            HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=8.0),
            HopConfig(tx_antennas=4, rx_antennas=2, snr_db=20.0),
        ),
        mode=DuplexMode.FULL_DUPLEX,
    )
    text = (
        "[network]\nmode = fd\nhops = 2\n"
        "[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 20\nrsi_snr_db = 8\n"
        "[hop.2]\ntx_antennas = 4\n"
    )
    parsed = parse_scenario_text(text, name="wide").network
    for network in (library, parsed):
        assert network.hops[0].rsi_tx_antennas == 4
        assert network.hops[0].rho == 10.0**0.8 / 4
    assert parsed == library


@st.composite
def fd_chains(draw):
    """A full-duplex chain as ``[hop.K]`` scenario text and as ``HopConfig``s,
    with and without the interferer sizes that only code may give."""
    n_hops = draw(st.integers(1, 4))
    hops, given_hops, lines = [], [], ["[network]", "mode = fd", f"hops = {n_hops}"]
    for k in range(1, n_hops + 1):
        fields = {
            "tx_antennas": draw(st.integers(1, 4)),
            "rx_antennas": draw(st.integers(1, 3)),
            "snr_db": float(draw(st.integers(-10, 40))),
        }
        given = {}
        if draw(st.booleans()):
            fields["rsi_snr_db"] = float(draw(st.integers(-10, 40)))
            if draw(st.booleans()):
                given["rsi_tx_antennas"] = draw(st.integers(1, 4))
        hops.append(HopConfig(**fields))
        given_hops.append(HopConfig(**fields, **given))
        lines.append(f"[hop.{k}]")
        lines += [f"{key} = {value}" for key, value in fields.items()]
    return tuple(hops), tuple(given_hops), "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(chain=fd_chains())
def test_scenario_text_and_library_build_the_same_chain(chain):
    hops, given_hops, text = chain
    parsed = parse_scenario_text(text, name="chain").network
    assert parsed == NetworkConfig(hops, DuplexMode.FULL_DUPLEX)
    try:
        library = NetworkConfig(given_hops, DuplexMode.FULL_DUPLEX)
    except ValueError as exc:  # a given interferer size that is not the next tx
        assert "does not match hop" in str(exc)
        assert any(
            hop.rsi_tx_antennas not in (None, chained.rsi_tx_antennas)
            for hop, chained in zip(given_hops, parsed.hops)
        )
    else:
        assert library == parsed


def test_rsi_none_clears_default():
    text = (
        "[network]\nmode = fd\nhops = 2\n"
        "[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 20\nrsi_snr_db = 5\n"
        "[hop.1]\nrsi_snr_db = none\n"
    )
    s = parse_scenario_text(text, name="cleared")
    assert s.network.hops[0].rsi_snr_db is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[network]\nmode = warp\nhops = 1\n", "unknown duplex mode"),
        ("[network]\nmode = fd\n", "missing required key 'hops'"),
        ("[nonsense]\nx = 1\n[network]\nmode = fd\nhops = 1\n", "unknown section"),
        (
            "[network]\nmode = fd\nhops = 1\nbogus = 2\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\n",
            "unknown key 'bogus'",
        ),
        (
            "[network]\nmode = fd\nhops = 1\nhops = 2\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\n",
            "duplicate key",
        ),
        ("[network]\nmode = fd\nhops = one\n", "expected an integer"),
        (
            "[network]\nmode = fd\nhops = 1\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = much\n",
            "expected a number",
        ),
        (
            "[network]\nmode = fd\nhops = 1\n"
            "[hop.4]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\n",
            "out of range",
        ),
        ("key = 1\n[network]\nmode = fd\nhops = 1\n", "outside of any"),
        ("[network\nmode = fd\nhops = 1\n", "malformed section header"),
        (
            "[network]\nmode = fd\nhops = 1\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\n"
            "[rates]\nstart = 2\nstop = 1\n",
            "must not be below",
        ),
        (
            "[network]\nmode = fd\nhops = 1\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\n"
            "[rates]\nstep = 0\n",
            "must be positive",
        ),
        (
            "[network]\nmode = hd\nhops = 2\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\nrsi_snr_db = 3\n",
            "half-duplex",
        ),
        (
            "[network]\nmode = fd\nhops = 1\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\n"
            "[distribution]\nhop = 2\n",
            "out of range",
        ),
        # a hop index is a plain positive integer: an override under another
        # spelling of it would be dropped, or shadowed by [hop.1]
        (
            "[network]\nmode = fd\nhops = 2\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 20\n"
            "[hop.01]\nsnr_db = -30\nrsi_snr_db = 40\n",
            r"<scenario>:8: bad hop section \[hop.01\]",
        ),
        (
            "[network]\nmode = fd\nhops = 2\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 20\n"
            "[hop.1]\nsnr_db = 10\n[hop.01]\nsnr_db = -30\n",
            r"<scenario>:10: bad hop section \[hop.01\]",
        ),
        # a value is parsed even where it applies to no hop
        (
            "[network]\nmode = fd\nhops = 1\n"
            "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\nrsi_snr_db = banana\n",
            "<scenario>:8: hop.rsi_snr_db: expected a number",
        ),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario_text(text, name="bad")


@settings(max_examples=40, deadline=None)
@given(
    index=st.sampled_from(["1", "2", "01", "001", "+1", "\uff11", "1.0", "0", " 1", "1_0"]),
    snr_db=st.integers(-10, 40),
)
def test_hop_index_spellings_are_applied_or_refused(index, snr_db):
    # an override is never silently dropped: it shows in the chain, or its
    # section header is reported at its line
    text = (
        "[network]\nmode = fd\nhops = 2\n"
        "[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 50\n"
        f"[hop.{index}]\nsnr_db = {snr_db}\n"
    )
    try:
        hops = parse_scenario_text(text, name="index", source="index.scenario").network.hops
    except ScenarioError as exc:
        assert str(exc).startswith("index.scenario:8: ")
    else:
        assert hops[int(index) - 1].snr_db == snr_db


def test_hop_values_are_parsed_once(monkeypatch):
    # a [hop] value is parsed at its line, not again for each hop it serves
    calls = []
    parse, default = _HOP_KEYS["snr_db"]

    def counting(text, field):
        calls.append(field)
        return parse(text, field)

    monkeypatch.setitem(_HOP_KEYS, "snr_db", (counting, default))
    scenario = parse_scenario_text(FULL_TEXT, name="counted")
    assert [hop.snr_db for hop in scenario.network.hops] == [20.0, 17.5, 20.0]
    assert calls == ["hop.snr_db", "hop.2.snr_db"]


def test_each_distinct_hop_is_built_once(monkeypatch):
    # 10^4 hops of two distinct configurations, the [hop] relays and the
    # interference-free terminal hop: the scenario builds each once, and the
    # chain sets each one's interferer size once
    init, calls = HopConfig.__post_init__, []

    def counted(hop):
        calls.append(hop)
        init(hop)

    monkeypatch.setattr(HopConfig, "__post_init__", counted)
    text = (
        "[network]\nmode = fd\nhops = 10000\n"
        "[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 20\nrsi_snr_db = 5\n"
    )
    hops = parse_scenario_text(text, name="long").network.hops
    assert len(calls) == 4
    assert len(hops) == 10_000 and len({id(hop) for hop in hops}) == 2
    assert hops[0].rsi_tx_antennas == 2 and hops[-1].rsi_snr_db is None


def test_chain_keeps_each_hops_own_values():
    # equal hops that print differently are each kept: the chain builds
    # once per hop object, not once per equal configuration
    hops = (
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20, rsi_snr_db=5.0),
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=5.0),
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=-0.0),
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=0.0),
    )
    network = NetworkConfig(hops, DuplexMode.FULL_DUPLEX)
    assert network.hops[0] == network.hops[1]
    assert [repr(hop.snr_db) for hop in network.hops] == ["20", "20.0", "-0.0", "0.0"]


@pytest.mark.parametrize(
    "extra,line,fragment",
    (
        ("rsi_snr_db = 5000\n", 4, "hop 1: powers must lie in"),
        ("[hop.2]\nsnr_db = 4000\n", 8, "hop 2: powers must lie in"),
    ),
)
def test_hop_rules_name_the_hop_section_line(extra, line, fragment):
    # finite dB values past HopConfig's power range break its rule
    text = (
        "[network]\nmode = fd\nhops = 2\n"
        "[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 20\n" + extra
    )
    with pytest.raises(ScenarioError, match=fragment) as err:
        parse_scenario_text(text, name="loud", source="loud.scenario")
    assert str(err.value).startswith(f"loud.scenario:{line}: ")


def test_rate_grid_point_cap():
    base = (
        "[network]\nmode = fd\nhops = 1\n"
        "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\n"
        "[rates]\nstart = 0\nstep = {step}\nstop = {stop}\n"
    )
    at_cap = parse_scenario_text(base.format(step=1, stop=MAX_CSV_ROWS - 1), name="cap")
    assert at_cap.rates.size == MAX_CSV_ROWS
    for step, stop in ((1, MAX_CSV_ROWS), (1e-9, 14), (1e-320, 14)):
        with pytest.raises(ScenarioError, match=f"more than {MAX_CSV_ROWS} points"):
            parse_scenario_text(base.format(step=step, stop=stop), name="fine")


def test_rate_grid_that_collapses_in_floating_point_names_its_line():
    # at 1e17 the spacing of doubles is 16, so steps of 1 repeat points
    text = (
        "[network]\nmode = fd\nhops = 1\n"
        "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\n"
        "[rates]\nstart = 1e17\nstop = 1.00000000000001e17\nstep = 1\n"
    )
    with pytest.raises(ScenarioError, match="strictly ascending") as err:
        parse_scenario_text(text, name="flat", source="flat.scenario")
    assert str(err.value).startswith("flat.scenario:8: rates: ")


@pytest.mark.parametrize(
    "section,key",
    (("sampling", "moment_samples"), ("sampling", "mc_realizations"), ("distribution", "samples")),
)
def test_draw_counts_are_capped(section, key):
    # one cap on every draw count, reported at the key's line; it admits
    # the largest benchmark run (10^6 draws)
    assert MAX_DRAWS >= 10**6
    base = (
        "[network]\nmode = fd\nhops = 1\n"
        "[hop]\ntx_antennas = 1\nrx_antennas = 1\nsnr_db = 0\n"
        f"[{section}]\n{key} = {{count}}\n"
    )
    parse_scenario_text(base.format(count=MAX_DRAWS), name="cap")
    with pytest.raises(ScenarioError, match=f"must be <= {MAX_DRAWS}") as err:
        parse_scenario_text(base.format(count=MAX_DRAWS + 1), name="cap", source="cap.scenario")
    assert str(err.value).startswith("cap.scenario:9: ")


def test_errors_carry_line_numbers():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("[network]\nmode = fd\nhops = nope\n", name="x", source="x.scenario")
    assert "x.scenario:3" in str(err.value)


def _render(sections):
    """Scenario text from {section: {key: value}}, and each key's line."""
    lines, key_lines = [], {}
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
            key_lines[section, key] = len(lines)
    return "\n".join(lines) + "\n", key_lines


# (chain length, section, key); on a 1-hop chain the [hop] interference
# key applies to no hop, and is still parsed
SETTABLE_KEYS = [
    (n_hops, section, key)
    for n_hops in (2, 1)
    for section in (*_SECTIONS, "hop", f"hop.{n_hops}")
    for key in _SECTIONS.get(section, _HOP_KEYS)
]


@pytest.mark.parametrize(
    "n_hops,section,key",
    SETTABLE_KEYS,
    ids=[f"{s}.{k}" if n == 2 else f"{n}-hop:{s}.{k}" for n, s, k in SETTABLE_KEYS],
)
def test_malformed_value_names_its_line(n_hops, section, key):
    sections = {
        "network": {"mode": "fd", "hops": str(n_hops)},
        "hop": {"tx_antennas": "2", "rx_antennas": "2", "snr_db": "20"},
        f"hop.{n_hops}": {},
        "rates": {},
        "sampling": {},
        "output": {},
        "distribution": {},
    }
    parse_scenario_text(_render(sections)[0], name="good")
    # the output directory takes any text, so only an empty one is malformed
    sections[section][key] = "" if key == "directory" else "bogus"
    text, key_lines = _render(sections)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, name="bad", source="bad.scenario")
    assert str(err.value).startswith(f"bad.scenario:{key_lines[section, key]}: ")


@pytest.mark.parametrize(
    "mode,hop_extra,fragment",
    (
        ("hd", "rsi_snr_db = 3\n", "half-duplex hops cannot carry self-interference"),
    ),
)
def test_chain_errors_name_the_network_line(mode, hop_extra, fragment):
    text = (
        f"# chain rules are checked on the whole network\n\n[network]\nmode = {mode}\n"
        "hops = 2\n[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 20\n" + hop_extra
    )
    with pytest.raises(ScenarioError, match=fragment) as err:
        parse_scenario_text(text, name="chain", source="chain.scenario")
    assert str(err.value).startswith("chain.scenario:3: ")


@pytest.mark.parametrize(
    "hop_extra, line",
    (
        ("rsi_snr_db = 3\nrsi_tx_antennas = 2\n", 11),
        ("[hop.2]\nrsi_snr_db = 3\nrsi_tx_antennas = 2\n", 12),
        ("rsi_tx_antennas = 7\n", 10),
    ),
    ids=("hop", "hop.2", "hop-without-rsi"),
)
def test_interferer_size_key_is_unknown_at_its_line(hop_extra, line):
    # the chain alone sets an interferer's size, so the file has no key for
    # it, not even one that gives the size the chain would set
    text = (
        "# chain rules are checked on the whole network\n\n[network]\nmode = fd\n"
        "hops = 2\n[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 20\n" + hop_extra
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, name="chain", source="chain.scenario")
    assert str(err.value).startswith(f"chain.scenario:{line}: unknown key 'rsi_tx_antennas'")


def test_parse_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        parse_scenario(tmp_path / "absent.scenario")


def test_parse_scenario_that_is_not_utf8_names_its_file(tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_bytes(b"\xff[network]\nmode = fd\n")
    with pytest.raises(ScenarioError, match="cannot read scenario") as err:
        parse_scenario(path)
    assert str(err.value).startswith(f"{path}: cannot read scenario: 'utf-8' codec")


def test_parse_scenario_roundtrip(tmp_path):
    path = tmp_path / "demo.scenario"
    path.write_text(FULL_TEXT, encoding="utf-8")
    s = parse_scenario(path)
    assert s.name == "demo"
    assert s.network.n_hops == 3


def test_preset_inventory():
    names = preset_names()
    for required in (
        "fig3-fd-norsi",
        "fig3-fd-rsi12",
        "fig3-fd-rsi5",
        "fig3-fd-rsi35",
        "fig3-hd",
        "dist-snr10-rsineg10",
        "dist-snr10-rsi0",
        "dist-snr20-rsi0",
        "dist-snr30-rsi15",
    ):
        assert required in names
    for name in names:
        load_preset(name)  # every shipped preset parses


def test_unknown_preset():
    with pytest.raises(ScenarioError, match="unknown preset"):
        load_preset("fig3-missing")


def test_fig3_presets_match_reference_setup():
    for name in ("fig3-fd-norsi", "fig3-fd-rsi12", "fig3-fd-rsi5", "fig3-hd"):
        s = load_preset(name)
        assert s.network.n_hops == 3
        for hop in s.network.hops:
            assert hop.tx_antennas == 2 and hop.rx_antennas == 2
            assert hop.snr_db == 20.0
    assert load_preset("fig3-hd").network.mode is DuplexMode.HALF_DUPLEX
    # attenuation presets: interference level relative to the 20 dB link
    rsi5 = load_preset("fig3-fd-rsi5")
    assert rsi5.network.hops[0].rsi_snr_db == 15.0
    assert rsi5.network.hops[2].rsi_snr_db is None
    assert load_preset("fig3-fd-rsi12").network.hops[0].rsi_snr_db == 8.0
    assert load_preset("fig3-fd-rsi35").network.hops[0].rsi_snr_db == -15.0


def test_distribution_presets_span_power_grid():
    expected = {
        "dist-snr10-rsineg10": (5.0, 0.05),
        "dist-snr10-rsi0": (5.0, 0.5),
        "dist-snr20-rsi0": (50.0, 0.5),
        "dist-snr30-rsi15": (500.0, 10 ** 1.5 / 2.0),
    }
    for name, (eta, rho) in expected.items():
        s = load_preset(name)
        hop = s.network.hops[s.dist_hop - 1]
        assert hop.eta == pytest.approx(eta)
        assert hop.rho == pytest.approx(rho)
        assert s.dist_samples == 100_000
