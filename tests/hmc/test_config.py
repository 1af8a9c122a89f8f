"""Tests for the HMC configuration."""

import pytest

from repro.hmc.config import HMCConfig


def test_defaults_match_table4():
    config = HMCConfig()
    assert config.num_vaults == 32
    assert config.banks_per_vault == 16
    assert config.capacity_gb == 8.0
    assert config.external_bandwidth_gbs == 320.0
    assert config.internal_bandwidth_gbs == 512.0
    assert config.pes_per_vault == 16
    assert config.pe_frequency_mhz == 312.5


def test_derived_frequency_hz():
    assert HMCConfig().pe_frequency_hz == pytest.approx(312.5e6)


def test_vault_and_bank_bandwidth():
    config = HMCConfig()
    assert config.vault_bandwidth_bytes == pytest.approx(512e9 / 32)
    assert config.bank_bandwidth_bytes == pytest.approx(512e9 / 32 / 16)


def test_capacity_and_per_vault_bytes():
    config = HMCConfig()
    assert config.capacity_bytes == 8 * (1 << 30)
    assert config.bytes_per_vault == config.capacity_bytes // 32


def test_total_pes():
    assert HMCConfig().total_pes == 512


def test_with_pe_frequency():
    config = HMCConfig().with_pe_frequency(937.5)
    assert config.pe_frequency_mhz == 937.5
    assert HMCConfig().pe_frequency_mhz == 312.5


def test_with_pes_per_vault():
    config = HMCConfig().with_pes_per_vault(8)
    assert config.pes_per_vault == 8
    assert config.total_pes == 256


def test_invalid_frequency_rejected():
    with pytest.raises(ValueError):
        HMCConfig().with_pe_frequency(0)
    with pytest.raises(ValueError):
        HMCConfig(pe_frequency_mhz=-1)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        HMCConfig(num_vaults=0)
    with pytest.raises(ValueError):
        HMCConfig(max_block_bytes=8)


def test_invalid_bandwidth_rejected():
    with pytest.raises(ValueError):
        HMCConfig(internal_bandwidth_gbs=0)


@pytest.mark.parametrize(
    "field", ["capacity_gb", "external_bandwidth_gbs", "internal_bandwidth_gbs", "pe_frequency_mhz"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_rejected(field, value):
    # NaN passes every ``<= 0`` check, so finiteness is checked on its own.
    with pytest.raises(ValueError, match=field):
        HMCConfig(**{field: value})
    if field == "pe_frequency_mhz":
        with pytest.raises(ValueError, match=field):
            HMCConfig().with_pe_frequency(value)
